"""The CSV form and the forked-worker mechanism each have one home: settings.py.

Every CSV table of the package is read by settings.read_csv and written by
settings.write_csv, and all work handed to worker processes goes through
settings.forked. So only settings.py may import csv (the np.loadtxt block
reader of activity.csv imports no csv), and only settings.py may name
ProcessPoolExecutor. A module that needs either calls settings instead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dropoutlab").glob("*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_settings_imports_csv():
    importers = [p.name for p in PACKAGE
                 if any(m.split(".")[0] == "csv" for m in imported_modules(p))]
    assert importers == ["settings.py"]


def test_only_settings_names_the_process_pool():
    naming = [p.name for p in PACKAGE
              if re.search(r"\bProcessPoolExecutor\b", p.read_text(encoding="utf-8"))]
    assert naming == ["settings.py"]
