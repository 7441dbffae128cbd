"""Each decision of the package has one home.

Every CSV table of the package is read by settings.read_csv and written by
settings.write_csv, every JSON file is read by settings.read_json and written
by settings.write_json, and all work handed to worker processes goes through
settings.forked. So only settings.py may import csv (the np.loadtxt block
reader of activity.csv imports no csv) or json, and only settings.py may name
ProcessPoolExecutor. A module that needs any of them calls settings instead.

The width each counter column of a course is stored in, uint8 or uint16 (or
float64), is decided in dataset alone, so only dataset.py names uint8 or
uint16; every other module reads what it is given.

The week calendar (week_date) belongs to the course, the course model
(fit_course_model) to the solver, and the paradigm names (PARADIGMS) to the
numpy-free settings; the experiment harness, paradigms, imports all three.
"""

import ast
import re
from pathlib import Path

import pytest

from dropoutlab import dataset, linear, paradigms, settings

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dropoutlab").glob("*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def importers(module):
    return [p.name for p in PACKAGE
            if any(m.split(".")[0] == module for m in imported_modules(p))]


def test_only_settings_imports_csv():
    assert importers("csv") == ["settings.py"]


def test_only_settings_imports_json():
    assert importers("json") == ["settings.py"]


def test_only_settings_names_the_process_pool():
    naming = [p.name for p in PACKAGE
              if re.search(r"\bProcessPoolExecutor\b", p.read_text(encoding="utf-8"))]
    assert naming == ["settings.py"]


def test_only_dataset_names_uint16():
    for width in ("uint8", "uint16"):
        naming = [p.name for p in PACKAGE
                  if re.search(rf"\b{width}\b", p.read_text(encoding="utf-8"))]
        assert naming == ["dataset.py"], width


def defined_names(path):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


@pytest.mark.parametrize("name,home", [
    ("week_date", dataset), ("fit_course_model", linear), ("PARADIGMS", settings),
])
def test_each_moved_name_is_defined_once_and_reached_from_paradigms(name, home):
    defining = [p.name for p in PACKAGE if name in defined_names(p)]
    assert defining == [Path(home.__file__).name]
    assert getattr(paradigms, name) is getattr(home, name)
