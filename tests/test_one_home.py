"""Each decision of the package has one home.

Every CSV table of the package is read by settings.read_csv and written by
settings.write_csv, every JSON file is read by settings.read_json and written
by settings.write_json, and all work handed to worker processes goes through
settings.forked. activity.csv also has a block reader and a block writer in
dataset, and neither imports csv: the reader splits rows with np.loadtxt, and
the writer assembles rows from cells that settings.csv_cells quotes, joined
and ended as settings says the dialect joins and ends them. So only
settings.py may import csv or json. A module that needs either calls settings
instead. Work runs in parallel in one way, worker processes that settings
forks itself, so only settings.py calls os.fork, and no module imports
concurrent, multiprocessing or threading. No module imports
hashlib either: the model file's layout fingerprint is a literal, so no
command loads OpenSSL for it.

The width each counter column of a course is stored in, uint8 or uint16 (or
float64), is decided in dataset alone, so only dataset.py names uint8 or
uint16; every other module reads what it is given.

The week calendar (week_date) belongs to the course, the course model
(fit_course_model) to the solver, and the paradigm names (PARADIGMS) to the
numpy-free settings; the experiment harness, paradigms, imports all three.

Normalization belongs to features: normalize fits stats of a kind and
apply_norm applies stats by their own kind. So only features.py defines a
function named for a normalization kind or compares a NormStats kind; every
other module passes stats to apply_norm, whatever their kind.
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


def test_no_module_imports_a_process_pool():
    for pool in ("concurrent", "multiprocessing"):
        assert importers(pool) == [], pool


def test_no_module_imports_threading():
    assert importers("threading") == []


def test_no_module_imports_hashlib():
    assert importers("hashlib") == []


def test_only_settings_forks():
    forking = [p.name for p in PACKAGE
               if re.search(r"\bfork\s*\(", p.read_text(encoding="utf-8"))]
    assert forking == ["settings.py"]


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


NORM_KINDS = ("zscore", "percentile")


def _names_a_kind(node):
    """node is a kind literal, or a tuple, list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_kind(e) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value in NORM_KINDS


def _is_stats_kind(node):
    """node reads the kind of something named for stats or a norm: stats.kind, model.norm.kind."""
    if not (isinstance(node, ast.Attribute) and node.attr == "kind"):
        return False
    base = node.value
    name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
    return re.search(r"stats|norm", name) is not None


def kind_specific_code(path):
    """(line, what) of each function named for a normalization kind and each
    comparison of a NormStats kind in path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and any(k in node.name for k in NORM_KINDS):
            yield node.lineno, f"def {node.name}"
        elif isinstance(node, ast.Compare) and any(
                _names_a_kind(op) or _is_stats_kind(op) for op in (node.left, *node.comparators)):
            yield node.lineno, "a comparison of a normalization kind"


def test_only_features_handles_normalization_kinds():
    found = {p.name: code for p in PACKAGE if (code := list(kind_specific_code(p)))}
    assert list(found) == ["features.py"], found
