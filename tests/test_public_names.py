"""Every public function and class of the package is named somewhere besides its definition.

A public name (top-level def or class without a leading underscore in
src/dropoutlab/) must appear at least twice across the package, the demos and
README.md: once where it is defined and at least once where something uses or
documents it. A name found only at its definition is surface that only tests
reach; it belongs in the tests, or under "Library use" in README.md.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dropoutlab").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]


def public_definitions():
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.name, node.name


def test_every_public_name_is_used_or_documented():
    text = "\n".join(p.read_text(encoding="utf-8") for p in READERS)
    words = re.findall(r"\w+", text)
    counts = {name: 0 for _, name in public_definitions()}
    for word in words:
        if word in counts:
            counts[word] += 1
    alone = [f"{module}:{name}" for module, name in public_definitions() if counts[name] < 2]
    assert not alone, f"named only at their definition: {alone}"
