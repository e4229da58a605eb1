"""Every public function, class and public-class method of the package has a caller in the program.

A name only the tests call is API without a user: the tests then pin code
that the program never runs.  References are collected with ``ast``: names
and attribute accesses in ``src/``, plus attribute accesses and string
constants in ``perfbench/*.py``, which reaches names through ``setattr``
strings.  Definitions, imports, docstrings and comments are not references.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vlcnoma"


def _public(name):
    return not name.startswith("_")


def definitions():
    """{(module, qualified name)} of the package's public functions, classes and public-class methods."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                out.add((path.stem, node.name))
            if isinstance(node, ast.ClassDef) and _public(node.name):
                out.update((path.stem, f"{node.name}.{item.name}") for item in node.body
                           if isinstance(item, ast.FunctionDef) and _public(item.name))
    return out


def references():
    """Every name the program reads: in the package, and what the benchmark harness looks up."""
    out = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_public_name_has_a_caller_in_the_program():
    used = references()
    unused = sorted(f"{module}.{name}" for module, name in definitions() if name.rsplit(".", 1)[-1] not in used)
    assert not unused, f"public names with no reference outside the tests: {unused}"
