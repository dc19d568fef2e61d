"""Every public top-level function and class of the package has a caller
outside the unit tests: in the package itself, a demo, the benchmark, or
the acceptance tests. A name that only unit tests reach is a dead export."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "verifake"
CALLERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions():
    """(module file name, name) of each public top-level def and class."""
    return [
        (path.name, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def referenced_names():
    """Names used as a name, an attribute or an import in CALLERS; string
    mentions do not count."""
    names = set()
    for path in CALLERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.update(alias.name.split("."))
    return names


def test_every_public_definition_has_a_caller():
    used = referenced_names()
    unused = [f"{module}: {name}" for module, name in public_definitions() if name not in used]
    assert not unused, f"public names that no caller references: {unused}"
