"""No module under src/pericat, and no test module, imports a name that it
never uses."""

import ast
from pathlib import Path

import pericat

SRC = Path(pericat.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads; a
    name listed in `__all__` counts as read (a re-export)."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "from a import b, c\nimport d.e\n__all__ = ['c']\nd.f()\n"
    assert unused_imports(source) == [(1, "b")]


def test_no_unused_imports():
    found = {
        str(path): unused
        for path in sorted(SRC.rglob("*.py")) + sorted(TESTS.glob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
