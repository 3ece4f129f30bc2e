"""Source hygiene: no module in src/pfnn or tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no expression in ``source``
    reads. A name listed in ``__all__`` is used; ``from __future__``
    imports are compiler directives, not names."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_a_name_used_only_in_a_docstring():
    source = ('"""Run with pytest."""\nfrom __future__ import annotations\n'
              "import pytest\nimport os.path\nfrom json import dumps, loads\n"
              '__all__ = ["loads"]\nos.path.join("a")\n')
    assert unused_imports(source) == [(3, "pytest"), (5, "dumps")]


def test_no_unused_imports():
    paths = sorted([*(ROOT / "src" / "pfnn").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in paths for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "imported but never used:\n" + "\n".join(found)
