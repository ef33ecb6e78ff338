"""Every name a module of the package imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import chromac

PACKAGE = Path(chromac.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a module that it never loads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport re\nfrom a.b import c, d as e\nre.x(e)\n") == \
        ["os", "c"]


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports names to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert found == {p.name: [] for p in modules}
