"""Every name a module of the package imports is used in that module, and
every private module-level name is read somewhere in the package."""

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


def _private_names(node: ast.stmt) -> list[str]:
    """Private names a module-level statement defines (not dunders)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _reads(node: ast.AST, name: str) -> bool:
    """Whether the node loads the name, bare or as an attribute."""
    return (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == name)


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no module
    reads outside their own definition, as "module:name"."""
    trees = [(module, ast.parse(source)) for module, source in sources.items()]
    dead = []
    for module, tree in trees:
        for node in tree.body:
            for name in _private_names(node):
                if not any(_reads(sub, name) for _, other in trees
                           for top in other.body if top is not node for sub in ast.walk(top)):
                    dead.append(f"{module}:{name}")
    return dead


def test_the_scan_flags_a_dead_helper():
    sources = {"a.py": "def _dead(n):\n    return _dead(n - 1)\n\n_LIMIT = 3\n"
                       "_TABLE: dict = {}\n\nclass _Used:\n    pass\n",
               "b.py": "from .a import _TABLE, _Used\n_TABLE[0] = _Used()\n"}
    assert dead_helpers(sources) == ["a.py:_dead", "a.py:_LIMIT"]


def test_every_private_module_level_name_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert dead_helpers({p.name: p.read_text() for p in modules}) == []
