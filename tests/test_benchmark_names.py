"""The benchmark finds every library name it looks up.

`bench/tracer.py` wraps library functions and methods by name, and
`bench/items.py` calls the public API, truncates CMFs and clears the
partition cache; a run fails when one of them is gone.  The benchmark's
own tests are not part of this suite, so these checks keep a prune of
the library from breaking `bench/run.py` unnoticed."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import chromac

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_every_traced_function_resolves():
    assert tracer.SPAN_FUNCTIONS
    for _, path, _ in tracer.SPAN_FUNCTIONS:
        module, attr = path.split(".")
        assert callable(getattr(getattr(chromac, module), attr, None)), path


def test_every_traced_method_is_defined_on_its_class():
    assert tracer.METHODS
    for name, cls, attr, _, _ in tracer.METHODS:
        assert attr in vars(cls), name


def test_the_partition_cache_the_items_clear_exists():
    assert isinstance(chromac.algebra._partition_cache, dict)


def test_every_api_name_the_items_call_resolves():
    """`bench/items.py` reaches the library as `api.<name>`, and
    truncates a CMF by its method; it is read as text, not imported."""
    tree = ast.parse((BENCH / "items.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "api"}
    assert names
    for name in sorted(names):
        assert callable(getattr(chromac, name, None)), name
    assert callable(vars(chromac.MacMahonElement).get("truncate")), "MacMahonElement.truncate"
