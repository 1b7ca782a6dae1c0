"""Every name perfbench reads from the package exists.

perfbench/trace_child.py wraps the functions it times wherever a caller looks
them up, and counts a TRACED function the package no longer has as zero
calls, not as an error; so a renamed function would empty its per-layer
figures without failing a run.  TRACED is read from the source with ast, so
the tracer, which replaces package functions when it runs, is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"

# (module, dotted name) the tracer and perfbench's provenance read directly
READ_DIRECTLY = [
    ("closure", "run_closure"),
    ("closure", "backend_name"),
    ("closure", "_native"),
    ("report", "render_report"),
    ("report", "ScanCache.get"),
    ("report", "ScanCache.put"),
    ("poly", "Poly.pow_mod"),
    ("poly", "Poly.divmod"),
    ("cli", "dispatch"),
]


def traced():
    """The (module, function) pairs of trace_child.TRACED, read from its source."""
    tree = ast.parse(TRACE_CHILD.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError(f"no TRACED list in {TRACE_CHILD}")


def lookup(module, dotted):
    obj = importlib.import_module(f"arithgroups.{module}")
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


def test_traced_is_read_from_the_source():
    assert ("numberfield", "is_split") in traced()


@pytest.mark.parametrize("module, function", traced(), ids=lambda x: x)
def test_each_traced_function_exists(module, function):
    assert callable(lookup(module, function))


@pytest.mark.parametrize("module, name", READ_DIRECTLY, ids=lambda x: x)
def test_each_name_perfbench_reads_exists(module, name):
    value = lookup(module, name)
    assert name == "_native" or callable(value)     # _native is None while there is one engine
