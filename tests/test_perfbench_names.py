"""The benchmark's tracer finds dysonlab functions by name; a rename or a
moved function would silently zero a per-layer metric or crash a traced
run.  These tests read perfbench/ and check every name it relies on."""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import dysonlab as dl

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPAN_NAME = re.compile(r"^[a-z]\w*(\.\w+)+$")


def _layer_span_names() -> list[str]:
    """Dotted string literals of layers.py, less metric keys (m["..."] and
    f-strings)."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    keys = {id(n.slice) for n in ast.walk(tree) if isinstance(n, ast.Subscript)}
    keys |= {id(v) for n in ast.walk(tree) if isinstance(n, ast.JoinedStr)
             for v in n.values}
    return sorted({n.value for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and id(n) not in keys and SPAN_NAME.match(n.value)})


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def _size_names() -> list[str]:
    return sorted(_tracing().SIZES)


def _traced(name: str) -> bool:
    """Whether tracing.instrument wraps a span of this name."""
    if name == "numpy.linalg.eigvalsh":
        return callable(np.linalg.eigvalsh)
    module, *rest = name.split(".")
    try:
        mod = importlib.import_module(f"dysonlab.{module}")
    except ModuleNotFoundError:
        return False
    obj = vars(mod).get(rest[0])
    if obj is None or getattr(obj, "__module__", None) != mod.__name__:
        return False
    if len(rest) == 1:
        return inspect.isfunction(obj)
    attr = rest[1]
    if len(rest) != 2 or not inspect.isclass(obj) or attr not in vars(obj):
        return False
    if attr == "__init__":
        return not dataclasses.is_dataclass(obj)
    return not attr.startswith("_")


def test_perfbench_reads_some_names():
    assert "statistics.SeriesEvaluator.term" in _layer_span_names()
    assert "statistics.SeriesEvaluator.term" in _size_names()


@pytest.mark.parametrize("name", sorted(set(_layer_span_names()) | set(_size_names())))
def test_perfbench_span_name_resolves(name):
    assert _traced(name), f"perfbench reads {name!r}, which dysonlab no longer defines"


def test_series_term_takes_order_second():
    # tracing records the series order from args[2] (after self and points)
    params = list(inspect.signature(dl.SeriesEvaluator.term).parameters)
    assert params[:3] == ["self", "points", "k"]


def test_series_order_size_of_a_batched_term(zero_decomp):
    # a traced term over a batch of tuples records its order, k passed either way
    tracing = _tracing()
    tracer = tracing.Tracer()
    term = tracer.wrap("statistics.SeriesEvaluator.term", dl.SeriesEvaluator.term)
    ev = dl.SeriesEvaluator(zero_decomp, k_max=3, qmc_points=64)
    tuples = [(), (0.2,), (-0.3, 0.4)]
    for k in range(4):
        assert len(term(ev, tuples, k)[0]) == 3
        assert len(term(ev, tuples, k=k)[0]) == 3
    assert [span[4] for span in tracer.spans] == [0, 0, 1, 1, 2, 2, 3, 3]
