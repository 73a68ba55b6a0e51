"""Spans around the public functions of dysonlab, installed from outside.

``instrument`` replaces every public function and public method of each
dysonlab module with a wrapper that records one span per call: name, start,
end and the index of the enclosing span.  Nothing in the package changes on
disk; the wrappers live only in the traced process.  Spans stay in memory
and ``Tracer.dump`` writes them, with a call count per name, when the run
ends.

Names are ``<module>.<function>`` or ``<module>.<Class>.<method>``.  A few
boundaries also record a size (kernel entries returned, draws, points,
series order, SDE rows), so per-unit costs are measured where the work
happens.  ``numpy.linalg.eigvalsh`` gets a span of its own, because the
log-gas sampler's eigensolve is a layer the package does not name.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import Counter


def _series_order(args, kwargs, out):
    return int(args[2] if len(args) > 2 else kwargs["k"])


SIZES = {
    "kernels.Kernel.eval": lambda a, kw, out: int(out.size),
    "sampler.sample_log_gas_batch": lambda a, kw, out: int(out.shape[0]),
    "sampler.sample_log_gas": lambda a, kw, out: 1,
    "sampler.DppSampler.sample": lambda a, kw, out: int(out.points.shape[0]),
    "statistics.SeriesEvaluator.term": _series_order,
    "dynamics.PairDriftTable.drift": lambda a, kw, out: int(out.shape[0]),
    "dynamics.conditioned_pair_initials": lambda a, kw, out: int(out.shape[0]),
}


class Tracer:
    """In-memory span list: [name, start, end, parent index, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if size is not None:
                rec[4] = size(args, kwargs, out)
            return out
        return traced

    def dump(self, path) -> None:
        spans = [[n, s - self.origin, e - self.origin, p, z]
                 for n, s, e, p, z in self.spans]
        counts = Counter(s[0] for s in self.spans)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "size"],
                       "counts": dict(sorted(counts.items())), "spans": spans}, fh)


def _wrap_class(tracer: Tracer, prefix: str, cls) -> None:
    for attr, val in list(vars(cls).items()):
        # a hand-written __init__ is a table build; dataclass ones are not
        if attr.startswith("_") and not (attr == "__init__"
                                         and not dataclasses.is_dataclass(cls)):
            continue
        name = f"{prefix}.{cls.__name__}.{attr}"
        if isinstance(val, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, val.__func__)))
        elif isinstance(val, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, val.__func__)))
        elif inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(name, val))


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every dysonlab module."""
    import numpy.linalg

    import dysonlab
    wrapped = {}
    for info in pkgutil.iter_modules(dysonlab.__path__):
        mod = importlib.import_module(f"dysonlab.{info.name}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{info.name}.{name}", obj)
            elif inspect.isclass(obj):
                _wrap_class(tracer, info.name, obj)
    # `from .x import f` binds f in the importing module too; rebind every copy
    for modname, mod in list(sys.modules.items()):
        if modname == "dysonlab" or modname.startswith("dysonlab."):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
    numpy.linalg.eigvalsh = tracer.wrap("numpy.linalg.eigvalsh", numpy.linalg.eigvalsh)
