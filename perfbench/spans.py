"""In-memory spans around calls into the mixedres modules, and self time.

The tracer wraps the public functions of each library module from the
outside: every module-level binding of a public function (in its own
module, in the other modules that imported it, and in the package
namespace) is replaced by a wrapper that records one span per call.  A
span is ``[name, start, end, parent, pass_id, error, attrs]``; ``parent``
is the index of the enclosing span or -1.  Spans stay in memory until the
run ends.  The tracer keeps one call stack, so traced code must run on a
single thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

LAYERS = ("model", "estimator", "closed_form", "allocation", "simulate", "cli")

# O(1) scalar helpers called once per evaluated point from inside their own
# module.  A span there would cost about as much as the call, so those calls
# stay in the caller's self time; calls from other modules are still traced.
HOME_UNTRACED = {
    "closed_form": {"alpha", "beta", "mse_pure_analog", "mse_pure_quantized"},
    "allocation": {"na_range", "max_nq"},
}

NAME, START, END, PARENT, PASS, ERROR, ATTRS = range(7)


def _lmmse_size(args, kwargs, result):
    bundle = args[1] if len(args) > 1 else kwargs["bundle"]
    return {"n": int(bundle.c_x.shape[0])}


def _trace_length(args, kwargs, result):
    return {"points": len(result.trace)}


# Span attributes taken from a call's arguments or result.
ATTR_HOOKS = {
    "estimator.lmmse_from_bundle": _lmmse_size,
    "allocation.allocate": _trace_length,
    "allocation.allocate_with_dither": _trace_length,
    "allocation.allocate_exhaustive": _trace_length,
}


class Tracer:
    """Records nested spans; ``pass_id`` labels every span opened after it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = ATTR_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.pass_id, False, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                rec[ATTRS] = hook(args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        """Spans as rows, times in microseconds since the first span."""
        names: dict[str, int] = {}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            [names.setdefault(rec[NAME], len(names)), round((rec[START] - t0) * 1e6, 1),
             round((rec[END] - t0) * 1e6, 1), rec[PARENT], rec[PASS], int(rec[ERROR]), rec[ATTRS]]
            for rec in self.spans
        ]
        return {
            "fields": ["name", "start_us", "end_us", "parent", "pass_id", "error", "attrs"],
            "names": list(names),
            "spans": rows,
        }


def _public_functions(module):
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


@contextmanager
def instrumented(tracer: Tracer):
    """Route every call into a layer's public functions through ``tracer``."""
    pkg = importlib.import_module("mixedres")
    modules = {layer: importlib.import_module(f"mixedres.{layer}") for layer in LAYERS}
    home = {}
    wrappers = {}
    for layer, mod in modules.items():
        for name, fn in _public_functions(mod):
            home[fn] = (layer, name)
            wrappers[fn] = tracer.wrap(f"{layer}.{name}", fn)

    patches = []
    for ns_layer, ns in [(None, pkg)] + list(modules.items()):
        for attr, obj in list(vars(ns).items()):
            if not inspect.isfunction(obj) or obj not in wrappers:
                continue
            layer, name = home[obj]
            if layer == ns_layer and name in HOME_UNTRACED.get(layer, ()):
                continue
            patches.append((ns, attr, obj))
            setattr(ns, attr, wrappers[obj])
    mixed_model = modules["model"].MixedModel
    patches.append((mixed_model, "__init__", mixed_model.__init__))
    mixed_model.__init__ = tracer.wrap("model.MixedModel", mixed_model.__init__)
    try:
        yield tracer
    finally:
        for ns, attr, obj in reversed(patches):
            setattr(ns, attr, obj)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out
