"""Per-layer tracing from outside the program.

The layers are twistdual's modules.  `Tracer.install` wraps each public
function in every module namespace that binds it (for example
`solve_left_rational` is bound in `lattice` and, by import, in `rootdata`),
patches classes through `__init__`, and keeps a span stack so that a
layer's self time is its spans' time minus the time of the wrapped calls
they made.  Only calls made while `active` is set are traced: the worker
sets it around each timed op, so input generation, untimed preparation and
output checks stay out of the counts.  Untraced runs never import this
module.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict
from functools import cached_property
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

LAYERS = ("lattice", "rootdata", "qform", "dualgroup", "characters", "cli")

# vector helpers called millions of times; their cost stays with the caller
_SKIP = {"dot", "vec_add", "vec_sub", "vec_scale", "common_denominator"}

# (module, class, method, metric name)
_METHODS = (
    ("rootdata", "RootDatum", "__init__", "rootdata.RootDatum"),
    ("qform", "QForm", "__init__", "qform.QForm"),
    ("rootdata", "RootDatum", "weight_leq", "rootdata.weight_leq"),
    ("lattice", "IntMatrix", "is_unimodular", "lattice.is_unimodular"),
)

# argument keys for the distinct-per-call ratios
_KEYS = {
    "characters.irreducible_character": lambda rd, highest, *a, **k: (rd, tuple(highest)),
    "dualgroup.twisted_dual": lambda rd, q, mode="full": (rd, q.g0, q.g1, mode),
    "qform.kernel": lambda q, mode="full": (q.rd, q.g0, q.g1, mode),
}

class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.keys = defaultdict(set)
        self.counts = defaultdict(int)
        self.stack = []            # per open span: seconds spent in child spans
        self.iso_depth = 0
        self.active = False

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        self.stack.append(0.0)
        return time.perf_counter()

    def _leave(self, name, layer, t0):
        dt = time.perf_counter() - t0
        child = self.stack.pop()
        self.calls[name] += 1
        self.seconds[name] += dt
        self.self_seconds[layer] += dt - child
        if self.stack:
            self.stack[-1] += dt

    def span(self, name, fn):
        """Wrap fn so that each call is a span named `name`; the layer is
        the first component of the name."""
        layer = name.split(".")[0]
        keyfn = _KEYS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if keyfn is not None:
                tracer.keys[name].add(keyfn(*args, **kwargs))
            if name == "lattice.solve_integer" and tracer.iso_depth:
                tracer.counts["dualgroup.isomorphic.systems"] += 1
            elif name == "lattice.is_unimodular" and tracer.iso_depth:
                tracer.counts["dualgroup.isomorphic.candidates"] += 1
            is_iso = name == "dualgroup.isomorphic"
            tracer.iso_depth += is_iso
            t0 = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(name, layer, t0)
                tracer.iso_depth -= is_iso
            if is_iso and out.status == "undecided":
                tracer.counts["dualgroup.isomorphic.undecided"] += 1
            elif name == "rootdata.weyl_closure":
                tracer.counts["rootdata.weyl_elements"] += len(out.elements)
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, extra=()):
        """Install the wrappers.  `extra` are the caller's own modules that
        bind program functions by name, so that their calls are traced too."""
        mods = {layer: importlib.import_module(f"twistdual.{layer}") for layer in LAYERS}
        namespaces = [*mods.values(), importlib.import_module("twistdual"), *extra]
        wrapped = {}
        for layer, mod in mods.items():
            if layer == "cli":
                continue   # the CLI is one span, around each invocation
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and attr not in _SKIP and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.span(f"{layer}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    setattr(ns, attr, wrapped[id(obj)])
        for layer, cls_name, meth, name in _METHODS:
            cls = getattr(mods[layer], cls_name)
            setattr(cls, meth, self.span(name, getattr(cls, meth)))
        # the Weyl closure, a cached property, counts the elements it enumerates
        rd_cls = mods["rootdata"].RootDatum
        closure = cached_property(self.span("rootdata.weyl_closure", rd_cls._weyl.func))
        closure.__set_name__(rd_cls, "_weyl")
        rd_cls._weyl = closure
        sub = mods["lattice"].Sublattice
        from_rows = sub.from_rows.__func__
        sub.from_rows = classmethod(self.span("lattice.hermite", from_rows))
        return self

    # -- report ------------------------------------------------------------------

    def metrics(self, factor):
        """Every per-layer metric; times are rescaled by `factor` to the
        reference speed, like the end-to-end times."""
        out = {}
        for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            base, _, field = name.rpartition(".")
            if field == "calls":
                value = self.calls[base]
            elif field == "ms":
                value = self.seconds[base] * 1000 * factor
            elif field == "self_ms":
                value = self.self_seconds[base] * 1000 * factor
            elif field == "distinct_per_call":
                value = len(self.keys[base]) / self.calls[base] if self.calls[base] else 0.0
            else:
                value = self.counts[name]
            out[name] = {"value": value, "unit": unit}
        return out
