"""Outside-in tracing of the ``priority_steiner`` modules.

The program is not changed: :class:`Tracer` replaces every public function
of each package module, but those in ``UNTRACED``, by a recording wrapper
at every binding its callers use -- the home module, every package module
that imported it by name, the package namespace, and module-level dicts of
function references such as ``cli.PST_SOLVERS``.  Calls made through ``from .x import f`` inside a
function body read the home module at call time, so they are covered too.

Spans live in memory as ``[name, start_ns, end_ns, parent, request,
nested]`` lists and are written out once, when the run ends.  Counts that
need the call's arguments or result (vertices reached by a search, trees
enumerated by an oracle, bytes loaded) are added right after the span ends.
"""

from __future__ import annotations

import math
import os
import sys
import types
from collections import Counter
from functools import wraps
from time import perf_counter_ns

PACKAGE = "priority_steiner"


def _reached(result) -> int:
    # dist[0] is unused and always infinite, so it drops out here.
    return len(result.dist) - result.dist.count(math.inf)


# layer -> (count name, function of (args, result) giving the increment)
EXTRAS = {
    "paths.edge_rate_search": ("reached", lambda args, res: _reached(res)),
    "paths.node_rate_search": ("reached", lambda args, res: _reached(res)),
    "oracle.exact_pst": ("enumerated", lambda args, res: res.enumerated),
    "oracle.exact_pnwst": ("enumerated", lambda args, res: res.enumerated),
    "fileio.load_instance": ("bytes", lambda args, res: os.path.getsize(args[0])),
    "spiders.decompose_rate_spiders": (
        "spiders",
        lambda args, res: len(res.spiders),
    ),
}


# Left unwrapped: a two-integer helper called once per edge touched, whose
# span would cost several times its body and make up nearly all spans.
UNTRACED = {"instances.canonical_edge"}


def _package_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Span recorder for one process; install once, toggle with ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.request = 0
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patched: list[tuple[object, object, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public package function at every binding of it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for mod in _package_modules():
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and f"{short}.{name}" not in UNTRACED
                ):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for mod in _package_modules():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(vars(mod), name, obj, wrappers[id(obj)])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._patch(obj, key, val, wrappers[id(val)])

    def _patch(self, table: dict, key, original, wrapper) -> None:
        table[key] = wrapper
        self._patched.append((table, key, original))

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        tracer = self
        extra = EXTRAS.get(layer)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            span = [
                layer,
                0,
                0,
                stack[-1] if stack else -1,
                tracer.request,
                tracer._open[layer] > 0,
            ]
            stack.append(len(spans))
            spans.append(span)
            tracer._open[layer] += 1
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                tracer._open[layer] -= 1
                stack.pop()
            if extra is not None:
                tracer.counts[f"{layer}.{extra[0]}"] += extra[1](args, result)
            return result

        traced.__wrapped_layer__ = layer
        return traced

    # -- collection -------------------------------------------------------

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: calls, total seconds, self seconds.

    Total time counts only the outermost span of a layer, so a layer that
    re-enters itself is not counted twice; self time is a span's duration
    minus the durations of its direct children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _req, _nested in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _parent, _req, nested) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        if not nested:
            rec["s"] += (end - start) / 1e9
        rec["self_s"] += (end - start - child_ns[i]) / 1e9
    return out
