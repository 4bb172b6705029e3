"""Counting and timing wrappers around each layer's public functions.

The wrappers live in the benchmark, not in the library.  ``Tracer.install``
replaces every binding of a wrapped function in every loaded ``extropy``
module, so names bound with ``from ... import`` (``integrate`` in measures,
analysis and distributions; ``evaluate`` in analysis, characterize and cli;
``curve`` as ``eval_curve`` in cli) are traced too.  ``uninstall`` restores
every binding.

Spans (id, parent id, op id, name, start, end) are kept in memory and written
out by ``write_spans``.  A span's self time is its duration minus the time
covered by its child spans.  Scalar distribution methods and integrand
evaluations are counted, not timed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

#: (module, function names) whose calls are timed spans; None = every public
#: function defined in that module
TIMED = {
    "extropy.quadrature": ("integrate",),
    "extropy.orderstats": ("kth_order_sf",),
    "extropy.measures": ("evaluate", "curve"),
    "extropy.analysis": None,
    "extropy.characterize": None,
    "extropy.estimators": None,
    "extropy.cli": ("run",),
}
#: scalar distribution functionals that are counted
COUNTED_METHODS = ("sf", "cdf", "pdf", "quantile")
#: counts also broken down by op label
PER_OP_COUNTS = ("quadrature.neval", "orderstats.kth_order_sf.calls", "distributions.calls")
#: spans kept in memory; later spans are still aggregated
MAX_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)  # outermost spans of a name
        self.self_time: dict[str, float] = defaultdict(float)
        self.layer_inclusive: dict[str, float] = defaultdict(float)  # outermost spans of a layer
        self.layer_self: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self.per_op: dict[str, dict[str, int]] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._layer_depth: dict[str, int] = defaultdict(int)
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn: Callable, on_result=None, on_error=None) -> Callable:
        layer = name.split(".", 1)[0]
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tr._next_id
            tr._next_id += 1
            stack = tr._stack
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            tr._depth[name] += 1
            tr._layer_depth[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                tr._depth[name] -= 1
                tr._layer_depth[layer] -= 1
                if parent is not None:
                    parent[1] += dur
                tr.counts[name + ".calls"] += 1
                self_dur = dur - frame[1]
                tr.self_time[name] += self_dur
                tr.layer_self[layer] += self_dur
                if tr._depth[name] == 0:
                    tr.inclusive[name] += dur
                if tr._layer_depth[layer] == 0:
                    tr.layer_inclusive[layer] += dur
                if len(tr.spans) < MAX_SPANS:
                    tr.spans.append((sid, parent[0] if parent else 0, tr.op_id, name, t0, t1))
                else:
                    tr.dropped += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def run_op(self, label: str, fn: Callable[[], Any]) -> Any:
        """Run one benchmark op as a root span; tally its counts by op label."""
        self.op_id += 1
        before = {k: self.counts[k] for k in PER_OP_COUNTS}
        try:
            return self.span("op." + label, fn)()
        finally:
            tally = self.per_op.setdefault(label, defaultdict(int))
            tally["ops"] += 1
            for k in PER_OP_COUNTS:
                tally[k] += self.counts[k] - before[k]

    # -- installation ------------------------------------------------------

    def _rebind(self, original: Any, replacement: Any) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "extropy" or mod_name.startswith("extropy.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import extropy.distributions as dist_mod
        import scipy.integrate
        from extropy.analysis import CheckReport
        from extropy.errors import DegenerateHead, DegenerateTail

        counts = self.counts

        # quadrature: integrand evaluations, and scalar quad calls per integrate
        original_quad = scipy.integrate.quad

        def counted_quad(*args, **kwargs):
            counts["quadrature.quad_calls"] += 1
            return original_quad(*args, **kwargs)

        self._patches.append((scipy.integrate, "quad", original_quad))
        scipy.integrate.quad = counted_quad
        self._rebind(original_quad, counted_quad)

        for mod_name, names in TIMED.items():
            mod = importlib.import_module(mod_name)
            if names is None:
                names = tuple(
                    n
                    for n, f in vars(mod).items()
                    if inspect.isfunction(f) and f.__module__ == mod_name and not n.startswith("_")
                )
            layer = mod_name.split(".", 1)[1]
            for fn_name in names:
                original = getattr(mod, fn_name)
                name = f"{layer}.{fn_name}"
                if name == "quadrature.integrate":
                    wrapped = self._integrate_wrapper(original)
                elif name == "measures.evaluate":

                    def on_result(mv):
                        if mv.method == "closed-form":
                            counts["measures.closed_form"] += 1

                    def on_error(exc):
                        if isinstance(exc, (DegenerateTail, DegenerateHead)):
                            counts["measures.degenerate"] += 1

                    wrapped = self.span(name, original, on_result, on_error)
                elif layer == "analysis":

                    def on_result(res):
                        if isinstance(res, CheckReport):
                            counts["analysis.reports"] += 1
                            if res.verdict == "Inconclusive":
                                counts["analysis.inconclusive"] += 1

                    wrapped = self.span(name, original, on_result)
                else:
                    wrapped = self.span(name, original)
                self._rebind(original, wrapped)

        # distributions: count scalar functional calls on every family class
        for cls in vars(dist_mod).values():
            if not (inspect.isclass(cls) and issubclass(cls, dist_mod.Distribution)):
                continue
            if cls.__module__ != dist_mod.__name__:
                continue
            for meth in COUNTED_METHODS:
                if meth in vars(cls):
                    original = vars(cls)[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._counted_method(original, meth == "quantile"))

    def _counted_method(self, fn: Callable, is_quantile: bool) -> Callable:
        counts = self.counts

        if is_quantile:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts["distributions.calls"] += 1
                counts["distributions.quantile_calls"] += 1
                return fn(*args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts["distributions.calls"] += 1
                return fn(*args, **kwargs)

        return wrapper

    def _integrate_wrapper(self, integrate: Callable) -> Callable:
        counts = self.counts
        timed = self.span("quadrature.integrate", integrate)

        @functools.wraps(integrate)
        def wrapper(f, *args, **kwargs):
            def integrand(x):
                counts["quadrature.neval"] += 1
                return f(x)

            before = counts["quadrature.quad_calls"]
            try:
                return timed(integrand, *args, **kwargs)
            finally:
                if counts["quadrature.quad_calls"] - before > 1:
                    counts["quadrature.retries"] += 1

        return wrapper

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Counters and times so far, as one flat dict."""
        snap: dict[str, float] = dict(self.counts)
        for name, sec in self.inclusive.items():
            snap[name + ".s"] = sec
        for name, sec in self.self_time.items():
            snap[name + ".self_s"] = sec
        for layer, sec in self.layer_inclusive.items():
            snap[layer + ".s"] = sec
        for layer, sec in self.layer_self.items():
            snap[layer + ".self_s"] = sec
        return snap

    def write_spans(self, path: Path, meta: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta or {}, "spans_dropped": self.dropped}) + "\n")
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, op, name, t0, t1]) + "\n")
