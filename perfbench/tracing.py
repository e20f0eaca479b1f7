"""Per-layer spans recorded from outside the library.

The benchmark times cylattice's layers (its modules) without touching the
package: :class:`Tracer` replaces selected public functions and methods with
timing wrappers while it is installed and puts the originals back when it is
removed.  A function imported by name into another module is a separate
binding, so every module namespace of the package that holds the same object
is patched (``convergence.interpolate`` as well as ``chungyao.interpolate``).

Spans (name, start, end, parent) are kept in memory; a layer's self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np
from cylattice.poly import MultiPoly

LAYERS = ("geometry", "poly", "functions", "divdiff", "chungyao", "convergence", "cli")

# (span name, module, class or None, attribute).  Methods are patched on the
# class that defines them; functions in every cylattice namespace binding them.
TARGETS = (
    ("poly.eval", "cylattice.poly", "MultiPoly", "evaluate"),
    ("poly.eval", "cylattice.poly", "MultiPoly", "evaluate_many"),
    ("poly.mul", "cylattice.poly", "MultiPoly", "__mul__"),
    ("poly.substitute", "cylattice.poly", None, "substitute"),
    ("poly.taylor", "cylattice.poly", None, "taylor"),
    ("poly.derivative_form", "cylattice.poly", None, "derivative_form"),
    ("functions.dderiv", "cylattice.functions", "PolynomialFunction", "directional_derivative"),
    ("functions.dderiv", "cylattice.functions", "_AffineComposed", "directional_derivative"),
    ("functions.dderiv", "cylattice.functions", "Product", "directional_derivative"),
    ("functions.dderiv", "cylattice.functions", "LinearCombination", "directional_derivative"),
    ("functions.dderiv", "cylattice.functions", "RestrictedOrder", "directional_derivative"),
    ("functions.eval", "cylattice.functions", "PolynomialFunction", "evaluate"),
    ("functions.eval", "cylattice.functions", "_AffineComposed", "evaluate"),
    ("functions.eval", "cylattice.functions", "Product", "evaluate"),
    ("functions.eval", "cylattice.functions", "LinearCombination", "evaluate"),
    ("functions.eval", "cylattice.functions", "RestrictedOrder", "evaluate"),
    ("divdiff.dd", "cylattice.divdiff", None, "divided_difference"),
    ("divdiff.dd_quad", "cylattice.divdiff", None, "simplex_integral"),
    ("divdiff.dd_exact", "cylattice.divdiff", None, "simplex_integral_poly"),
    ("divdiff.gm_build", "cylattice.divdiff", None, "grundmann_moller_rule"),
    ("geometry.family", "cylattice.geometry", "HyperplaneFamily", "__init__"),
    ("geometry.lattice", "cylattice.geometry", "ChungYaoLattice", "__init__"),
    ("geometry.lines", "cylattice.geometry", "ChungYaoLattice", "line_subsets"),
    ("geometry.direction", "cylattice.geometry", None, "direction_vector"),
    ("geometry.deboor", "cylattice.geometry", None, "deboor_identity_residual"),
    ("chungyao.pk", "cylattice.chungyao", None, "pk_polynomial"),
    ("chungyao.cardinal", "cylattice.chungyao", None, "cardinal_polynomial"),
    ("chungyao.interpolate", "cylattice.chungyao", None, "interpolate"),
    ("chungyao.remainder", "cylattice.chungyao", None, "deboor_remainder"),
    ("chungyao.newton", "cylattice.chungyao", None, "newton_identity"),
    ("chungyao.newton", "cylattice.chungyao", None, "newton_stage_data"),
    ("chungyao.techobserv", "cylattice.chungyao", None, "techobserv_check"),
    ("chungyao.homrep", "cylattice.chungyao", None, "homogeneous_representation"),
    ("convergence.experiment", "cylattice.convergence", None, "convergence_experiment"),
    ("convergence.bound", "cylattice.convergence", None, "bound_evaluator"),
    ("convergence.dnorm", "cylattice.convergence", None, "derivative_norm_estimate"),
    ("convergence.delta", "cylattice.convergence", None, "observed_delta"),
    ("cli.verify", "cylattice.cli", None, "run_verification"),
)

# Per-layer metrics printed by a traced run: (name, unit).  Counts and self
# times are per timed op, so runs of different length compare directly.
PER_LAYER_METRICS = (
    ("poly.eval.points", "points/op"),
    ("poly.eval.self_s", "s/op"),
    ("poly.mul.calls", "calls/op"),
    ("poly.mul.self_s", "s/op"),
    ("poly.substitute.self_s", "s/op"),
    ("poly.taylor.self_s", "s/op"),
    ("poly.derivative_form.calls", "calls/op"),
    ("divdiff.dd_quad.calls", "calls/op"),
    ("divdiff.dd_quad.self_s", "s/op"),
    ("divdiff.quad_nodes", "nodes/op"),
    ("functions.dderiv.points", "points/op"),
    ("functions.dderiv.self_s", "s/op"),
    ("divdiff.gm_build.self_s", "s"),
    ("divdiff.gm_cache.hit_ratio", "ratio"),
    ("divdiff.dd_exact.calls", "calls/op"),
    ("divdiff.dd_exact.self_s", "s/op"),
    ("geometry.family.calls", "calls/op"),
    ("geometry.family.self_s", "s/op"),
    ("geometry.lattice.self_s", "s/op"),
    ("geometry.lines.calls", "calls/op"),
    ("geometry.lines.self_s", "s/op"),
    ("geometry.direction.calls", "calls/op"),
    ("chungyao.pk.calls", "calls/op"),
    ("chungyao.pk.self_s", "s/op"),
    ("chungyao.pk.distinct_ratio", "ratio"),
    ("chungyao.cardinal.calls", "calls/op"),
    ("chungyao.interpolate.self_s", "s/op"),
    ("chungyao.remainder.self_s", "s/op"),
    ("chungyao.newton.self_s", "s/op"),
    ("chungyao.techobserv.self_s", "s/op"),
    ("convergence.bound.calls", "calls/op"),
    ("convergence.bound.self_s", "s/op"),
    ("convergence.dnorm.self_s", "s/op"),
    ("trace.overhead", "ratio"),
) + tuple((f"share.{layer}", "ratio") for layer in LAYERS + ("bench",))


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cylattice" or name.startswith("cylattice."))]


def _point_count(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    """Span recorder plus the patches that feed it.

    Use as ``with Tracer() as tracer: ...``; spans recorded while installed
    stay readable after the originals are restored.
    """

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.counters: Counter = Counter()
        self._stack: list = []         # open spans: (index, name)
        self._patches: list = []       # (owner, attribute, original)
        self._pk_keys: set = set()
        self._pk_families: list = []   # keeps ids in _pk_keys unique
        self._gm_rule = None
        self._paused = False

    # -- recording ------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append((index, name))
        return index, parent

    def _close(self, index, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block (used for benchmark ops)."""
        index, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded inside the block (benchmark checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def start_phase(self) -> int:
        """Reset counters and product-polynomial keys; return the span index."""
        self.counters.clear()
        self._pk_keys.clear()
        self._pk_families.clear()
        return len(self.spans)

    def _parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def _count(self, name, args, kwargs):
        if name == "poly.eval":
            # evaluate_many calls evaluate once per point; count the batch only.
            self.counters["poly.eval.points"] += _point_count(args[1]) if len(args) > 1 else 1
        elif name == "functions.dderiv" and self._parent_name() != "functions.dderiv":
            x = args[1] if len(args) > 1 else kwargs["x"]
            self.counters["functions.dderiv.points"] += _point_count(x)
        elif name == "chungyao.pk":
            family = args[0]
            key = (id(family), tuple(sorted(args[1] if len(args) > 1 else kwargs["k_indices"])),
                   args[2] if len(args) > 2 else kwargs.get("upto"),
                   args[3] if len(args) > 3 else kwargs.get("homogeneous", False))
            if key not in self._pk_keys:
                self._pk_keys.add(key)
                self._pk_families.append(family)

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused or (name == "poly.eval" and tracer._parent_name() == "poly.eval"):
                return fn(*args, **kwargs)
            tracer._count(name, args, kwargs)
            index, parent = tracer._open(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index, parent, name, start)

        return wrapper

    def _wrap_quadrature(self, name, fn):
        tracer = self
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            if tracer._paused or isinstance(g, MultiPoly):
                return inner(g, *args, **kwargs)

            def counted(u):
                tracer.counters["divdiff.quad_nodes"] += len(u)
                return g(u)

            return inner(counted, *args, **kwargs)

        return wrapper

    def _wrap_rule(self, name, fn):
        """Record a span only for rule builds (cache misses), not lookups."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            misses = fn.cache_info().misses
            parent = tracer._stack[-1][0] if tracer._stack else -1
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            if fn.cache_info().misses != misses:
                tracer.spans.append((name, start, end, parent))
            return result

        return wrapper

    # -- patching -------------------------------------------------------

    def install(self):
        modules = _package_modules()
        for name, module_name, class_name, attr in TARGETS:
            module = sys.modules[module_name]
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            if name == "divdiff.dd_quad":
                wrapper = self._wrap_quadrature(name, original)
            elif name == "divdiff.gm_build":
                self._gm_rule = original
                wrapper = self._wrap_rule(name, original)
            else:
                wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def gm_cache_info(self):
        return self._gm_rule.cache_info()

    # -- analysis -------------------------------------------------------

    def totals(self, since: int = 0):
        """Per span name: (calls, total seconds, self seconds) from `since` on."""
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent in spans[since:]:
            if parent >= since:
                child[parent] += end - start
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans[since:], start=since):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, total, self_s

    def pk_distinct_ratio(self, since: int = 0) -> float:
        """Distinct product-polynomial keys since start_phase() / pk calls since `since`."""
        calls = sum(1 for s in self.spans[since:] if s[0] == "chungyao.pk")
        return len(self._pk_keys) / calls if calls else 0.0


def layer_metrics(calls, self_s, counters, ops: int, op_seconds: float,
                  setup_self_s, gm_hits: int, gm_misses: int,
                  pk_distinct_ratio: float, overhead: float) -> dict:
    """Reduce traced totals to the per-layer metrics of PER_LAYER_METRICS."""
    per_op = 1.0 / ops
    values = {}
    for metric, unit in PER_LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls[base] * per_op
        elif metric == "divdiff.gm_build.self_s":
            values[metric] = setup_self_s["divdiff.gm_build"] + self_s["divdiff.gm_build"]
        elif field == "self_s":
            values[metric] = self_s[base] * per_op
        elif field == "points" or metric == "divdiff.quad_nodes":
            values[metric] = counters[metric] * per_op
    looked_up = gm_hits + gm_misses
    values["divdiff.gm_cache.hit_ratio"] = gm_hits / looked_up if looked_up else 0.0
    values["chungyao.pk.distinct_ratio"] = pk_distinct_ratio
    values["trace.overhead"] = overhead
    layer_self = defaultdict(float)
    for name, seconds in self_s.items():
        layer_self[name.partition(".")[0]] += seconds
    for layer in LAYERS + ("bench",):
        values[f"share.{layer}"] = layer_self[layer] / op_seconds if op_seconds else 0.0
    units = dict(PER_LAYER_METRICS)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER_METRICS}
