"""Out-of-tree span tracer for mfsde.

`Tracer.installed()` wraps, from outside the package, every public function
and every public method (properties excluded) of the layer modules.  Each
wrapper is installed where the name is defined and in every mfsde module
that imported it, so calls between modules are traced too.  A wrapper
records one span: name, layer (the defining module), start, end, parent
span and pass id.  Time spent in private helpers (`_kernels`,
`_euler_core`, ...) is charged to the public caller.

The coefficient callables of every `CoefficientSet` a models function
returns are wrapped as aggregated counters instead of spans: a jump
ensemble makes about a million coefficient calls per pass.  Their time is
charged to the `models` layer and taken out of the enclosing span's self
time.

Spans stay in memory; `write_spans` writes them out once the run is over.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("noise", "fractional", "norms", "solver", "models", "analysis",
          "config", "cli")
COEFFICIENT_FIELDS = ("a", "b", "c", "dc_dx", "q", "jump_gain")
SUITES = ("simulate_ensemble", "estimate_moments", "tail_diagnostic",
          "verify_pathwise_lemma", "verify_kernel_estimates",
          "verify_self_similarity", "verify_jump_product_moment")
# Per-function self-time breakdowns: a layer's self time inside a call of
# one of these functions (nested helpers of the same layer included).
ENTRY_POINTS = {
    "analysis": frozenset(SUITES),
    "norms": frozenset(("norm_inf", "norm_0_interval")),
}


def _node(f, t):
    """Index of the grid node at time t of a SamplePath or GridFunction."""
    if hasattr(f, "grid"):
        t0, h = 0.0, f.grid.dt
    else:
        t0, h = f.left, f.h
    return int(round((t - t0) / h))


class _Frame:
    __slots__ = ("index", "layer", "entry", "start", "children")

    def __init__(self, index, layer, entry, start):
        self.index = index
        self.layer = layer
        self.entry = entry
        self.start = start
        self.children = 0.0


class _CoefficientTotals:
    __slots__ = ("calls", "elements", "seconds")

    def __init__(self):
        self.calls = 0
        self.elements = 0
        self.seconds = 0.0


class Tracer:
    """Span recorder plus the per-pass counters the per-layer metrics need."""

    def __init__(self, package):
        self.package = package
        self.coefficient_set = package.solver.CoefficientSet
        self.blowup_error = package.errors.BlowUpError
        self.spans = []          # (name, layer, start, end, parent, pass_id)
        self.stack = []
        self._signatures = {}
        self._hooks = {
            "solver.solve_with_jumps": self._count_solve_with_jumps,
            "solver.solve_segment": self._count_solve_segment,
            "solver.euler_paths": self._count_euler_paths,
            "noise.gen_fbm": self._count_fbm,
            "noise.gen_jump_train": self._count_jumps,
            "noise.gen_driving_triple": self._count_triple,
            "norms.norm_t": self._count_norm_t,
            "norms.norm_profile": self._count_profile,
            "norms.weighted_norms": self._count_profile,
            "norms.norm_0_interval": self._count_interval,
            "norms.grr_functional": self._count_grr,
            "analysis.simulate_ensemble": self._count_excluded,
            "fractional.gls_integral": self._count_gls,
            "fractional.forward_sum_integral": self._count_grid_function,
            "fractional.rl_left_derivative": self._count_grid_function,
            "fractional.rl_right_derivative": self._count_grid_function,
            "fractional.integral_bound_rhs": self._count_grid_function,
        }
        self.begin_pass(0)

    # ------------------------------------------------------------------
    # per-pass accounting

    def begin_pass(self, pass_id):
        """Reset the per-pass totals; later spans carry `pass_id`."""
        self.pass_id = pass_id
        self.self_s = defaultdict(float)          # layer -> seconds
        self.entry_s = defaultdict(float)         # (layer, fn) -> seconds
        self.calls = Counter()                    # layer -> spans
        self.key_calls = Counter()                # layer.name -> spans
        self.counts = Counter()
        self.times = defaultdict(float)
        self.triple_keys = set()
        self.pass_spans = 0
        self.coefficients = _CoefficientTotals()

    def pass_counters(self):
        """Raw totals of the current pass; run.py turns them into metrics."""
        coeff = self.coefficients
        self_s = dict(self.self_s)
        self_s["models"] = self_s.get("models", 0.0) + coeff.seconds
        counts = dict(self.counts, **{"models.coeff_calls": coeff.calls,
                                      "models.coeff_elements": coeff.elements})
        return {
            "self_s": self_s,
            "entry_s": {f"{layer}.{fn}": v for (layer, fn), v in self.entry_s.items()},
            "calls": dict(self.calls),
            "key_calls": dict(self.key_calls),
            "counts": counts,
            "times": dict(self.times, **{"models.coeff_s": coeff.seconds}),
            "distinct_triples": len(self.triple_keys),
            "spans": self.pass_spans,
        }

    # ------------------------------------------------------------------
    # installation

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's public names for the duration of the block."""
        undo = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package.__name__
                                         or name.startswith(self.package.__name__ + "."))]
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, name, layer)
                    for other in modules:
                        for attr, value in list(vars(other).items()):
                            if value is obj:
                                undo.append((other, attr, value))
                                setattr(other, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer, undo)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def _wrap_methods(self, cls, layer, undo):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                new = staticmethod(self._wrap(value.__func__, name, layer))
            elif isinstance(value, classmethod):
                new = classmethod(self._wrap(value.__func__, name, layer))
            elif inspect.isfunction(value):
                new = self._wrap(value, name, layer)
            else:
                continue            # properties, constants
            undo.append((cls, attr, value))
            setattr(cls, attr, new)

    def _wrap(self, fn, name, layer):
        tracer = self
        key = f"{layer}.{name}"
        hook = self._hooks.get(key)
        entries = ENTRY_POINTS.get(layer, ())
        wraps_models = layer == "models"
        counts_blowups = layer == "solver"
        blowup = self.blowup_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if name in entries:
                entry = name
            elif parent is not None and parent.layer == layer:
                entry = parent.entry
            else:
                entry = None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = _Frame(index, layer, entry, perf_counter())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except blowup:
                if counts_blowups and (parent is None or parent.layer != "solver"):
                    tracer.counts["solver.blowups"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame.start
                own = duration - frame.children
                if parent is not None:
                    parent.children += duration
                tracer.spans[index] = (key, layer, frame.start, end,
                                       parent.index if parent else -1,
                                       tracer.pass_id)
                tracer.pass_spans += 1
                tracer.calls[layer] += 1
                tracer.key_calls[key] += 1
                tracer.self_s[layer] += own
                tracer.times[key] += own
                if entry is not None:
                    tracer.entry_s[(layer, entry)] += own
            if hook is not None or wraps_models:
                # bookkeeping time stays out of every layer (it shows up
                # in trace.unattributed_s)
                start = perf_counter()
                if hook is not None:
                    hook(fn, args, kwargs, result, parent)
                if (wraps_models and isinstance(result, tracer.coefficient_set)
                        and not getattr(result.a, "counted_by_tracer", False)):
                    result = tracer._count_coefficients(result)
                if parent is not None:
                    parent.children += perf_counter() - start
            return result

        return traced

    # ------------------------------------------------------------------
    # coefficient counters

    def _count_coefficients(self, coeffs):
        return dataclasses.replace(coeffs, **{
            field: self._counter(getattr(coeffs, field))
            for field in COEFFICIENT_FIELDS})

    def _counter(self, fn):
        tracer = self

        def counted(*args):
            start = perf_counter()
            out = fn(*args)
            elapsed = perf_counter() - start
            agg = tracer.coefficients
            agg.calls += 1
            agg.elements += getattr(out, "size", 1)
            agg.seconds += elapsed
            if tracer.stack:
                tracer.stack[-1].children += elapsed
            return out

        counted.counted_by_tracer = True
        return counted

    # ------------------------------------------------------------------
    # work counts taken from arguments and results

    def _bind(self, fn, args, kwargs):
        sig = self._signatures.get(fn)
        if sig is None:
            sig = self._signatures[fn] = inspect.signature(fn)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _count_solve_with_jumps(self, fn, args, kwargs, result, parent):
        segments = len(result.segments)
        self.counts["solver.segments"] += segments
        self.counts["solver.steps"] += len(result.times) - segments

    def _count_solve_segment(self, fn, args, kwargs, result, parent):
        self.counts["solver.segments"] += 1
        self.counts["solver.steps"] += len(result.values) - 1

    def _count_euler_paths(self, fn, args, kwargs, result, parent):
        paths = result.size // result.shape[-1]
        self.counts["solver.segments"] += paths
        self.counts["solver.steps"] += result.size - paths

    def _count_fbm(self, fn, args, kwargs, result, parent):
        self.counts["noise.fbm_nodes"] += len(result.values)

    def _count_jumps(self, fn, args, kwargs, result, parent):
        self.counts["noise.jumps"] += result.count

    def _count_triple(self, fn, args, kwargs, result, parent):
        a = self._bind(fn, args, kwargs)
        self.counts["noise.triples"] += 1
        self.triple_keys.add((a["grid"], a["hurst"], a["rate"], repr(a["marks"]),
                              a["seed"], a["dependence"]))

    def _pairs(self, count):
        self.counts["norms.node_pairs"] += count

    def _count_norm_t(self, fn, args, kwargs, result, parent):
        a = self._bind(fn, args, kwargs)
        k = _node(a["f"], a["t"])
        self._pairs(k)

    def _count_profile(self, fn, args, kwargs, result, parent):
        a = self._bind(fn, args, kwargs)
        k = _node(a["f"], a["t"])
        self._pairs(k * (k + 1) // 2)

    def _count_interval(self, fn, args, kwargs, result, parent):
        a = self._bind(fn, args, kwargs)
        m = _node(a["f"], a["t"]) - _node(a["f"], a["s"])
        self._pairs(m * (m + 1) // 2)

    def _count_grr(self, fn, args, kwargs, result, parent):
        a = self._bind(fn, args, kwargs)
        k = _node(a["f"], a["T"])
        self._pairs((k + 1) ** 2)

    def _count_excluded(self, fn, args, kwargs, result, parent):
        self.counts["analysis.excluded"] += len(result.excluded)

    # fractional work is counted at the outermost fractional call only
    def _count_gls(self, fn, args, kwargs, result, parent):
        if parent is None or parent.layer != "fractional":
            a = self._bind(fn, args, kwargs)
            self.counts["fractional.nodes"] += a["f"].cells * a["refine"] + 1

    def _count_grid_function(self, fn, args, kwargs, result, parent):
        if parent is None or parent.layer != "fractional":
            self.counts["fractional.nodes"] += len(args[0].values)

    # ------------------------------------------------------------------

    def write_spans(self, path):
        """Write every recorded span as CSV (times relative to the first)."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,layer,start_s,end_s,parent,pass\n")
            for i, (name, layer, start, end, parent, pass_id) in enumerate(self.spans):
                out.write(f"{i},{name},{layer},{start - origin:.9f},"
                          f"{end - origin:.9f},{parent},{pass_id}\n")
