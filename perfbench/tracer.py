"""Per-layer tracing of the bkcdf modules from outside the package.

The tracer wraps each module's public entry points (and the few private
names other modules import) with a span that records its name, start,
end and parent.  Spans are folded as they close into a call graph keyed
by (parent, name) holding call count, inclusive time and self time, so
memory stays bounded however many calls a command makes.  Work counts
(kernel evaluations, estimator pairs, CDF points, ...) are taken at the
same boundaries by small hooks.

A wrapper replaces the function where it is defined *and* wherever
another bkcdf module has bound the same object by name (``from .x import
y``), so calls through either binding are seen.  An entry point that no
longer exists is reported in ``absent`` instead of raising, so the
benchmark keeps working when the package is refactored.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli",
    "simulation",
    "analysis",
    "estimator",
    "boundary",
    "kernels",
    "distributions",
    "quadrature",
)


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _count(key, size):
    """Hook adding size(args, kwargs) to counter key on entry into the layer."""

    def hook(tracer, outer, args, kwargs):
        if outer:
            tracer.counts[key] += size(args, kwargs)

    return hook


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Positions count the bound instance of a method as argument 0.
_DENSITY_EVALS = _count("kernels.evals", lambda a, k: np.size(_arg(a, k, 1, "t")))
_KERNEL_EVALS = _count("kernels.evals", lambda a, k: np.size(_arg(a, k, 1, "u")))
_PARTIAL_EVALS = _count("kernels.evals", lambda a, k: np.size(_arg(a, k, 2, "alpha")))
_BOUNDARY_EVALS = _count(
    "boundary.evals",
    lambda a, k: np.broadcast(
        np.asarray(_arg(a, k, 1, "u")), np.asarray(_arg(a, k, 2, "alpha"))
    ).size,
)
_CDF_POINTS = _count("distributions.cdf_points", lambda a, k: np.size(_arg(a, k, 1, "x")))
_SAMPLE_DRAWS = _count("distributions.sample_draws", lambda a, k: int(_arg(a, k, 2, "n")))


def _pairs(data_index, data_name, x_index, x_name):
    return _count(
        "estimator.pairs",
        lambda a, k: np.size(_arg(a, k, data_index, data_name))
        * np.size(_arg(a, k, x_index, x_name)),
    )


def _every_call(key):
    def hook(tracer, outer, args, kwargs):
        tracer.counts[key] += 1

    return hook


def _replicate_mark(tracer, outer, args, kwargs):
    tracer.marks.append(("replicate", _clock()))


# (layer, module, qualified name, entry hook or None)
ENTRY_POINTS = [
    ("cli", "cli", "main", None),
    ("simulation", "simulation", "run_ise", None),
    ("simulation", "simulation", "summarize", None),
    ("simulation", "simulation", "resolve_bandwidth", None),
    ("analysis", "analysis", "exact_bias", None),
    ("analysis", "analysis", "exact_variance", None),
    ("analysis", "analysis", "exact_mse_curve", None),
    ("analysis", "analysis", "asymptotic_pointwise", None),
    ("analysis", "analysis", "mise_terms", None),
    ("analysis", "analysis", "pointwise_error", None),
    ("analysis", "analysis", "exact_mise", None),
    ("analysis", "analysis", "exact_integrated_variance", None),
    ("estimator", "estimator", "classical_cdf", _pairs(0, "values", 3, "x")),
    ("estimator", "estimator", "_evaluate", _pairs(0, "data", 2, "xs")),
    ("estimator", "estimator", "boundary_cdf", _pairs(0, "values", 2, "x")),
    ("estimator", "estimator", "evaluate_grid", _pairs(0, "values", 2, "grid")),
    ("estimator", "estimator", "is_proper", None),
    ("boundary", "boundary", "BoundaryKernelFamily.support", None),
    ("boundary", "boundary", "BoundaryKernelFamily.left_density", _BOUNDARY_EVALS),
    ("boundary", "boundary", "BoundaryKernelFamily.left_antiderivative", _BOUNDARY_EVALS),
    ("boundary", "boundary", "BoundaryKernelFamily.right_density", _BOUNDARY_EVALS),
    ("boundary", "boundary", "BoundaryKernelFamily.right_antiderivative", _BOUNDARY_EVALS),
    ("boundary", "boundary", "BoundaryKernelFamily.moment", None),
    ("boundary", "boundary", "BoundaryKernelFamily.mu_bias_coeff", None),
    ("boundary", "boundary", "BoundaryKernelFamily.m1", None),
    ("boundary", "boundary", "BoundaryKernelFamily.nu_var_coeff", None),
    ("boundary", "boundary", "BoundaryKernelFamily.check_conditions", None),
    ("kernels", "kernels", "BaseKernel.density", _DENSITY_EVALS),
    ("kernels", "kernels", "BaseKernel.antiderivative", _KERNEL_EVALS),
    ("kernels", "kernels", "BaseKernel.partial_moment", _PARTIAL_EVALS),
    ("kernels", "kernels", "BaseKernel.second_moment", None),
    ("kernels", "kernels", "BaseKernel.r_constant", None),
    ("kernels", "kernels", "BaseKernel.delta", None),
    ("distributions", "distributions", "replicate_rng", _replicate_mark),
    ("distributions", "distributions", "solve_params", None),
    ("quadrature", "quadrature", "integrate", _every_call("quadrature.integrate_calls")),
    ("quadrature", "quadrature", "find_root", _every_call("quadrature.find_root_calls")),
]
for _cls in ("Uniform", "BetaMixture", "Reflected"):
    ENTRY_POINTS += [
        ("distributions", "distributions", f"{_cls}.cdf", _CDF_POINTS),
        ("distributions", "distributions", f"{_cls}.pdf", None),
        ("distributions", "distributions", f"{_cls}.d2", None),
        ("distributions", "distributions", f"{_cls}.roughness", None),
        ("distributions", "distributions", f"{_cls}.sample", _SAMPLE_DRAWS),
    ]

class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [layer, name, start, child time]
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, incl, self
        self.counts = defaultdict(float)
        self.marks = []
        self.peak_alloc = 0
        self.absent = []

    # -- wrapping ---------------------------------------------------------

    def install(self, package: str = "bkcdf") -> None:
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for layer, module, qualname, hook in ENTRY_POINTS:
            make = functools.partial(self._span, layer, f"{module}.{qualname}", hook)
            self._patch(modules, package, module, qualname, make)
        # private quadrature helpers, wrapped for counts only: a span per
        # panel would cost more than the panel
        for name, make in (("_panel", self._count_panel), ("_evaluate", self._count_evaluate)):
            self._patch(modules, package, "quadrature", name, make)

    def _patch(self, modules, package, module, qualname, make) -> None:
        owner = sys.modules.get(f"{package}.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            self.absent.append(f"{module}.{qualname}")
            return
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        wrapped = make(fn)
        setattr(owner, attr, kind(wrapped) if kind else wrapped)
        if path:
            return  # methods are looked up on the class at call time
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)

    def _span(self, layer, name, hook, fn):
        tracer = self
        measure_alloc = layer == "estimator"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            outer = parent is None or parent[0] != layer
            if hook is not None:
                try:
                    hook(tracer, outer, args, kwargs)
                except (IndexError, KeyError, TypeError, ValueError):
                    # the signature changed: run uncounted, and say so
                    if name + " (uncounted)" not in tracer.absent:
                        tracer.absent.append(name + " (uncounted)")
            alloc = measure_alloc and outer and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            frame = [layer, name, _clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                if alloc:
                    tracer.peak_alloc = max(tracer.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                incl = end - frame[2]
                edge = tracer.edges[(parent[1] if parent else None, name)]
                edge[0] += 1
                edge[1] += incl
                edge[2] += incl - frame[3]
                if parent is not None:
                    parent[3] += incl
                if name == "simulation.run_ise":
                    tracer.marks.append(("end", end))

        return traced

    def _count_panel(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def panel(*args, **kwargs):
            counts["quadrature.panels"] += 1
            return fn(*args, **kwargs)

        return panel

    def _count_evaluate(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def evaluate(f, x, *args, **kwargs):
            calls = 0

            def integrand(*a, **k):
                nonlocal calls
                calls += 1
                return f(*a, **k)

            try:
                return fn(integrand, x, *args, **kwargs)
            finally:
                counts["quadrature.integrand_calls"] += calls
                # one call means the whole node array was used; more means
                # the vector attempt failed and scalar fallbacks followed
                counts["quadrature.vector_calls"] += calls == 1

        return evaluate

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time, entry calls, inclusive time and counts."""
        layer_of = {f"{m}.{q}": ly for ly, m, q, _ in ENTRY_POINTS}
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        incl = dict.fromkeys(LAYERS, 0.0)
        sample_s = 0.0
        for (parent, name), (n, t_incl, t_self) in self.edges.items():
            layer = layer_of[name]
            self_s[layer] += t_self
            if parent is None or layer_of[parent] != layer:
                calls[layer] += n
                incl[layer] += t_incl
                if name.endswith(".sample"):
                    sample_s += t_incl
        replicate_s = []
        for (kind, t), (_, t_next) in zip(self.marks, self.marks[1:]):
            if kind == "replicate":
                replicate_s.append(t_next - t)
        return {
            "self_s": self_s,
            "calls": calls,
            "incl_s": incl,
            "counts": dict(self.counts),
            "sample_s": sample_s,
            "replicate_s": replicate_s,
            "peak_alloc_bytes": self.peak_alloc,
            "absent": self.absent,
            "edges": [[p, n, *v] for (p, n), v in self.edges.items()],
        }
