"""Span tracer that wraps fraclat's public functions from outside the package.

``Tracer.install()`` replaces each traced function in every ``fraclat``
module namespace that holds it, so calls from one module into another are
seen as well; ``uninstall()`` puts the originals back.  Every call records a
span (name, start, end, parent).  Spans stay in memory until ``summary()``
folds them into per-layer calls and self times, where self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module of fraclat, attribute); the span is named "<module>.<attribute>"
TRACED = (
    ("special", "log_gamma"),
    ("special", "log_gamma_ratio"),
    ("special", "bessel_i_scaled_row"),
    ("kernel", "kernel_row"),
    ("kernel", "build_table"),
    ("kernel", "kernel_value"),
    ("operators", "apply_fractional"),
    ("operators", "fftconvolve"),  # scipy's, as seen through fraclat.operators
    ("operators", "apply_quadrature_oracle"),
    ("operators", "heat_semigroup"),
    ("localization", "sample_disorder"),
    ("localization", "orbit_basis"),
    ("localization", "apply_hamiltonian"),
    ("localization", "monte_carlo"),
    ("localization", "evolve"),
    ("cli", "main"),
)

# Branch thresholds of special.bessel_i_scaled_row, as its docstrings state them
BESSEL_SERIES_MAX_X = 30.0
BESSEL_ASYMPTOTIC_MIN_X = 1e4


def bessel_branch(x: float, kmax: int) -> str | None:
    """The branch ``bessel_i_scaled_row(x, kmax)`` takes (None for x = 0)."""
    if x == 0.0:
        return None
    if x <= BESSEL_SERIES_MAX_X:
        return "series"
    if x >= BESSEL_ASYMPTOTIC_MIN_X and x >= 5.0 * (kmax + 1) ** 2:
        return "asymptotic"
    return "recurrence"


# counters taken from a traced call's arguments and result; arguments are
# looked up by position, then by keyword, as the public signatures give them
def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_bessel(counts, name, args, kwargs, result):
    branch = bessel_branch(float(_arg(args, kwargs, 0, "x")), int(_arg(args, kwargs, 1, "kmax")))
    if branch:
        counts[f"{name}.{branch}_calls"] += 1


def _count_kernel_row(counts, name, args, kwargs, result):
    counts[f"{name}.elements"] += int(_arg(args, kwargs, 1, "radius")) + 1


def _count_convolution(counts, name, args, kwargs, result):
    counts[f"{name}.elements"] += result.size


def _count_disorder(counts, name, args, kwargs, result):
    counts[f"{name}.sites"] += 2 * int(_arg(args, kwargs, 2, "window_radius")) + 1


def _count_orbit(counts, name, args, kwargs, result):
    counts[f"{name}.requested_depth"] += int(_arg(args, kwargs, 1, "depth"))
    counts[f"{name}.returned_depth"] += len(result)


def _count_evolve(counts, name, args, kwargs, result):
    t_end, dt = float(_arg(args, kwargs, 2, "t_end")), float(_arg(args, kwargs, 3, "dt"))
    if t_end > 0.0:  # evolve's documented step rule
        counts[f"{name}.steps"] += max(1, round(t_end / dt))


_HOOKS = {
    "special.bessel_i_scaled_row": _count_bessel,
    "kernel.kernel_row": _count_kernel_row,
    "operators.fftconvolve": _count_convolution,
    "localization.sample_disorder": _count_disorder,
    "localization.orbit_basis": _count_orbit,
    "localization.evolve": _count_evolve,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook:
                hook(counts, name, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if key == "fraclat" or key.startswith("fraclat.")
        ]  # fmt: skip
        for module, attr in TRACED:
            original = getattr(sys.modules[f"fraclat.{module}"], attr)
            wrapper = self._wrap(f"{module}.{attr}", original)
            for namespace in namespaces:
                if vars(namespace).get(attr) is original:
                    self._patch(namespace, attr, wrapper)

        sequence = sys.modules["fraclat.lattice"].Sequence
        post_init = sequence.__post_init__
        counts = self.counts

        def counted_post_init(seq):
            post_init(seq)
            counts["lattice.sequence.created"] += 1
            counts["lattice.sequence.bytes"] += seq.values.nbytes

        self._patch(sequence, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self seconds and counters of the spans recorded."""
        # spans of one thread nest, so the children of a span never overlap
        # and their durations add up to the time they cover
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: defaultdict[str, float] = defaultdict(int)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child
        out.update(self.counts)
        requested = out.pop("localization.orbit_basis.requested_depth", 0)
        returned = out.pop("localization.orbit_basis.returned_depth", 0)
        if requested:
            out["localization.orbit_basis.depth_ratio"] = returned / requested
        return dict(out)
