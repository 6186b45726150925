"""Finitely supported real sequences on the integer lattice.

A :class:`Sequence` stores a dense window of values together with the index
of its first entry; everything outside the window is implicitly zero.  This
is the computable stand-in for square-summable sequences: operator
applications return finitely supported results and report the certified
magnitude of whatever was truncated (see ``trunc_bound``).

Sequences are immutable after construction and the window is always minimal
(exact leading/trailing zeros are trimmed), so equality of content is
equality of (offset, values).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Sequence",
    "delta",
    "inner",
    "norm",
    "semi_inner_fd",
    "axpy",
    "sup_dist",
    "format_sequence",
    "parse_sequence",
]


@dataclass(frozen=True, eq=False)
class Sequence:
    """Finitely supported sequence: ``values[i]`` sits at index ``offset + i``.

    ``trunc_bound`` is metadata attached by operator applications: a certified
    upper bound on the sup-norm discrepancy between this stored window and the
    exact (infinitely supported) result of the operation that produced it.
    It describes the producing operation only and is not propagated by the
    arithmetic helpers in this module.
    """

    offset: int
    values: np.ndarray
    trunc_bound: float = field(default=0.0, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("Sequence values must be one-dimensional")
        if vals.size and vals[0] != 0.0 and vals[-1] != 0.0:
            # nothing to trim, so skip the scan (nan is nonzero and -0.0 zero,
            # as for np.flatnonzero)
            lo, hi = 0, vals.size
        else:
            nz = np.flatnonzero(vals)
            lo, hi = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
        vals = vals[lo:hi].copy()
        vals.setflags(write=False)
        object.__setattr__(self, "offset", int(self.offset) + lo if hi else 0)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "trunc_bound", float(self.trunc_bound))

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.offset, self.values.tobytes()))

    @property
    def end(self) -> int:
        """One past the last stored index (equals offset for the zero sequence)."""
        return self.offset + self.values.size

    def at(self, n: int) -> float:
        """Value at lattice index n (zero outside the stored window)."""
        i = int(n) - self.offset
        if 0 <= i < self.values.size:
            return float(self.values[i])
        return 0.0

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Dense copy of the values on [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("window requires lo <= hi")
        out = np.zeros(hi - lo + 1)
        a = max(lo, self.offset)
        b = min(hi, self.end - 1)
        if a <= b:
            out[a - lo : b - lo + 1] = self.values[a - self.offset : b - self.offset + 1]
        return out

    def indices(self) -> np.ndarray:
        return np.arange(self.offset, self.end)


def delta(n: int) -> Sequence:
    """Kronecker delta at lattice site n."""
    return Sequence(int(n), np.ones(1))


def inner(u: Sequence, v: Sequence) -> float:
    """Standard inner product sum_n u(n) v(n).

    The sum runs over the overlap of the supports; ``np.sum`` performs
    pairwise accumulation, which keeps long windows accurate.
    """
    lo = max(u.offset, v.offset)
    hi = min(u.end, v.end)
    if hi <= lo:
        return 0.0
    prod = u.values[lo - u.offset : hi - u.offset] * v.values[lo - v.offset : hi - v.offset]
    return float(np.sum(prod))


def norm(u: Sequence) -> float:
    """The square-sum norm sqrt(sum_n u(n)^2)."""
    if u.values.size == 0:
        return 0.0
    return float(np.sqrt(np.sum(u.values * u.values)))


def axpy(a: float, u: Sequence, v: Sequence) -> Sequence:
    """a*u + v with the windows merged; exact zeros at the edges are trimmed."""
    if u.values.size == 0 and v.values.size == 0:
        return Sequence(0, np.zeros(0))
    lo = min(u.offset if len(u) else v.offset, v.offset if len(v) else u.offset)
    hi = max(u.end, v.end) - 1
    out = float(a) * u.window(lo, hi) + v.window(lo, hi)
    return Sequence(lo, out)


def sup_dist(u: Sequence, v: Sequence) -> float:
    """Sup-norm distance max_n |u(n) - v(n)| over the union of the windows."""
    if len(u) == 0 and len(v) == 0:
        return 0.0
    lo = min(u.offset if len(u) else v.offset, v.offset if len(v) else u.offset)
    hi = max(u.end, v.end) - 1
    return float(np.max(np.abs(u.window(lo, hi) - v.window(lo, hi))))


def semi_inner_fd(u: Sequence, v: Sequence, eps: float) -> float:
    """Finite-difference evaluand ((|v + eps*u| - |v|)/eps) * |v|.

    This is the difference quotient whose eps -> 0 limit recovers
    ``inner(u, v)``; the limit is only defined for nonzero v.
    """
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("semi_inner_fd requires eps > 0")
    nv = norm(v)
    if nv == 0.0:
        raise ValueError("semi_inner_fd is undefined for a zero second argument")
    return (norm(axpy(eps, u, v)) - nv) / eps * nv


# ---------------------------------------------------------------------------
# Text format: one line "offset <n>", then one value per line
# ---------------------------------------------------------------------------


def format_sequence(u: Sequence) -> str:
    """Serialize to the line-oriented text format.

    Values are written with ``repr``, i.e. shortest decimal that round-trips
    to the identical double.
    """
    lines = [f"offset {u.offset}"]
    lines.extend(repr(float(x)) for x in u.values)
    return "\n".join(lines) + "\n"


def parse_sequence(text: str) -> Sequence:
    """Parse the text format produced by :func:`format_sequence`."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("offset"):
        raise ValueError("sequence text must start with an 'offset <n>' line")
    parts = lines[0].split()
    if len(parts) != 2:
        raise ValueError(f"malformed offset line: {lines[0]!r}")
    try:
        offset = int(parts[1])
    except ValueError as exc:
        raise ValueError(f"malformed offset line: {lines[0]!r}") from exc
    try:
        vals = np.array([float(ln) for ln in lines[1:]], dtype=float)
    except ValueError as exc:
        raise ValueError(f"malformed value line in sequence text: {exc}") from exc
    return Sequence(offset, vals)
