"""Discrete information-theoretic primitives.

All quantities are in bits (base-2 logarithms) and follow the convention
0*log2(0) = 0. Probability containers validate on construction and
renormalise exactly, so downstream arithmetic may assume unit mass up to
machine precision. Everything here is a pure function on immutable values
and safe to call from concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import DomainError, UsageError, ValidationError

__all__ = [
    "PROB_TOL",
    "Pmf",
    "JointPmf",
    "binary_entropy",
    "inv_binary_entropy",
    "star",
    "mutual_information",
    "conditional_mutual_information",
]

# Mass-budget tolerance accepted by every validating constructor. Inputs that
# drift by more than this (e.g. a corrupted file) are rejected; anything
# closer is renormalised exactly.
PROB_TOL = 1e-9

Axes = Union[int, str, Iterable[Union[int, str]]]


def _log2(t: np.ndarray) -> np.ndarray:
    """log2 of t with empty cells read as 1e-300."""
    out = np.maximum(t, 1e-300)
    return np.log2(out, out=out)


# _log2 of an empty cell
_LOG_ZERO = float(np.log2(1e-300))


def _neg_xlogx(t: np.ndarray, axes: tuple[int, ...] | None) -> np.ndarray:
    """-sum of t log2 t over ``axes`` (all for None); 0 log2 0 is 0 exactly."""
    products = _log2(t)
    products *= t
    return -products.sum(axis=axes)


def _conditional(name: str, table, ndim: int) -> np.ndarray:
    """Validate a conditional pmf table with ``ndim`` axes.

    Every slice along the last axis must be a pmf: finite entries, none below
    -``PROB_TOL``, summing to 1 within ``PROB_TOL``. Errors name the first bad
    slice by its leading indices, as ``name[i][j]``. Returns the table
    renormalised exactly and frozen. A pmf is the one-slice case, ``ndim=1``.
    """
    arr = np.asarray(table, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name}: expected {ndim} axes, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    negative = arr < -PROB_TOL
    if negative.any():
        at = "".join(f"[{i}]" for i in np.argwhere(negative)[0][:-1])
        raise ValidationError(f"{name}{at}: negative entry")
    arr = np.clip(arr, 0.0, None)
    sums = arr.sum(axis=-1)
    off = np.abs(sums - 1.0) > PROB_TOL
    if off.any():
        at = tuple(np.argwhere(off)[0])
        raise ValidationError(
            f"{name}{''.join(f'[{i}]' for i in at)}: conditional slice sums to {sums[at]}"
        )
    arr = arr / sums[..., None]
    arr.flags.writeable = False
    return arr


def _elements(name: str, x, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """``x`` as floats (a numpy scalar when 0-d), or ``DomainError`` naming
    ``name`` and its first element outside [lo, hi], NaN included."""
    x = np.asarray(x, dtype=float)
    good = (x >= lo) & (x <= hi)
    if not good.all():
        raise DomainError(f"{name}, got {x[~good][0]}")
    return x[()]


def _out(x) -> float | np.ndarray:
    """A float for a scalar result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def binary_entropy(p: float | np.ndarray) -> float | np.ndarray:
    """h2(p) = -p*log2(p) - (1-p)*log2(1-p), elementwise.

    Returns values in [0, 1]; rejects arguments outside [0, 1].
    """
    p = _elements("binary_entropy: p must be in [0, 1]", p)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log2(0) is set to 0
        h = -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))
    return _out(np.where((p == 0.0) | (p == 1.0), 0.0, h))


def inv_binary_entropy(q: float | np.ndarray) -> float | np.ndarray:
    """Inverse of ``binary_entropy`` restricted to [0, 0.5], elementwise.

    Negative arguments return 0 by convention; arguments above 1, and NaN,
    are rejected. Computed by bisection (h2 is strictly increasing on [0, 0.5])
    to absolute tolerance 1e-12. The bracket [lo, lo + width] stays dyadic,
    so every midpoint is exact and each element takes exactly 39 halvings,
    the first k with width 0.5 * 2^-k <= 1e-12.
    """
    q = _elements("inv_binary_entropy: q must be <= 1", q, -np.inf)
    lo, width = np.zeros_like(q)[()], 0.5
    for _ in range(39):
        width *= 0.5
        mid = lo + width
        # binary_entropy(mid) inline, negated: mid stays in (0, 0.5)
        lo = lo + width * (mid * np.log2(mid) + (1.0 - mid) * np.log2(1.0 - mid) > -q)
    return _out(np.where(q <= 0.0, 0.0, np.where(q == 1.0, 0.5, lo + 0.5 * width)))


def star(a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
    """Binary convolution a(1-b) + (1-a)b, elementwise.

    The crossover probability of two cascaded binary symmetric channels;
    commutative, with identity 0 and absorbing element 0.5.
    """
    a = _elements("star: a must be in [0, 1]", a)
    b = _elements("star: b must be in [0, 1]", b)
    return _out(a * (1.0 - b) + (1.0 - a) * b)


@dataclass(frozen=True, eq=False)
class Pmf:
    """A validated finite probability vector.

    Entries must lie in [0, 1] and sum to 1 within ``PROB_TOL``; the stored
    vector is renormalised exactly and frozen.
    """

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _conditional("Pmf", self.probs, 1))

    def __len__(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True, eq=False)
class JointPmf:
    """A joint probability table over named axes.

    Labels default to ``axis0``, ``axis1``, ... and must be unique.
    """

    table: np.ndarray
    axis_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=float)
        if arr.ndim < 1:
            raise ValidationError("JointPmf: table must have at least one axis")
        # a joint pmf is a one-slice conditional table
        arr = _conditional("JointPmf", arr.ravel(), 1).reshape(arr.shape)
        if self.axis_labels is None:
            labels = tuple(f"axis{i}" for i in range(arr.ndim))
        else:
            labels = tuple(str(x) for x in self.axis_labels)
        if len(labels) != arr.ndim:
            raise ValidationError(
                f"JointPmf: {len(labels)} labels for {arr.ndim} axes"
            )
        if len(set(labels)) != len(labels):
            raise ValidationError(f"JointPmf: duplicate axis labels {labels}")
        object.__setattr__(self, "table", arr)
        object.__setattr__(self, "axis_labels", labels)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.table.shape

    def _axis_index(self, axis: int | str) -> int:
        if isinstance(axis, str):
            try:
                return self.axis_labels.index(axis)
            except ValueError:
                raise UsageError(
                    f"unknown axis {axis!r}; have {self.axis_labels}"
                ) from None
        i = int(axis)
        if not 0 <= i < self.table.ndim:
            raise UsageError(f"axis index {i} out of range for {self.table.ndim} axes")
        return i

    def _resolve(self, axes: Axes) -> tuple[int, ...]:
        if isinstance(axes, (int, str)):
            axes = (axes,)
        idx = tuple(self._axis_index(a) for a in axes)
        if len(set(idx)) != len(idx):
            raise UsageError(f"repeated axis in {axes!r}")
        return idx

    def entropy(self, axes: Axes | None = None) -> float:
        """Joint entropy (bits) of the given axes; all axes when omitted."""
        keep = range(self.table.ndim) if axes is None else self._resolve(axes)
        drop = tuple(i for i in range(self.table.ndim) if i not in keep)
        return float(_neg_xlogx(self.table.sum(axis=drop), None))


def mutual_information(j: JointPmf, axes_a: Axes, axes_b: Axes) -> float:
    """I(A; B) = H(A) + H(B) - H(A, B) over two disjoint axis sets (C empty)."""
    return conditional_mutual_information(j, axes_a, axes_b, None)


def conditional_mutual_information(
    j: JointPmf, axes_a: Axes, axes_b: Axes, axes_c: Axes
) -> float:
    """I(A; B | C) = H(A,C) + H(B,C) - H(A,B,C) - H(C) over disjoint sets."""
    a = j._resolve(axes_a)
    b = j._resolve(axes_b)
    c = j._resolve(axes_c) if axes_c is not None else ()
    if (set(a) & set(b)) or (set(a) & set(c)) or (set(b) & set(c)):
        raise UsageError(
            f"axis sets overlap: {axes_a!r}, {axes_b!r}, {axes_c!r}"
        )
    val = j.entropy(a + c) + j.entropy(b + c) - j.entropy(a + b + c) - (
        j.entropy(c) if c else 0.0
    )
    return 0.0 if -1e-12 < val < 0.0 else val

