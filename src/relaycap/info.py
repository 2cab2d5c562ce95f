"""Discrete information-theoretic primitives.

All quantities are in bits (base-2 logarithms) and follow the convention
0*log2(0) = 0. Probability containers validate on construction and
renormalise exactly, so downstream arithmetic may assume unit mass up to
machine precision. Everything here is a pure function on immutable values
and safe to call from concurrent workers.
"""

from __future__ import annotations

import math
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
    "entropy",
    "mutual_information",
    "conditional_mutual_information",
    "f_bound_bsc",
]

# Mass-budget tolerance accepted by every validating constructor. Inputs that
# drift by more than this (e.g. a corrupted file) are rejected; anything
# closer is renormalised exactly.
PROB_TOL = 1e-9

Axes = Union[int, str, Iterable[Union[int, str]]]


def _entropy_bits(table: np.ndarray) -> float:
    """Shannon entropy of an (unnormalised-shape, normalised-mass) array."""
    flat = np.asarray(table, dtype=float).ravel()
    # 0 * log2(max(0, tiny)) = 0 exactly, so zero cells need no masking
    return float(-np.dot(flat, np.log2(np.maximum(flat, 1e-300))))


def _as_prob_array(values, *, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValidationError(f"{name}: must contain at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    if float(arr.min()) < -PROB_TOL:
        raise ValidationError(f"{name}: negative entry {arr.min()}")
    if float(arr.max()) > 1.0 + PROB_TOL:
        raise ValidationError(f"{name}: entry {arr.max()} exceeds 1")
    return np.clip(arr, 0.0, None)


def binary_entropy(p: float) -> float:
    """h2(p) = -p*log2(p) - (1-p)*log2(1-p).

    Returns a value in [0, 1]; rejects arguments outside [0, 1].
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binary_entropy: p must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def inv_binary_entropy(q: float) -> float:
    """Inverse of ``binary_entropy`` restricted to [0, 0.5].

    Negative arguments return 0 by convention; arguments above 1 are
    rejected. Computed by bisection (h2 is strictly increasing on [0, 0.5])
    to absolute tolerance 1e-12 in at most 60 iterations.
    """
    q = float(q)
    if q > 1.0:
        raise DomainError(f"inv_binary_entropy: q must be <= 1, got {q}")
    if q <= 0.0:
        return 0.0
    if q == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def star(a: float, b: float) -> float:
    """Binary convolution a(1-b) + (1-a)b.

    The crossover probability of two cascaded binary symmetric channels;
    commutative, with identity 0 and absorbing element 0.5.
    """
    a = float(a)
    b = float(b)
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"star: a must be in [0, 1], got {a}")
    if not 0.0 <= b <= 1.0:
        raise DomainError(f"star: b must be in [0, 1], got {b}")
    return a * (1.0 - b) + (1.0 - a) * b


@dataclass(frozen=True, eq=False)
class Pmf:
    """A validated finite probability vector.

    Entries must lie in [0, 1] and sum to 1 within ``PROB_TOL``; the stored
    vector is renormalised exactly and frozen.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = _as_prob_array(self.probs, name="Pmf")
        if arr.ndim != 1:
            raise ValidationError(f"Pmf: expected a vector, got shape {arr.shape}")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"Pmf: mass {total} is not 1 within {PROB_TOL}")
        arr = arr / total
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return int(self.probs.size)

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])


@dataclass(frozen=True, eq=False)
class JointPmf:
    """A joint probability table over named axes.

    ``table`` may be given as an nd-array or, together with ``dims``, as a
    flat row-major vector. Labels default to ``axis0``, ``axis1``, ... and
    must be unique.
    """

    table: np.ndarray
    axis_labels: tuple[str, ...] | None = None
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        arr = _as_prob_array(self.table, name="JointPmf")
        if self.dims is not None:
            dims = tuple(int(d) for d in self.dims)
            if any(d < 1 for d in dims):
                raise ValidationError("JointPmf: axis sizes must be >= 1")
            if int(np.prod(dims)) != arr.size:
                raise ValidationError(
                    f"JointPmf: product of dims {dims} != table length {arr.size}"
                )
            arr = arr.reshape(dims)
        if arr.ndim < 1:
            raise ValidationError("JointPmf: table must have at least one axis")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"JointPmf: mass {total} is not 1 within {PROB_TOL}")
        arr = arr / total
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
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)
        object.__setattr__(self, "axis_labels", labels)
        object.__setattr__(self, "dims", tuple(arr.shape))

    def axis_index(self, axis: int | str) -> int:
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
        idx = tuple(self.axis_index(a) for a in axes)
        if len(set(idx)) != len(idx):
            raise UsageError(f"repeated axis in {axes!r}")
        return idx

    def marginal(self, axes: Axes) -> "JointPmf":
        """Marginal over the given axes (kept in their original order)."""
        keep = sorted(self._resolve(axes))
        drop = tuple(i for i in range(self.table.ndim) if i not in keep)
        arr = self.table.sum(axis=drop) if drop else self.table
        labels = tuple(self.axis_labels[i] for i in keep)
        return JointPmf(arr, axis_labels=labels)

    def entropy(self, axes: Axes | None = None) -> float:
        """Joint entropy (bits) of the given axes; all axes when omitted."""
        if axes is None:
            return _entropy_bits(self.table)
        keep = sorted(self._resolve(axes))
        drop = tuple(i for i in range(self.table.ndim) if i not in keep)
        arr = self.table.sum(axis=drop) if drop else self.table
        return _entropy_bits(arr)


def entropy(p: "Pmf | Iterable[float]") -> float:
    """Shannon entropy H(p) in bits; accepts a ``Pmf`` or raw probabilities."""
    if not isinstance(p, Pmf):
        p = Pmf(np.asarray(p, dtype=float))
    return _entropy_bits(p.probs)


def mutual_information(j: JointPmf, axes_a: Axes, axes_b: Axes) -> float:
    """I(A; B) = H(A) + H(B) - H(A, B) over two disjoint axis sets."""
    a = j._resolve(axes_a)
    b = j._resolve(axes_b)
    if set(a) & set(b):
        raise UsageError(f"axis sets overlap: {axes_a!r} vs {axes_b!r}")
    val = j.entropy(a) + j.entropy(b) - j.entropy(a + b)
    return 0.0 if -1e-12 < val < 0.0 else val


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


def f_bound_bsc(delta: float, s: float) -> float:
    """Binary conditional entropy bound h2(delta * h2^{-1}(s)).

    The least conditional input entropy H(X|W) over Markov chains X-Y-W with
    H(Y|W) = s, when X and Y are linked by a binary symmetric channel with
    crossover ``delta``. Nondecreasing and convex in ``s``.
    """
    delta = float(delta)
    s = float(s)
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"f_bound_bsc: delta must be in [0, 0.5], got {delta}")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"f_bound_bsc: s must be in [0, 1], got {s}")
    return binary_entropy(star(delta, inv_binary_entropy(s)))
