"""Closed-form achievable rates and bounds for the multihop example channels.

Each scheme evaluator returns a ``RatePoint`` whose ``meta`` records the
internals of the optimising choice (compression noise, branch taken, power
split). All rates are in bits per channel use and clamped at 0 from below.
Pure functions throughout; ``sweep`` assembles whole curves for plotting or
CSV export.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, UsageError, ValidationError
from .info import binary_entropy, inv_binary_entropy, star
from .models import BinaryMrcd, GaussianMrcd, ParallelBinaryMrcd, _write_json

__all__ = [
    "SCHEMES",
    "RatePoint",
    "RateCurve",
    "parallel_binary_cutset",
    "parallel_binary_df",
    "parallel_binary_cf",
    "parallel_binary_pdcf",
    "binary_cutset",
    "binary_df",
    "binary_cf",
    "binary_pdcf",
    "binary_capacity_pz_half",
    "g_alpha",
    "gaussian_cutset",
    "gaussian_df",
    "gaussian_cf",
    "gaussian_pdcf",
    "gaussian_G",
    "sweep",
]

SCHEMES = ("cutset", "df", "cf", "pdcf", "capacity")


@dataclass(frozen=True)
class RatePoint:
    """A named scheme rate at one parameter point."""

    scheme: str
    value: float
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(f"RatePoint: unknown scheme {self.scheme!r}")
        value = float(self.value)
        if not math.isfinite(value) or value < -1e-12:
            raise ValidationError(f"RatePoint: rate must be >= 0, got {value}")
        object.__setattr__(self, "value", max(0.0, value))
        object.__setattr__(self, "meta", dict(self.meta))


@functools.lru_cache(maxsize=1)
def _cf_noise(q: float) -> float:
    """``inv_binary_entropy(q)``, kept for the last q: the CF compression
    noise depends on r1 alone, so a sweep of any other field asks for the
    same one at every point."""
    return inv_binary_entropy(q)


# ---------------------------------------------------------------------------
# Parallel binary symmetric multihop channel
# ---------------------------------------------------------------------------


def parallel_binary_cutset(m: ParallelBinaryMrcd) -> RatePoint:
    """min{r1, 2(1 - h2(delta))}."""
    return RatePoint("cutset", min(m.r1, 2.0 * (1.0 - binary_entropy(m.delta))))


def parallel_binary_df(m: ParallelBinaryMrcd) -> RatePoint:
    """min{r1, 2 - h2(delta * p_z) - h2(delta)}.

    The relay decodes both links; the state acts as extra noise on the first.
    """
    inner = 2.0 - binary_entropy(star(m.delta, m.p_z)) - binary_entropy(m.delta)
    return RatePoint("df", min(m.r1, inner))


def parallel_binary_cf(m: ParallelBinaryMrcd) -> RatePoint:
    """2(1 - h2(delta * h2^{-1}(1 - r1/2))).

    Both link outputs are compressed with independent symmetric noise of
    crossover ``nu`` (recorded in meta); for r1 >= 2 the outputs fit through
    the pipe losslessly and nu = 0.
    """
    nu = 0.0 if m.r1 >= 2.0 else _cf_noise(1.0 - m.r1 / 2.0)
    value = 2.0 * (1.0 - binary_entropy(star(m.delta, nu)))
    return RatePoint("cf", value, meta={"nu": nu})


def parallel_binary_pdcf(m: ParallelBinaryMrcd) -> RatePoint:
    """min{r1, 2 - h2(delta) - h2(delta * h2^{-1}(2 - h2(delta) - r1))}.

    Decode the state-free link in full, compress the state-corrupted one with
    the leftover pipe budget. The compression crossover ``q`` is recorded in
    meta; an argument above 1 would demand more smoothing than a fair coin,
    so it is clamped to q = 0.5 (which zeroes the compressed contribution).
    """
    h_delta = binary_entropy(m.delta)
    arg = 2.0 - h_delta - m.r1
    q = 0.5 if arg > 1.0 else inv_binary_entropy(arg)
    inner = 2.0 - h_delta - binary_entropy(star(m.delta, q))
    return RatePoint("pdcf", min(m.r1, inner), meta={"q": q})


# ---------------------------------------------------------------------------
# Binary symmetric multihop channel
# ---------------------------------------------------------------------------


def binary_cutset(m: BinaryMrcd) -> RatePoint:
    """min{r1, 1 - h2(delta)}."""
    return RatePoint("cutset", min(m.r1, 1.0 - binary_entropy(m.delta)))


def binary_df(m: BinaryMrcd) -> RatePoint:
    """min{r1, 1 - h2(delta * p_z)}."""
    return RatePoint("df", min(m.r1, 1.0 - binary_entropy(star(m.delta, m.p_z))))


def binary_cf(m: BinaryMrcd) -> RatePoint:
    """1 - h2(delta * h2^{-1}(1 - r1)), via the test channel Y_R + Ber(nu)."""
    nu = _cf_noise(1.0 - m.r1)
    value = 1.0 - binary_entropy(star(m.delta, nu))
    return RatePoint("cf", value, meta={"nu": nu})


def binary_pdcf(m: BinaryMrcd) -> RatePoint:
    """max{DF, CF} with binary auxiliaries.

    Decoding wins while p_z < h2^{-1}(1 - r1), compressing wins beyond; both
    branches give the same value at the threshold and the DF tag is reported
    there for determinism. Meta records the branch.
    """
    return _from_df_cf(binary_df(m), binary_cf(m))


def binary_capacity_pz_half(m: BinaryMrcd) -> RatePoint:
    """Capacity 1 - h2(delta * h2^{-1}(1 - r1)) of the p_z = 1/2 channel.

    With a fair-coin state the relay observation is independent of the input,
    so decoding is useless and compressing is optimal: the capacity equals
    the CF rate and in general sits strictly below the cut-set bound.
    """
    if m.p_z != 0.5:
        raise UsageError(f"binary_capacity_pz_half: requires p_z = 0.5, got {m.p_z}")
    cf = binary_cf(m)
    return RatePoint("capacity", cf.value, cf.meta)


def _from_df_cf(df: RatePoint, cf: RatePoint, power_split: bool = False) -> RatePoint:
    """The pDCF point of a model, from its DF and CF points.

    pDCF is max{DF, CF}, tagged DF at a tie, with the winner's meta and its
    branch, plus the Gaussian power split alpha* (1 decodes, 0 compresses)
    when ``power_split``.
    """
    branch, won = ("df", df) if df.value >= cf.value else ("cf", cf)
    meta = {"branch": branch, **won.meta}
    if power_split:
        meta["alpha_star"] = 1.0 if branch == "df" else 0.0
    return RatePoint("pdcf", won.value, meta)


def g_alpha(alpha: float, delta: float, r1: float) -> float:
    """g(alpha) = alpha - h2(delta * h2^{-1}(alpha - r1/2)).

    Concave and nondecreasing on [r1/2, 1 + r1/2] with endpoint values
    r1/2 - h2(delta) and r1/2, so its maximum over [r1/2, 1] sits at alpha = 1.
    """
    alpha = float(alpha)
    delta = float(delta)
    r1 = float(r1)
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"g_alpha: delta must be in [0, 0.5], got {delta}")
    if r1 < 0.0:
        raise DomainError(f"g_alpha: r1 must be >= 0, got {r1}")
    if not r1 / 2.0 - 1e-12 <= alpha <= 1.0 + r1 / 2.0 + 1e-12:
        raise DomainError(
            f"g_alpha: alpha must be in [{r1 / 2}, {1 + r1 / 2}], got {alpha}"
        )
    u = min(max(alpha - r1 / 2.0, 0.0), 1.0)
    return alpha - binary_entropy(star(delta, inv_binary_entropy(u)))


# ---------------------------------------------------------------------------
# Gaussian multihop channel
# ---------------------------------------------------------------------------


def _four_to(r1: float) -> float:
    """2^{2 r1}, or inf where that overflows a float (r1 >= 512)."""
    try:
        return 2.0 ** (2.0 * r1)
    except OverflowError:
        return math.inf


def gaussian_cutset(m: GaussianMrcd) -> RatePoint:
    """min{r1, 0.5 log2(1 + P / (1 - rho^2))}; the inner term diverges at |rho| = 1."""
    if m.rho * m.rho >= 1.0:
        inner = math.inf
    else:
        inner = 0.5 * math.log2(1.0 + m.power / (1.0 - m.rho * m.rho))
    return RatePoint("cutset", min(m.r1, inner))


def gaussian_df(m: GaussianMrcd) -> RatePoint:
    """min{r1, 0.5 log2(1 + P)}."""
    return RatePoint("df", min(m.r1, 0.5 * math.log2(1.0 + m.power)))


def gaussian_cf(m: GaussianMrcd) -> RatePoint:
    """min{r1, r1 - 0.5 log2((P + 2^{2 r1}(1 - rho^2)) / (P + 1 - rho^2))}.

    Wyner-Ziv compression of the relay observation with Gaussian test-channel
    noise; meta records the optimal noise variance sigma_q^2, or None (JSON
    null) where it has no finite value: the pipe carries nothing, 2^{2 r1}
    rounds to 1 or the ratio overflows. The log term is never
    negative but can round below 0, there and at |rho| = 1, hence the cap at
    r1. Where 2^{2 r1} overflows a float the rate is its limit
    0.5 log2((P + 1 - rho^2) / (1 - rho^2)), r1 itself at |rho| = 1.
    """
    p, rho2, r1 = m.power, m.rho * m.rho, m.r1
    four_r1 = _four_to(r1)
    if four_r1 < math.inf:
        value = r1 - 0.5 * math.log2((p + four_r1 * (1.0 - rho2)) / (p + 1.0 - rho2))
    else:
        value = r1 if rho2 == 1.0 else 0.5 * math.log2((p + 1.0 - rho2) / (1.0 - rho2))
    sigma_q_sq = math.inf if four_r1 == 1.0 else (p + 1.0 - rho2) / (four_r1 - 1.0)
    meta = {"sigma_q_sq": sigma_q_sq if sigma_q_sq < math.inf else None}
    return RatePoint("cf", min(r1, value), meta=meta)


def gaussian_pdcf(m: GaussianMrcd) -> RatePoint:
    """max{DF, CF} for jointly Gaussian auxiliaries.

    Decoding wins when rho^2 <= 2^{-2 r1}(1 + P) (all power on the decoded
    layer, alpha* = 1), compressing wins beyond (alpha* = 0); the DF tag is
    reported at exact equality, where both branches coincide.
    """
    return _from_df_cf(gaussian_df(m), gaussian_cf(m), power_split=True)


def gaussian_G(alpha: float, m: GaussianMrcd) -> float:
    """Rate functional of the power split: the achievable rate is 0.5 log2 G(alpha).

    G(alpha) = 2^{2 r1}(1+P)(1 - rho^2 + (1-alpha) P)
               / ((1 - rho^2) 2^{2 r1}(1 + (1-alpha) P) + (1-alpha) P (1+P)),
    defined where the induced compression-noise variance is nonnegative,
    i.e. 0 <= alpha <= min{(1 - 2^{-2 r1})(1 + 1/P), 1}. The sign of dG/dalpha
    is the sign of (P + 1 - 2^{2 r1} rho^2), so the maximiser is an endpoint.
    Where 2^{2 r1} overflows a float, G is its limit as r1 grows.
    """
    alpha = float(alpha)
    p, rho2, r1 = m.power, m.rho * m.rho, m.r1
    four_r1 = _four_to(r1)
    hi = min((1.0 - 1.0 / four_r1) * (1.0 + 1.0 / p), 1.0)
    if not -1e-12 <= alpha <= hi + 1e-12:
        raise DomainError(f"gaussian_G: alpha must be in [0, {hi}], got {alpha}")
    abar = 1.0 - alpha
    num = four_r1 * (1.0 + p) * (1.0 - rho2 + abar * p)
    den = (1.0 - rho2) * four_r1 * (1.0 + abar * p) + abar * p * (1.0 + p)
    if not (math.isfinite(num) and math.isfinite(den)):
        # both divided by 2^{2 r1}, for r1 near or past 512 where they overflow
        num = (1.0 + p) * (1.0 - rho2 + abar * p)
        den = (1.0 - rho2) * (1.0 + abar * p) + abar * p * (1.0 + p) / four_r1
    if den == 0.0:
        # Only at rho^2 = 1, at alpha = 1 or with 2^{2 r1} infinite, where the
        # ratio tends to 2^{2 r1}.
        return four_r1
    return num / den


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

# The schemes ``sweep`` evaluates at each grid point. The binary and Gaussian
# pDCF come from that point's DF and CF through ``_from_df_cf``, and the
# fair-state binary capacity is its CF point; parallel-binary pDCF has a
# formula of its own.
_FAMILY_SCHEMES = {
    ParallelBinaryMrcd: {
        "cutset": parallel_binary_cutset,
        "df": parallel_binary_df,
        "cf": parallel_binary_cf,
        "pdcf": parallel_binary_pdcf,
    },
    BinaryMrcd: {
        "cutset": binary_cutset,
        "df": binary_df,
        "cf": binary_cf,
    },
    GaussianMrcd: {
        "cutset": gaussian_cutset,
        "df": gaussian_df,
        "cf": gaussian_cf,
    },
}


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Per-scheme rates over a strictly increasing parameter grid."""

    param_name: str
    param_values: np.ndarray
    points: dict[str, list[RatePoint]]

    def __post_init__(self):
        values = np.asarray(self.param_values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValidationError("RateCurve: param_values must be a nonempty vector")
        # NaN compares False both ways, so test for increase, not for its failure
        if not (np.all(np.isfinite(values)) and np.all(np.diff(values) > 0.0)):
            raise ValidationError("RateCurve: param_values must be finite and strictly increasing")
        for scheme, pts in self.points.items():
            if scheme not in SCHEMES:
                raise ValidationError(f"RateCurve: unknown scheme {scheme!r}")
            if len(pts) != values.size:
                raise ValidationError(
                    f"RateCurve: scheme {scheme!r} has {len(pts)} points for "
                    f"{values.size} grid values"
                )
        values.flags.writeable = False
        object.__setattr__(self, "param_values", values)

    def to_csv(self, path) -> None:
        """Write one row per grid point, 12 significant digits, '.' decimals."""
        cols = ["param"] + list(self.points)
        lines = [",".join(cols)]
        for i, x in enumerate(self.param_values):
            row = [f"{x:.12g}"] + [f"{self.points[s][i].value:.12g}" for s in self.points]
            lines.append(",".join(row))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path) -> None:
        payload = {
            "param_name": self.param_name,
            "param_values": [float(x) for x in self.param_values],
            "points": {
                scheme: [{"value": pt.value, "meta": pt.meta} for pt in pts]
                for scheme, pts in self.points.items()
            },
        }
        _write_json(payload, path)


def _grid_models(model, param: str, xs: list[float]):
    """``model`` with ``param`` set to each grid value, in grid order.

    Every sweepable field's domain is an interval of finite floats and the
    grid is strictly increasing, so when both ends of a finite grid pass
    ``dataclasses.replace``'s validation, every value between them does too:
    the points are then built without revalidating (the sweepable families
    hold nothing but their fields). Otherwise each point goes through
    ``dataclasses.replace`` as the sweep reaches it, and the first value
    outside the domain raises its ``ValidationError``.
    """
    def at(x: float):
        return dataclasses.replace(model, **{param: x})

    try:
        at(xs[0])
        at(xs[-1])
    except ValidationError:
        return map(at, xs)
    if not all(map(math.isfinite, xs)):  # NaN passes the increasing check
        return map(at, xs)
    family, fields = type(model), vars(model)
    points = []
    for x in xs:
        pt = object.__new__(family)
        vars(pt).update(fields, **{param: x})
        points.append(pt)
    return points


def sweep(model, param: str, grid: Sequence[float]) -> RateCurve:
    """Evaluate every applicable scheme of ``model``'s family along ``grid``.

    ``param`` must name a field of the model family; the grid must be
    strictly increasing and inside the field's domain. For the binary family
    with p_z = 0.5 a capacity column is included as well.
    """
    family = type(model)
    if family not in _FAMILY_SCHEMES:
        raise UsageError(f"sweep: unsupported model family {family.__name__}")
    fields = {f.name for f in dataclasses.fields(model)}
    if param not in fields:
        raise UsageError(f"sweep: {param!r} is not a parameter of {family.__name__}")
    values = np.asarray(grid, dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise UsageError("sweep: grid must be a nonempty vector")
    if np.any(np.diff(values) <= 0.0):
        raise UsageError("sweep: grid must be strictly increasing")

    evaluators = _FAMILY_SCHEMES[family]
    derived = [] if family is ParallelBinaryMrcd else ["pdcf"]
    if family is BinaryMrcd and param != "p_z" and model.p_z == 0.5:
        derived.append("capacity")
    power_split = family is GaussianMrcd

    points: dict[str, list[RatePoint]] = {s: [] for s in [*evaluators, *derived]}
    for at in _grid_models(model, param, values.tolist()):
        for scheme, fn in evaluators.items():
            points[scheme].append(fn(at))
        df, cf = points["df"][-1], points["cf"][-1]
        for scheme in derived:
            points[scheme].append(_from_df_cf(df, cf, power_split) if scheme == "pdcf"
                                  else RatePoint("capacity", cf.value, cf.meta))
    return RateCurve(param_name=param, param_values=values, points=points)
