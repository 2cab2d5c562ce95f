"""Closed-form achievable rates and bounds for the multihop example channels.

Each family's closed forms are written once, as a column kernel: numpy
formulas that take the model's fields, any one of them an array over a
grid, and return every scheme's rates and ``meta`` columns. ``sweep`` makes
one kernel call per grid; each single-point evaluator is its family's
kernel read at one point, so the two agree exactly. ``meta`` records the
internals of the optimising choice (compression noise, branch taken, power
split). All rates are in bits per channel use and clamped at 0 from below.
Every achievable column is capped by its kernel's cut-set column, which it
never exceeds in exact arithmetic, so rounding cannot lift it above the bound.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, UsageError, ValidationError
from .info import _elements, binary_entropy, inv_binary_entropy, star
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
    """A scheme's rate at one parameter point; the scheme is the key it is
    filed under (a ``RateCurve`` column or the evaluator that returned it)."""

    value: float
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "value", _rates([float(self.value)])[0])
        object.__setattr__(self, "meta", dict(self.meta))


def _rates(values) -> list[float]:
    """``RatePoint``'s rule on a column of rates: each finite and >= -1e-12,
    clamped at 0 (so -0.0 becomes 0.0)."""
    values = np.asarray(values, dtype=float)
    bad = ~(np.isfinite(values) & (values >= -1e-12))
    if bad.any():
        raise ValidationError(f"RatePoint: rate must be >= 0, got {values[bad][0]}")
    return np.maximum(values, 0.0).tolist()


def _metas(n: int, key: str | None = None, column=None) -> list[dict]:
    """One meta dict per point: ``{key: value}`` from a column that
    broadcasts to ``n`` points, or empty."""
    if key is None:
        return [{} for _ in range(n)]
    return [{key: x} for x in np.broadcast_to(column, n).tolist()]


def _pdcf(df, cf, cf_metas: list[dict], power_split: bool = False):
    """The pDCF column max{DF, CF} of the clamped rates, tagged DF at a tie,
    with the winner's meta and its branch, plus the Gaussian power split
    alpha* (1 decodes, 0 compresses) when ``power_split``."""
    df, cf = np.maximum(df, 0.0), np.maximum(cf, 0.0)
    won = df >= cf
    split = ({"alpha_star": 1.0}, {"alpha_star": 0.0}) if power_split else ({}, {})
    metas = [{"branch": "df", **split[0]} if w else {"branch": "cf", **m, **split[1]}
             for w, m in zip(np.broadcast_to(won, len(cf_metas)).tolist(), cf_metas)]
    return np.where(won, df, cf), metas


def _at(kernel, m, scheme: str) -> RatePoint:
    """``scheme``'s point of ``m``: its family's kernel read at one point."""
    value, (meta,) = kernel(1, **vars(m))[scheme]
    return RatePoint(value, meta)


# ---------------------------------------------------------------------------
# Parallel binary symmetric multihop channel
# ---------------------------------------------------------------------------


def _parallel_binary(n: int, delta, p_z, r1) -> dict:
    """Columns of the parallel binary family over ``n`` points."""
    h = binary_entropy(delta)
    # from r1 = 2 on both outputs fit through the pipe: nu = h2^{-1}(<= 0) = 0
    nu = inv_binary_entropy(1.0 - r1 / 2.0)
    # an argument above 1 is clamped to q = h2^{-1}(1) = 0.5
    q = inv_binary_entropy(np.minimum(2.0 - h - r1, 1.0))
    cut = np.minimum(r1, 2.0 * (1.0 - h))
    return {
        "cutset": (cut, _metas(n)),
        "df": (np.minimum(cut, 2.0 - binary_entropy(star(delta, p_z)) - h), _metas(n)),
        "cf": (np.minimum(cut, 2.0 * (1.0 - binary_entropy(star(delta, nu)))),
               _metas(n, "nu", nu)),
        "pdcf": (np.minimum(cut, 2.0 - h - binary_entropy(star(delta, q))), _metas(n, "q", q)),
    }


def parallel_binary_cutset(m: ParallelBinaryMrcd) -> RatePoint:
    """min{r1, 2(1 - h2(delta))}."""
    return _at(_parallel_binary, m, "cutset")


def parallel_binary_df(m: ParallelBinaryMrcd) -> RatePoint:
    """min{r1, 2 - h2(delta * p_z) - h2(delta)}.

    The relay decodes both links; the state acts as extra noise on the first.
    """
    return _at(_parallel_binary, m, "df")


def parallel_binary_cf(m: ParallelBinaryMrcd) -> RatePoint:
    """2(1 - h2(delta * h2^{-1}(1 - r1/2))).

    Both link outputs are compressed with independent symmetric noise of
    crossover ``nu`` (recorded in meta); for r1 >= 2 the outputs fit through
    the pipe losslessly and nu = 0.
    """
    return _at(_parallel_binary, m, "cf")


def parallel_binary_pdcf(m: ParallelBinaryMrcd) -> RatePoint:
    """min{r1, 2 - h2(delta) - h2(delta * h2^{-1}(2 - h2(delta) - r1))}.

    Decode the state-free link in full, compress the state-corrupted one with
    the leftover pipe budget. The compression crossover ``q`` is recorded in
    meta; an argument above 1 would demand more smoothing than a fair coin,
    so it is clamped to q = 0.5 (which zeroes the compressed contribution).
    """
    return _at(_parallel_binary, m, "pdcf")


# ---------------------------------------------------------------------------
# Binary symmetric multihop channel
# ---------------------------------------------------------------------------


def _binary(n: int, delta, p_z, r1) -> dict:
    """Columns of the binary family over ``n`` points. Where p_z is the fair
    coin and not swept, ``capacity`` is the CF column, the capacity there."""
    nu = inv_binary_entropy(1.0 - r1)
    cut = np.minimum(r1, 1.0 - binary_entropy(delta))
    df = np.minimum(cut, 1.0 - binary_entropy(star(delta, p_z)))
    cf, cf_metas = np.minimum(cut, 1.0 - binary_entropy(star(delta, nu))), _metas(n, "nu", nu)
    columns = {
        "cutset": (cut, _metas(n)),
        "df": (df, _metas(n)),
        "cf": (cf, cf_metas),
        "pdcf": _pdcf(df, cf, cf_metas),
    }
    if np.ndim(p_z) == 0 and p_z == 0.5:
        columns["capacity"] = (cf, [dict(meta) for meta in cf_metas])
    return columns


def binary_cutset(m: BinaryMrcd) -> RatePoint:
    """min{r1, 1 - h2(delta)}."""
    return _at(_binary, m, "cutset")


def binary_df(m: BinaryMrcd) -> RatePoint:
    """min{r1, 1 - h2(delta * p_z)}."""
    return _at(_binary, m, "df")


def binary_cf(m: BinaryMrcd) -> RatePoint:
    """1 - h2(delta * h2^{-1}(1 - r1)), via the test channel Y_R + Ber(nu)."""
    return _at(_binary, m, "cf")


def binary_pdcf(m: BinaryMrcd) -> RatePoint:
    """max{DF, CF} with binary auxiliaries.

    Decoding wins while p_z < h2^{-1}(1 - r1), compressing wins beyond; both
    branches give the same value at the threshold and the DF tag is reported
    there for determinism. Meta records the branch.
    """
    return _at(_binary, m, "pdcf")


def binary_capacity_pz_half(m: BinaryMrcd) -> RatePoint:
    """Capacity 1 - h2(delta * h2^{-1}(1 - r1)) of the p_z = 1/2 channel.

    With a fair-coin state the relay observation is independent of the input,
    so decoding is useless and compressing is optimal: the capacity equals
    the CF rate and in general sits strictly below the cut-set bound.
    """
    try:
        return _at(_binary, m, "capacity")
    except KeyError:
        raise UsageError(f"binary_capacity_pz_half: requires p_z = 0.5, got {m.p_z}") from None


def g_alpha(alpha: float, delta: float, r1: float) -> float:
    """g(alpha) = alpha - h2(delta * h2^{-1}(alpha - r1/2)).

    Concave and nondecreasing on [r1/2, 1 + r1/2] with endpoint values
    r1/2 - h2(delta) and r1/2, so its maximum over [r1/2, 1] sits at alpha = 1.
    """
    alpha = float(alpha)
    delta = float(_elements("g_alpha: delta must be in [0, 0.5]", delta, 0.0, 0.5))
    r1 = float(_elements("g_alpha: r1 must be >= 0", r1, 0.0, np.inf))
    if not r1 / 2.0 - 1e-12 <= alpha <= 1.0 + r1 / 2.0 + 1e-12:
        raise DomainError(
            f"g_alpha: alpha must be in [{r1 / 2}, {1 + r1 / 2}], got {alpha}"
        )
    u = min(max(alpha - r1 / 2.0, 0.0), 1.0)
    return alpha - binary_entropy(star(delta, inv_binary_entropy(u)))


# ---------------------------------------------------------------------------
# Gaussian multihop channel
# ---------------------------------------------------------------------------


def _four_to(r1):
    """2^{2 r1}, elementwise; inf where that overflows a float (r1 >= 512)."""
    with np.errstate(over="ignore"):
        return np.power(2.0, 2.0 * r1)


def _gaussian(n: int, power, rho, r1) -> dict:
    """Columns of the Gaussian family over ``n`` points; CF's noise variance
    is sigma_q^2 = (P + 1 - rho^2) / (2^{2 r1} - 1)."""
    p, rho2, four = power, np.multiply(rho, rho), _four_to(r1)
    var_given_z = p + (1.0 - rho2)  # Var(Y_R | Z); 1 + P first rounds away P < 1.1e-16
    # both branches are computed everywhere; the discarded one may divide by 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cutset = np.minimum(r1, 0.5 * np.log2(1.0 + p / (1.0 - rho2)))
        finite = r1 - 0.5 * np.log2((p + four * (1.0 - rho2)) / var_given_z)
        sigma_q_sq = var_given_z / (four - 1.0)
    df = np.minimum(cutset, 0.5 * np.log2(1.0 + p))
    # past the overflow of 2^{2 r1} the CF is its limit, the cut-set term
    cf = np.minimum(cutset, np.where(four < np.inf, finite, cutset))
    cf_metas = _metas(n, "sigma_q_sq", np.where(sigma_q_sq < np.inf, sigma_q_sq, None))
    return {
        "cutset": (cutset, _metas(n)),
        "df": (df, _metas(n)),
        "cf": (cf, cf_metas),
        "pdcf": _pdcf(df, cf, cf_metas, power_split=True),
    }


def gaussian_cutset(m: GaussianMrcd) -> RatePoint:
    """min{r1, 0.5 log2(1 + P / (1 - rho^2))}; the inner term diverges at |rho| = 1."""
    return _at(_gaussian, m, "cutset")


def gaussian_df(m: GaussianMrcd) -> RatePoint:
    """min{r1, 0.5 log2(1 + P)}."""
    return _at(_gaussian, m, "df")


def gaussian_cf(m: GaussianMrcd) -> RatePoint:
    """min{r1, r1 - 0.5 log2((P + 2^{2 r1}(1 - rho^2)) / (P + 1 - rho^2))}.

    Wyner-Ziv compression of the relay observation with Gaussian test-channel
    noise; meta records the optimal noise variance sigma_q^2, or None (JSON
    null) where it has no finite value: the pipe carries nothing, 2^{2 r1}
    rounds to 1 or the ratio overflows. The log term is never
    negative but can round below 0, there and at |rho| = 1, hence the cap,
    taken at the cut-set bound. Where 2^{2 r1} overflows a float the rate is
    its limit 0.5 log2((P + 1 - rho^2) / (1 - rho^2)), the cut-set term.
    """
    return _at(_gaussian, m, "cf")


def gaussian_pdcf(m: GaussianMrcd) -> RatePoint:
    """max{DF, CF} for jointly Gaussian auxiliaries.

    Decoding wins when rho^2 <= 2^{-2 r1}(1 + P) (all power on the decoded
    layer, alpha* = 1), compressing wins beyond (alpha* = 0); the DF tag is
    reported at exact equality, where both branches coincide.
    """
    return _at(_gaussian, m, "pdcf")


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
    four_r1 = float(_four_to(r1))
    hi = min((1.0 - 1.0 / four_r1) * (1.0 + 1.0 / p), 1.0)
    if not -1e-12 <= alpha <= hi + 1e-12:
        raise DomainError(f"gaussian_G: alpha must be in [0, {hi}], got {alpha}")
    abar = 1.0 - alpha
    # numerator and denominator divided by 2^{2 r1}, so neither overflows
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

_KERNELS = {ParallelBinaryMrcd: _parallel_binary, BinaryMrcd: _binary, GaussianMrcd: _gaussian}


def _grid(values, error: type[Exception], name: str) -> np.ndarray:
    """A float copy of ``values``, so freezing it leaves the caller's array
    writable, or ``error`` saying that ``name`` must be a nonempty vector,
    finite and strictly increasing."""
    values = np.array(values, dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise error(f"{name} must be a nonempty vector")
    # NaN compares False both ways, so test for increase, not for its failure
    if not (np.all(np.isfinite(values)) and np.all(np.diff(values) > 0.0)):
        raise error(f"{name} must be finite and strictly increasing")
    return values


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Per-scheme rates over a strictly increasing parameter grid: ``columns``
    maps each scheme to its rates (one number if constant) and one meta dict
    per grid point. Each rate column passes ``RatePoint``'s rule once."""

    param_name: str
    param_values: np.ndarray
    columns: dict[str, tuple[list[float], list[dict]]]

    def __post_init__(self):
        values = _grid(self.param_values, ValidationError, "RateCurve: param_values")
        n, columns = values.size, {}
        for scheme, (rates, metas) in self.columns.items():
            if scheme not in SCHEMES:
                raise ValidationError(f"RateCurve: unknown scheme {scheme!r}")
            # one rate may stand for a column constant along the grid
            for count in (len(metas), np.size(rates) if np.ndim(rates) else n):
                if count != n:
                    raise ValidationError(
                        f"RateCurve: scheme {scheme!r} has {count} points for {n} grid values")
            columns[scheme] = (_rates(np.broadcast_to(np.ravel(rates), n)), metas)
        values.flags.writeable = False
        object.__setattr__(self, "param_values", values)
        object.__setattr__(self, "columns", columns)

    @functools.cached_property
    def points(self) -> dict[str, list[RatePoint]]:
        """Each column as ``RatePoint``s, built on the first read."""
        return {scheme: [RatePoint(v, m) for v, m in zip(rates, metas)]
                for scheme, (rates, metas) in self.columns.items()}

    def to_csv(self, path) -> None:
        """Write one row per grid point, 12 significant digits, '.' decimals."""
        columns = [rates for rates, _ in self.columns.values()]
        row = ",".join(["{:.12g}"] * (1 + len(columns))).format
        lines = [",".join(["param", *self.columns])]
        lines += [row(*cells) for cells in zip(self.param_values.tolist(), *columns)]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path) -> None:
        payload = {
            "param_name": self.param_name,
            "param_values": self.param_values.tolist(),
            "points": {
                scheme: [{"value": v, "meta": m} for v, m in zip(rates, metas)]
                for scheme, (rates, metas) in self.columns.items()
            },
        }
        _write_json(payload, path)


def sweep(model, param: str, grid: Sequence[float]) -> RateCurve:
    """Evaluate every applicable scheme of ``model``'s family along ``grid``.

    ``param`` must name a field of the model family; the grid must be finite,
    strictly increasing and inside the field's domain. One call of the
    family's kernel, with ``param`` set to the grid, gives every column.
    """
    family = type(model)
    if family not in _KERNELS:
        raise UsageError(f"sweep: unsupported model family {family.__name__}")
    fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
    if param not in fields:
        raise UsageError(f"sweep: {param!r} is not a parameter of {family.__name__}")
    values = _grid(grid, UsageError, "sweep: grid")
    # each field's domain is an interval: the grid lies in it once both ends
    # do; otherwise a per-point loop names the first value outside
    try:
        for x in (values[0], values[-1]):
            dataclasses.replace(model, **{param: float(x)})
    except ValidationError:
        for x in values.tolist():
            dataclasses.replace(model, **{param: x})
        raise
    columns = _KERNELS[family](values.size, **{**fields, param: values})
    return RateCurve(param_name=param, param_values=values, columns=columns)
