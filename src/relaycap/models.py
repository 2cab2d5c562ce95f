"""Channel models, validation, serialization, and link capacities.

The discrete model carries three conditional tables indexed as
``table[input, state, output]``; each ``[input, state, :]`` slice is a pmf
over the output alphabet. Multihop example families represent the
relay-destination link as an ideal bit pipe of rate ``r1`` (a scalar, not a
degenerate table), matching how those links behave: error-free at a fixed
rate. Model values are immutable after construction and all operations here
are pure; a discrete model computes each link capacity once, on first use.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .errors import SolverError, UsageError, ValidationError
from .info import Pmf, _conditional

__all__ = [
    "DiscreteOrcd",
    "ParallelBinaryMrcd",
    "BinaryMrcd",
    "GaussianMrcd",
    "LinkCapacities",
    "channel_capacity",
    "link_capacities",
    "embed_parallel_binary",
    "embed_binary",
    "as_discrete",
    "model_from_dict",
    "model_to_dict",
    "load_model",
    "dump_model",
]


def _validate_channel(name: str, table, n_z: int) -> np.ndarray:
    arr = _conditional(name, table, 3)
    if arr.shape[1] != n_z:
        raise ValidationError(
            f"{name}: state axis has size {arr.shape[1]}, expected {n_z}"
        )
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteOrcd:
    """Discrete state-dependent orthogonal relay channel.

    ``chan_sr`` is p(y_R | x1, z), ``chan_rd`` is p(y1 | x_R, z) and
    ``chan_sd`` is p(y2 | x2, z), all indexed ``[input, state, output]``.
    When ``r1_pipe`` is set, the relay-destination link is an ideal bit pipe
    of that rate and ``chan_rd`` is ignored by capacity computations.

    ``relay_link``, ``direct_link`` and ``source_relay_link`` hold the
    ``channel_capacity`` result of a link, (capacity, maximising input pmf,
    evaluations, duality gap), computed on first read and kept on this
    object with the pmf read-only. ``dataclasses.replace`` starts a new
    object, which computes its own.
    """

    p_z: Pmf
    chan_sr: np.ndarray
    chan_rd: np.ndarray
    chan_sd: np.ndarray
    r1_pipe: float | None = None

    def __post_init__(self):
        p_z = self.p_z if isinstance(self.p_z, Pmf) else Pmf(self.p_z)
        n_z = len(p_z)
        object.__setattr__(self, "p_z", p_z)
        object.__setattr__(self, "chan_sr", _validate_channel("chan_sr", self.chan_sr, n_z))
        object.__setattr__(self, "chan_rd", _validate_channel("chan_rd", self.chan_rd, n_z))
        object.__setattr__(self, "chan_sd", _validate_channel("chan_sd", self.chan_sd, n_z))
        if self.r1_pipe is not None:
            object.__setattr__(self, "r1_pipe", _check_rate("r1_pipe", self.r1_pipe))

    @property
    def n_x1(self) -> int:
        return int(self.chan_sr.shape[0])

    @property
    def n_yr(self) -> int:
        return int(self.chan_sr.shape[2])

    @property
    def n_xr(self) -> int:
        return int(self.chan_rd.shape[0])

    @property
    def n_y1(self) -> int:
        return int(self.chan_rd.shape[2])

    @property
    def n_x2(self) -> int:
        return int(self.chan_sd.shape[0])

    @property
    def n_y2(self) -> int:
        return int(self.chan_sd.shape[2])

    @property
    def n_z(self) -> int:
        return len(self.p_z)

    @cached_property
    def relay_link(self) -> tuple[float, np.ndarray, int, float]:
        """Relay-destination link, max I(X_R; Y1 | Z); a bit pipe
        short-circuits it with no evaluation and gap 0."""
        if self.r1_pipe is not None:
            pxr = np.full(self.n_xr, 1.0 / self.n_xr)
            pxr.flags.writeable = False
            return self.r1_pipe, pxr, 0, 0.0
        return _compound_capacity(self.chan_rd, self.p_z)

    @cached_property
    def direct_link(self) -> tuple[float, np.ndarray, int, float]:
        """Source-destination link, max I(X2; Y2 | Z)."""
        return _compound_capacity(self.chan_sd, self.p_z)

    @cached_property
    def source_relay_link(self) -> tuple[float, np.ndarray, int, float]:
        """Source-relay link with the state known at the destination,
        max I(X1; Y_R | Z)."""
        return _compound_capacity(self.chan_sr, self.p_z)


def _check_unit_interval(name: str, value: float, lo: float, hi: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and lo <= value <= hi):
        raise ValidationError(f"{name}: must be in [{lo}, {hi}], got {value}")
    return value


def _check_rate(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValidationError(f"{name}: must be a finite rate >= 0, got {value}")
    return value


@dataclass(frozen=True)
class _BitPipeMrcd:
    """Fields and validation shared by the two binary families.

    The families are siblings, not parent and child: exact-type dispatch
    (``sweep``, ``as_discrete``, the JSON family table) must never mistake
    one for the other.
    """

    delta: float
    p_z: float
    r1: float

    def __post_init__(self):
        object.__setattr__(self, "delta", _check_unit_interval("delta", self.delta, 0.0, 0.5))
        object.__setattr__(self, "p_z", _check_unit_interval("p_z", self.p_z, 0.0, 1.0))
        object.__setattr__(self, "r1", _check_rate("r1", self.r1))


@dataclass(frozen=True)
class ParallelBinaryMrcd(_BitPipeMrcd):
    """Two parallel binary symmetric source-relay links, state on the first.

    ``delta`` is the crossover probability of both links' noise, ``p_z`` the
    Bernoulli parameter of the state on the first link, ``r1`` the rate of
    the noiseless relay-destination pipe.
    """


@dataclass(frozen=True)
class BinaryMrcd(_BitPipeMrcd):
    """Single binary symmetric source-relay link with additive state."""


@dataclass(frozen=True)
class GaussianMrcd:
    """AWGN source-relay link with destination side information.

    ``power`` is the source power constraint (linear scale), ``rho`` the
    correlation between the channel noise and the side information, ``r1``
    the rate of the noiseless relay-destination pipe.
    """

    power: float
    rho: float
    r1: float

    def __post_init__(self):
        power = float(self.power)
        if not (math.isfinite(power) and power > 0.0):
            raise ValidationError(f"power: must be > 0, got {power}")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "rho", _check_unit_interval("rho", self.rho, -1.0, 1.0))
        object.__setattr__(self, "r1", _check_rate("r1", self.r1))


@dataclass(frozen=True, eq=False)
class LinkCapacities:
    """Capacities of the orthogonal relay-destination / source-destination links."""

    r1: float
    r2: float
    argmax_pxr: Pmf
    argmax_px2: Pmf


# Blahut-Arimoto stops once its duality gap is below _BA_GAP bits, which
# certifies every capacity it returns to within that much; _BA_ITERS caps its
# divergence evaluations, trial steps included. The over-relaxation factor
# grows by _BA_GROW after every step that raises I(p); 1.5 took the fewest
# evaluations of the factors 1.1 to 2 on seeded Dirichlet(0.5) channels.
_BA_GAP = 1e-9
_BA_ITERS = 100_000
_BA_GROW = 1.5


def channel_capacity(w_yx: np.ndarray) -> tuple[float, np.ndarray, int, float]:
    """Capacity (bits) of a discrete memoryless channel via Blahut-Arimoto.

    ``w_yx[x, y]`` holds p(y | x); rows must be pmfs. Returns the capacity,
    the input pmf achieving it, the number of divergence evaluations made
    and the final duality gap in bits. Starts from the uniform input and
    stops once the gap max_x D(W(.|x) || q) - I(p) drops below ``_BA_GAP``
    bits, which sandwiches the returned value within ``_BA_GAP`` of the
    true capacity.

    The step is over-relaxed, p <- p exp(mu (D - max D)) normalised: mu
    grows while I(p) rises, and a trial step that lowers I(p) is dropped
    for the plain step (mu = 1), which never lowers it. Raises
    ``SolverError`` (carrying the last gap) if ``_BA_ITERS`` evaluations do
    not get there.
    """
    w = _conditional("channel_capacity: w_yx", w_yx, 2)
    n_in = w.shape[0]
    if n_in == 1:
        return 0.0, np.ones(1), 0, 0.0

    ln2 = math.log(2.0)
    log_w = np.log(np.where(w > 0.0, w, 1.0))  # log 1 = 0 at empty cells

    def divergences(p: np.ndarray) -> np.ndarray:
        """d[x] = D(W(.|x) || pW) in nats; pW > 0 wherever any w[x, y] > 0.

        An empty cell w[x, y] = 0 adds 0 * (0 - log q[y]) = +0, as q <= 1.
        """
        q = p @ w
        terms = log_w - np.log(np.where(q > 0.0, q, 1.0))
        terms *= w
        return terms.sum(axis=1)

    p = np.full(n_in, 1.0 / n_in)
    d = divergences(p)
    evals, mu = 1, 1.0
    while True:
        i_lower = float(p @ d)
        i_upper = float(d.max())
        gap = (i_upper - i_lower) / ln2
        if gap < _BA_GAP:
            return max(i_lower / ln2, 0.0), p, evals, gap
        if evals >= _BA_ITERS:
            raise SolverError(
                f"Blahut-Arimoto did not converge in {_BA_ITERS} evaluations "
                f"(gap {gap:.3e} bits)",
                gap=gap,
            )
        trial = p * np.exp(mu * (d - i_upper))
        trial /= trial.sum()
        d_trial = divergences(trial)
        evals += 1
        if mu > 1.0 and float(trial @ d_trial) < i_lower:
            mu = 1.0  # the next pass takes the plain step from p
            continue
        p, d = trial, d_trial
        mu *= _BA_GROW


def _state_compound_matrix(chan: np.ndarray, p_z: Pmf) -> np.ndarray:
    """Channel input -> (state, output) matrix p(z, y | x) = p(z) p(y | x, z)."""
    n_in, n_z, n_out = chan.shape
    return (chan * p_z.probs[None, :, None]).reshape(n_in, n_z * n_out)


def _compound_capacity(chan: np.ndarray, p_z: Pmf) -> tuple[float, np.ndarray, int, float]:
    """``channel_capacity`` of the compound channel input -> (state, output),
    its input pmf read-only."""
    c, p, evals, gap = channel_capacity(_state_compound_matrix(chan, p_z))
    p.flags.writeable = False
    return c, p, evals, gap


def link_capacities(m: DiscreteOrcd) -> LinkCapacities:
    """max I(X_R; Y1 | Z) and max I(X2; Y2 | Z) over the input distributions.

    The input of each link is independent of the state, so the conditional
    mutual information equals the mutual information of the compound channel
    input -> (output, state), which Blahut-Arimoto maximises directly. A bit
    pipe short-circuits the relay-destination link. Both come from the
    model's ``relay_link`` and ``direct_link``, computed once per model.
    """
    (r1, pxr, *_), (r2, px2, *_) = m.relay_link, m.direct_link
    return LinkCapacities(r1=r1, r2=r2, argmax_pxr=Pmf(pxr), argmax_px2=Pmf(px2))


def _trivial_channel(n_z: int) -> np.ndarray:
    return np.ones((1, n_z, 1))


def _bsc(delta: float) -> np.ndarray:
    return np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])


def _xor_state_channel(delta: float) -> np.ndarray:
    """p(y | x, z) of Y = X + N + Z (mod 2), N ~ Bernoulli(delta), as [x, z, y]."""
    bits = np.arange(2)
    return _bsc(delta)[bits[:, None] ^ bits[None, :]]


def _bit_pipe_model(m: _BitPipeMrcd, chan_sr: np.ndarray) -> DiscreteOrcd:
    return DiscreteOrcd(
        p_z=Pmf([1.0 - m.p_z, m.p_z]),
        chan_sr=chan_sr,
        chan_rd=_trivial_channel(2),
        chan_sd=_trivial_channel(2),
        r1_pipe=m.r1,
    )


def embed_binary(m: BinaryMrcd) -> DiscreteOrcd:
    """Discrete table form of the binary multihop channel Y_R = X1 + N + Z (mod 2)."""
    return _bit_pipe_model(m, _xor_state_channel(m.delta))


def embed_parallel_binary(m: ParallelBinaryMrcd) -> DiscreteOrcd:
    """Discrete table form of the parallel binary multihop channel.

    The 4-ary input/output alphabets index the bit pairs (first link, second
    link) as ``2*b1 + b2``; only the first link sees the state.
    """
    chan_sr = np.einsum("azc,bd->abzcd", _xor_state_channel(m.delta), _bsc(m.delta))
    return _bit_pipe_model(m, chan_sr.reshape(4, 2, 4))


_EMBEDDINGS = {
    DiscreteOrcd: lambda m: m,
    BinaryMrcd: embed_binary,
    ParallelBinaryMrcd: embed_parallel_binary,
}


def as_discrete(model) -> DiscreteOrcd:
    """Embed a shorthand model into table form; identity on table models."""
    if type(model) is GaussianMrcd:
        raise UsageError("gaussian models are continuous and have no table form")
    embed = _EMBEDDINGS.get(type(model))
    if embed is None:
        raise UsageError(f"unsupported model type {type(model).__name__}")
    return embed(model)


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

_ALPHABET_KEYS = ("x1", "x2", "xr", "yr", "y1", "y2", "z")


def _require(d: dict, key: str, *, path: str = "") -> Any:
    if key not in d:
        raise ValidationError(f"{path}{key}: missing field")
    return d[key]


def _only(d: dict, keys, *, path: str = "") -> None:
    """Reject a key not in ``keys``: a misspelled optional field reads as unset."""
    for key in d:
        if key not in keys:
            raise ValidationError(f"{path}{key}: unknown field")


def _number(d: dict, key: str) -> float:
    val = _require(d, key)
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ValidationError(f"{key}: expected a number, got {val!r}")
    try:
        return float(val)
    except OverflowError:
        raise ValidationError(f"{key}: integer too large for a float") from None


def _discrete_from_dict(d: dict) -> DiscreteOrcd:
    alphabets = _require(d, "alphabets")
    if not isinstance(alphabets, dict):
        raise ValidationError("alphabets: expected an object")
    _only(alphabets, _ALPHABET_KEYS, path="alphabets.")
    sizes = {}
    for key in _ALPHABET_KEYS:
        val = _require(alphabets, key, path="alphabets.")
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise ValidationError(f"alphabets.{key}: expected a positive integer")
        sizes[key] = val
    p_z = _require(d, "p_z")
    try:
        pz = Pmf(np.asarray(p_z, dtype=float))
    except (ValidationError, ValueError, TypeError, OverflowError) as e:
        raise ValidationError(f"p_z: {e}") from None
    if len(pz) != sizes["z"]:
        raise ValidationError(f"p_z: length {len(pz)} != alphabets.z {sizes['z']}")
    tables = {}
    for name, (n_in, n_out) in {
        "chan_sr": (sizes["x1"], sizes["yr"]),
        "chan_rd": (sizes["xr"], sizes["y1"]),
        "chan_sd": (sizes["x2"], sizes["y2"]),
    }.items():
        raw = _require(d, name)
        try:
            arr = np.asarray(raw, dtype=float)
        except (ValueError, TypeError, OverflowError):
            raise ValidationError(f"{name}: expected a numeric 3-d array") from None
        if arr.shape != (n_in, sizes["z"], n_out):
            raise ValidationError(
                f"{name}: shape {arr.shape} != ({n_in}, {sizes['z']}, {n_out})"
            )
        tables[name] = arr
    r1_pipe = _number(d, "r1_pipe") if d.get("r1_pipe") is not None else None
    return DiscreteOrcd(p_z=pz, r1_pipe=r1_pipe, **tables)


# The JSON ``type`` name of each model family.
_FAMILIES = {
    "parallel_binary": ParallelBinaryMrcd,
    "binary": BinaryMrcd,
    "gaussian": GaussianMrcd,
    "discrete_orcd": DiscreteOrcd,
}
_TYPE_NAMES = {family: name for name, family in _FAMILIES.items()}


def model_from_dict(d: dict):
    """Parse a model description; raises ``ValidationError`` with field paths."""
    if not isinstance(d, dict):
        raise ValidationError("model: expected a JSON object")
    kind = _require(d, "type")
    family = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise ValidationError(f"type: unknown model type {kind!r}")
    fields = [f.name for f in dataclasses.fields(family)]
    _only(d, ["type", *fields] + (["alphabets"] if family is DiscreteOrcd else []))
    if family is DiscreteOrcd:
        return _discrete_from_dict(d)
    return family(**{name: _number(d, name) for name in fields})


def model_to_dict(model) -> dict:
    kind = _TYPE_NAMES.get(type(model))
    if kind is None:
        raise UsageError(f"unsupported model type {type(model).__name__}")
    if type(model) is not DiscreteOrcd:
        return {"type": kind, **dataclasses.asdict(model)}
    out = {
        "type": kind,
        "alphabets": {key: getattr(model, f"n_{key}") for key in _ALPHABET_KEYS},
        "p_z": model.p_z.probs.tolist(),
        "chan_sr": model.chan_sr.tolist(),
        "chan_rd": model.chan_rd.tolist(),
        "chan_sd": model.chan_sd.tolist(),
    }
    if model.r1_pipe is not None:
        out["r1_pipe"] = model.r1_pipe
    return out


def load_model(path):
    """Load and validate a model JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        # a JSONDecodeError, an integer too long to parse, or nesting too deep
        except (ValueError, RecursionError) as e:
            raise ValidationError(f"model file is not valid JSON: {e}") from None
    return model_from_dict(raw)


def _write_json(payload, path) -> None:
    """Write ``payload`` as strict (no NaN/Infinity) compact JSON with sorted keys.

    The text is built before ``path`` is opened, so a payload that cannot be
    encoded leaves the file as it was.
    """
    text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def dump_model(model, path) -> None:
    _write_json(model_to_dict(model), path)
