"""Numerical evaluation of the relay-channel capacity expression.

The capacity of a discrete model is the supremum of

    R2 + I(U; Y_R) + I(X1; Yhat_R | U, Z)
    subject to  R1 >= I(U; Y_R) + I(Y_R; Yhat_R | U, Z)

over joint pmfs factorising as p(u, x1) p(z) p(y_R | x1, z) p(yhat | y_R, u).
The objective is not jointly concave. ``solve_capacity`` fixes a starting
decode layer p(u, x1) per restart (compress-only, decode-only, one per binary
partition of X1, then seeded random draws) and, for a grid of multipliers s,
maximises the Lagrangian R - s*C by alternating closed-form updates of the
test channel and of p(u | x1): Blahut-Arimoto in its information-bottleneck
form. The upper concave envelope of the resulting (C, R) points at R1 is
realised by time sharing folded into U and re-evaluated exactly, so the
result is a certified lower bound on the capacity, deterministic for a fixed
seed. ``brute_force_capacity`` is an independent coarse-grid oracle for tiny
models, and ``cutset_discrete`` the matching upper bound. Restarts are
independent; model and config values are never mutated during a solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SolverError, UsageError, ValidationError
from .info import JointPmf, PROB_TOL, _entropy_bits
from .models import (
    DiscreteOrcd,
    _state_compound_matrix,
    channel_capacity,
    link_capacities,
)

__all__ = [
    "AuxiliaryScheme",
    "SolveConfig",
    "SolveReport",
    "objective",
    "solve_capacity",
    "brute_force_capacity",
    "cutset_discrete",
    "classify_cutset_tightness",
    "report_to_dict",
]


@dataclass(frozen=True, eq=False)
class AuxiliaryScheme:
    """A candidate (U, Yhat_R) choice: decode layer plus compression test channel.

    ``joint_ux1`` is the joint pmf of the decoded layer and the channel input;
    ``test_channel[y_r, u, yhat]`` is p(yhat | y_r, u) with each leading pair
    indexing a pmf over the compression alphabet.
    """

    joint_ux1: JointPmf
    test_channel: np.ndarray
    card_u: int
    card_yhat: int

    def __post_init__(self):
        joint = self.joint_ux1
        if not isinstance(joint, JointPmf):
            joint = JointPmf(np.asarray(joint, dtype=float), axis_labels=("U", "X1"))
        if joint.table.ndim != 2:
            raise ValidationError("AuxiliaryScheme: joint_ux1 must be a 2-axis table")
        if joint.dims[0] != self.card_u:
            raise ValidationError(
                f"AuxiliaryScheme: joint_ux1 has {joint.dims[0]} rows, card_u={self.card_u}"
            )
        t = np.asarray(self.test_channel, dtype=float)
        if t.ndim != 3:
            raise ValidationError(
                "AuxiliaryScheme: test_channel must have shape (y_r, u, yhat)"
            )
        if t.shape[1] != self.card_u or t.shape[2] != self.card_yhat:
            raise ValidationError(
                f"AuxiliaryScheme: test_channel shape {t.shape} inconsistent with "
                f"card_u={self.card_u}, card_yhat={self.card_yhat}"
            )
        if not np.all(np.isfinite(t)) or float(t.min()) < -PROB_TOL:
            raise ValidationError("AuxiliaryScheme: test_channel entries invalid")
        t = np.clip(t, 0.0, None)
        sums = t.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > PROB_TOL):
            r, u = map(int, np.argwhere(np.abs(sums - 1.0) > PROB_TOL)[0])
            raise ValidationError(
                f"AuxiliaryScheme: test_channel[{r}][{u}] sums to {sums[r, u]}"
            )
        t = t / sums[:, :, None]
        t.flags.writeable = False
        object.__setattr__(self, "joint_ux1", joint)
        object.__setattr__(self, "test_channel", t)


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for ``solve_capacity``.

    ``restarts`` is the number of starting decode layers p(u, x1) tried, in
    the order constant U, U = X1, each binary partition of X1, then seeded
    Dirichlet draws. ``max_iters`` caps the p(u | x1) updates per restart;
    0 keeps each start's p(u, x1) and only fits the test channels.
    ``card_u``/``card_yhat`` default to the sufficient cardinality bounds
    |X1| + 3 and |U| |Y_R| + 1 and may only be reduced. ``feas_tol`` is the
    slack allowed on the pipe constraint.
    """

    restarts: int = 16
    max_iters: int = 50
    seed: int = 0
    card_u: int | None = None
    card_yhat: int | None = None
    feas_tol: float = 1e-9


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a capacity solve: the best feasible scheme and its rate."""

    best_rate: float
    best_scheme: AuxiliaryScheme
    feasible: bool
    constraint_slack: float
    restarts_used: int
    seed: int


def _mi_2d(p: np.ndarray) -> float:
    val = _entropy_bits(p.sum(axis=1)) + _entropy_bits(p.sum(axis=0)) - _entropy_bits(p)
    return 0.0 if val < 0.0 else val


class _Front:
    """Joint-dependent factors of the five-axis table, cached per decode layer.

    With p(u,z,x,r) fixed, only H(U,Z,H) and H(U,Z,X,H) depend on the test
    channel; H(U,Z,R,H) splits exactly into H(U,Z,R) plus the p(u,r)-weighted
    test-column entropies.
    """

    __slots__ = ("p_uzxr", "p_uzr", "p_ur", "i_u_yr", "h_uz", "h_uzx", "h_uzr")

    def __init__(self, joint: np.ndarray, base: np.ndarray):
        # p(u, z, x, r) = p(u, x) p(z) p(r | x, z)
        p_uzxr = np.einsum("ux,xzr->uzxr", joint, base)
        self.p_uzxr = p_uzxr
        self.p_uzr = p_uzxr.sum(axis=2)
        self.p_ur = self.p_uzr.sum(axis=1)
        self.i_u_yr = _mi_2d(self.p_ur)
        self.h_uz = _entropy_bits(self.p_uzr.sum(axis=2))
        self.h_uzx = _entropy_bits(p_uzxr.sum(axis=3))
        self.h_uzr = _entropy_bits(self.p_uzr)


class _Evaluator:
    """Exact evaluation of the objective and constraint for one model."""

    def __init__(self, m: DiscreteOrcd):
        # base[x1, z, yr] = p(z) p(yr | x1, z)
        self.base = m.chan_sr * m.p_z.probs[None, :, None]

    def front(self, joint: np.ndarray) -> _Front:
        return _Front(joint, self.base)

    def terms(self, front: _Front, test: np.ndarray) -> tuple[float, float]:
        """(objective minus R2, constraint left-hand side)."""
        t_u = test.transpose(1, 0, 2)  # (u, r, h)
        p_uzh = np.matmul(front.p_uzr, t_u)
        h_uzh = _entropy_bits(p_uzh)
        p_uzxh = np.matmul(front.p_uzxr, t_u[:, None, :, :])
        h_uzxh = _entropy_bits(p_uzxh)
        # column entropies of p(h | r, u), weighted by p(u, r)
        col_h = -np.sum(test * np.log2(np.maximum(test, 1e-300)), axis=2)
        h_h_given_uzr = float(np.sum(front.p_ur * col_h.T))
        cmi_rate = front.h_uzx + h_uzh - h_uzxh - front.h_uz
        cmi_lhs = h_uzh - h_h_given_uzr - front.h_uz
        rate = front.i_u_yr + (cmi_rate if cmi_rate > 0.0 else 0.0)
        lhs = front.i_u_yr + (cmi_lhs if cmi_lhs > 0.0 else 0.0)
        return rate, lhs

    def evaluate(self, joint: np.ndarray, test: np.ndarray) -> tuple[float, float]:
        return self.terms(self.front(joint), test)


def _check_scheme(m: DiscreteOrcd, s: AuxiliaryScheme) -> None:
    if s.card_u > m.n_x1 + 3:
        raise UsageError(
            f"card_u={s.card_u} exceeds the sufficient bound |X1|+3={m.n_x1 + 3}"
        )
    if s.card_yhat > s.card_u * m.n_yr + 1:
        raise UsageError(
            f"card_yhat={s.card_yhat} exceeds the sufficient bound "
            f"|U||Y_R|+1={s.card_u * m.n_yr + 1}"
        )
    if s.joint_ux1.dims[1] != m.n_x1:
        raise UsageError(
            f"joint_ux1 input axis has size {s.joint_ux1.dims[1]}, model has {m.n_x1}"
        )
    if s.test_channel.shape[0] != m.n_yr:
        raise UsageError(
            f"test_channel output axis has size {s.test_channel.shape[0]}, "
            f"model has {m.n_yr}"
        )


def objective(m: DiscreteOrcd, s: AuxiliaryScheme) -> tuple[float, float]:
    """Rate and constraint value of one auxiliary scheme.

    Returns ``(R2 + I(U; Y_R) + I(X1; Yhat | U, Z),
    I(U; Y_R) + I(Y_R; Yhat | U, Z))``, both computed exactly from the
    assembled five-axis joint table.
    """
    _check_scheme(m, s)
    caps = link_capacities(m)
    rate, lhs = _Evaluator(m).evaluate(s.joint_ux1.table, s.test_channel)
    return caps.r2 + rate, lhs


# ---------------------------------------------------------------------------
# Lagrangian Blahut-Arimoto solver
# ---------------------------------------------------------------------------

# Largest |X1| |Y_R| |Z| the solver accepts.
_PRODUCT_CAP = 512

# Multipliers s of the Lagrangian R - s*C, one batch row each: the slopes at
# which the (C, R) trade-off is traced, evenly spaced in (0, 1). The envelope
# between two neighbours is a chord; on the fair-state binary anchors this even
# grid lands within 1.3e-3 bits of the capacity, where a logistic grid of the
# same size, denser near 0 and 1, left 2.9e-3.
_MULTIPLIERS = np.arange(1, 28) / 28.0

# A q loop stops once a round raises no multiplier's Lagrangian by more than
# _TOL bits, a restart once a whole round (p update and q loop) does not. The
# cap bounds the q loop where the iteration crawls near a phase transition of
# the test channel.
_TOL = 1e-6
_Q_ROUNDS = 500

# Weight of the uniform part of the initial test channel: the rest maps y_r
# losslessly, and every output label starts with some mass so that none is
# frozen at zero.
_Q_BLUR = 1e-2


def _log2(t: np.ndarray) -> np.ndarray:
    return np.log2(np.maximum(t, 1e-300))


def _neg_xlogx(t: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    return -np.sum(t * _log2(t), axis=axes)


def _deterministic_test(n_yr: int, card_u: int, card_yhat: int, lossless: bool) -> np.ndarray:
    """q[u, y_r, yhat] mapping y_r to itself (clipped to the alphabet) or to 0."""
    q = np.zeros((card_u, n_yr, card_yhat))
    for r in range(n_yr):
        q[:, r, min(r, card_yhat - 1) if lossless else 0] = 1.0
    return q


def _starts(n_x1: int, card_u: int, seed: int) -> Iterator[np.ndarray]:
    """Starting p(u, x1) of the restarts, in order.

    Constant U (compress-and-forward), U = X1 (decode-and-forward), one start
    per binary partition of X1 with the balanced ones first (decode one
    coordinate of a product input), then seeded Dirichlet draws.
    """
    xs = np.arange(n_x1)
    p_x1 = np.full(n_x1, 1.0 / n_x1)
    labels = [np.zeros(n_x1, dtype=int), xs % card_u]
    if n_x1 > 2 and card_u > 1:
        # a partition {A, complement}, listed once with x = n_x1 - 1 outside A
        sizes = sorted(range(1, n_x1), key=lambda k: (abs(n_x1 - 2 * k), k))
        labels = itertools.chain(labels, (
            np.isin(xs, subset).astype(int)
            for k in sizes
            for subset in itertools.combinations(range(n_x1 - 1), k)
        ))
    for ridx, lab in enumerate(labels):
        joint = np.zeros((card_u, n_x1))
        joint[lab, xs] = p_x1
        yield joint
    for ridx in itertools.count(ridx + 1):
        rng = np.random.default_rng((seed, ridx))
        yield rng.dirichlet(np.ones(card_u * n_x1)).reshape(card_u, n_x1)


class _Ascent:
    """Alternating maximisation of R - s*C, every multiplier s at once.

    With p(u, x1) fixed, the test channel q(yhat | y_r, u) that maximises the
    Lagrangian given the posteriors p(x1 | yhat, u, z) and p(yhat | u, z) is
    closed form, and so is p(u | x1) (p(x1) held fixed) given q and the
    posteriors: the information-bottleneck form of Blahut-Arimoto. Each update
    maximises the same function over one block, so no update lowers any
    multiplier's Lagrangian. Arrays carry the multiplier as their leading axis:
    joint[s, u, x1], q[s, u, y_r, yhat].
    """

    def __init__(self, base: np.ndarray):
        self.base = base.transpose(1, 0, 2)  # p(z) p(y_r | x1, z) as [z, x1, y_r]
        self.p_r_x = base.sum(axis=1)  # p(y_r | x1)

    def set_joint(self, joint: np.ndarray) -> None:
        """Fix p(u, x1) and every q-independent term of the Lagrangian."""
        self.joint = joint
        n_s, n_u, _ = joint.shape
        n_z, n_x, n_r = self.base.shape
        p = joint[:, :, None, :, None] * self.base  # p(u, z, x1, y_r)
        self.p = p.reshape(n_s, n_u, n_z * n_x, n_r)
        p_uzr = p.sum(axis=3)
        p_ur = p_uzr.sum(axis=2)
        p_u = p_ur.sum(axis=2)
        p_uz = p_uzr.sum(axis=3)
        self.p_ur = p_ur
        self.log_p_uz = _log2(p_uz)[:, :, :, None, None]
        self.log_p_u = _log2(p_u)[:, :, None]
        self.log_u_r = _log2(p_ur / np.maximum(p_ur.sum(axis=1, keepdims=True), 1e-300))
        i_u = (_neg_xlogx(p_u, (1,)) + _neg_xlogx(p_ur.sum(axis=1), (1,))
               - _neg_xlogx(p_ur, (1, 2)))
        h_x_uz = _neg_xlogx(p.sum(axis=4), (1, 2, 3)) - _neg_xlogx(p_uz, (1, 2))
        self.l_fixed = (1.0 - _MULTIPLIERS) * i_u + h_x_uz

    def _posteriors(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """(Lagrangian, a, (v, h)) at q.

        v[s, u, z x1, yhat] is (log p(x1 | yhat, u, z) + s log p(yhat | u, z)) / s
        for the posteriors of q, a[s, u, y_r, yhat] its p(u, z, x1, y_r)-weighted
        sum over (z, x1), and h[s, u, y_r] the entropy of q(. | y_r, u).
        """
        n_s, n_u, n_zx, _ = self.p.shape
        n_z = self.log_p_uz.shape[2]
        p_uzxh = (self.p @ q).reshape(n_s, n_u, n_z, n_zx // n_z, -1)
        log_uzxh = _log2(p_uzxh)
        log_uzh = _log2(p_uzxh.sum(axis=3, keepdims=True))
        s = _MULTIPLIERS[:, None, None, None, None]
        v = (log_uzxh - log_uzh) / s + log_uzh - self.log_p_uz
        v = v.reshape(n_s, n_u, n_zx, -1)
        h_q = _neg_xlogx(q, (3,))
        a = np.swapaxes(self.p, 2, 3) @ v
        value = self.l_fixed + _MULTIPLIERS * (
            np.sum(q * a, axis=(1, 2, 3)) + np.sum(self.p_ur * h_q, axis=(1, 2)))
        return value, a, (v, h_q)

    def q_loop(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Update q until no multiplier gains more than _TOL.

        Returns the last q with its Lagrangian and posterior terms (v, h)."""
        value, a, post = self._posteriors(q)
        for _ in range(_Q_ROUNDS):
            # q(yhat | y_r, u) proportional to 2^(a / p(u, y_r))
            a = a / np.maximum(self.p_ur, 1e-300)[..., None]
            q = np.exp2(a - a.max(axis=3, keepdims=True))
            q = q / q.sum(axis=3, keepdims=True)
            new, a, post = self._posteriors(q)
            gain, value = np.max(new - value), new
            if gain <= _TOL:
                break
        return q, value, post

    def p_update(self, q: np.ndarray, post: tuple) -> np.ndarray:
        """The p(u | x1) maximising the Lagrangian given q and its posteriors.

        p(u | x1) is proportional to 2^g(u, x1), where g is the expectation
        given (u, x1) of (1 - s) log p(u | y_r) + log p(x1 | yhat, u, z)
        + s log p(yhat | u, z) + s H(q(. | y_r, u)), plus s log p(u).
        """
        v, h_q = post
        n_s, n_u = q.shape[:2]
        n_z, n_x, n_r = self.base.shape
        w = (v @ np.swapaxes(q, 2, 3)).reshape(n_s, n_u, n_z, n_x, n_r)
        s = _MULTIPLIERS[:, None, None]
        g = s * np.einsum("zxr,buzxr->bux", self.base, w)
        g += np.einsum("xr,bur->bux", self.p_r_x, (1.0 - s) * self.log_u_r + s * h_q)
        g += s * self.log_p_u
        # cells outside the support have p(x1 | yhat, u, z) = 0: they stay 0
        support = self.joint > 0.0
        g = np.where(support, g, -np.inf)
        w = np.where(support, np.exp2(g - g.max(axis=1, keepdims=True)), 0.0)
        p_x1 = self.joint.sum(axis=1, keepdims=True)
        return p_x1 * w / w.sum(axis=1, keepdims=True)


def _feasible(lhs: float, r1: float, tol: float) -> bool:
    """The pipe constraint, up to the feasibility tolerance."""
    return lhs <= r1 + tol


def _fold(lam: float, a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray],
          card_u: int) -> tuple[np.ndarray, np.ndarray]:
    """Time sharing lam : 1 - lam of two schemes, folded into one decode layer.

    The time-sharing variable becomes part of U: the used rows of ``a`` then
    those of ``b``, scaled by their weights, each with its own test channel.
    """
    joint = np.zeros((card_u, a[0].shape[1]))
    test = _deterministic_test(a[1].shape[1], card_u, a[1].shape[2], lossless=False)
    k = 0
    for weight, (j, q) in ((lam, a), (1.0 - lam, b)):
        used = j.sum(axis=1) > 0.0
        n = int(used.sum())
        joint[k:k + n] = weight * j[used]
        test[k:k + n] = q[used]
        k += n
    return joint, test


def solve_capacity(m: DiscreteOrcd, cfg: SolveConfig | None = None) -> SolveReport:
    """Best feasible rate for the capacity expression.

    Every restart fixes a starting p(u, x1) and runs the Lagrangian
    Blahut-Arimoto iteration for each multiplier in a fixed grid. The (C, R)
    points it ends at, plus the lossless and the constant test channel on the
    start, form a pool; the upper concave envelope of the pool at r1 is
    realised by time sharing two points with the same p(x1), folded into U.
    The returned scheme is re-evaluated exactly: the result is a certified
    lower bound on the capacity, deterministic for a fixed ``(model, cfg)``.
    """
    cfg = cfg or SolveConfig()
    if cfg.restarts < 1:
        raise UsageError("solve_capacity: restarts must be >= 1")
    if cfg.max_iters < 0:
        raise UsageError("solve_capacity: max_iters must be >= 0")
    if m.n_x1 * m.n_yr * m.n_z > _PRODUCT_CAP:
        raise UsageError(
            f"model product |X1||Y_R||Z| = {m.n_x1 * m.n_yr * m.n_z} exceeds "
            f"the cap {_PRODUCT_CAP}"
        )
    card_u = cfg.card_u if cfg.card_u is not None else m.n_x1 + 3
    card_yhat = cfg.card_yhat if cfg.card_yhat is not None else card_u * m.n_yr + 1
    if not 1 <= card_u <= m.n_x1 + 3:
        raise UsageError(f"card_u must be in [1, {m.n_x1 + 3}], got {card_u}")
    if not 1 <= card_yhat <= card_u * m.n_yr + 1:
        raise UsageError(f"card_yhat must be in [1, {card_u * m.n_yr + 1}], got {card_yhat}")

    caps = link_capacities(m)
    r1, r2 = caps.r1, caps.r2
    if r1 < -cfg.feas_tol:
        raise SolverError(f"no feasible scheme: negative link rate r1 = {r1}")
    ev = _Evaluator(m)
    ascent = _Ascent(ev.base)
    n_s = _MULTIPLIERS.size
    lossless = _deterministic_test(m.n_yr, card_u, card_yhat, lossless=True)
    constant = _deterministic_test(m.n_yr, card_u, card_yhat, lossless=False)
    q_init = (1.0 - _Q_BLUR) * lossless + _Q_BLUR / card_yhat

    # pool of (joint, q[u, y_r, yhat]) per p(x1) of the start, with (R, C)
    groups: dict[bytes, list] = {}
    for start in itertools.islice(_starts(m.n_x1, card_u, cfg.seed), cfg.restarts):
        ascent.set_joint(np.broadcast_to(start, (n_s,) + start.shape))
        q, value, post = ascent.q_loop(np.broadcast_to(q_init, (n_s,) + q_init.shape))
        for _ in range(cfg.max_iters):
            ascent.set_joint(ascent.p_update(q, post))
            q, new, post = ascent.q_loop(q)
            gain, value = np.max(new - value), new
            if gain <= _TOL:
                break
        points = [(start, lossless), (start, constant)]
        points += [(ascent.joint[i], q[i]) for i in range(n_s)]
        group = groups.setdefault(start.sum(axis=0).tobytes(), [])
        for joint, test in points:
            group.append((joint, test) + ev.evaluate(joint, test.transpose(1, 0, 2)))

    # the best feasible point, then the best two-point mixture at r1
    pool = [pt for group in groups.values() for pt in group]
    single = max((pt for pt in pool if _feasible(pt[3], r1, cfg.feas_tol)),
                 key=lambda pt: pt[2])
    best, mix = single[2], None
    for group in groups.values():
        rate = np.array([pt[2] for pt in group])
        lhs = np.array([pt[3] for pt in group])
        used = np.array([int((pt[0].sum(axis=1) > 0.0).sum()) for pt in group])
        ok = ((lhs[:, None] <= r1) & (lhs[None, :] > r1)
              & (used[:, None] + used[None, :] <= card_u))
        if not ok.any():
            continue
        span = np.where(ok, lhs[None, :] - lhs[:, None], 1.0)
        lam = np.where(ok, (lhs[None, :] - r1) / span, 0.0)
        mixed = np.where(ok, lam * rate[:, None] + (1.0 - lam) * rate[None, :], -math.inf)
        i, j = np.unravel_index(int(np.argmax(mixed)), mixed.shape)
        if mixed[i, j] > best:
            best, mix = mixed[i, j], (float(lam[i, j]), group[i][:2], group[j][:2])

    def certified(joint: np.ndarray, test: np.ndarray):
        scheme = AuxiliaryScheme(
            joint_ux1=JointPmf(joint, axis_labels=("U", "X1")),
            test_channel=test.transpose(1, 0, 2),
            card_u=card_u,
            card_yhat=card_yhat,
        )
        return (scheme,) + ev.evaluate(scheme.joint_ux1.table, scheme.test_channel)

    scheme, rate, lhs = certified(single[0], single[1])
    if mix is not None:
        cand = certified(*_fold(*mix, card_u))
        if _feasible(cand[2], r1, cfg.feas_tol) and cand[1] > rate:
            scheme, rate, lhs = cand
    return SolveReport(
        best_rate=r2 + rate,
        best_scheme=scheme,
        feasible=_feasible(lhs, r1, cfg.feas_tol),
        constraint_slack=r1 - lhs,
        restarts_used=cfg.restarts,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _simplex_grid(parts: int, steps: int) -> Iterator[np.ndarray]:
    """All probability vectors with ``parts`` entries on a 1/steps grid."""

    def compositions(total: int, k: int):
        if k == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, k - 1):
                yield (head,) + rest

    for combo in compositions(steps, parts):
        yield np.asarray(combo, dtype=float) / steps


def brute_force_capacity(
    m: DiscreteOrcd,
    resolution: float,
    *,
    card_u: int = 1,
    card_yhat: int = 2,
    feas_tol: float = 1e-9,
) -> float:
    """Exhaustive simplex-grid search over small auxiliary schemes.

    Enumerates the decode-layer joint and every test-channel column on a grid
    of pitch ``resolution`` and returns the best feasible objective: a coarse
    but independent lower bound whose value can only grow as the resolution
    shrinks through nested grids (e.g. 0.1 -> 0.05). Cardinalities are capped
    at |U| <= 3, |X1| <= 2, |Yhat| <= 3 and the resolution at >= 0.05 to keep
    the enumeration exact and affordable.
    """
    if m.n_x1 > 2:
        raise UsageError(f"brute force caps |X1| at 2, model has {m.n_x1}")
    if not 1 <= card_u <= 3:
        raise UsageError(f"brute force caps card_u at 3, got {card_u}")
    if not 1 <= card_yhat <= 3:
        raise UsageError(f"brute force caps card_yhat at 3, got {card_yhat}")
    resolution = float(resolution)
    if resolution < 0.05:
        raise UsageError(f"resolution must be >= 0.05, got {resolution}")
    steps = max(1, round(1.0 / resolution))

    caps = link_capacities(m)
    r1, r2 = caps.r1, caps.r2
    ev = _Evaluator(m)
    n_cols = m.n_yr * card_u

    joints = [j.reshape(card_u, m.n_x1) for j in _simplex_grid(card_u * m.n_x1, steps)]
    cols = list(_simplex_grid(card_yhat, steps))
    combos = len(joints) * len(cols) ** n_cols
    if combos > 2_000_000:
        raise UsageError(
            f"{combos} grid combinations exceed the enumeration budget; "
            "coarsen the resolution or reduce the cardinalities"
        )

    best = -math.inf
    test = np.empty((m.n_yr, card_u, card_yhat))
    for joint in joints:
        front = ev.front(joint)
        for combo in itertools.product(cols, repeat=n_cols):
            for idx, col in enumerate(combo):
                r_i, u_i = divmod(idx, card_u)
                test[r_i, u_i, :] = col
            rate, lhs = ev.terms(front, test)
            if rate > best and _feasible(lhs, r1, feas_tol):
                best = rate
    return r2 + best


# ---------------------------------------------------------------------------
# Cut-set bound and tightness classification
# ---------------------------------------------------------------------------


def cutset_discrete(m: DiscreteOrcd, *, tol: float = 1e-9) -> float:
    """R2 + min{R1, max_{p(x1)} I(X1; Y_R | Z)}."""
    caps = link_capacities(m, tol=tol)
    inner, _ = channel_capacity(_state_compound_matrix(m.chan_sr, m.p_z), tol=tol)
    return caps.r2 + min(caps.r1, inner)


def classify_cutset_tightness(m: DiscreteOrcd) -> set[str]:
    """Which of the four sufficient conditions for a tight cut-set bound hold.

    case1: the source-relay channel ignores the state (decode-and-forward
           meets the bound);
    case2: the relay observation is a deterministic function of input and
           state (compress-and-forward meets it);
    case3: the relay can decode at the full pipe rate without the state;
    case4: the pipe rate exceeds the state-conditioned output entropy at the
           maximising input, so the observation ships losslessly.

    Returns every case that holds at tolerance 1e-9, or {"none"}.
    """
    tol = 1e-9
    cases: set[str] = set()
    support = m.p_z.probs > tol  # zero-probability states cannot leak information
    sr_supported = m.chan_sr[:, support, :]
    if float(np.ptp(sr_supported, axis=1).max()) <= tol:
        cases.add("case1")
    if float(sr_supported.max(axis=2).min()) >= 1.0 - tol:
        cases.add("case2")
    caps = link_capacities(m)
    w_marginal = np.einsum("xzr,z->xr", m.chan_sr, m.p_z.probs)
    c_marginal, _ = channel_capacity(w_marginal)
    if c_marginal >= caps.r1 - tol:
        cases.add("case3")
    _, p_bar = channel_capacity(_state_compound_matrix(m.chan_sr, m.p_z))
    p_yr_given_z = np.einsum("x,xzr->zr", p_bar, m.chan_sr)
    h_bar = float(
        sum(
            m.p_z[z] * _entropy_bits(p_yr_given_z[z])
            for z in range(m.n_z)
        )
    )
    if caps.r1 > h_bar - tol:
        cases.add("case4")
    return cases if cases else {"none"}


def report_to_dict(report: SolveReport) -> dict:
    """JSON-ready view of a report, scheme tables at full float precision."""
    scheme = report.best_scheme
    return {
        "best_rate": report.best_rate,
        "feasible": report.feasible,
        "constraint_slack": report.constraint_slack,
        "restarts_used": report.restarts_used,
        "seed": report.seed,
        "best_scheme": {
            "card_u": scheme.card_u,
            "card_yhat": scheme.card_yhat,
            "joint_ux1": scheme.joint_ux1.table.tolist(),
            "test_channel": scheme.test_channel.tolist(),
        },
    }
