"""Numerical evaluation of the relay-channel capacity expression.

The capacity of a discrete model is the supremum of

    R2 + I(U; Y_R) + I(X1; Yhat_R | U, Z)
    subject to  R1 >= I(U; Y_R) + I(Y_R; Yhat_R | U, Z)

over joint pmfs factorising as p(u, x1) p(z) p(y_R | x1, z) p(yhat | y_R, u).
The objective is not jointly concave. ``solve_capacity`` fixes a starting
decode layer p(u, x1) per restart (compress-only, decode-only, one per binary
partition of X1, then seeded random draws) and searches the chords of the
upper concave envelope of the (C, R) points found so far at R1:

- one row per point, in one table that also names each point's group (the
  starts that share p(x1)) and the start whose search made it;
- a search is a mask of that table: a start's own rows, or its group's;
- each round maximises the Lagrangian R - s*C at the slope s of every rising
  chord from both its ends, by alternating closed-form updates of the test
  channel and of p(u | x1) (the beta-sweep of the information bottleneck, in
  Blahut-Arimoto form), ascends an end asked for twice at one slope once,
  and ends a start's search once its group's chord stalls;
- the search stops when no chord rises, at a round cap, or once its certified
  rate meets the cut-set bound to within the Blahut-Arimoto certificate
  ``_BA_GAP`` (the bound is then the capacity);
- the envelope at R1 is realised by time sharing folded into U, reduced to the
  support lemma's |U| = |X1| + 3 rows by its Caratheodory step (``_fold``),
  and re-evaluated exactly by ``objective``: the report's rate is a certified
  lower bound on the capacity, deterministic for a fixed seed.

``brute_force_capacity`` is an independent coarse-grid oracle over the
compress-and-forward schemes (constant U) of tiny models, and
``cutset_discrete`` the matching upper bound. Model and config values are
never mutated during a solve.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
import sys
from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from .errors import UsageError, ValidationError
from .info import _LOG_ZERO, JointPmf, _conditional, _log2, _neg_xlogx
from .models import (
    _BA_GAP,
    DiscreteOrcd,
    channel_capacity,
    link_capacities,  # noqa: F401  unused here, bound for perfbench's tracer test
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
        t = _conditional("AuxiliaryScheme: test_channel", self.test_channel, 3)
        if t.shape[1] != self.card_u or t.shape[2] != self.card_yhat:
            raise ValidationError(
                f"AuxiliaryScheme: test_channel shape {t.shape} inconsistent with "
                f"card_u={self.card_u}, card_yhat={self.card_yhat}"
            )
        object.__setattr__(self, "joint_ux1", joint)
        object.__setattr__(self, "test_channel", t)


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for ``solve_capacity``.

    ``restarts`` is the number of starting decode layers p(u, x1) tried, in
    the order constant U, U = X1, each binary partition of X1, then seeded
    Dirichlet draws. ``max_iters`` caps the p(u | x1) updates of each
    ascent; 0 keeps each start's p(u, x1) and only fits the test channels.
    All three are integers (``bool`` is refused). The alphabets of U and Yhat
    are sized from the model (see ``solve_capacity``). ``feas_tol`` is the
    slack allowed on the pipe constraint, fixed for every solve.
    """

    restarts: int = 16
    max_iters: int = 50
    seed: int = 0
    feas_tol: ClassVar[float] = 1e-9


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a capacity solve: the best feasible scheme and its rate."""

    best_rate: float
    best_scheme: AuxiliaryScheme
    feasible: bool
    constraint_slack: float
    restarts_used: int
    seed: int


def _batch_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of a[i] and b[i] for every leading index i."""
    n = a.shape[0]
    return (a.reshape(n, 1, -1) @ b.reshape(n, -1, 1)).reshape(n)


def _base(m: DiscreteOrcd) -> np.ndarray:
    """p(z) p(y_r | x1, z) as base[z, x1, y_r]."""
    return (m.chan_sr * m.p_z.probs[None, :, None]).transpose(1, 0, 2)


class _Expression:
    """The capacity expression of one model for a batch of decode layers.

    Built from ``base`` (see ``_base``) and joint[b, u, x1] = p(u, x1); holds
    p(u, z, x1, y_r) and every term that does not depend on the test channel.
    ``terms`` evaluates one test channel q[b, u, y_r, yhat] = p(yhat | y_r, u)
    per decode layer.
    """

    def __init__(self, base: np.ndarray, joint: np.ndarray):
        n_b, n_u, _ = joint.shape
        n_z, n_x, n_r = base.shape
        self.base, self.joint = base, joint
        p = joint[:, :, None, :, None] * base  # p(u, z, x1, y_r)
        self.p = p.reshape(n_b, n_u, n_z * n_x, n_r)
        p_uzr = p.sum(axis=3)
        p_ur = p_uzr.sum(axis=2)
        p_u = p_ur.sum(axis=2)
        p_uz = p_uzr.sum(axis=3)
        self.p_ur = p_ur
        self.log_p_uz = _log2(p_uz)[:, :, :, None, None]
        self.log_p_u = _log2(p_u)[:, :, None]
        i_u = (_neg_xlogx(p_u, (1,)) + _neg_xlogx(p_ur.sum(axis=1), (1,))
               - _neg_xlogx(p_ur, (1, 2)))
        self.i_u = np.maximum(i_u, 0.0)  # I(U; Y_R)
        self.h_uz = _neg_xlogx(p_uz, (1, 2))
        self.h_uzx = _neg_xlogx(p.sum(axis=4), (1, 2, 3))

    def terms(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """(rate, lhs, posteriors) of the test channels q.

        rate[b] = I(U; Y_R) + I(X1; Yhat | U, Z) and lhs[b] = I(U; Y_R)
        + I(Y_R; Yhat | U, Z). The posteriors are given as the log tables
        log p(u, z, x1, yhat) and log p(u, z, yhat), with the entropy
        h[b, u, y_r] of each q(. | y_r, u).
        """
        n_b, n_u, n_z = self.log_p_uz.shape[:3]
        p_uzxh = (self.p @ q).reshape(n_b, n_u, n_z, self.base.shape[1], -1)
        p_uzh = p_uzxh.sum(axis=3, keepdims=True)
        log_uzxh, log_uzh = _log2(p_uzxh), _log2(p_uzh)
        h_q = _neg_xlogx(q, (3,))
        h_uzh = -_batch_dot(p_uzh, log_uzh)
        h_uzxh = -_batch_dot(p_uzxh, log_uzxh)
        cmi_rate = self.h_uzx + h_uzh - h_uzxh - self.h_uz
        cmi_lhs = h_uzh - np.sum(self.p_ur * h_q, axis=(1, 2)) - self.h_uz
        rate = self.i_u + np.maximum(cmi_rate, 0.0)
        lhs = self.i_u + np.maximum(cmi_lhs, 0.0)
        return rate, lhs, (log_uzxh, log_uzh, h_q)

    def rows(self, idx) -> "_Expression":
        """The same expression for the batch rows ``idx`` only."""
        sub = object.__new__(_Expression)
        # every array but the model's base has the batch as its leading axis
        vars(sub).update((k, v if k == "base" else v[idx]) for k, v in vars(self).items())
        return sub


def _check_scheme(m: DiscreteOrcd, s: AuxiliaryScheme) -> None:
    """The scheme's axes fit the model, within the sufficient cardinality
    bounds |U| <= |X1| + 3 and |Yhat| <= |U||Y_R| + 1."""
    for name, card, bound in (("card_u", s.card_u, m.n_x1 + 3),
                              ("card_yhat", s.card_yhat, s.card_u * m.n_yr + 1)):
        if not 1 <= card <= bound:
            raise UsageError(f"{name} must be in [1, {bound}], got {card}")
    for axis, size, n in (("joint_ux1 input", s.joint_ux1.dims[1], m.n_x1),
                          ("test_channel output", s.test_channel.shape[0], m.n_yr)):
        if size != n:
            raise UsageError(f"{axis} axis has size {size}, model has {n}")


def objective(m: DiscreteOrcd, s: AuxiliaryScheme) -> tuple[float, float]:
    """Rate and constraint value of one auxiliary scheme.

    Returns ``(R2 + I(U; Y_R) + I(X1; Yhat | U, Z),
    I(U; Y_R) + I(Y_R; Yhat | U, Z))``. The information terms are computed
    exactly by ``_Expression.terms`` on the scheme's one decode layer and
    test channel, and R2 is the model's ``direct_link`` capacity.
    ``solve_capacity`` scores its candidates here, so a report's rate is
    ``objective`` of its scheme.
    """
    _check_scheme(m, s)
    rate, lhs, _ = _Expression(_base(m), s.joint_ux1.table[None]).terms(
        s.test_channel.transpose(1, 0, 2)[None])
    return m.direct_link[0] + float(rate[0]), float(lhs[0])


# ---------------------------------------------------------------------------
# Lagrangian Blahut-Arimoto solver
# ---------------------------------------------------------------------------

# One DEBUG record per solve_capacity call: rounds searched, ascent rows,
# start searches stopped by their group's stall and why the search stopped.
# Silent unless the application configures logging.
_log = logging.getLogger(__name__)

# Largest |X1| |Y_R| |Z| the solver accepts.
_PRODUCT_CAP = 512

# A row's q loop stops once a round raises its Lagrangian by no more than _TOL
# bits, its ascent once a whole round (p update and q loop) does not. The cap
# bounds the q loop where the iteration crawls near a phase transition of the
# test channel.
_TOL = 1e-6
_Q_ROUNDS = 500

# At most this many rounds of the chord search. Each round's endpoints stop at
# _TOL, so a chord keeps rising by a shrinking step; on the fair-state binary
# anchors (r1 = 0.25, delta = 0.1 / 0.25) the search ends within 1.3e-8 bits
# of the capacity, from two restarts as from sixteen.
_REFINE_ROUNDS = 16


def _deterministic_test(n_yr: int, card_u: int, card_yhat: int, lossless: bool) -> np.ndarray:
    """q[u, y_r, yhat] mapping y_r to itself or to 0."""
    q = np.zeros((card_u, n_yr, card_yhat))
    q[:, np.arange(n_yr), np.arange(n_yr) if lossless else 0] = 1.0
    return q


def _starts(n_x1: int, card_u: int, seed: int) -> Iterator[np.ndarray]:
    """Starting p(u, x1) of the restarts, in order.

    Constant U (compress-and-forward), U = X1 (decode-and-forward), one start
    per binary partition of X1 with the balanced ones first (decode one
    coordinate of a product input), then seeded Dirichlet draws.
    """
    xs = np.arange(n_x1)
    p_x1 = np.full(n_x1, 1.0 / n_x1)
    labels = [np.zeros(n_x1, dtype=int), xs]
    if n_x1 > 2:
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


def _v(ex: _Expression, post: tuple, s: np.ndarray) -> np.ndarray:
    """v[b, u, z, x1, yhat] = (log p(x1 | yhat, u, z) + s log p(yhat | u, z)) / s."""
    log_uzxh, log_uzh, _ = post
    v = log_uzxh - log_uzh
    v /= s[:, None, None, None, None]
    v += log_uzh
    v -= ex.log_p_uz
    return v


def _q_loop(ex: _Expression, q: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Update each row's q until it gains no more than _TOL.

    Row b carries multiplier s[b]: arrays have the batch as their leading
    axis, q[b, u, y_r, yhat]. Returns the last q with its Lagrangian R - s*C
    and its ``terms``. With p(u, x1) fixed, the q maximising the Lagrangian
    given the posteriors of the previous q is closed form; this and
    ``_p_update`` are the information-bottleneck form of Blahut-Arimoto.
    Each update maximises the same function over one block, so none lowers
    a row's Lagrangian. A round evaluates only the rows still gaining more
    than _TOL, and a row that stops is written back in place: its result
    does not depend on which other rows share the batch.
    """
    q = np.array(q)
    rate, lhs, post = ex.terms(q)
    value = rate - s * lhs
    rows, sub, sub_post, sub_value = np.arange(s.size), ex, post, value
    for k in range(1, _Q_ROUNDS + 1):
        s_rows = s[rows]
        v = _v(sub, sub_post, s_rows)
        # a label without mass at (u, z) has no posterior there and must stay
        # empty; with log 0 read as the log floor it would look like a perfect
        # fit and, once |log p(x1 | ...)| / s passes the floor, draw every y_r
        np.copyto(v, -1e300, where=sub_post[1] == _LOG_ZERO)
        # q(yhat | y_r, u) proportional to 2^(a / p(u, y_r)), with a the
        # p(u, z, x1, y_r)-weighted sum of v over (z, x1)
        a = np.swapaxes(sub.p, 2, 3) @ v.reshape(sub.p.shape[:3] + (-1,))
        a /= np.maximum(sub.p_ur, 1e-300)[..., None]
        a -= a.max(axis=3, keepdims=True)
        sub_q = np.exp2(a)
        sub_q /= sub_q.sum(axis=3, keepdims=True)
        r, c, sub_post = sub.terms(sub_q)
        new = r - s_rows * c
        moving = (new - sub_value > _TOL) & (k < _Q_ROUNDS)
        if not moving.all():
            done, at = ~moving, rows[~moving]
            q[at], rate[at], lhs[at], value[at] = sub_q[done], r[done], c[done], new[done]
            for full, part in zip(post, sub_post):
                full[at] = part[done]
            if not moving.any():
                break
            rows, sub = rows[moving], sub.rows(moving)
            sub_post, new = tuple(t[moving] for t in sub_post), new[moving]
        sub_value = new
    return q, value, (rate, lhs, post)


def _p_update(ex: _Expression, q: np.ndarray, post: tuple, s: np.ndarray) -> np.ndarray:
    """The p(u, x1) maximising the Lagrangian given q and its posteriors.

    p(x1) is held fixed and p(u | x1) is proportional to 2^g(u, x1), where g
    is the expectation given (u, x1) of (1 - s) log p(u | y_r)
    + log p(x1 | yhat, u, z) + s log p(yhat | u, z) + s H(q(. | y_r, u)),
    plus s log p(u).
    """
    h_q = post[2]
    n_b, n_u = q.shape[:2]
    n_z, n_x, n_r = ex.base.shape
    v = _v(ex, post, s).reshape(ex.p.shape[:3] + (-1,))
    w = (v @ np.swapaxes(q, 2, 3)).reshape(n_b, n_u, n_z, n_x, n_r)
    s = s[:, None, None]
    log_u_r = _log2(ex.p_ur / np.maximum(ex.p_ur.sum(axis=1, keepdims=True), 1e-300))
    g = s * np.einsum("zxr,buzxr->bux", ex.base, w)
    g += np.einsum("xr,bur->bux", ex.base.sum(axis=0), (1.0 - s) * log_u_r + s * h_q)
    g += s * ex.log_p_u
    # cells outside the support have p(x1 | yhat, u, z) = 0: they stay 0
    support = ex.joint > 0.0
    g = np.where(support, g, -np.inf)
    w = np.where(support, np.exp2(g - g.max(axis=1, keepdims=True)), 0.0)
    p_x1 = ex.joint.sum(axis=1, keepdims=True)
    return p_x1 * w / w.sum(axis=1, keepdims=True)


def _ascent(base: np.ndarray, joint: np.ndarray, q: np.ndarray, s: np.ndarray,
            max_iters: int) -> tuple[np.ndarray, ...]:
    """The Lagrangian ascent of each row from (joint[b], q[b]) at multiplier s[b].

    A q loop, then up to ``max_iters`` rounds of a p(u, x1) update and a q
    loop; a row stops after the first round that gains no more than _TOL.
    Returns the final (joint, q, rate, lhs) of every row.
    """
    ex = _Expression(base, joint)
    q, value, (rate, lhs, post) = _q_loop(ex, q, s)
    joint = np.array(joint)
    rows = np.arange(s.size)
    for _ in range(max_iters):
        ex = _Expression(base, _p_update(ex, q[rows], post, s[rows]))
        q_rows, new, (r, c, post) = _q_loop(ex, q[rows], s[rows])
        moving = new - value[rows] > _TOL
        joint[rows], q[rows], value[rows], rate[rows], lhs[rows] = ex.joint, q_rows, new, r, c
        if not moving.any():
            break
        rows, ex, post = rows[moving], ex.rows(moving), tuple(t[moving] for t in post)
    return joint, q, rate, lhs


def _feasible(lhs: float, r1: float) -> bool:
    """The pipe constraint, up to the feasibility tolerance."""
    return lhs <= r1 + SolveConfig.feas_tol


def _fold(base: np.ndarray, lam: float, joint: np.ndarray,
          q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time sharing lam : 1 - lam of the schemes (joint[0], q[0]) and (joint[1],
    q[1]), folded into one decode layer.

    The time-sharing variable becomes part of U: the used rows of the first
    scheme then those of the second, scaled by their weights, each with its
    own test channel. Where they outnumber |U| = |X1| + 3, the support lemma's
    Caratheodory step moves the row weights along a null vector of the rows'
    p(x1 | u), I(X1; Yhat | Z, u), I(Y_R; Yhat | Z, u) and H(Y_R | u) until a
    row empties, keeping p(x1) (so H(Y_R)), the rate and the constraint value.
    """
    out, test = np.zeros_like(joint[0]), np.zeros_like(q[0])
    test[..., 0] = 1.0  # rows left unused map every y_r to label 0
    weights = np.array([lam, 1.0 - lam])
    used = weights[:, None] * joint.sum(axis=2) > 0.0
    rows, tests = (weights[:, None, None] * joint)[used], q[used]
    if len(rows) > len(out):
        p_u = rows.sum(axis=1)
        cond = rows / p_u[:, None]
        ex = _Expression(base, cond[:, None])
        per_row = np.vstack([cond.T, *ex.terms(tests[:, None])[:2], _neg_xlogx(ex.p_ur, (1, 2))])
        while len(p_u) > len(out):
            v = np.linalg.svd(per_row)[2][-1]  # sums to 0, as each p(x1 | u) sums to 1
            step = np.where(v > 0.0, p_u / np.where(v > 0.0, v, 1.0), math.inf)
            keep = np.arange(len(p_u)) != np.argmin(step)
            p_u = np.maximum(p_u - step.min() * v, 0.0)[keep]
            cond, tests, per_row = cond[keep], tests[keep], per_row[:, keep]
        rows = p_u[:, None] * cond
    out[:len(rows)], test[:len(rows)] = rows, tests
    return out, test


def _chord(rate: np.ndarray, lhs: np.ndarray, rows: np.ndarray, r1: float) -> tuple | None:
    """The segment at r1 of the upper concave envelope of the table rows
    ``rows``: (rate, lam, a, b).

    Row a meets the pipe constraint, row b exceeds it and lam : 1 - lam of
    them meets it with equality. None when no pair qualifies.
    """
    rate, lhs = rate[rows], lhs[rows]
    ok = (lhs[:, None] <= r1) & (lhs[None, :] > r1)
    if not ok.any():
        return None
    span = np.where(ok, lhs[None, :] - lhs[:, None], 1.0)
    lam = np.where(ok, (lhs[None, :] - r1) / span, 0.0)
    mixed = np.where(ok, lam * rate[:, None] + (1.0 - lam) * rate[None, :], -math.inf)
    i, j = np.unravel_index(int(np.argmax(mixed)), mixed.shape)
    return mixed[i, j], float(lam[i, j]), rows[i], rows[j]


def solve_capacity(m: DiscreteOrcd, cfg: SolveConfig | None = None) -> SolveReport:
    """Best feasible rate for the capacity expression.

    - One row per point. The search keeps one table: p(u, x1), the test
      channel, rate and constraint value of each point, with its group (the
      starts that share p(x1), in order of appearance) and the start whose
      search made it (-1: the group's own search). Each start adds its
      lossless and its constant test channel.
    - A search is a mask of the table: a start's search chords its own rows,
      its group's search all the group's. The chord at r1, the segment of
      the upper concave envelope active there, is a slope s.
    - A round ascends, in one batch, both ends of every rising chord at its
      s by the Lagrangian Blahut-Arimoto iteration; ascends a row at the end
      of two chords of one slope once, for the first search that asked
      (start searches come first); and ends a start's search when its
      group's chord stalls (rises by at most ``_BA_GAP`` bits).
    - The stop: ``no chord rising``, the ``round cap`` of ``_REFINE_ROUNDS``,
      or ``cutset met``: a round whose best chord reaches
      ``cutset_discrete(m) - _BA_GAP`` certifies its pick at once and returns
      it if it is feasible and still meets the bound, forgoing at most
      ``_BA_GAP`` bits (plus feasibility-tolerance rounding).
    - The fold: the best group chord (the first group's of equal ones),
      folded into U in |U| rows by ``_fold``, where it beats the best
      feasible row (the earliest of equal rates) and its exact re-evaluation
      by ``objective`` is feasible; else that row, re-evaluated exactly. The
      rate is a certified lower bound on the capacity, deterministic for a
      fixed ``(model, cfg)``.

    U takes the support lemma's |X1| + 3 values and Yhat the |Y_R| values the
    search can reach; ``cfg``'s fields must be integers, not ``bool``, and
    ``restarts`` at most ``sys.maxsize``. One DEBUG record on the
    ``relaycap.solver`` logger gives the rounds searched, the ascent rows,
    the start searches stopped by their group's stall and the stop.
    """
    cfg = cfg or SolveConfig()
    budget = {}
    for name, least in (("restarts", 1), ("max_iters", 0), ("seed", 0)):
        value = getattr(cfg, name)
        try:  # a numpy integer becomes an int; a bool, numpy's too, is refused
            budget[name] = operator.index(None if isinstance(value, bool) else value)
        except TypeError:
            raise UsageError(f"solve_capacity: {name} must be an integer, got {value!r}") from None
        if budget[name] < least:
            raise UsageError(f"solve_capacity: {name} must be >= {least}")
    restarts, max_iters, seed = budget.values()
    if restarts > sys.maxsize:  # the most starts itertools.islice can count
        raise UsageError(f"solve_capacity: restarts must be <= {sys.maxsize}")
    if m.n_x1 * m.n_yr * m.n_z > _PRODUCT_CAP:
        raise UsageError(f"model product |X1||Y_R||Z| = {m.n_x1 * m.n_yr * m.n_z} "
                         f"exceeds the cap {_PRODUCT_CAP}")
    # The support lemma allows |U||Y_R| + 1 labels of Yhat, but both starting
    # test channels use only the first |Y_R|, the q loop keeps an empty label
    # empty and the p update keeps the support of p(u, x1): no search fills more.
    card_u, card_yhat = m.n_x1 + 3, m.n_yr

    r1, r2 = m.relay_link[0], m.direct_link[0]
    base = _base(m)
    fixed = np.stack([_deterministic_test(m.n_yr, card_u, card_yhat, lossless)
                      for lossless in (True, False)])

    # the table: row n holds joint[n] = p(u, x1), q[n, u, y_r, yhat] and their
    # rate and lhs, its group g[n] of starts that share p(x1) and the start
    # k[n] whose search made it, -1 for the group's own search
    starts = list(itertools.islice(_starts(m.n_x1, card_u, seed), restarts))
    joint, q = np.repeat(starts, 2, axis=0), np.tile(fixed, (restarts, 1, 1, 1))
    rate, lhs, _ = _Expression(base, joint).terms(q)
    groups = {}  # p(x1) -> group, numbered in order of appearance
    start_group = [groups.setdefault(start.sum(axis=0).tobytes(), len(groups)) for start in starts]
    g, k = np.repeat(start_group, 2), np.repeat(np.arange(restarts), 2)
    # the best chord of each search (group, start), start searches first
    best = dict.fromkeys([(group, start) for start, group in enumerate(start_group)]
                         + [(group, -1) for group in range(len(groups))], -math.inf)

    def certified(joint: np.ndarray, test: np.ndarray):
        scheme = AuxiliaryScheme(joint, test.transpose(1, 0, 2), card_u, card_yhat)
        return (scheme,) + objective(m, scheme)

    def pick() -> tuple[AuxiliaryScheme, float, float]:
        """(scheme, rate, constraint value) of the table's best, by ``objective``."""
        chord = max((c for group in range(len(groups))
                     if (c := _chord(rate, lhs, np.flatnonzero(g == group), r1)) is not None),
                    key=lambda c: c[0], default=None)
        single = int(np.argmax(np.where(_feasible(lhs, r1), rate, -math.inf)))
        found = certified(joint[single], q[single])
        if chord is not None and chord[0] > rate[single]:
            _, lam, a, b = chord
            cand = certified(*_fold(base, lam, joint[[a, b]], q[[a, b]]))
            if _feasible(cand[2], r1) and cand[1] > found[1]:
                found = cand
        return found

    # each round ascends from both ends of every rising chord at its slope,
    # unless the pick it would return already meets the cut-set bound
    bound = cutset_discrete(m) - _BA_GAP
    live = list(best)
    for rounds in range(1, _REFINE_ROUNDS + 1):
        # (row, slope) of each end to ascend: (group, start) of the first
        # search that asked for it
        ends, stalled = {}, set()
        for search in live:
            group, start = search
            chord = _chord(rate, lhs, np.flatnonzero(g == group if start < 0 else k == start), r1)
            if chord is None:
                continue
            value, _, a, b = chord
            if start < 0 and value - best[search] <= _BA_GAP:
                stalled.add(group)
            # exact on purpose: a rise threshold of 1e-12 (_BA_GAP) lost up to 1.5e-7 (4.1e-6) bits
            if value > best[search]:
                best[search] = value
                # flat up to rounding, as the U = X1 start's chord is: not ascended
                if rate[b] - rate[a] > _BA_GAP:
                    slope = (rate[b] - rate[a]) / (lhs[b] - lhs[a])
                    ends.setdefault((a, slope), search)
                    ends.setdefault((b, slope), search)
        found = pick() if r2 + max(best.values()) >= bound else None
        if found is not None and _feasible(found[2], r1) and found[1] >= bound:
            stop = "cutset met"
            break
        if not ends:
            stop = "no chord rising"
            break
        rows, slopes = (np.array(column) for column in zip(*ends))
        made = np.array(list(ends.values()))  # (group, start) of each new row
        new = _ascent(base, joint[rows], q[rows], slopes, max_iters) + tuple(made.T)
        joint, q, rate, lhs, g, k = (np.concatenate(pair)
                                     for pair in zip((joint, q, rate, lhs, g, k), new))
        # a start's search ends in the round its group's chord stalls
        live = [(group, start) for group, start in live if start < 0 or group not in stalled]
    else:  # the last round's ascent added rows to the table
        found, stop = None, "round cap"
    _log.debug("solve_capacity: %d rounds, %d ascent rows, %d starts stopped by their "
               "group, stopped: %s", rounds, len(rate) - 2 * restarts,
               restarts - sum(start >= 0 for _, start in live), stop)

    scheme, best_rate, best_lhs = found or pick()  # pick reads the table as rate and lhs
    return SolveReport(best_rate=best_rate, best_scheme=scheme, feasible=_feasible(best_lhs, r1),
                       constraint_slack=r1 - best_lhs, restarts_used=restarts, seed=seed)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _screen(base: np.ndarray, p_x1: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rate, lhs)[b, t] of the compress-only scheme of every input pmf
    p_x1[b] with every test channel q[t, y_r, yhat].

    The values of ``_Expression.terms`` at constant U by the chain rule, equal
    to them up to float rounding: rate = H(Z, Yhat) - H(Z, Yhat | X1) and
    lhs = H(Z, Yhat) - H(Z) - H(Yhat | Y_R). p(z, yhat | x1) and H(q(. | y_r))
    depend on the test channel alone, so both conditional entropies are
    matrix products; only H(Z, Yhat) takes the rows x tests table.
    """
    n_z, n_x, n_r = base.shape
    n_b, n_t, n_h = len(p_x1), len(q), q.shape[2]
    # q[y_r, yhat, t]: every product keeps the tests as its last axis
    q_r = np.ascontiguousarray(q.transpose(1, 2, 0))
    h_q = _neg_xlogx(q_r, (1,))  # H(q(. | y_r))
    q_r = q_r.reshape(n_r, -1)
    k = (base.reshape(-1, n_r) @ q_r).reshape(n_z, n_x, n_h, n_t)
    h_zh_x = _neg_xlogx(k, (0, 2))  # H(Z, Yhat | x1)
    p_zr = np.einsum("bx,zxr->bzr", p_x1, base)
    h_zh = _neg_xlogx((p_zr.reshape(-1, n_r) @ q_r).reshape(n_b, -1, n_t), (1,))
    rate = h_zh - p_x1 @ h_zh_x
    lhs = h_zh - p_zr.sum(axis=1) @ h_q - _neg_xlogx(p_zr.sum(axis=2), (1,))[:, None]
    return np.maximum(rate, 0.0), np.maximum(lhs, 0.0)


# Elements of the largest table of one brute-force chunk of test channels,
# p(z, yhat) of every grid p(x1): bounds its memory at any grid size. Swept
# over 2^15 / 2^16 / 2^17 on a |Y_R| = 3, |Z| = 2 model at pitch 0.05 (9,261
# test channels; 2-core Xeon, numpy 2.4): 9.6 / 8.9 / 12.7 ms per call.
_BRUTE_ELEMENTS = 1 << 16

# A grid point is evaluated exactly when its screened values leave it within
# this many bits of feasibility and of the best rate known to be feasible.
# The screen differs from ``terms`` by float rounding only, about 1e-15 bits
# on entropies of a few bits: the margin is 1e5 times that.
_SCREEN_MARGIN = 1e-9


def brute_force_capacity(m: DiscreteOrcd, resolution: float) -> float:
    """Exhaustive simplex-grid search over compress-and-forward schemes.

    U is constant and Yhat binary. Enumerates p(x1) and every test-channel
    column q(. | y_r) on a grid of pitch ``resolution`` and returns the best
    feasible objective: a coarse but independent lower bound whose value can
    only grow as the resolution shrinks through nested grids (e.g. 0.1 ->
    0.05). |X1| is capped at 2 and the resolution at >= 0.05 to keep the
    enumeration exact and affordable.

    Every p(x1) is scored against a chunk of test channels at once by
    ``_screen``, which only picks the points that can decide the result: a
    screened constraint value at most ``_SCREEN_MARGIN`` above the threshold,
    and a screened rate at most the margin below the best rate known feasible
    (found exactly, or screened more than the margin below the threshold).
    The screen is within float rounding of the exact values, so every other
    point is infeasible or beaten by a feasible one. The picked points are
    evaluated exactly by ``_Expression.terms``, and the result is the best
    feasible one: to the bit the value of evaluating every point.
    """
    if m.n_x1 > 2:
        raise UsageError(f"brute force caps |X1| at 2, model has {m.n_x1}")
    resolution = float(resolution)
    if not (math.isfinite(resolution) and resolution >= 0.05):
        raise UsageError(f"resolution must be a finite number >= 0.05, got {resolution}")
    steps = max(1, round(1.0 / resolution))

    r1, r2 = m.relay_link[0], m.direct_link[0]

    # the two-outcome pmfs of the grid; a one-letter X1 has the one pmf
    i = np.arange(steps + 1)
    cols = np.stack([i, steps - i], 1) / steps
    p_x1 = cols if m.n_x1 == 2 else np.ones((1, 1))
    n_tests = len(cols) ** m.n_yr
    combos = len(p_x1) * n_tests
    if combos > 2_000_000:
        raise UsageError(f"{combos} grid combinations exceed the enumeration budget; "
                         "coarsen the resolution")

    # every combination of the columns q(. | y_r), in chunks of the test
    # axis: test k takes at y_r the grid value at digit y_r of k in base
    # len(cols)
    base = _base(m)
    layers = _Expression(base, p_x1[:, None])
    chunk = max(1, _BRUTE_ELEMENTS // (len(p_x1) * m.n_z * 2))
    threshold = r1 + SolveConfig.feas_tol
    # the best exact rate found feasible, the best screened one surely feasible
    best = best_safe = -math.inf
    for lo in range(0, n_tests, chunk):
        idx = np.arange(lo, min(lo + chunk, n_tests))
        test = cols[np.stack(np.unravel_index(idx, (len(cols),) * m.n_yr), axis=1)]
        rate, lhs = _screen(base, p_x1, test)
        safe = lhs < threshold - _SCREEN_MARGIN
        best_safe = max(best_safe, float(rate.max(initial=-math.inf, where=safe)))
        j, t = np.nonzero((lhs <= threshold + _SCREEN_MARGIN)
                          & (rate >= max(best, best_safe) - _SCREEN_MARGIN))
        if j.size:
            rate, lhs, _ = layers.rows(j).terms(test[t][:, None])
            feasible = _feasible(lhs, r1)
            if feasible.any():
                best = max(best, float(rate[feasible].max()))
    # every grid scheme is achievable, so its rate is at most the cut-set
    # bound; a read above it is float rounding of the entropies (a few ulps).
    # The min never raises the value, so the result stays a lower bound.
    return min(r2 + best, cutset_discrete(m))


# ---------------------------------------------------------------------------
# Cut-set bound and tightness classification
# ---------------------------------------------------------------------------


def cutset_discrete(m: DiscreteOrcd) -> float:
    """R2 + min{R1, max_{p(x1)} I(X1; Y_R | Z)}."""
    return m.direct_link[0] + min(m.relay_link[0], m.source_relay_link[0])


def classify_cutset_tightness(m: DiscreteOrcd) -> set[str]:
    """Which of the four sufficient conditions for a tight cut-set bound hold.

    case1: the source-relay channel ignores the state (decode-and-forward
           meets the bound);
    case2: the relay observation is a deterministic function of input and
           state (compress-and-forward meets it);
    case3: the relay can decode at the full pipe rate without the state;
    case4: the pipe rate exceeds the state-conditioned output entropy at the
           maximising input, so the observation ships losslessly.

    The capacities compared are Blahut-Arimoto's, certified to its duality
    gap ``_BA_GAP``, so every case is tested at that tolerance. Returns every
    case that holds, or {"none"}.
    """
    tol = _BA_GAP
    cases: set[str] = set()
    support = m.p_z.probs > tol  # zero-probability states cannot leak information
    sr_supported = m.chan_sr[:, support, :]
    if float(np.ptp(sr_supported, axis=1).max()) <= tol:
        cases.add("case1")
    if float(sr_supported.max(axis=2).min()) >= 1.0 - tol:
        cases.add("case2")
    r1 = m.relay_link[0]
    w_marginal = np.einsum("xzr,z->xr", m.chan_sr, m.p_z.probs)
    c_marginal = channel_capacity(w_marginal)[0]
    if c_marginal >= r1 - tol:
        cases.add("case3")
    p_bar = m.source_relay_link[1]
    p_yr_given_z = np.einsum("x,xzr->zr", p_bar, m.chan_sr)
    h_bar = float(m.p_z.probs @ _neg_xlogx(p_yr_given_z, (1,)))
    if r1 > h_bar - tol:
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
