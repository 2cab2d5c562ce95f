"""Property suite for the capacity solver over random small bit-pipe models."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycap.models import DiscreteOrcd
from relaycap.solver import SolveConfig, cutset_discrete, objective, solve_capacity

CFG = SolveConfig(restarts=3, max_iters=10, seed=5)
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def _pmf(draw, n: int) -> np.ndarray:
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    w = w + 1e-3  # keep every entry positive so the draw is always a pmf
    return w / w.sum()


@st.composite
def bit_pipe_models(draw) -> DiscreteOrcd:
    n_x1 = draw(st.integers(1, 3))
    n_yr = draw(st.integers(1, 3))
    n_z = draw(st.integers(1, 3))
    chan_sr = np.array(
        [[_pmf(draw, n_yr) for _ in range(n_z)] for _ in range(n_x1)]
    )
    trivial = np.ones((1, n_z, 1))
    return DiscreteOrcd(
        p_z=_pmf(draw, n_z),
        chan_sr=chan_sr,
        chan_rd=trivial,
        chan_sd=trivial,
        r1_pipe=draw(st.floats(0.0, 2.0)),
    )


@PROPERTY
@given(bit_pipe_models())
def test_rate_within_cutset_and_certified(m):
    rep = solve_capacity(m, CFG)
    assert rep.feasible
    assert 0.0 <= rep.best_rate <= cutset_discrete(m) + CFG.feas_tol
    rate, lhs = objective(m, rep.best_scheme)
    assert rate == rep.best_rate
    assert m.r1_pipe - lhs == rep.constraint_slack


@PROPERTY
@given(bit_pipe_models(), st.floats(0.0, 2.0))
def test_rate_monotone_in_pipe_rate(m, other):
    # Only the point where the envelope is read depends on r1, so the envelope
    # value is monotone; the reported rate is the exact re-evaluation of the
    # folded mixture, whose roundoff (up to 1.1e-15 seen between r1 values
    # 1e-15 apart) the slack covers.
    lo, hi = sorted((m.r1_pipe, other))
    low = solve_capacity(dataclasses.replace(m, r1_pipe=lo), CFG).best_rate
    high = solve_capacity(dataclasses.replace(m, r1_pipe=hi), CFG).best_rate
    assert high >= low - 1e-12


@PROPERTY
@given(bit_pipe_models())
def test_repeated_solves_identical(m):
    a = solve_capacity(m, CFG)
    b = solve_capacity(m, CFG)
    assert a.best_rate == b.best_rate
    assert a.constraint_slack == b.constraint_slack
    np.testing.assert_array_equal(a.best_scheme.joint_ux1.table, b.best_scheme.joint_ux1.table)
    np.testing.assert_array_equal(a.best_scheme.test_channel, b.best_scheme.test_channel)
