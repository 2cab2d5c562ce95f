"""Tests for the capacity solver, brute-force oracle, and classifier."""

import json

import numpy as np
import pytest

from relaycap.errors import UsageError
from relaycap.info import (
    JointPmf,
    Pmf,
    binary_entropy,
    conditional_mutual_information,
    inv_binary_entropy,
    mutual_information,
)
from relaycap.models import BinaryMrcd, DiscreteOrcd, ParallelBinaryMrcd, embed_binary, embed_parallel_binary
from relaycap.rates import (
    parallel_binary_cf,
    parallel_binary_cutset,
    parallel_binary_df,
    parallel_binary_pdcf,
)
from relaycap.solver import (
    AuxiliaryScheme,
    SolveConfig,
    brute_force_capacity,
    classify_cutset_tightness,
    cutset_discrete,
    objective,
    report_to_dict,
    solve_capacity,
)

BIN_CAP_01_025 = 0.1562468352946221
CUTSET_TERM_01 = 0.5310044064107188

FAST = SolveConfig(restarts=6, max_iters=800, seed=0)


def _bin_model(delta, p_z=0.5, r1=0.25) -> DiscreteOrcd:
    return embed_binary(BinaryMrcd(delta=delta, p_z=p_z, r1=r1))


def _scheme(joint, test, card_u, card_yhat) -> AuxiliaryScheme:
    return AuxiliaryScheme(
        joint_ux1=JointPmf(joint, axis_labels=("U", "X1")),
        test_channel=np.asarray(test, dtype=float),
        card_u=card_u,
        card_yhat=card_yhat,
    )


def _constant_yhat(n_yr, card_u, card_yhat=1):
    t = np.zeros((n_yr, card_u, card_yhat))
    t[:, :, 0] = 1.0
    return t


class TestObjective:
    def test_degenerate_scheme_carries_nothing(self):
        m = _bin_model(0.1, p_z=0.3)
        s = _scheme([[0.5, 0.5]], _constant_yhat(2, 1), 1, 1)
        rate, lhs = objective(m, s)
        assert rate == pytest.approx(0.0, abs=1e-12)  # R2 = 0 in multihop form
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_full_decoding_collapses_to_channel_mi(self):
        m = _bin_model(0.1, p_z=0.15)
        s = _scheme(np.eye(2) * 0.5, _constant_yhat(2, 2), 2, 1)
        rate, lhs = objective(m, s)
        expect = 1.0 - binary_entropy(0.1 * 0.85 + 0.9 * 0.15)
        assert rate == pytest.approx(expect, abs=1e-12)
        assert lhs == pytest.approx(expect, abs=1e-12)

    def test_fair_state_compression_scheme(self):
        # constant U plus symmetric test noise reproduces the closed form and
        # meets the pipe constraint with equality
        r1 = 0.25
        nu = inv_binary_entropy(1.0 - r1)
        m = _bin_model(0.1, p_z=0.5, r1=r1)
        flip = np.array([[1.0 - nu, nu], [nu, 1.0 - nu]])
        s = _scheme([[0.5, 0.5]], flip[:, None, :], 1, 2)
        rate, lhs = objective(m, s)
        assert rate == pytest.approx(BIN_CAP_01_025, abs=1e-9)
        assert lhs == pytest.approx(r1, abs=1e-9)

    def test_matches_independent_assembly(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            m = _bin_model(
                float(rng.uniform(0, 0.5)),
                p_z=float(rng.uniform(0, 1)),
                r1=float(rng.uniform(0, 1.5)),
            )
            cu, ch = 3, 4
            joint = rng.dirichlet(np.ones(cu * 2)).reshape(cu, 2)
            test = rng.dirichlet(np.ones(ch), size=(2, cu))
            rate, lhs = objective(m, _scheme(joint, test, cu, ch))

            full = np.einsum(
                "ux,z,xzr,ruh->uxzrh", joint, m.p_z.probs, m.chan_sr, test
            )
            jp = JointPmf(full, axis_labels=("U", "X1", "Z", "YR", "YH"))
            i_u = mutual_information(jp, "U", "YR")
            i_x = conditional_mutual_information(jp, "X1", "YH", ("U", "Z"))
            i_r = conditional_mutual_information(jp, "YR", "YH", ("U", "Z"))
            assert rate == pytest.approx(i_u + i_x, abs=1e-10)
            assert lhs == pytest.approx(i_u + i_r, abs=1e-10)
            # compressing can never convey more about the input than about
            # the observation it is built from
            assert i_x <= i_r + 1e-10

    def test_cardinality_bounds_enforced(self):
        m = _bin_model(0.1)
        joint = np.full((6, 2), 1.0 / 12)  # card_u > |X1| + 3
        with pytest.raises(UsageError):
            objective(m, _scheme(joint, _constant_yhat(2, 6), 6, 1))
        test = np.zeros((2, 2, 6))
        test[:, :, 0] = 1.0  # card_yhat > card_u * |Y_R| + 1
        with pytest.raises(UsageError):
            objective(m, _scheme(np.full((2, 2), 0.25), test, 2, 6))


class TestSolveCapacity:
    def test_zero_pipe_forces_zero_rate(self):
        rep = solve_capacity(_bin_model(0.1, p_z=0.3, r1=0.0), FAST)
        assert rep.best_rate == pytest.approx(0.0, abs=1e-6)
        assert rep.feasible

    def test_deterministic_for_fixed_seed(self):
        m = _bin_model(0.1)
        cfg = SolveConfig(restarts=3, max_iters=200, seed=7)
        a = solve_capacity(m, cfg)
        b = solve_capacity(m, cfg)
        assert a.best_rate == b.best_rate
        assert a.constraint_slack == b.constraint_slack
        np.testing.assert_array_equal(
            a.best_scheme.test_channel, b.best_scheme.test_channel
        )

    def test_never_exceeds_cutset(self):
        rng = np.random.default_rng(22)
        for _ in range(4):
            m = _bin_model(
                float(rng.uniform(0, 0.5)),
                p_z=float(rng.uniform(0, 1)),
                r1=float(rng.uniform(0.05, 1.2)),
            )
            rep = solve_capacity(m, SolveConfig(restarts=4, max_iters=300))
            assert rep.best_rate <= cutset_discrete(m) + 1e-9
            assert rep.constraint_slack >= -1e-9

    def test_monotone_in_pipe_rate(self):
        rates = []
        for r1 in (0.1, 0.3, 0.5, 0.7, 0.9):
            rep = solve_capacity(
                _bin_model(0.0, p_z=0.5, r1=r1), SolveConfig(restarts=3, max_iters=300)
            )
            rates.append(rep.best_rate)
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_noiseless_fair_state_anchor(self):
        # capacity equals the pipe rate here; the optimum sits on the budget
        # boundary and must be approached from the feasible side
        rep = solve_capacity(_bin_model(0.0), FAST)
        assert rep.best_rate >= 0.25 - 2e-3
        assert rep.best_rate <= 0.25 + 1e-9

    def test_noisy_fair_state_anchor(self):
        rep = solve_capacity(_bin_model(0.1), FAST)
        assert BIN_CAP_01_025 - 2e-2 <= rep.best_rate <= BIN_CAP_01_025 + 1e-9

    def test_product_cap(self):
        rng = np.random.default_rng(23)
        big = DiscreteOrcd(
            p_z=Pmf(np.full(9, 1.0 / 9)),
            chan_sr=rng.dirichlet(np.ones(8), size=(8, 9)),
            chan_rd=np.ones((1, 9, 1)),
            chan_sd=np.ones((1, 9, 1)),
            r1_pipe=0.5,
        )
        with pytest.raises(UsageError):
            solve_capacity(big)

    def test_cardinality_overrides(self):
        m = _bin_model(0.1)
        rep = solve_capacity(m, SolveConfig(restarts=2, max_iters=200, card_u=1, card_yhat=2))
        assert rep.best_scheme.card_u == 1
        with pytest.raises(UsageError):
            solve_capacity(m, SolveConfig(card_u=9))

    def test_report_serialises(self):
        rep = solve_capacity(_bin_model(0.1), SolveConfig(restarts=2, max_iters=150))
        payload = json.loads(json.dumps(report_to_dict(rep)))
        assert payload["best_rate"] == rep.best_rate
        assert payload["seed"] == 0
        got = np.asarray(payload["best_scheme"]["test_channel"])
        np.testing.assert_array_equal(got, rep.best_scheme.test_channel)


class TestFig4CapacityPoint:
    # DF = pDCF below delta = 0.02916, pDCF between, pDCF = cut-set above 0.2430
    @pytest.mark.parametrize("delta", [0.02, 0.1, 0.3])
    def test_default_solve_reaches_closed_forms(self, delta):
        pm = ParallelBinaryMrcd(delta=delta, p_z=0.15, r1=1.2)
        m = embed_parallel_binary(pm)
        cfg = SolveConfig()
        rep = solve_capacity(m)
        closed = max(
            f(pm).value for f in (parallel_binary_df, parallel_binary_cf, parallel_binary_pdcf)
        )
        assert closed - 2e-2 <= rep.best_rate <= cutset_discrete(m) + cfg.feas_tol
        rate, lhs = objective(m, rep.best_scheme)
        assert rate == pytest.approx(rep.best_rate, abs=1e-12)
        assert pm.r1 - lhs == pytest.approx(rep.constraint_slack, abs=1e-12)


class TestBruteForce:
    def test_zero_pipe(self):
        assert brute_force_capacity(_bin_model(0.1, r1=0.0), 0.1) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_resolution_floor(self):
        with pytest.raises(UsageError):
            brute_force_capacity(_bin_model(0.1), 0.01)

    def test_cardinality_caps(self):
        with pytest.raises(UsageError):
            brute_force_capacity(_bin_model(0.1), 0.1, card_u=4)
        with pytest.raises(UsageError):
            brute_force_capacity(_bin_model(0.1), 0.1, card_yhat=4)
        par = embed_parallel_binary(ParallelBinaryMrcd(delta=0.1, p_z=0.5, r1=0.25))
        with pytest.raises(UsageError):
            brute_force_capacity(par, 0.1)  # |X1| = 4

    def test_monotone_in_resolution(self):
        m = _bin_model(0.1)
        coarse = brute_force_capacity(m, 0.1)
        fine = brute_force_capacity(m, 0.05)
        assert fine >= coarse - 1e-12

    def test_solver_dominates_grid(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            m = _bin_model(
                float(rng.uniform(0, 0.5)),
                p_z=float(rng.uniform(0, 1)),
                r1=float(rng.uniform(0.05, 1.0)),
            )
            grid_best = brute_force_capacity(m, 0.1)
            solved = solve_capacity(m, SolveConfig(restarts=8, max_iters=600)).best_rate
            assert grid_best <= solved + 1e-9


class TestCutsetDiscrete:
    def test_binary_closed_form(self):
        got = cutset_discrete(_bin_model(0.1, r1=1.0))
        assert got == pytest.approx(CUTSET_TERM_01, abs=1e-6)
        assert cutset_discrete(_bin_model(0.1, r1=0.25)) == pytest.approx(0.25, abs=1e-9)

    def test_useless_channel(self):
        m = _bin_model(0.5, r1=0.25)
        assert cutset_discrete(m) == pytest.approx(0.0, abs=1e-9)

    def test_matches_parallel_closed_form(self):
        pm = ParallelBinaryMrcd(delta=0.2430, p_z=0.15, r1=1.2)
        got = cutset_discrete(embed_parallel_binary(pm))
        assert got == pytest.approx(parallel_binary_cutset(pm).value, abs=1e-6)


class TestClassifier:
    def test_state_free_fires_case1(self):
        cases = classify_cutset_tightness(_bin_model(0.1, p_z=0.0))
        assert "case1" in cases

    def test_deterministic_fires_case2(self):
        cases = classify_cutset_tightness(_bin_model(0.0, p_z=0.15))
        assert "case2" in cases

    def test_decodable_pipe_fires_case3(self):
        cases = classify_cutset_tightness(_bin_model(0.0, p_z=0.0, r1=0.5))
        assert "case3" in cases

    def test_lossless_compression_fires_case4(self):
        cases = classify_cutset_tightness(_bin_model(0.1, p_z=0.3, r1=1.3))
        assert "case4" in cases

    def test_reduced_parallel_regime_is_case4(self):
        # parallel model with the clean link decoded away: whenever the pipe
        # rate beats the residual conditional output entropy, the leftover
        # budget ships the state-corrupted observation losslessly
        delta = 0.3
        r1 = 2.0 - binary_entropy(delta) + 0.05
        reduced = _bin_model(delta, p_z=0.3, r1=r1 - (1.0 - binary_entropy(delta)))
        assert "case4" in classify_cutset_tightness(reduced)

    def test_fair_state_channel_is_none(self):
        assert classify_cutset_tightness(_bin_model(0.1, p_z=0.5)) == {"none"}

    def test_fired_cases_reach_cutset(self):
        m = _bin_model(0.0, p_z=0.15)  # case2
        rep = solve_capacity(m, FAST)
        assert cutset_discrete(m) - rep.best_rate <= 2e-2
