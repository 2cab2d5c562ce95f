"""Tests for the capacity solver, brute-force oracle, and classifier."""

import dataclasses
import itertools
import json
import logging
import sys

import numpy as np
import pytest

from relaycap import models, solver
from relaycap.errors import UsageError, ValidationError
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
    binary_capacity_pz_half,
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


def _yr3_model() -> DiscreteOrcd:
    """A seeded bit-pipe model with |Y_R| = 3 and |Z| = 2."""
    return DiscreteOrcd(
        p_z=Pmf([0.6, 0.4]),
        chan_sr=np.random.default_rng(0).dirichlet(np.ones(3), size=(2, 2)),
        chan_rd=np.ones((1, 2, 1)),
        chan_sd=np.ones((1, 2, 1)),
        r1_pipe=0.3,
    )


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

    def test_input_axis_must_match_the_model(self):
        # a 3-letter X1 axis on a binary-input model
        with pytest.raises(UsageError, match=r"^joint_ux1 input axis has size 3, model has 2$"):
            objective(_bin_model(0.1), _scheme(np.full((1, 3), 1.0 / 3), _constant_yhat(2, 1), 1, 1))

    def test_cardinality_bounds_enforced(self):
        m = _bin_model(0.1)
        joint = np.full((6, 2), 1.0 / 12)  # card_u > |X1| + 3
        with pytest.raises(UsageError):
            objective(m, _scheme(joint, _constant_yhat(2, 6), 6, 1))
        test = np.zeros((2, 2, 6))
        test[:, :, 0] = 1.0  # card_yhat > card_u * |Y_R| + 1
        with pytest.raises(UsageError):
            objective(m, _scheme(np.full((2, 2), 0.25), test, 2, 6))


class TestAuxiliaryScheme:
    # each case breaks one rule: the other arguments fit card_u and card_yhat
    @pytest.mark.parametrize(
        "joint, test, card_u, message",
        [
            (np.full((2, 2, 2), 0.125), _constant_yhat(2, 2), 2, r"joint_ux1 must be a 2-axis table$"),
            (np.full((2, 2), 0.25), _constant_yhat(2, 3), 3, r"joint_ux1 has 2 rows, card_u=3$"),
            (np.full((2, 2), 0.25), _constant_yhat(2, 2, card_yhat=2), 2,
             r"test_channel shape \(2, 2, 2\) inconsistent with card_u=2, card_yhat=1$"),
        ],
        ids=["three-axis-joint", "rows-not-card_u", "test-channel-shape"],
    )
    def test_refused_scheme(self, joint, test, card_u, message):
        with pytest.raises(ValidationError, match="^AuxiliaryScheme: " + message):
            AuxiliaryScheme(joint_ux1=JointPmf(joint), test_channel=test, card_u=card_u, card_yhat=1)


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
        assert rep.best_rate >= 0.25 - 1e-9
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

    @pytest.mark.parametrize("knob", ["card_u", "card_yhat"])
    def test_cardinality_knobs_removed(self, knob):
        with pytest.raises(TypeError):
            SolveConfig(**{knob: 1})

    @pytest.mark.parametrize("model", [
        lambda: _bin_model(0.1),
        lambda: embed_parallel_binary(ParallelBinaryMrcd(delta=0.1, p_z=0.15, r1=1.2)),
    ], ids=["binary", "fig4"])
    def test_default_solve_sizes_u_and_yhat_from_the_model(self, model):
        m = model()
        scheme = solve_capacity(m).best_scheme
        assert (scheme.card_u, scheme.card_yhat) == (m.n_x1 + 3, m.n_yr)
        assert scheme.test_channel.shape == (m.n_yr, m.n_x1 + 3, m.n_yr)

    @pytest.mark.parametrize("field, value", [
        ("restarts", np.int64(2)), ("max_iters", np.int32(0)), ("seed", np.uint8(3)),
        ("restarts", 2.5), ("max_iters", 1.5), ("seed", "3"), ("seed", None),
        ("restarts", True), ("max_iters", False), ("seed", np.True_),
    ])
    def test_budget_fields_read_as_ints(self, field, value):
        cfg = dataclasses.replace(SolveConfig(restarts=2, max_iters=0), **{field: value})
        if not isinstance(value, np.integer):  # numpy's bool is not one either
            with pytest.raises(UsageError, match=f"^solve_capacity: {field} must be an integer"):
                solve_capacity(_bin_model(0.1), cfg)
            return
        rep = solve_capacity(_bin_model(0.1), cfg)
        assert type(rep.restarts_used) is int and type(rep.seed) is int
        assert (rep.restarts_used, rep.seed) == (cfg.restarts, cfg.seed)
        assert json.loads(json.dumps(report_to_dict(rep)))["seed"] == cfg.seed

    def test_restarts_past_sys_maxsize_rejected(self):
        # itertools.islice counts at most sys.maxsize starts
        with pytest.raises(UsageError, match=r"^solve_capacity: restarts must be <= \d+$"):
            solve_capacity(_bin_model(0.1), SolveConfig(restarts=sys.maxsize + 1))

    @pytest.mark.parametrize("restarts", [2, 4])
    def test_negative_seed_rejected(self, restarts):
        # two restarts draw no seeded start; the seed is rejected all the same
        with pytest.raises(UsageError, match="seed"):
            solve_capacity(_bin_model(0.1), SolveConfig(restarts=restarts, seed=-1))

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


class TestChordGap:
    # The chord search at r1 reaches the capacity of the fair-state anchors
    # (delta = 0.1 / 0.25) from the two structured starts alone; an even grid
    # of 27 multipliers stopped 1.8e-4 / 1.3e-3 bits short there.
    @pytest.mark.parametrize("cfg", [SolveConfig(restarts=2, max_iters=0), SolveConfig()],
                             ids=["structured", "default"])
    @pytest.mark.parametrize("delta", [0.1, 0.25])
    def test_fair_state_anchor_within_1e6(self, delta, cfg):
        bm = BinaryMrcd(delta=delta, p_z=0.5, r1=0.25)
        cap = binary_capacity_pz_half(bm).value
        rate = solve_capacity(embed_binary(bm), cfg).best_rate
        assert cap - 1e-6 <= rate <= cap


class TestCutsetStop:
    """The chord search stops once its certified rate meets the cut-set bound."""

    STRUCTURED = SolveConfig(restarts=2, max_iters=0)
    TIGHT = {
        "case1": lambda: _bin_model(0.1, p_z=0.0),
        "fig4-d002": lambda: embed_parallel_binary(ParallelBinaryMrcd(delta=0.02, p_z=0.15, r1=1.2)),
    }

    @staticmethod
    def _count_ascents(monkeypatch) -> list:
        """Record every call of the solver's batched ascent."""
        calls = []
        ascent = solver._ascent

        def counted(*args):
            calls.append(args)
            return ascent(*args)

        monkeypatch.setattr(solver, "_ascent", counted)
        return calls

    @pytest.mark.parametrize("cfg", [STRUCTURED, SolveConfig()], ids=["structured", "default"])
    @pytest.mark.parametrize("label", sorted(TIGHT))
    def test_tight_model_runs_no_ascent(self, label, cfg, monkeypatch):
        m = self.TIGHT[label]()
        calls = self._count_ascents(monkeypatch)
        rate = solve_capacity(m, cfg).best_rate
        assert calls == []
        assert cutset_discrete(m) - 1e-9 <= rate <= cutset_discrete(m) + cfg.feas_tol

    def test_model_below_cutset_runs_every_round(self, monkeypatch):
        # fair-state delta = 0.1: capacity 0.15625 against a cut-set of 0.25
        calls = self._count_ascents(monkeypatch)
        solve_capacity(_bin_model(0.1), self.STRUCTURED)
        assert len(calls) == solver._REFINE_ROUNDS

    @pytest.mark.parametrize("model, stop", [(TIGHT["case1"], "cutset met"),
                                             (lambda: _bin_model(0.1), "round cap")],
                             ids=["case1", "fair-state"])
    def test_debug_record_names_the_stop(self, model, stop, caplog):
        with caplog.at_level(logging.DEBUG, logger="relaycap.solver"):
            solve_capacity(model(), self.STRUCTURED)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage().endswith(f"stopped: {stop}")


def _bit_pipe_model(i: int) -> DiscreteOrcd:
    """Seeded random bit-pipe model number i: |X1| and |Y_R| in {2, 3}, |Z| in
    {1, 2}, Dirichlet(1) state pmf, Dirichlet(0.5) relay rows and a pipe rate
    uniform on [0.05, 1)."""
    rng = np.random.default_rng((2026, i))
    n_x1, n_yr, n_z = (int(rng.integers(lo, hi)) for lo, hi in ((2, 4), (2, 4), (1, 3)))
    p_z = rng.dirichlet(np.ones(n_z))
    chan_sr = rng.dirichlet(np.full(n_yr, 0.5), size=(n_x1, n_z))
    trivial = np.ones((1, n_z, 1))
    return DiscreteOrcd(p_z=p_z, chan_sr=chan_sr, chan_rd=trivial, chan_sd=trivial,
                        r1_pipe=float(rng.uniform(0.05, 1.0)))


class TestStartPricing:
    """Every search point is one row of the search table; a search is
    ascended while its chord rises, and a start's search ends in the round its
    group's chord stalls."""

    STRUCTURED = SolveConfig(restarts=2, max_iters=0)
    MULTI_START = SolveConfig(restarts=4, max_iters=0)
    # fig4 delta = 0.1: the group chord stalls after a few rounds, while the
    # compress-only start's own chord creeps far below it
    FIG4_D010 = 0.872645726539786
    # certified rates of _bit_pipe_model(i), i < 40, at STRUCTURED, measured
    # before start searches were priced
    BIT_PIPE_RATES = (
        0.21016675942661855, 0.15898644105912885, 0.3841796907736743, 0.4608583627657836,
        0.06706074615779212, 0.03101141615549774, 0.007329574288919227, 0.2615727931002967,
        0.1720402129120644, 0.21634717035136886, 0.2277642383819063, 0.21150077788938493,
        0.13930964469399632, 0.7636572942988118, 0.3958909609307337, 0.6059219580253141,
        0.258918368960974, 0.3702367546797414, 0.0181689730141259, 0.20464748254618126,
        0.1855953251275524, 0.11662851581026779, 0.15040149306555106, 0.32833407293782013,
        0.3096978082158772, 0.11018420377728089, 0.5697029959352287, 0.48723385265427455,
        0.2675927019513571, 0.0166858230841318, 0.2811138515588738, 0.3029023177360961,
        0.12827462996050398, 0.2938347134029917, 0.47923869337468394, 0.10398318849862687,
        0.4158394547594959, 0.18239966317651746, 0.08683783912318965, 0.014086595281496361,
    )
    # the same at MULTI_START, measured before a start search ended when its
    # group's chord stalled; it reaches groups of three and four structured
    # starts and seeded single-start groups
    MULTI_START_RATES = (
        0.21016675942661855, 0.15898644105912885, 0.39505742548850664, 0.4608583627657836,
        0.06706074615779212, 0.03119695977570114, 0.007329574288919227, 0.2615727931002967,
        0.1720402129120644, 0.21634717035136886, 0.235856550782215, 0.23179541734964104,
        0.13930964469399632, 0.7636572942988118, 0.3958909609307337, 0.6059219580253141,
        0.258918368960974, 0.3702367546797414, 0.01889533045741132, 0.20464748254618126,
        0.18559532512755172, 0.11662851581026779, 0.1562874809015513, 0.32833407293782013,
        0.3096978082158772, 0.11018420377728089, 0.5704794200075467, 0.48723385265427455,
        0.2675927019513571, 0.0166858230841318, 0.2811138515588738, 0.3029023177360961,
        0.12827462996050398, 0.29383471340299216, 0.47923869337468394, 0.10398318849862687,
        0.4158394547594959, 0.18239966317651746, 0.08683783912318965, 0.014086595281496805,
    )

    @staticmethod
    def _fig4_d010() -> DiscreteOrcd:
        return embed_parallel_binary(ParallelBinaryMrcd(delta=0.1, p_z=0.15, r1=1.2))

    def test_stalled_group_ends_the_search_early(self, monkeypatch):
        calls = TestCutsetStop._count_ascents(monkeypatch)
        rate = solve_capacity(self._fig4_d010(), self.STRUCTURED).best_rate
        assert len(calls) < solver._REFINE_ROUNDS
        assert rate == pytest.approx(self.FIG4_D010, rel=0.0, abs=1e-12)

    def test_debug_record_counts_priced_out_starts(self, caplog):
        # the decode-only start's two points share one rate (U = X1 leaves
        # I(X1; Yhat | U, Z) = 0), so its chord has slope 0 up to rounding:
        # here its rise reads -4.4e-16 bits and its ends are never ascended;
        # it stays live, with the compress-only start's, until the group stalls
        with caplog.at_level(logging.DEBUG, logger="relaycap.solver"):
            solve_capacity(self._fig4_d010(), self.STRUCTURED)
        (record,) = caplog.records
        assert ("7 rounds, 20 ascent rows, 2 starts stopped by their group, stopped: "
                in record.getMessage())

    @staticmethod
    def _ascended_rows(calls: list) -> list:
        """(p(u, x1), q, slope) of every row of every recorded ascent call."""
        return [[(j.tobytes(), q.tobytes(), float(s)) for j, q, s in zip(joint, test, slopes)]
                for _, joint, test, slopes, _ in calls]

    def test_no_row_is_ascended_twice_at_one_slope(self, monkeypatch):
        # fair-state delta = 0.1: the start searches share their chord with the group's
        calls = TestCutsetStop._count_ascents(monkeypatch)
        solve_capacity(_bin_model(0.1), self.STRUCTURED)
        rows = [row for call in self._ascended_rows(calls) for row in call]
        assert rows and len(set(rows)) == len(rows)

    def test_multi_group_ascent_rows_match_the_debug_record(self, monkeypatch, caplog):
        # |X1| = 3 at the default budget: 12 groups, five structured starts
        # sharing the uniform p(x1) and eleven one-start Dirichlet groups. The
        # row count is not pinned: this solve ends at the round cap, whose
        # counts can move across numpy builds.
        m = _bit_pipe_model(26)
        assert m.n_x1 == 3
        calls = TestCutsetStop._count_ascents(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="relaycap.solver"):
            solve_capacity(m, SolveConfig())
        (record,) = caplog.records
        rows = self._ascended_rows(calls)
        assert f", {sum(map(len, rows))} ascent rows, " in record.getMessage()
        assert all(len(set(call)) == len(call) for call in rows)
        first = calls[0][1]
        assert len({joint.sum(axis=0).tobytes() for joint in first}) > 1

    @pytest.mark.parametrize("cfg, pinned", [(STRUCTURED, BIT_PIPE_RATES),
                                             (MULTI_START, MULTI_START_RATES)],
                             ids=["restarts2", "restarts4"])
    def test_bit_pipe_rates_never_fall(self, cfg, pinned):
        fallen = {}
        for i, rate_pinned in enumerate(pinned):
            rate = solve_capacity(_bit_pipe_model(i), cfg).best_rate
            if rate < rate_pinned - 1e-9:
                fallen[i] = rate - rate_pinned
        assert fallen == {}

    # certified rates at SolveConfig() of the eight bit-pipe models that gained
    # most once every chord was realised by the reducing fold: their best
    # chords touch seeded starts, whose points use all |X1| + 3 rows of U
    DEFAULT_GAINS = {
        23: 0.3717549933051765, 26: 0.6512282557159743, 18: 0.02121464927469674,
        30: 0.3032089454110203, 10: 0.2547951928447625, 34: 0.4797623683501353,
        38: 0.08735613789107122, 32: 0.12870241044496344,
    }

    @pytest.mark.parametrize("i", sorted(DEFAULT_GAINS), ids=lambda i: f"bit-pipe-{i}")
    def test_default_rates_reach_seeded_chords(self, i):
        rate = solve_capacity(_bit_pipe_model(i), SolveConfig()).best_rate
        assert rate >= self.DEFAULT_GAINS[i] - 1e-9

    @pytest.mark.parametrize("tilt", [1e-15, -1e-15], ids=["up", "down"])
    def test_flat_decode_only_chord_is_not_ascended(self, tilt, monkeypatch):
        # U = X1 leaves I(X1; Yhat | U, Z) = 0, so the decode-only start's
        # lossless and constant points share one rate; a last-bit tilt of the
        # rates must not decide whether its chord is ascended
        terms = solver._Expression.terms

        def tilted(self, q):
            rate, lhs, post = terms(self, q)
            return rate + tilt * lhs, lhs, post

        # the decode-only start is start 1, so its rows are 2 and 3 of the
        # table; rows its search made would join them
        searched = []
        chord = solver._chord

        def recorded(rate, lhs, rows, r1):
            if rows[0] == 2:
                searched.append(rows.tolist())
            return chord(rate, lhs, rows, r1)

        monkeypatch.setattr(solver._Expression, "terms", tilted)
        monkeypatch.setattr(solver, "_chord", recorded)
        solve_capacity(self._fig4_d010(), self.STRUCTURED)
        assert searched and all(rows == [2, 3] for rows in searched)


class TestReducingFold:
    """A fold whose used rows outnumber |U| = |X1| + 3 is reduced to |U| rows
    by the support lemma's Caratheodory step, keeping p(x1), the rate and the
    constraint value of the time sharing."""

    @pytest.mark.parametrize("i", [4, 10], ids=["x1-2", "x1-3"])
    def test_fold_of_full_points_keeps_the_time_sharing(self, i):
        m = _bit_pipe_model(i)  # |X1| = 2, |Y_R| = 3 and |X1| = 3, |Y_R| = 2; |Z| = 2
        card_u, lam = m.n_x1 + 3, 0.37
        rng = np.random.default_rng(i)
        p_x1 = rng.dirichlet(np.ones(m.n_x1))
        points = [(rng.dirichlet(np.ones(card_u), size=m.n_x1).T * p_x1,
                   rng.dirichlet(np.ones(m.n_yr), size=(card_u, m.n_yr))) for _ in range(2)]
        assert all((joint > 0.0).all() for joint, _ in points)  # 2 |U| rows in use

        def evaluate(joint, q):
            return objective(m, _scheme(joint, q.transpose(1, 0, 2), card_u, m.n_yr))

        joint, q = solver._fold(solver._base(m), lam, *(np.stack(t) for t in zip(*points)))
        assert joint.shape == (card_u, m.n_x1)
        np.testing.assert_allclose(joint.sum(axis=0), p_x1, rtol=0.0, atol=1e-12)
        (rate_a, lhs_a), (rate_b, lhs_b) = (evaluate(*pt) for pt in points)
        rate, lhs = evaluate(joint, q)
        assert rate == pytest.approx(lam * rate_a + (1.0 - lam) * rate_b, rel=0.0, abs=1e-12)
        assert lhs == pytest.approx(lam * lhs_a + (1.0 - lam) * lhs_b, rel=0.0, abs=1e-12)


# an even grid of multipliers in (0, 1), one batch row each
_MULTIPLIERS = np.arange(1, 28) / 28.0


def _grid_rows(m: DiscreteOrcd, start_index: int):
    """(expression, initial q) of one start's rows at _MULTIPLIERS.

    The test channel starts lossless, blurred by 1% towards uniform so that
    no output label starts empty.
    """
    card_u = m.n_x1 + 3
    card_yhat = card_u * m.n_yr + 1
    start = next(itertools.islice(solver._starts(m.n_x1, card_u, 0), start_index, None))
    n_s = _MULTIPLIERS.size
    lossless = solver._deterministic_test(m.n_yr, card_u, card_yhat, lossless=True)
    q0 = 0.99 * lossless + 0.01 / card_yhat
    ex = solver._Expression(solver._base(m), np.broadcast_to(start, (n_s,) + start.shape))
    return ex, np.broadcast_to(q0, (n_s,) + q0.shape)


class TestQLoop:
    MODELS = {
        "binary": lambda: _bin_model(0.1),
        "fig4": lambda: embed_parallel_binary(ParallelBinaryMrcd(delta=0.1, p_z=0.15, r1=1.2)),
    }

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("start_index", [0, 1, 2])
    def test_rows_do_not_depend_on_the_batch(self, model, start_index):
        ex, q0 = _grid_rows(self.MODELS[model](), start_index)
        s = _MULTIPLIERS
        q, value, (rate, lhs, post) = solver._q_loop(ex, q0, s)
        for idx in ([0], [5, 17], [3, 4, 26], list(range(0, 27, 2))):
            idx = np.array(idx)
            sq, svalue, (srate, slhs, spost) = solver._q_loop(ex.rows(idx), q0[idx], s[idx])
            np.testing.assert_array_equal(sq, q[idx])
            np.testing.assert_array_equal(svalue, value[idx])
            np.testing.assert_array_equal(srate, rate[idx])
            np.testing.assert_array_equal(slhs, lhs[idx])
            for part, full in zip(spost, post):
                np.testing.assert_array_equal(part, full[idx])

    def test_small_multiplier_never_lowers_the_lagrangian(self):
        # each partition start at fig4 delta = 0.3, fitted at s = 1/28, then
        # at smaller s; 4.2e-5 is the slope of the chord from the start that
        # decodes the state-free bit to its lossless point. A label that lost
        # all its mass must stay empty, or it reads as a perfect posterior
        # and draws every y_r.
        m = embed_parallel_binary(ParallelBinaryMrcd(delta=0.3, p_z=0.15, r1=1.2))
        for start_index in range(2, 9):
            ex, q0 = _grid_rows(m, start_index)
            q, _, _ = solver._q_loop(ex.rows([0]), q0[:1], _MULTIPLIERS[:1])
            for s in (1e-2, 1e-3, 4.2e-5, 1e-6):
                s = np.array([s])
                rate, lhs, _ = ex.rows([0]).terms(q)
                _, value, _ = solver._q_loop(ex.rows([0]), q, s)
                assert value[0] >= rate[0] - s[0] * lhs[0] - 1e-12

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("lossless", [True, False], ids=["lossless", "constant"])
    def test_ascent_leaves_labels_past_yr_empty(self, model, lossless):
        # why solve_capacity gives Yhat |Y_R| labels: from a seeded start (full
        # support) and a starting test channel on the first |Y_R| labels of a
        # table as wide as the support lemma allows, p and q updates never put
        # mass on a later label
        m = self.MODELS[model]()
        card_u = m.n_x1 + 3
        card_yhat = card_u * m.n_yr + 1
        starts = itertools.islice(solver._starts(m.n_x1, card_u, 5), 16)
        seeded = [start for start in starts if (start > 0.0).all()][:3]
        slopes = np.array([0.05, 0.3, 0.9])
        joint = np.repeat(np.stack(seeded), slopes.size, axis=0)
        q0 = solver._deterministic_test(m.n_yr, card_u, card_yhat, lossless)
        base = solver._base(m)
        q0 = np.broadcast_to(q0, joint.shape[:1] + q0.shape)
        joint_out, q, _, _ = solver._ascent(base, joint, q0, np.tile(slopes, len(seeded)),
                                            max_iters=20)
        assert not np.array_equal(joint_out, joint)  # the p updates ran
        mass = np.einsum("bux,zxr,burh->bh", joint_out, base, q)
        assert np.all(mass[:, m.n_yr:] == 0.0)
        np.testing.assert_allclose(mass.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


class TestBruteForce:
    def test_zero_pipe(self):
        assert brute_force_capacity(_bin_model(0.1, r1=0.0), 0.1) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_resolution_floor(self):
        with pytest.raises(UsageError):
            brute_force_capacity(_bin_model(0.1), 0.01)

    def test_cardinality_caps(self):
        par = embed_parallel_binary(ParallelBinaryMrcd(delta=0.1, p_z=0.5, r1=0.25))
        with pytest.raises(UsageError):
            brute_force_capacity(par, 0.1)  # |X1| = 4

    def test_enumeration_budget(self):
        # |Y_R| = 5 at pitch 0.05: 21 p(x1) times 21^5 test channels
        m = DiscreteOrcd(
            p_z=Pmf([1.0]),
            chan_sr=np.full((2, 1, 5), 0.2),
            chan_rd=np.ones((1, 1, 1)),
            chan_sd=np.ones((1, 1, 1)),
            r1_pipe=0.3,
        )
        with pytest.raises(UsageError, match="exceed the enumeration budget"):
            brute_force_capacity(m, 0.05)

    @pytest.mark.parametrize("resolution", [float("nan"), float("inf")])
    def test_non_finite_resolution(self, resolution):
        with pytest.raises(UsageError, match="resolution"):
            brute_force_capacity(_bin_model(0.1), resolution)

    # A |Y_R| = 3 model gives a test channel three columns: a column written
    # to the wrong y_r or repeated changes the best value. "threshold" moves
    # the pipe rate to the constraint value of the best scheme at 0.3 minus
    # feas_tol, so that the scheme sits on the feasibility threshold, inside
    # the certificate's band. The reference evaluates every compress-only
    # scheme of the grid through objective().
    @pytest.mark.parametrize("model", [pytest.param("yr3", id="1"),
                                       pytest.param("threshold", id="1-threshold")])
    def test_matches_objective_enumeration(self, model):
        m = _yr3_model()
        grid = [np.array([i, 4 - i]) / 4.0 for i in range(5)]
        schemes = [objective(m, _scheme(p_x1[None], np.array(columns)[:, None], 1, 2))
                   for p_x1 in grid for columns in itertools.product(grid, repeat=m.n_yr)]
        if model == "threshold":
            _, on = max((rate, lhs) for rate, lhs in schemes
                        if lhs <= m.r1_pipe + SolveConfig.feas_tol)
            m = dataclasses.replace(m, r1_pipe=on - SolveConfig.feas_tol)
        best = max(rate for rate, lhs in schemes if lhs <= m.r1_pipe + SolveConfig.feas_tol)
        assert brute_force_capacity(m, 0.25) == best

    # Each run screens its grid in one chunk, then in chunks of the bound:
    # chunks of 40 and 50 split the 125 test channels of the yr3 model at
    # pitch 0.25 and the 121 of the anchor at 0.1 into 40, 40, 40, 5 and 50,
    # 50, 21; the default bound splits the 9,261 of the yr3 model at 0.05.
    @pytest.mark.parametrize("model, resolution, chunk", [
        pytest.param("yr3", 0.25, 40, id="yr3"),
        pytest.param("anchor", 0.1, 50, id="anchor"),
        pytest.param("yr3", 0.05, None, id="yr3-default"),
    ])
    def test_chunking_leaves_value(self, monkeypatch, model, resolution, chunk):
        m = _bin_model(0.1) if model == "anchor" else _yr3_model()
        n_joints = round(1.0 / resolution) + 1
        n_tests = n_joints ** m.n_yr
        sizes, tables = [], []
        screen = solver._screen

        def recorded(base, p_x1, q):
            sizes.append(len(q))
            # the largest table, p(z, yhat) of every grid p(x1): |Z| |Yhat| per pair
            tables.append(len(p_x1) * m.n_z * 2 * len(q))
            return screen(base, p_x1, q)

        monkeypatch.setattr(solver, "_screen", recorded)
        bound = solver._BRUTE_ELEMENTS if chunk is None else chunk * n_joints * m.n_z * 2
        monkeypatch.setattr(solver, "_BRUTE_ELEMENTS", n_tests * n_joints * m.n_z * 2)
        whole = brute_force_capacity(m, resolution)
        assert sizes == [n_tests]
        sizes.clear()
        tables.clear()
        monkeypatch.setattr(solver, "_BRUTE_ELEMENTS", bound)
        assert brute_force_capacity(m, resolution) == whole
        assert len(sizes) >= 2 and max(tables) <= bound and sum(sizes) == n_tests
        if chunk is not None:
            assert len(sizes) >= 3 and sizes[0] == chunk and 0 < sizes[-1] < chunk

    def test_screen_agrees_with_terms(self):
        # every compress-only grid point of a |Y_R| = 3, |Z| = 2 model with
        # binary Yhat: the chain-rule screen differs from terms() by float
        # rounding only, far inside the margin that decides what is re-evaluated
        rng = np.random.default_rng(3)
        m = DiscreteOrcd(
            p_z=Pmf(rng.dirichlet(np.ones(2))),
            chan_sr=rng.dirichlet(np.ones(3), size=(2, 2)),
            chan_rd=np.ones((1, 2, 1)),
            chan_sd=np.ones((1, 2, 1)),
            r1_pipe=0.3,
        )
        grid = np.array([[i, 4 - i] for i in range(5)]) / 4.0
        tests = grid[np.array(list(itertools.product(range(len(grid)), repeat=3)))]
        base = solver._base(m)
        rate, lhs = solver._screen(base, grid, tests)
        ex = solver._Expression(base, grid[:, None])
        worst = 0.0
        for j in range(len(grid)):
            exact_rate, exact_lhs, _ = ex.rows(np.full(len(tests), j)).terms(tests[:, None])
            worst = max(worst, np.abs(rate[j] - exact_rate).max(), np.abs(lhs[j] - exact_lhs).max())
        assert worst <= 1e-12
        assert solver._SCREEN_MARGIN >= 1000.0 * worst

    def test_monotone_in_resolution(self):
        m = _bin_model(0.1)
        coarse = brute_force_capacity(m, 0.1)
        fine = brute_force_capacity(m, 0.05)
        assert fine >= coarse - 1e-12

    # Frozen values of the oracle on the fair-state anchors at pitches 0.1 and
    # 0.05: any reordering or batching of the enumeration must reproduce them.
    @pytest.mark.parametrize("delta, pinned", [
        (0.0, (0.2364527976600277, 0.24910211328027554)),
        (0.1, (0.13276067602338637, 0.150458534574625)),
        (0.25, (0.05037370134757868, 0.05662360976464065)),
    ])
    def test_anchor_values_pinned(self, delta, pinned):
        m = _bin_model(delta)
        got = (brute_force_capacity(m, 0.1), brute_force_capacity(m, 0.05))
        assert got == pytest.approx(pinned, abs=1e-12)

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

    # Models where float rounding of the entropies puts the best grid rate a
    # few ulps above the cut-set bound: a relay that hears only noise
    # (cut-set 0), the same with |Y_R| = 4, and a one-letter X1 (the grid's
    # single p(x1)).
    @pytest.mark.parametrize("model, resolutions", [
        pytest.param("noise", (0.1, 0.05), id="noise"),
        pytest.param("noise-yr4", (0.1,), id="noise-yr4"),
        pytest.param("x1-one", (0.25, 0.1, 0.05), id="x1-one"),
    ])
    def test_never_above_cutset(self, model, resolutions):
        if model == "x1-one":
            rng = np.random.default_rng(7)
            chan_sr = rng.dirichlet(np.ones(3), size=(1, 2))
            m = DiscreteOrcd(p_z=Pmf([0.3, 0.7]), chan_sr=chan_sr, chan_rd=np.ones((1, 2, 1)),
                             chan_sd=rng.dirichlet(np.ones(2), size=(2, 2)), r1_pipe=0.4)
        else:
            n_yr = 4 if model == "noise-yr4" else 2
            m = DiscreteOrcd(p_z=Pmf([0.5, 0.5]), chan_sr=np.full((2, 2, n_yr), 1.0 / n_yr),
                             chan_rd=np.ones((1, 2, 1)), chan_sd=np.ones((1, 2, 1)), r1_pipe=0.3)
        for resolution in resolutions:
            assert brute_force_capacity(m, resolution) <= cutset_discrete(m)


class TestBlahutArimotoOncePerModel:
    """Every consumer of a model reads each link's capacity from the model."""

    def _run_all(self, m: DiscreteOrcd, monkeypatch) -> dict[str, list]:
        calls = {"models": [], "solver": []}
        capacity = models.channel_capacity
        for name, module in (("models", models), ("solver", solver)):
            def counted(w, _seen=calls[name]):
                _seen.append(np.array(w))
                return capacity(w)
            monkeypatch.setattr(module, "channel_capacity", counted)
        scheme = _scheme([[0.3, 0.7]], _constant_yhat(m.n_yr, 1, 2), 1, 2)
        models.link_capacities(m)
        cutset_discrete(m)
        classify_cutset_tightness(m)
        for _ in range(3):
            objective(m, scheme)
        brute_force_capacity(m, 0.25)
        solve_capacity(m, SolveConfig(restarts=2, max_iters=0, seed=0))
        return calls

    @staticmethod
    def _distinct(channels: list) -> bool:
        return len({(w.shape, w.tobytes()) for w in channels}) == len(channels)

    def test_real_links(self, monkeypatch):
        noisy = np.array([[[0.8, 0.2], [0.7, 0.3]], [[0.1, 0.9], [0.25, 0.75]]])
        m = DiscreteOrcd(
            p_z=Pmf([0.4, 0.6]),
            chan_sr=noisy,
            chan_rd=noisy[::-1],
            chan_sd=np.repeat(np.array([[0.5, 0.3, 0.2], [0.4, 0.36, 0.24]])[:, None], 2, axis=1),
        )
        calls = self._run_all(m, monkeypatch)
        # relay, direct and source-relay links, then the state-averaged channel
        assert len(calls["models"]) == 3 and self._distinct(calls["models"])
        assert len(calls["solver"]) == 1

    def test_bit_pipe(self, monkeypatch):
        calls = self._run_all(_bin_model(0.1, p_z=0.3), monkeypatch)
        # the pipe needs no call: direct and source-relay links only
        assert len(calls["models"]) == 2 and self._distinct(calls["models"])
        assert len(calls["solver"]) == 1


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
        assert cutset_discrete(m) - rep.best_rate <= 1e-9
