"""Tests for the closed-form rate and bound expressions."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycap.errors import DomainError, UsageError, ValidationError
from relaycap.info import binary_entropy, inv_binary_entropy, star
from relaycap.models import BinaryMrcd, GaussianMrcd, ParallelBinaryMrcd, as_discrete
from relaycap.rates import (
    RateCurve,
    RatePoint,
    binary_capacity_pz_half,
    binary_cf,
    binary_cutset,
    binary_df,
    binary_pdcf,
    g_alpha,
    gaussian_G,
    gaussian_cf,
    gaussian_cutset,
    gaussian_df,
    gaussian_pdcf,
    parallel_binary_cf,
    parallel_binary_cutset,
    parallel_binary_df,
    parallel_binary_pdcf,
    sweep,
)

# Frozen 50-digit reference evaluations of the defining formulas.
PAR_CF_03_12 = 0.1665851439913767
BIN_DF_INNER_022 = 0.2398324970380344
BIN_CAP_01_025 = 0.1562468352946221
CUTSET_TERM_01 = 0.5310044064107188
GAUSS_CUTSET_08 = 0.4372345589580705
GAUSS_DF_P03 = 0.1892558116268649
GAUSS_CF_RHO0 = 0.1370874817194971
RHO_STAR = 0.5700877125495690


def _par(delta, p_z=0.15, r1=1.2):
    return ParallelBinaryMrcd(delta=delta, p_z=p_z, r1=r1)


def _bin(delta, p_z=0.5, r1=0.25):
    return BinaryMrcd(delta=delta, p_z=p_z, r1=r1)


def _gauss(rho, power=0.3, r1=1.0):
    return GaussianMrcd(power=power, rho=rho, r1=r1)


def _values(curve: RateCurve, scheme: str) -> np.ndarray:
    return np.array([pt.value for pt in curve.points[scheme]])


class TestRatePoint:
    def test_negative_value(self):
        with pytest.raises(ValidationError):
            RatePoint(-0.5)

    def test_tiny_negative_clamps(self):
        assert RatePoint(-1e-14).value == 0.0


class TestParallelBinaryCutset:
    def test_noiseless_pipe_limited(self):
        assert parallel_binary_cutset(_par(0.0)).value == 1.2

    def test_pure_noise(self):
        assert parallel_binary_cutset(_par(0.5)).value == 0.0

    def test_channel_limited_at_inverse_point(self):
        # at delta = h2^{-1}(2 - r1) the channel term equals r1 - ... = 0.4
        delta = inv_binary_entropy(0.8)
        assert parallel_binary_cutset(_par(delta)).value == pytest.approx(0.4, abs=1e-9)


class TestParallelBinaryDf:
    def test_state_free_equals_cutset(self):
        for delta in np.linspace(0.0, 0.5, 21):
            df = parallel_binary_df(_par(delta, p_z=0.0))
            cs = parallel_binary_cutset(_par(delta))
            assert df.value == pytest.approx(cs.value, abs=1e-12)

    def test_noiseless_is_pipe_limited(self):
        # inner term 2 - h2(0.15) exceeds the pipe rate 1.2
        assert parallel_binary_df(_par(0.0)).value == 1.2

    def test_crossover_with_pdcf(self):
        # the schemes swap order where the pdcf compression noise equals p_z,
        # i.e. at h2(delta) = 2 - r1 - h2(p_z); locate the same point by
        # bisection on the rate difference as an independent route
        delta_closed = inv_binary_entropy(2.0 - 1.2 - binary_entropy(0.15))
        lo, hi = 1e-4, 0.4
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            diff = parallel_binary_df(_par(mid)).value - parallel_binary_pdcf(_par(mid)).value
            if diff > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(delta_closed, abs=1e-9)
        assert delta_closed == pytest.approx(0.0291596138185789, abs=1e-10)
        at = _par(delta_closed)
        assert parallel_binary_df(at).value == pytest.approx(
            parallel_binary_pdcf(at).value, abs=1e-9
        )


class TestParallelBinaryCf:
    def test_full_pipe_meets_cutset(self):
        for delta in (0.05, 0.2, 0.4):
            cf = parallel_binary_cf(ParallelBinaryMrcd(delta=delta, p_z=0.15, r1=2.0))
            assert cf.value == pytest.approx(2.0 * (1.0 - binary_entropy(delta)), abs=1e-12)

    def test_oversized_pipe_saturates(self):
        a = parallel_binary_cf(ParallelBinaryMrcd(delta=0.2, p_z=0.15, r1=2.0))
        b = parallel_binary_cf(ParallelBinaryMrcd(delta=0.2, p_z=0.15, r1=3.7))
        assert a.value == b.value
        assert b.meta["nu"] == 0.0

    def test_noiseless_channel_returns_pipe_rate(self):
        for r1 in (0.4, 1.0, 1.6, 2.0):
            cf = parallel_binary_cf(ParallelBinaryMrcd(delta=0.0, p_z=0.15, r1=r1))
            assert cf.value == pytest.approx(r1, abs=1e-9)

    def test_reference_value(self):
        cf = parallel_binary_cf(_par(0.3))
        assert cf.value == pytest.approx(PAR_CF_03_12, abs=1e-10)
        assert cf.meta["nu"] == pytest.approx(inv_binary_entropy(0.4), abs=1e-12)

    def test_symmetric_noise_grid_oracle(self):
        # restricted family: flip both outputs with the same Ber(nu) noise and
        # keep the pipe constraint; the formula should match the grid maximum
        m = _par(0.3)
        best = 0.0
        for nu in np.linspace(0.0, 0.5, 501):
            if 2.0 * (1.0 - binary_entropy(nu)) <= m.r1:
                best = max(best, 2.0 * (1.0 - binary_entropy(star(m.delta, nu))))
        assert best <= parallel_binary_cf(m).value + 1e-9
        assert best >= parallel_binary_cf(m).value - 4e-3


class TestParallelBinaryPdcf:
    def test_meets_cutset_beyond_threshold(self):
        threshold = inv_binary_entropy(2.0 - 1.2)
        for delta in np.linspace(threshold, 0.5, 25):
            pd = parallel_binary_pdcf(_par(delta))
            cs = parallel_binary_cutset(_par(delta))
            assert pd.value == pytest.approx(cs.value, abs=1e-9)

    def test_exact_threshold_point(self):
        delta = inv_binary_entropy(2.0 - 1.2)
        assert parallel_binary_pdcf(_par(delta)).value == pytest.approx(
            parallel_binary_cutset(_par(delta)).value, abs=1e-9
        )

    def test_noiseless_is_pipe_limited(self):
        assert parallel_binary_pdcf(_par(0.0)).value == pytest.approx(1.2, abs=1e-12)

    def test_oversmoothing_clamps_to_fair_coin(self):
        pd = parallel_binary_pdcf(ParallelBinaryMrcd(delta=0.05, p_z=0.15, r1=0.3))
        assert pd.meta["q"] == 0.5
        assert pd.value == pytest.approx(
            min(0.3, 1.0 - binary_entropy(0.05)), abs=1e-12
        )


class TestBinaryRates:
    def test_cutset_examples(self):
        assert binary_cutset(_bin(0.0, r1=0.7)).value == 0.7
        assert binary_cutset(_bin(0.5)).value == 0.0
        assert binary_cutset(_bin(0.1)).value == 0.25
        m = _bin(0.1, r1=1.0)
        assert binary_cutset(m).value == pytest.approx(CUTSET_TERM_01, abs=1e-12)

    def test_df_examples(self):
        for delta in (0.05, 0.2):
            m = _bin(delta, p_z=0.0, r1=0.25)
            assert binary_df(m).value == binary_cutset(m).value
        assert binary_df(_bin(0.1, p_z=0.5)).value == 0.0
        got = binary_df(BinaryMrcd(delta=0.1, p_z=0.15, r1=0.25))
        assert got.value == pytest.approx(min(0.25, BIN_DF_INNER_022), abs=1e-12)

    def test_cf_examples(self):
        assert binary_cf(_bin(0.1, r1=1.0)).value == pytest.approx(
            CUTSET_TERM_01, abs=1e-12
        )
        for r1 in (0.2, 0.6, 1.0):
            assert binary_cf(BinaryMrcd(delta=0.0, p_z=0.5, r1=r1)).value == pytest.approx(
                r1, abs=1e-9
            )
        assert binary_cf(_bin(0.1)).value == pytest.approx(BIN_CAP_01_025, abs=1e-10)

    def test_cf_symmetric_noise_grid_oracle(self):
        m = _bin(0.1)
        best = 0.0
        for nu in np.linspace(0.0, 0.5, 501):
            if 1.0 - binary_entropy(nu) <= m.r1:
                best = max(best, 1.0 - binary_entropy(star(m.delta, nu)))
        assert best <= binary_cf(m).value + 1e-9
        assert best >= binary_cf(m).value - 4e-3

    def test_pdcf_branches(self):
        assert binary_pdcf(_bin(0.1, p_z=0.0)).meta["branch"] == "df"
        assert binary_pdcf(_bin(0.1, p_z=0.5, r1=0.25)).meta["branch"] == "cf"
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = BinaryMrcd(
                delta=float(rng.uniform(0, 0.5)),
                p_z=float(rng.uniform(0, 1)),
                r1=float(rng.uniform(0, 1.5)),
            )
            pd = binary_pdcf(m)
            assert pd.value >= binary_df(m).value - 1e-15
            assert pd.value >= binary_cf(m).value - 1e-15
            assert pd.value == max(binary_df(m).value, binary_cf(m).value)

    def test_pdcf_branch_continuity(self):
        # both branches agree where p_z = h2^{-1}(1 - r1)
        r1 = 0.25
        p_star = inv_binary_entropy(1.0 - r1)
        for delta in (0.05, 0.1, 0.3):
            m = BinaryMrcd(delta=delta, p_z=p_star, r1=r1)
            assert binary_df(m).value == pytest.approx(binary_cf(m).value, abs=1e-9)

    def test_capacity_requires_fair_state(self):
        with pytest.raises(UsageError):
            binary_capacity_pz_half(BinaryMrcd(delta=0.1, p_z=0.4, r1=0.25))

    def test_capacity_examples(self):
        assert binary_capacity_pz_half(_bin(0.0)).value == pytest.approx(0.25, abs=1e-9)
        assert binary_capacity_pz_half(_bin(0.1, r1=0.0)).value == 0.0
        cap = binary_capacity_pz_half(_bin(0.1))
        assert cap.value == pytest.approx(BIN_CAP_01_025, abs=1e-10)
        assert cap.value == binary_cf(_bin(0.1)).value

    def test_capacity_strictly_below_cutset_when_channel_rich(self):
        # strict gap whenever 0 < delta < 0.5 and r1 < 1 - h2(delta)
        for delta in (0.05, 0.15, 0.3):
            for r1 in (0.1, 0.25):
                if r1 >= 1.0 - binary_entropy(delta):
                    continue
                m = BinaryMrcd(delta=delta, p_z=0.5, r1=r1)
                assert binary_capacity_pz_half(m).value < binary_cutset(m).value


class TestGAlpha:
    def test_endpoints(self):
        for delta, r1 in ((0.05, 0.5), (0.1, 1.2), (0.25, 0.8), (0.4, 1.5)):
            assert g_alpha(r1 / 2, delta, r1) == pytest.approx(
                r1 / 2 - binary_entropy(delta), abs=1e-12
            )
            assert g_alpha(1 + r1 / 2, delta, r1) == pytest.approx(r1 / 2, abs=1e-9)

    def test_monotone_nondecreasing(self):
        for delta, r1 in ((0.05, 0.5), (0.1, 1.2), (0.25, 0.8), (0.4, 1.5)):
            grid = np.linspace(r1 / 2, 1 + r1 / 2, 100)
            vals = [g_alpha(a, delta, r1) for a in grid]
            assert all(b - a >= -1e-10 for a, b in zip(vals, vals[1:]))

    def test_maximum_over_unit_range_at_one(self):
        for delta, r1 in ((0.1, 0.6), (0.3, 1.0)):
            grid = np.linspace(r1 / 2, 1.0, 100)
            vals = [g_alpha(a, delta, r1) for a in grid]
            assert int(np.argmax(vals)) == len(vals) - 1

    def test_domain(self):
        with pytest.raises(DomainError):
            g_alpha(0.1, 0.2, 1.0)  # below r1/2
        with pytest.raises(DomainError):
            g_alpha(1.8, 0.2, 1.0)  # above 1 + r1/2
        with pytest.raises(DomainError, match=r"^g_alpha: delta must be in \[0, 0.5\], got 0.7$"):
            g_alpha(0.6, 0.7, 1.0)
        with pytest.raises(DomainError, match=r"^g_alpha: r1 must be >= 0, got -0.5$"):
            g_alpha(0.0, 0.2, -0.5)  # alpha = 0 lies in [r1/2, 1 + r1/2]


class TestGaussianRates:
    def test_cutset(self):
        assert gaussian_cutset(_gauss(0.0)).value == gaussian_df(_gauss(0.0)).value
        assert gaussian_cutset(_gauss(1.0)).value == 1.0
        assert gaussian_cutset(_gauss(0.8)).value == pytest.approx(
            GAUSS_CUTSET_08, abs=1e-12
        )

    def test_df(self):
        assert gaussian_df(GaussianMrcd(power=1e-9, rho=0.0, r1=1.0)).value < 1e-8
        assert gaussian_df(_gauss(0.3)).value == pytest.approx(GAUSS_DF_P03, abs=1e-12)

    def test_cf(self):
        assert gaussian_cf(_gauss(1.0)).value == pytest.approx(1.0, abs=1e-12)
        assert gaussian_cf(GaussianMrcd(power=0.3, rho=0.5, r1=0.0)).value == 0.0
        got = gaussian_cf(_gauss(0.0))
        assert got.value == pytest.approx(GAUSS_CF_RHO0, abs=1e-12)
        # recorded noise variance reproduces the rate through the G functional
        sigma = got.meta["sigma_q_sq"]
        p = 0.3
        direct = 0.5 * math.log2(1.0 + p / (1.0 + sigma))
        assert got.value == pytest.approx(direct, abs=1e-12)

    def test_cf_near_full_correlation_matches_exact_arithmetic(self):
        # P + 1 - rho^2 is ~2e-8 here: rounding 1 + P first moved the CF by 3.2e-9 bits
        p, rho = 1e-12, 0.99999999
        gap = 1 - Fraction(rho) ** 2  # 1 - rho^2 of the float rho, exactly
        exact = 1.0 - 0.5 * math.log2((Fraction(p) + 4 * gap) / (Fraction(p) + gap))
        got = gaussian_cf(GaussianMrcd(power=p, rho=rho, r1=1.0)).value
        assert got == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("r1", [0.0, 1e-17, 1.0])
    def test_cf_never_exceeds_the_pipe(self, r1):
        # the log term can round below zero where 2^{2 r1} rounds to 1 (then
        # (P + 1 - rho^2) / (2^{2 r1} - 1) has no finite value) and at |rho| = 1
        for rho in np.linspace(0.0, 1.0, 201):
            assert gaussian_cf(GaussianMrcd(power=0.3, rho=float(rho), r1=r1)).value <= r1

    def test_cf_past_float_overflow(self):
        # 2^{2 r1} overflows at r1 >= 512; the rate is its limit in r1, the
        # cut-set term 0.5 log2((P + 1 - rho^2) / (1 - rho^2)), which the
        # finite formula already reaches just below the overflow
        for rho in (0.0, 0.5, 0.99):
            limit = gaussian_cutset(_gauss(rho, r1=600.0)).value
            got = gaussian_cf(_gauss(rho, r1=600.0))
            assert got.value == limit
            assert got.meta["sigma_q_sq"] == 0.0
            assert gaussian_cf(_gauss(rho, r1=511.9)).value == pytest.approx(limit, abs=1e-9)
        assert gaussian_cf(_gauss(1.0, r1=600.0)).value == 600.0

    def test_pdcf_branches_follow_threshold(self):
        below = gaussian_pdcf(_gauss(RHO_STAR - 1e-3))
        above = gaussian_pdcf(_gauss(RHO_STAR + 1e-3))
        assert below.meta["branch"] == "df" and below.meta["alpha_star"] == 1.0
        assert above.meta["branch"] == "cf" and above.meta["alpha_star"] == 0.0

    def test_pdcf_branch_continuity(self):
        df = gaussian_df(_gauss(RHO_STAR)).value
        cf = gaussian_cf(_gauss(RHO_STAR)).value
        assert df == pytest.approx(cf, abs=1e-9)

    def test_pdcf_is_pointwise_max(self):
        for rho in np.linspace(0.0, 1.0, 1000):
            m = _gauss(float(rho))
            assert gaussian_pdcf(m).value == max(
                gaussian_df(m).value, gaussian_cf(m).value
            )


class TestGaussianG:
    def test_matches_cf_at_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            m = GaussianMrcd(
                power=float(rng.uniform(0.05, 3.0)),
                rho=float(rng.uniform(0.0, 0.99)),
                r1=float(rng.uniform(0.1, 2.0)),
            )
            assert 0.5 * math.log2(gaussian_G(0.0, m)) == pytest.approx(
                gaussian_cf(m).value, abs=1e-10
            )

    def test_matches_df_term_at_one_when_state_free(self):
        m = _gauss(0.0)
        assert 0.5 * math.log2(gaussian_G(1.0, m)) == pytest.approx(
            0.5 * math.log2(1.3), abs=1e-12
        )

    def test_derivative_sign(self):
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(50):
            m = GaussianMrcd(
                power=0.3, rho=float(rng.uniform(0.0, 0.99)), r1=1.0
            )
            alpha = float(rng.uniform(h, 1.0 - h))
            fd = (gaussian_G(alpha + h, m) - gaussian_G(alpha - h, m)) / (2 * h)
            indicator = m.power + 1.0 - 2.0 ** (2 * m.r1) * m.rho**2
            assert math.copysign(1.0, fd) == math.copysign(1.0, indicator)

    def test_past_float_overflow(self):
        # the limit as 2^{2 r1} grows, reached by the finite formula at r1 = 511.9
        for rho in (0.0, 0.5, 0.99):
            far, near = _gauss(rho, r1=600.0), _gauss(rho, r1=511.9)
            for alpha in (0.0, 0.4, 1.0):
                abar = 1.0 - alpha
                limit = 1.3 * (1.0 - rho * rho + abar * 0.3) / (
                    (1.0 - rho * rho) * (1.0 + abar * 0.3))
                assert gaussian_G(alpha, far) == pytest.approx(limit, rel=1e-15)
                assert gaussian_G(alpha, near) == pytest.approx(limit, rel=1e-12)
            assert 0.5 * math.log2(gaussian_G(0.0, far)) == pytest.approx(
                gaussian_cf(far).value, abs=1e-12)
        assert gaussian_G(0.5, _gauss(1.0, r1=600.0)) == math.inf

    def test_domain(self):
        m = GaussianMrcd(power=0.3, rho=0.5, r1=0.2)
        hi = (1.0 - 2.0 ** (-0.4)) * (1.0 + 1.0 / 0.3)
        with pytest.raises(DomainError):
            gaussian_G(hi + 1e-6, m)


class TestSchemeOrdering:
    # delta = 0 puts CF exactly on the cut-set bound, where the rounding of the
    # h2 inversion reads the uncapped CF up to 7.5e-12 above it
    DELTA_0 = (BinaryMrcd(delta=0.0, p_z=0.5, r1=0.97),
               ParallelBinaryMrcd(delta=0.0, p_z=0.15, r1=1.94))

    def test_cutset_dominates_everything(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            family = rng.integers(3)
            if family == 0:
                m = ParallelBinaryMrcd(
                    delta=float(rng.uniform(0, 0.5)),
                    p_z=float(rng.uniform(0, 1)),
                    r1=float(rng.uniform(0, 2.5)),
                )
                cs = parallel_binary_cutset(m).value
                df = parallel_binary_df(m).value
                cf = parallel_binary_cf(m).value
                pd = parallel_binary_pdcf(m).value
                arg = 2.0 - m.r1 - binary_entropy(m.p_z)
                # arg > 1 means decoding dominates at every noise level
                crossover = math.inf if arg > 1.0 else inv_binary_entropy(arg)
                if m.delta >= crossover:
                    assert pd >= max(df, cf) - 1e-12
            elif family == 1:
                m = BinaryMrcd(
                    delta=float(rng.uniform(0, 0.5)),
                    p_z=float(rng.uniform(0, 1)),
                    r1=float(rng.uniform(0, 1.5)),
                )
                cs = binary_cutset(m).value
                df = binary_df(m).value
                cf = binary_cf(m).value
                pd = binary_pdcf(m).value
                assert pd >= max(df, cf) - 1e-12
            else:
                m = GaussianMrcd(
                    power=float(rng.uniform(0.05, 3.0)),
                    rho=float(rng.uniform(0, 1)),
                    r1=float(rng.uniform(0.05, 2.0)),
                )
                cs = gaussian_cutset(m).value
                df = gaussian_df(m).value
                cf = gaussian_cf(m).value
                pd = gaussian_pdcf(m).value
                assert pd >= max(df, cf) - 1e-12
            assert cs >= df and cs >= cf and cs >= pd
        for m in self.DELTA_0:
            at = {scheme: rate(m).value for scheme, rate in _SINGLE_POINT[type(m)].items()}
            assert all(at["cutset"] >= at[scheme] for scheme in ("df", "cf", "pdcf"))


_SINGLE_POINT = {
    BinaryMrcd: {"cutset": binary_cutset, "df": binary_df, "cf": binary_cf,
                 "pdcf": binary_pdcf, "capacity": binary_capacity_pz_half},
    GaussianMrcd: {"cutset": gaussian_cutset, "df": gaussian_df, "cf": gaussian_cf,
                   "pdcf": gaussian_pdcf},
    ParallelBinaryMrcd: {"cutset": parallel_binary_cutset, "df": parallel_binary_df,
                         "cf": parallel_binary_cf, "pdcf": parallel_binary_pdcf},
}


# Every family with each of its fields; the sweep grids may leave each domain.
_SWEEPABLE = [(m, f.name) for m in (_bin(0.1), BinaryMrcd(delta=0.1, p_z=0.3, r1=0.25),
                                    _par(0.1), _gauss(0.2))
              for f in dataclasses.fields(m)]

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestSweep:
    @pytest.mark.parametrize(
        "model, param, grid, rival",
        [
            (_bin(0.0), "delta", np.linspace(0.0, 0.5, 101), "cf"),
            (BinaryMrcd(delta=0.05, p_z=0.3, r1=0.25), "p_z", np.linspace(0.0, 1.0, 101), "cf"),
            # p_z = 0.12 < h2^{-1}(1 - r1): DF >= CF on the whole grid (rival None)
            (BinaryMrcd(delta=0.0, p_z=0.12, r1=0.25), "delta", np.linspace(0.0, 0.5, 101), None),
            (_gauss(0.0), "rho", np.linspace(-1.0, 1.0, 101), "cf"),
            (_gauss(0.6), "r1", np.linspace(0.0, 3.0, 101), "cf"),
            (_par(0.0), "delta", np.linspace(0.0, 0.5, 101), "pdcf"),
            # r1 sweeps change the CF noise at every point; the parallel grid
            # holds r1 = 2, from which on nu = 0
            (BinaryMrcd(delta=0.1, p_z=0.12, r1=0.25), "r1", np.linspace(0.0, 1.5, 101), "cf"),
            (_par(0.02), "r1", np.linspace(1.0, 3.0, 101), "pdcf"),
            # pDCF's clamp q = 0.5 below r1 = 1 - h2(0.3), r1 = 0, and nu = 0 past r1 = 2
            (_par(0.3), "r1", np.linspace(0.0, 3.0, 101), "pdcf"),
        ],
        ids=["binary-fair-state", "binary-p_z", "binary-delta", "gaussian-rho",
             "gaussian-r1-from-0", "parallel-delta", "binary-r1", "parallel-r1-across-2",
             "parallel-r1-from-0"],
    )
    def test_columns_equal_single_point_evaluators(self, model, param, grid, rival):
        curve = sweep(model, param, grid)
        evaluators = _SINGLE_POINT[type(model)]
        for i, x in enumerate(grid):
            at = dataclasses.replace(model, **{param: float(x)})
            for scheme, pts in curve.points.items():
                assert pts[i] == evaluators[scheme](at)  # value and meta
        # the grid crosses the switch between decoding and its rival
        ahead = _values(curve, "df") >= _values(curve, rival or "cf")
        assert ahead.all() if rival is None else (ahead.any() and not ahead.all())

    @pytest.mark.parametrize(
        "grid, sigma_q_sq",
        [
            # 2^{2 r1} overflows from r1 = 512 on, where sigma_q^2 = 0
            (np.linspace(500.0, 600.0, 101), {12: 0.0, 100: 0.0}),
            # sigma_q^2 has no finite value where 2^{2 r1} rounds to 1
            (np.concatenate([[0.0, 1e-17, 1e-16], np.linspace(1e-9, 1.0, 50)]),
             {0: None, 1: None}),
        ],
        ids=["across-overflow", "from-0"],
    )
    def test_gaussian_r1_columns_equal_single_point_evaluators(self, grid, sigma_q_sq):
        model = _gauss(0.6)
        curve = sweep(model, "r1", grid)
        for i, x in enumerate(grid):
            at = dataclasses.replace(model, r1=float(x))
            for scheme, pts in curve.points.items():
                assert pts[i] == _SINGLE_POINT[GaussianMrcd][scheme](at)
        for i, sigma in sigma_q_sq.items():
            assert curve.points["cf"][i].meta["sigma_q_sq"] == sigma

    def test_parallel_schemes(self):
        curve = sweep(_par(0.0), "delta", np.linspace(0.0, 0.5, 11))
        assert tuple(curve.points) == ("cutset", "df", "cf", "pdcf")
        assert len(_values(curve, "df")) == 11

    def test_binary_includes_capacity_at_fair_state(self):
        for param, grid in (("delta", np.linspace(0.0, 0.5, 5)), ("r1", np.linspace(0.0, 1.5, 7))):
            curve = sweep(_bin(0.1), param, grid)
            assert "capacity" in curve.points, param
            np.testing.assert_allclose(_values(curve, "capacity"), _values(curve, "cf"))

    def test_binary_skips_capacity_otherwise(self):
        for model, param, grid in (
            (BinaryMrcd(delta=0.0, p_z=0.3, r1=0.25), "delta", [0.0, 0.1]),
            # the grid moves p_z off the fair coin, even where it holds 0.5
            (_bin(0.1), "p_z", [0.3, 0.5]),
        ):
            assert "capacity" not in sweep(model, param, grid).points, param

    def test_unknown_param(self):
        with pytest.raises(UsageError):
            sweep(_bin(0.1), "sigma", [0.0, 0.1])

    def test_non_increasing_grid(self):
        with pytest.raises(UsageError):
            sweep(_bin(0.1), "delta", [0.2, 0.1])

    def test_leaves_the_callers_grid_writable(self):
        grid = np.linspace(0.0, 0.5, 5)
        curve = sweep(_bin(0.1), "delta", grid)
        assert grid.flags.writeable and not curve.param_values.flags.writeable
        grid[0] = 0.25
        assert curve.param_values[0] == 0.0

    def test_two_axis_grid(self):
        with pytest.raises(UsageError, match=r"^sweep: grid must be a nonempty vector$"):
            sweep(_bin(0.1), "delta", [[0.1, 0.2]])

    def test_discrete_model(self):
        with pytest.raises(UsageError, match=r"^sweep: unsupported model family DiscreteOrcd$"):
            sweep(as_discrete(_bin(0.1)), "r1_pipe", [0.1, 0.2])

    def test_out_of_domain_grid_point(self):
        with pytest.raises(ValidationError):
            sweep(_bin(0.1), "delta", [0.4, 0.6])

    def test_nan_inside_the_grid(self):
        # NaN compares False both ways, so it would pass a test for a step <= 0
        with pytest.raises(UsageError, match=r"^sweep: grid must be finite and strictly increasing$"):
            sweep(_bin(0.1), "delta", [0.1, math.nan, 0.2])

    def test_infinite_grid_end(self):
        # refused as a grid before any model is built at its ends
        with pytest.raises(UsageError, match=r"^sweep: grid must be finite and strictly increasing$"):
            sweep(_gauss(0.2), "r1", [0.0, 1.0, math.inf])

    @PROPERTY
    @given(
        family_param=st.sampled_from(_SWEEPABLE),
        grid=st.lists(st.sampled_from([-1.0, -0.0, 0.5, 1.0, 2.0])
                      | st.floats(-1.5, 2.5, allow_nan=False),
                      min_size=1, max_size=6, unique=True).map(sorted),
    )
    def test_validates_like_a_per_point_loop(self, family_param, grid):
        # one check of the grid's ends must refuse exactly the grids a
        # dataclasses.replace per point refuses, naming the same first value
        model, param = family_param
        try:
            ats = [dataclasses.replace(model, **{param: x}) for x in grid]
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                sweep(model, param, grid)
            assert str(got.value) == str(exc)
            return
        curve = sweep(model, param, grid)
        evaluators = _SINGLE_POINT[type(model)]
        for scheme, pts in curve.points.items():
            assert pts == [evaluators[scheme](at) for at in ats]

    def test_gaussian_family(self):
        curve = sweep(_gauss(0.0), "rho", np.linspace(0.0, 1.0, 7))
        pd = _values(curve, "pdcf")
        np.testing.assert_allclose(
            pd, np.maximum(_values(curve, "df"), _values(curve, "cf")), atol=0
        )


class TestRateCurveSerialization:
    def _curve(self):
        return sweep(_bin(0.0), "delta", np.linspace(0.0, 0.5, 6))

    def test_csv_round_trip(self, tmp_path):
        curve = self._curve()
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["param", "cutset", "df", "cf", "pdcf", "capacity"]
        assert len(lines) == 7
        row = dict(zip(header, map(float, lines[3].split(","))))
        idx = 2
        assert row["param"] == pytest.approx(curve.param_values[idx], abs=1e-12)
        assert row["cf"] == pytest.approx(_values(curve, "cf")[idx], rel=1e-11)

    def test_csv_significant_digits(self, tmp_path):
        curve = self._curve()
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        for line in path.read_text().strip().split("\n")[1:]:
            for cell in line.split(","):
                assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 13

    def test_json_round_trip(self, tmp_path):
        curve = self._curve()
        path = tmp_path / "curve.json"
        curve.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["param_name"] == "delta"
        assert len(payload["param_values"]) == 6
        got = [pt["value"] for pt in payload["points"]["pdcf"]]
        np.testing.assert_allclose(got, _values(curve, "pdcf"), atol=0)

    def test_points_view_is_built_on_first_read_and_kept(self, tmp_path):
        curve = self._curve()
        curve.to_csv(tmp_path / "curve.csv")
        curve.to_json(tmp_path / "curve.json")
        # sweeping and writing build no RatePoint
        assert "points" not in vars(curve)
        # perfbench reads ref.points[s][i] once per cell: a view rebuilt per
        # read would cost a whole curve per cell
        assert curve.points is curve.points
        rates, metas = curve.columns["cf"]
        assert curve.points["cf"] == [RatePoint(v, m) for v, m in zip(rates, metas)]

    def test_empty_grid(self):
        with pytest.raises(ValidationError, match=r"^RateCurve: param_values must be a nonempty vector$"):
            RateCurve(param_name="delta", param_values=np.array([]), columns={})

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError, match=r"^RateCurve: unknown scheme 'dual'$"):
            RateCurve(param_name="delta", param_values=np.array([0.1]),
                      columns={"dual": ([0.1], [{}])})

    def test_strictly_increasing_required(self):
        with pytest.raises(ValidationError):
            RateCurve(
                param_name="delta",
                param_values=np.array([0.1, 0.1]),
                columns={"df": ([0.1, 0.2], [{}, {}])},
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_grid_refused(self, bad):
        # NaN slips past a check for a non-positive step, inf past any step check
        with pytest.raises(ValidationError, match="finite and strictly increasing"):
            RateCurve(
                param_name="delta",
                param_values=np.array([0.1, bad]),
                columns={"df": ([0.1, 0.2], [{}, {}])},
            )

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            RateCurve(
                param_name="delta",
                param_values=np.array([0.1, 0.2]),
                columns={"df": ([0.1], [{}])},
            )

    @pytest.mark.parametrize(
        "rates, metas, count",
        [([0.1, 0.2], [{}], 1), ([0.1, 0.2, 0.3], [{}, {}], 3)],
        ids=["meta-list", "rate-column"],
    )
    def test_column_of_the_wrong_length(self, rates, metas, count):
        with pytest.raises(ValidationError,
                           match=rf"^RateCurve: scheme 'df' has {count} points for 2 grid values$"):
            RateCurve(param_name="delta", param_values=np.array([0.1, 0.2]),
                      columns={"df": (rates, metas)})

    @pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (-0.1, "-0.1")],
                             ids=["nan", "negative"])
    def test_column_takes_ratepoints_rule(self, bad, shown):
        with pytest.raises(ValidationError, match=rf"^RatePoint: rate must be >= 0, got {shown}$"):
            RatePoint(bad)
        with pytest.raises(ValidationError, match=rf"^RatePoint: rate must be >= 0, got {shown}$"):
            RateCurve(param_name="delta", param_values=np.array([0.1, 0.2]),
                      columns={"df": ([0.1, bad], [{}, {}])})

    def test_column_is_clamped_and_a_constant_rate_fills_it(self):
        curve = RateCurve(param_name="delta", param_values=np.array([0.1, 0.2, 0.3]),
                          columns={"df": ([-1e-13, -0.0, 0.5], [{}, {}, {}]),
                                   "cutset": (np.float64(0.5), [{}, {}, {}])})
        assert curve.columns["df"][0] == [0.0, 0.0, 0.5]
        assert math.copysign(1.0, curve.columns["df"][0][1]) == 1.0
        assert curve.columns["cutset"][0] == [0.5, 0.5, 0.5]
        assert curve.points["df"] == [RatePoint(0.0), RatePoint(0.0), RatePoint(0.5)]
