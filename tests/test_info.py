"""Tests for the discrete information-theoretic primitives."""

import math

import numpy as np
import pytest

from relaycap.errors import DomainError, UsageError, ValidationError
from relaycap.info import (
    JointPmf,
    Pmf,
    binary_entropy,
    conditional_mutual_information,
    entropy,
    f_bound_bsc,
    inv_binary_entropy,
    mutual_information,
    star,
)

# High-precision reference values, frozen from 50-digit evaluation of the
# defining formulas (bisection for the inverse).
H2_011 = 0.4999159581645280
H2_015 = 0.6098403047164004
INV_H2_08 = 0.2430038538089539
F_BOUND_01_075 = 0.8437531647053779


def _loop_entropy(table) -> float:
    """Independent reference: explicit sum, natural loops."""
    total = 0.0
    for p in np.asarray(table, dtype=float).ravel():
        if p > 0:
            total -= p * math.log2(p)
    return total


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        assert binary_entropy(0.11) == pytest.approx(H2_011, abs=1e-12)

    def test_symmetry(self):
        for p in np.linspace(0.0, 0.5, 47):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, -1e-12])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            binary_entropy(bad)


class TestInvBinaryEntropy:
    def test_inverse_at_maximum(self):
        assert inv_binary_entropy(1.0) == 0.5

    def test_negative_arguments_map_to_zero(self):
        assert inv_binary_entropy(-0.3) == 0.0
        assert inv_binary_entropy(0.0) == 0.0

    def test_reference_value(self):
        assert inv_binary_entropy(0.8) == pytest.approx(INV_H2_08, abs=1e-10)

    def test_above_one_rejected(self):
        with pytest.raises(DomainError):
            inv_binary_entropy(1.0 + 1e-9)

    def test_round_trip_on_half_interval(self):
        for p in np.linspace(0.0, 0.5, 100):
            assert inv_binary_entropy(binary_entropy(p)) == pytest.approx(p, abs=1e-10)

    def test_forward_round_trip(self):
        for q in np.linspace(0.0, 1.0, 100):
            assert binary_entropy(inv_binary_entropy(q)) == pytest.approx(q, abs=1e-10)


class TestStar:
    def test_identity_element(self):
        assert star(0.3, 0.0) == 0.3

    def test_half_is_absorbing(self):
        assert star(0.5, 0.37) == 0.5

    def test_reference_value(self):
        assert star(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b, c = rng.uniform(0.0, 1.0, size=3)
            assert star(a, b) == pytest.approx(star(b, a), abs=1e-15)
            assert star(star(a, b), c) == pytest.approx(star(a, star(b, c)), abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            star(-0.1, 0.2)
        with pytest.raises(DomainError):
            star(0.1, 1.2)


class TestPmf:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValidationError):
            Pmf([0.5, -0.5, 1.0])

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError):
            Pmf([0.5, 0.6])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Pmf([])

    def test_exact_renormalisation(self):
        p = Pmf([0.3 + 2e-10, 0.7])
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_frozen(self):
        p = Pmf([0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestEntropy:
    def test_point_mass(self):
        assert entropy(Pmf([1.0, 0.0])) == 0.0

    def test_uniform(self):
        assert entropy(Pmf([0.25, 0.25, 0.25, 0.25])) == pytest.approx(2.0, abs=1e-15)

    def test_matches_binary_entropy(self):
        assert entropy(Pmf([0.11, 0.89])) == pytest.approx(binary_entropy(0.11), abs=1e-12)

    def test_invalid_pmf(self):
        with pytest.raises(ValidationError):
            entropy([0.2, 0.2])


class TestJointPmf:
    def test_flat_with_dims(self):
        j = JointPmf([0.25] * 4, axis_labels=("A", "B"), dims=(2, 2))
        assert j.dims == (2, 2)

    def test_dims_product_mismatch(self):
        with pytest.raises(ValidationError):
            JointPmf([0.25] * 4, dims=(2, 3))

    def test_duplicate_labels(self):
        with pytest.raises(ValidationError):
            JointPmf(np.full((2, 2), 0.25), axis_labels=("A", "A"))

    def test_marginal(self):
        rng = np.random.default_rng(3)
        j = JointPmf(rng.dirichlet(np.ones(8)).reshape(2, 2, 2), axis_labels=("A", "B", "C"))
        m = j.marginal(("A", "C"))
        np.testing.assert_allclose(m.table, j.table.sum(axis=1), atol=1e-15)
        assert m.axis_labels == ("A", "C")

    def test_entropy_matches_loop_reference(self):
        rng = np.random.default_rng(4)
        j = JointPmf(rng.dirichlet(np.ones(12)).reshape(3, 4), axis_labels=("A", "B"))
        assert j.entropy() == pytest.approx(_loop_entropy(j.table), abs=1e-12)
        assert j.entropy("A") == pytest.approx(_loop_entropy(j.table.sum(axis=1)), abs=1e-12)


def _bsc_joint(delta: float, p1: float = 0.5) -> JointPmf:
    """Joint of (input, output) for a binary symmetric channel."""
    table = np.array(
        [
            [(1 - p1) * (1 - delta), (1 - p1) * delta],
            [p1 * delta, p1 * (1 - delta)],
        ]
    )
    return JointPmf(table, axis_labels=("X", "Y"))


class TestMutualInformation:
    def test_independent_axes(self):
        rng = np.random.default_rng(5)
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(4))
        j = JointPmf(np.outer(a, b), axis_labels=("A", "B"))
        assert mutual_information(j, "A", "B") == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_binary_channel(self):
        assert mutual_information(_bsc_joint(0.0), "X", "Y") == pytest.approx(1.0, abs=1e-12)

    def test_bsc_reference_value(self):
        got = mutual_information(_bsc_joint(0.11), "X", "Y")
        assert got == pytest.approx(1.0 - H2_011, abs=1e-12)

    def test_equals_entropy_drop(self):
        # I(A; B) = H(A) - H(A | B), the conditional term expanded by hand
        rng = np.random.default_rng(6)
        for _ in range(25):
            table = rng.dirichlet(np.ones(12)).reshape(3, 4)
            j = JointPmf(table, axis_labels=("A", "B"))
            p_b = table.sum(axis=0)
            h_a_given_b = sum(
                p_b[b] * _loop_entropy(table[:, b] / p_b[b])
                for b in range(4)
                if p_b[b] > 0
            )
            expect = _loop_entropy(table.sum(axis=1)) - h_a_given_b
            got = mutual_information(j, "A", "B")
            assert got >= 0.0
            assert got == pytest.approx(expect, abs=1e-12)

    def test_overlap_rejected(self):
        j = JointPmf(np.full((2, 2), 0.25), axis_labels=("A", "B"))
        with pytest.raises(UsageError):
            mutual_information(j, ("A", "B"), "B")


def _xor_state_joint(p_z: float) -> JointPmf:
    """(X, Z, Y) with Y = X xor Z, X uniform, Z ~ Ber(p_z)."""
    table = np.zeros((2, 2, 2))
    for x in range(2):
        for z in range(2):
            table[x, z, x ^ z] = 0.5 * (p_z if z else 1.0 - p_z)
    return JointPmf(table, axis_labels=("X", "Z", "Y"))


class TestConditionalMutualInformation:
    def test_copy_axes_independent_condition(self):
        # A = B uniform binary, C independent: I(A; B | C) = 1
        table = np.zeros((2, 2, 2))
        table[0, 0, :] = 0.25
        table[1, 1, :] = 0.25
        j = JointPmf(table, axis_labels=("A", "B", "C"))
        assert conditional_mutual_information(j, "A", "B", "C") == pytest.approx(1.0, abs=1e-12)

    def test_conditionally_independent(self):
        rng = np.random.default_rng(7)
        p_c = rng.dirichlet(np.ones(3))
        table = np.zeros((2, 4, 3))
        for c in range(3):
            table[:, :, c] = p_c[c] * np.outer(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(4)))
        j = JointPmf(table, axis_labels=("A", "B", "C"))
        assert conditional_mutual_information(j, "A", "B", "C") == pytest.approx(0.0, abs=1e-12)

    def test_xor_state_channel(self):
        # The state reveals the input exactly once it is known at the decoder.
        j = _xor_state_joint(0.3)
        assert conditional_mutual_information(j, "X", "Y", "Z") == pytest.approx(1.0, abs=1e-12)

    def test_chain_rule(self):
        # I(A,B; C | D) = I(A; C | D) + I(B; C | A, D)
        rng = np.random.default_rng(8)
        for _ in range(20):
            table = rng.dirichlet(np.ones(36)).reshape(2, 3, 3, 2)
            j = JointPmf(table, axis_labels=("A", "B", "C", "D"))
            lhs = conditional_mutual_information(j, ("A", "B"), "C", "D")
            rhs = conditional_mutual_information(j, "A", "C", "D") + conditional_mutual_information(
                j, "B", "C", ("A", "D")
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_overlap_rejected(self):
        j = JointPmf(np.full((2, 2, 2), 0.125), axis_labels=("A", "B", "C"))
        with pytest.raises(UsageError):
            conditional_mutual_information(j, "A", "B", ("B", "C"))


class TestFBoundBsc:
    def test_zero_budget_returns_channel_entropy(self):
        for delta in (0.05, 0.2, 0.45):
            assert f_bound_bsc(delta, 0.0) == pytest.approx(binary_entropy(delta), abs=1e-12)

    def test_noiseless_channel_passes_entropy_through(self):
        for s in np.linspace(0.0, 1.0, 21):
            assert f_bound_bsc(0.0, s) == pytest.approx(s, abs=1e-10)

    def test_reference_value(self):
        assert f_bound_bsc(0.1, 0.75) == pytest.approx(F_BOUND_01_075, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            f_bound_bsc(0.6, 0.5)
        with pytest.raises(DomainError):
            f_bound_bsc(0.1, 1.5)

    def test_nondecreasing_in_s(self):
        for delta in (0.05, 0.1, 0.25, 0.4):
            vals = [f_bound_bsc(delta, s) for s in np.linspace(0.0, 1.0, 101)]
            assert all(b - a >= -1e-10 for a, b in zip(vals, vals[1:]))

    def test_convexity_in_s(self):
        # second finite differences of s -> f_bound stay nonnegative
        grid = np.linspace(0.0, 1.0, 200)
        h = grid[1] - grid[0]
        for delta in (0.05, 0.1, 0.25, 0.4):
            vals = np.array([f_bound_bsc(delta, s) for s in grid])
            second = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h**2
            assert second.min() >= -1e-8
