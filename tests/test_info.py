"""Tests for the discrete information-theoretic primitives."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaycap.errors import DomainError, UsageError, ValidationError
from relaycap.info import (
    JointPmf,
    Pmf,
    binary_entropy,
    conditional_mutual_information,
    inv_binary_entropy,
    mutual_information,
    star,
)

# High-precision reference values, frozen from 50-digit evaluation of the
# defining formulas (bisection for the inverse).
H2_011 = 0.4999159581645280
H2_015 = 0.6098403047164004
INV_H2_08 = 0.2430038538089539


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

    def test_nan_rejected(self):
        # as binary_entropy rejects it, rather than bisecting to a number
        with pytest.raises(DomainError):
            inv_binary_entropy(float("nan"))

    def test_round_trip_on_half_interval(self):
        for p in np.linspace(0.0, 0.5, 100):
            assert inv_binary_entropy(binary_entropy(p)) == pytest.approx(p, abs=1e-10)

    def test_forward_round_trip(self):
        for q in np.linspace(0.0, 1.0, 100):
            assert binary_entropy(inv_binary_entropy(q)) == pytest.approx(q, abs=1e-10)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(-0.1, 1.0))
    # 1 - r1 and 1 - r1/2 at the fig7 (r1 = 0.25) and fig4 (r1 = 1.2) defaults
    @example(1.0 - 0.25)
    @example(1.0 - 0.25 / 2.0)
    @example(1.0 - 1.2)
    @example(1.0 - 1.2 / 2.0)
    def test_matches_bisection_on_binary_entropy(self, q):
        # the documented bisection, with h2 evaluated by binary_entropy itself
        expected = 0.0 if q <= 0.0 else 0.5
        if 0.0 < q < 1.0:
            lo, hi = 0.0, 0.5
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if binary_entropy(mid) < q:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-12:
                    break
            expected = 0.5 * (lo + hi)
        assert inv_binary_entropy(q).hex() == expected.hex()


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


class TestArrayArguments:
    # 0, 0.5 and 1, subnormal and near-1 arguments, and q <= 0 and q = 1
    P = np.array([0.0, 5e-324, 1e-12, 0.11, 0.25, 0.5, 0.75, 1.0 - 1e-16, 1.0])
    Q = np.array([-np.inf, -0.3, -0.0, 0.0, 5e-324, 1e-12, 0.5, 0.8, 1.0 - 1e-16, 1.0])

    @staticmethod
    def _hex(values) -> list[str]:
        return [float(x).hex() for x in np.ravel(values)]

    def test_binary_entropy_is_the_scalar_call_elementwise(self):
        got = binary_entropy(self.P.reshape(3, 3))
        assert isinstance(got, np.ndarray) and got.shape == (3, 3)
        assert self._hex(got) == [binary_entropy(float(p)).hex() for p in self.P]
        assert type(binary_entropy(0.11)) is float

    def test_inv_binary_entropy_is_the_scalar_call_elementwise(self):
        got = inv_binary_entropy(self.Q)
        assert isinstance(got, np.ndarray) and got.shape == self.Q.shape
        assert self._hex(got) == [inv_binary_entropy(float(q)).hex() for q in self.Q]
        assert self._hex(got[:4]) == [(0.0).hex()] * 4 and got[-1] == 0.5
        assert type(inv_binary_entropy(0.8)) is float

    def test_star_broadcasts_the_scalar_call(self):
        got = star(self.P[:, None], self.P[None, :])
        assert got.shape == (self.P.size, self.P.size)
        assert self._hex(got) == [star(float(a), float(b)).hex() for a in self.P for b in self.P]
        assert self._hex(star(0.1, self.P)) == [star(0.1, float(b)).hex() for b in self.P]
        assert type(star(0.1, 0.2)) is float

    @pytest.mark.parametrize(
        "call, bad",
        [(binary_entropy, 1.5), (binary_entropy, -1e-12), (binary_entropy, math.nan),
         (inv_binary_entropy, 1.0 + 1e-9), (inv_binary_entropy, math.nan),
         (lambda x: star(x, 0.2), -0.1), (lambda x: star(x, 0.2), math.nan),
         (lambda x: star(0.2, x), 1.2), (lambda x: star(0.2, x), math.nan)],
        ids=["h2-above", "h2-below", "h2-nan", "inv-above", "inv-nan",
             "star-a-below", "star-a-nan", "star-b-above", "star-b-nan"],
    )
    def test_one_bad_element_raises(self, call, bad):
        values = np.array([0.25, bad, 0.5, bad])
        with pytest.raises(DomainError, match=f"got {bad}$"):
            call(values)


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


class TestJointPmf:
    def test_duplicate_labels(self):
        with pytest.raises(ValidationError):
            JointPmf(np.full((2, 2), 0.25), axis_labels=("A", "A"))

    @pytest.mark.parametrize(
        "table, labels, message",
        [
            (1.0, None, r"^JointPmf: table must have at least one axis$"),
            (np.full((2, 2), 0.25), ("A",), r"^JointPmf: 1 labels for 2 axes$"),
        ],
        ids=["zero-axes", "label-count"],
    )
    def test_refused_table(self, table, labels, message):
        with pytest.raises(ValidationError, match=message):
            JointPmf(table, axis_labels=labels)

    @pytest.mark.parametrize(
        "axes, message",
        [
            ("C", r"^unknown axis 'C'; have \('A', 'B'\)$"),
            (2, r"^axis index 2 out of range for 2 axes$"),
            (("A", 0), r"^repeated axis in \('A', 0\)$"),
        ],
        ids=["unknown-name", "index-out-of-range", "repeated"],
    )
    def test_bad_axes(self, axes, message):
        j = JointPmf(np.full((2, 2), 0.25), axis_labels=("A", "B"))
        with pytest.raises(UsageError, match=message):
            j.entropy(axes)

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
