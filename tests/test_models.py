"""Tests for channel models, link capacities, and model files."""

import dataclasses
import math

import numpy as np
import pytest

from relaycap import models
from relaycap.errors import SolverError, UsageError, ValidationError
from relaycap.info import JointPmf, Pmf, binary_entropy, mutual_information
from relaycap.models import (
    _BA_GAP,
    _BA_ITERS,
    BinaryMrcd,
    DiscreteOrcd,
    GaussianMrcd,
    ParallelBinaryMrcd,
    as_discrete,
    channel_capacity,
    dump_model,
    embed_binary,
    embed_parallel_binary,
    link_capacities,
    load_model,
    model_from_dict,
    model_to_dict,
)

ONE_MINUS_H2_011 = 0.5000840418354720


def _state_free(chan_2d: np.ndarray, n_z: int = 2) -> np.ndarray:
    """Lift p(y | x) to p(y | x, z) with no state dependence."""
    n_in, n_out = chan_2d.shape
    return np.repeat(chan_2d[:, None, :], n_z, axis=1)


def _bsc(delta: float) -> np.ndarray:
    return np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])


def _model_with_rd(chan_rd: np.ndarray, p_z=(0.5, 0.5)) -> DiscreteOrcd:
    n_z = len(p_z)
    return DiscreteOrcd(
        p_z=Pmf(p_z),
        chan_sr=_state_free(_bsc(0.1), n_z),
        chan_rd=chan_rd,
        chan_sd=np.ones((1, n_z, 1)),
    )


def _loop_mi_given_state(p_x: np.ndarray, chan: np.ndarray, p_z: np.ndarray) -> float:
    """I(X; Y | Z) by explicit sums, X independent of Z."""
    total = 0.0
    for z, pz in enumerate(p_z):
        if pz == 0:
            continue
        p_y = p_x @ chan[:, z, :]
        for x, px in enumerate(p_x):
            for y in range(chan.shape[2]):
                p = px * chan[x, z, y]
                if p > 0 and p_y[y] > 0:
                    total += pz * p * math.log2(chan[x, z, y] / p_y[y])
    return total


class TestChannelCapacity:
    def test_noiseless_binary(self):
        c, p, _, _ = channel_capacity(_bsc(0.0))
        assert c == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-6)

    def test_useless_channel(self):
        c, _, _, _ = channel_capacity(np.array([[0.4, 0.6], [0.4, 0.6]]))
        assert c == pytest.approx(0.0, abs=1e-9)

    def test_single_input(self):
        c, p, evals, gap = channel_capacity(np.array([[0.3, 0.7]]))
        assert c == 0.0 and p.tolist() == [1.0]
        assert evals == 0 and gap == 0.0

    def test_bsc_closed_form(self):
        c, _, _, _ = channel_capacity(_bsc(0.11))
        assert c == pytest.approx(ONE_MINUS_H2_011, abs=1e-9)

    def test_invalid_rows(self):
        with pytest.raises(ValidationError):
            channel_capacity(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValidationError):
            channel_capacity(np.array([[np.nan, 0.5], [0.5, 0.5]]))

    def test_weak_link_reports_its_work(self):
        # two nearly coincident rows (C = 0.0073 bits): the plain step takes
        # 1,066 evaluations to a 1e-9 gap
        w = np.array([[0.5, 0.3, 0.2], [0.4, 0.36, 0.24]])
        c, p, evals, gap = channel_capacity(w)
        assert 0.0 <= gap < _BA_GAP
        assert evals <= 60
        assert c == pytest.approx(_mutual_information(p, w), abs=1e-9)

    def test_evaluation_cap_raises_with_gap(self, monkeypatch):
        monkeypatch.setattr(models, "_BA_ITERS", 5)
        with pytest.raises(SolverError, match="5 evaluations") as exc:
            channel_capacity(np.array([[0.5, 0.3, 0.2], [0.4, 0.36, 0.24]]))
        assert exc.value.gap >= _BA_GAP


def _dirichlet_channel(i: int) -> np.ndarray:
    """Seeded channel i of the pinned set: 2-4 inputs, 2-6 outputs, Dirichlet(0.5) rows."""
    rng = np.random.default_rng((2026, i))
    n_in, n_out = int(rng.integers(2, 5)), int(rng.integers(2, 7))
    return rng.dirichlet(np.full(n_out, 0.5), size=n_in)


def _mutual_information(p: np.ndarray, w: np.ndarray) -> float:
    return mutual_information(JointPmf(p[:, None] * w, axis_labels=("X", "Y")), "X", "Y")


class TestBlahutArimotoHeavyTail:
    # Channels 0-99 plus channel 721, where one input has optimal mass 0 and
    # its divergence sits 1.1e-5 bits below C. The plain step
    # p <- p exp(D - max D) takes 101,158 evaluations on this set (57,045 on
    # channel 721), median 122.
    PINNED = (*range(100), 721)
    PLAIN_MEDIAN = 122
    EVALS_CEILING = 16_000

    def test_pinned_set(self):
        evals = []
        for i in self.PINNED:
            w = _dirichlet_channel(i)
            c, p, n, gap = channel_capacity(w)
            assert 0.0 <= gap < _BA_GAP, i
            assert n < _BA_ITERS, i
            assert c == pytest.approx(_mutual_information(p, w), abs=1e-9), i
            evals.append(n)
        assert sum(evals) <= self.EVALS_CEILING
        assert np.median(evals) <= self.PLAIN_MEDIAN / 2


class TestLinkCapacities:
    def test_noiseless_relay_link(self):
        caps = link_capacities(_model_with_rd(_state_free(_bsc(0.0))))
        assert caps.r1 == pytest.approx(1.0, abs=1e-6)

    def test_useless_relay_link(self):
        chan = _state_free(np.array([[0.4, 0.6], [0.4, 0.6]]))
        caps = link_capacities(_model_with_rd(chan))
        assert caps.r1 == pytest.approx(0.0, abs=1e-9)

    def test_bsc_link_matches_closed_form_and_grid(self):
        m = _model_with_rd(_state_free(_bsc(0.11)))
        caps = link_capacities(m)
        assert caps.r1 == pytest.approx(ONE_MINUS_H2_011, abs=1e-6)
        # independent check: dense grid over binary input distributions
        best = max(
            _loop_mi_given_state(np.array([p, 1.0 - p]), m.chan_rd, m.p_z.probs)
            for p in np.linspace(0.0, 1.0, 1001)
        )
        assert caps.r1 == pytest.approx(best, abs=1e-6)

    def test_state_dependent_link(self):
        # state selects a clean or a useless channel: capacity is the average
        chan = np.stack([_bsc(0.0), _bsc(0.5)], axis=1)
        caps = link_capacities(_model_with_rd(chan, p_z=(0.3, 0.7)))
        assert caps.r1 == pytest.approx(0.3, abs=1e-6)

    def test_output_relabelling_invariance(self):
        rng = np.random.default_rng(11)
        chan = rng.dirichlet(np.ones(4), size=(3, 2))
        m = _model_with_rd(chan)
        perm = rng.permutation(4)
        m2 = _model_with_rd(chan[:, :, perm])
        assert link_capacities(m).r1 == pytest.approx(link_capacities(m2).r1, abs=1e-9)

    def test_direct_link_closed_form(self):
        m = DiscreteOrcd(
            p_z=Pmf([0.5, 0.5]),
            chan_sr=_state_free(_bsc(0.1)),
            chan_rd=np.ones((1, 2, 1)),
            chan_sd=_state_free(_bsc(0.11)),
        )
        assert link_capacities(m).r2 == pytest.approx(ONE_MINUS_H2_011, abs=1e-6)

    def test_pipe_short_circuits(self):
        m = embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.37))
        caps = link_capacities(m)
        assert caps.r1 == 0.37
        assert caps.r2 == 0.0
        assert (*m.relay_link[2:], *m.direct_link[2:]) == (0, 0.0, 0, 0.0)

    def test_reports_blahut_arimoto_work(self):
        m = DiscreteOrcd(
            p_z=Pmf([0.5, 0.5]),
            chan_sr=_state_free(_bsc(0.1)),
            chan_rd=_state_free(_bsc(0.2)),
            chan_sd=_state_free(np.array([[0.5, 0.3, 0.2], [0.4, 0.36, 0.24]])),
        )
        link_capacities(m)
        for evals, gap in (m.relay_link[2:], m.direct_link[2:]):
            assert evals >= 1
            assert 0.0 <= gap < _BA_GAP


class TestLinkCache:
    WEAK = np.array([[0.5, 0.3, 0.2], [0.4, 0.36, 0.24]])

    def _model(self) -> DiscreteOrcd:
        return DiscreteOrcd(
            p_z=Pmf([0.5, 0.5]),
            chan_sr=_state_free(_bsc(0.1)),
            chan_rd=_state_free(_bsc(0.2)),
            chan_sd=_state_free(self.WEAK),
        )

    def test_replaced_model_computes_its_own(self):
        m = self._model()
        caps = link_capacities(m)
        piped = link_capacities(dataclasses.replace(m, r1_pipe=0.3))
        assert (piped.r1, piped.r2) == (0.3, caps.r2)
        clean = link_capacities(dataclasses.replace(m, chan_sd=_state_free(_bsc(0.11))))
        assert clean.r2 == pytest.approx(ONE_MINUS_H2_011, abs=1e-6)
        assert clean.r2 != caps.r2
        assert (link_capacities(m).r1, link_capacities(m).r2) == (caps.r1, caps.r2)

    def test_failure_is_not_remembered(self, monkeypatch):
        m = self._model()
        monkeypatch.setattr(models, "_BA_ITERS", 5)
        for _ in range(2):
            with pytest.raises(SolverError, match="5 evaluations"):
                link_capacities(m)
        monkeypatch.undo()
        link_capacities(m)
        assert m.direct_link[3] < _BA_GAP

    def test_cached_results_are_read_only(self):
        piped = embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.37))
        for m in (self._model(), piped):
            for link in (m.relay_link, m.direct_link, m.source_relay_link):
                with pytest.raises(ValueError):
                    link[1][0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                m.relay_link = (0.0, np.ones(1), 0, 0.0)


class TestEmbedParallelBinary:
    def test_noiseless_slices_are_permutations(self):
        m = embed_parallel_binary(ParallelBinaryMrcd(delta=0.0, p_z=0.15, r1=1.2))
        for x in range(4):
            for z in range(2):
                row = m.chan_sr[x, z, :]
                assert row.max() == 1.0 and row.sum() == 1.0

    def test_pure_noise_carries_nothing(self):
        m = embed_parallel_binary(ParallelBinaryMrcd(delta=0.5, p_z=0.15, r1=1.2))
        mi = _loop_mi_given_state(np.full(4, 0.25), m.chan_sr, m.p_z.probs)
        assert mi == pytest.approx(0.0, abs=1e-12)

    def test_two_independent_links(self):
        m = embed_parallel_binary(ParallelBinaryMrcd(delta=0.11, p_z=0.15, r1=1.2))
        c, _, _, _ = channel_capacity(
            (m.chan_sr * m.p_z.probs[None, :, None]).reshape(4, -1)
        )
        assert c == pytest.approx(2.0 * ONE_MINUS_H2_011, abs=1e-6)
        # independent check on a coarse product-input grid
        best = 0.0
        for p in np.linspace(0.0, 1.0, 41):
            for q in np.linspace(0.0, 1.0, 41):
                p_x = np.array([p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)])
                best = max(best, _loop_mi_given_state(p_x, m.chan_sr, m.p_z.probs))
        assert best <= c + 1e-9
        assert best >= c - 1e-3

    def test_entries_are_products_of_the_two_links(self):
        delta = 0.13
        k = _bsc(delta)
        m = embed_parallel_binary(ParallelBinaryMrcd(delta=delta, p_z=0.15, r1=1.2))
        for b1, b2, z, c1, c2 in np.ndindex(2, 2, 2, 2, 2):
            assert m.chan_sr[2 * b1 + b2, z, 2 * c1 + c2] == k[b1 ^ z, c1] * k[b2, c2]

    def test_conditional_capacity_matches_closed_form(self):
        for delta in (0.05, 0.2, 0.35):
            m = embed_parallel_binary(ParallelBinaryMrcd(delta=delta, p_z=0.15, r1=1.2))
            c, _, _, _ = channel_capacity(
                (m.chan_sr * m.p_z.probs[None, :, None]).reshape(4, -1)
            )
            assert c == pytest.approx(2.0 * (1.0 - binary_entropy(delta)), abs=1e-6)


class TestEmbedBinary:
    def test_entries_are_the_state_shifted_bsc(self):
        k = _bsc(0.13)
        m = embed_binary(BinaryMrcd(delta=0.13, p_z=0.3, r1=0.5))
        for x, z, y in np.ndindex(2, 2, 2):
            assert m.chan_sr[x, z, y] == k[x ^ z, y]

    def test_slice_structure(self):
        m = embed_binary(BinaryMrcd(delta=0.1, p_z=0.3, r1=0.5))
        for x in range(2):
            for z in range(2):
                assert m.chan_sr[x, z, x ^ z] == pytest.approx(0.9)
                assert m.chan_sr[x, z, 1 - (x ^ z)] == pytest.approx(0.1)
        assert m.p_z.probs[1] == pytest.approx(0.3)


class TestParameterValidation:
    def test_delta_range(self):
        with pytest.raises(ValidationError):
            BinaryMrcd(delta=0.6, p_z=0.5, r1=0.25)

    def test_negative_rate(self):
        with pytest.raises(ValidationError):
            ParallelBinaryMrcd(delta=0.1, p_z=0.5, r1=-0.1)

    def test_gaussian_power(self):
        with pytest.raises(ValidationError):
            GaussianMrcd(power=0.0, rho=0.5, r1=1.0)
        with pytest.raises(ValidationError):
            GaussianMrcd(power=1.0, rho=1.5, r1=1.0)

    def test_channel_slice_sum(self):
        bad = _state_free(_bsc(0.1))
        bad = bad.copy()
        bad[1, 1, 0] = 0.7
        with pytest.raises(ValidationError, match=r"chan_sr\[1\]\[1\]"):
            DiscreteOrcd(
                p_z=Pmf([0.5, 0.5]),
                chan_sr=bad,
                chan_rd=np.ones((1, 2, 1)),
                chan_sd=np.ones((1, 2, 1)),
            )

    def test_channel_state_axis_size(self):
        with pytest.raises(ValidationError, match=r"^chan_rd: state axis has size 3, expected 2$"):
            DiscreteOrcd(
                p_z=Pmf([0.5, 0.5]),
                chan_sr=_state_free(_bsc(0.1)),
                chan_rd=np.ones((1, 3, 1)),
                chan_sd=np.ones((1, 2, 1)),
            )


class TestModelFiles:
    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan, pytest.param(np.float64(math.nan), id="np-nan")]
    )
    def test_json_writer_rejects_non_finite_floats(self, tmp_path, bad):
        # strict parsers reject the NaN and Infinity tokens json writes by default
        with pytest.raises(ValueError):
            models._write_json({"x": bad}, tmp_path / "out.json")

    @pytest.mark.parametrize("bad, error", [(math.nan, ValueError), (np.int64(3), TypeError)],
                             ids=["nan", "int64"])
    def test_failed_write_leaves_the_file(self, tmp_path, bad, error):
        # the payload is encoded in full before the file is opened
        kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
        kept.write_bytes(b'{"old": true}\n')
        for path in (kept, fresh):
            with pytest.raises(error):
                models._write_json({"a": 1.0, "x": bad}, path)
        assert kept.read_bytes() == b'{"old": true}\n'
        assert not fresh.exists()

    @pytest.mark.parametrize(
        "model",
        [
            BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25),
            ParallelBinaryMrcd(delta=0.2, p_z=0.15, r1=1.2),
            GaussianMrcd(power=0.3, rho=0.8, r1=1.0),
        ],
    )
    def test_shorthand_round_trip(self, model, tmp_path):
        path = tmp_path / "model.json"
        dump_model(model, path)
        assert load_model(path) == model

    def test_discrete_round_trip(self, tmp_path):
        m = embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25))
        path = tmp_path / "model.json"
        dump_model(m, path)
        back = load_model(path)
        assert isinstance(back, DiscreteOrcd)
        np.testing.assert_allclose(back.chan_sr, m.chan_sr, atol=1e-15)
        assert back.r1_pipe == 0.25

    def test_missing_field_path(self):
        with pytest.raises(ValidationError, match="delta"):
            model_from_dict({"type": "binary", "p_z": 0.5, "r1": 0.25})

    def test_unknown_type(self):
        with pytest.raises(ValidationError, match="unknown model type"):
            model_from_dict({"type": "quantum"})

    @pytest.mark.parametrize("model, key", [
        (BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25), "p_zz"),
        (embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)), "r1_pipes"),
    ])
    def test_unknown_field_rejected(self, model, key):
        # a misspelled r1_pipe would leave the relay link on chan_rd unseen
        d = model_to_dict(model)
        d[key] = 0.25
        with pytest.raises(ValidationError, match=f"^{key}: unknown field$"):
            model_from_dict(d)

    def test_unknown_alphabet_rejected(self):
        d = model_to_dict(embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)))
        d["alphabets"]["w"] = 2
        with pytest.raises(ValidationError, match="^alphabets.w: unknown field$"):
            model_from_dict(d)

    def test_alphabet_mismatch(self):
        m = model_to_dict(embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)))
        m["alphabets"]["yr"] = 3
        with pytest.raises(ValidationError, match="chan_sr"):
            model_from_dict(m)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_model(path)

    def test_integer_too_large(self, tmp_path):
        d = model_to_dict(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25))
        d["r1"] = 10**400  # valid JSON, but no float holds it
        with pytest.raises(ValidationError, match="r1"):
            model_from_dict(d)
        path = tmp_path / "long.json"
        path.write_text('{"type": "binary", "delta": ' + "1" * 5000 + "}")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_model(path)

    def test_nesting_too_deep(self, tmp_path):
        # the decoder's recursion limit, not a traceback
        path = tmp_path / "nested.json"
        path.write_text('{"type": "binary", "delta": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(ValidationError, match="^model file is not valid JSON: maximum recursion depth"):
            load_model(path)

    def test_unsupported_type_has_no_dict(self):
        with pytest.raises(UsageError, match="^unsupported model type Pmf$"):
            model_to_dict(Pmf([0.5, 0.5]))

    def test_probability_out_of_range(self):
        d = model_to_dict(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25))
        d["p_z"] = 1.5
        with pytest.raises(ValidationError):
            model_from_dict(d)


class TestAsDiscrete:
    def test_shorthands_embed(self):
        assert as_discrete(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)).n_x1 == 2
        assert as_discrete(ParallelBinaryMrcd(delta=0.1, p_z=0.5, r1=1.2)).n_x1 == 4

    def test_gaussian_rejected(self):
        with pytest.raises(UsageError):
            as_discrete(GaussianMrcd(power=0.3, rho=0.5, r1=1.0))

    def test_unsupported_type_rejected(self):
        with pytest.raises(UsageError, match="^unsupported model type Pmf$"):
            as_discrete(Pmf([0.5, 0.5]))

    def test_discrete_passthrough(self):
        m = embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25))
        assert as_discrete(m) is m
