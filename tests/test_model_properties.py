"""Property suite for JSON: model round trips, fuzzed model files and the file writer."""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycap.cli import main
from relaycap.errors import ValidationError
from relaycap.models import (
    BinaryMrcd,
    DiscreteOrcd,
    GaussianMrcd,
    ParallelBinaryMrcd,
    _write_json,
    embed_binary,
    model_from_dict,
    model_to_dict,
)
from relaycap.solver import SolveConfig, report_to_dict, solve_capacity

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

VALID = {
    "binary": model_to_dict(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)),
    "parallel_binary": model_to_dict(ParallelBinaryMrcd(delta=0.2, p_z=0.15, r1=1.2)),
    "gaussian": model_to_dict(GaussianMrcd(power=0.3, rho=0.8, r1=1.0)),
    "discrete_orcd": model_to_dict(embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25))),
}

# Any JSON value: NaN and +-inf among the floats, integers too large for a
# float, nested lists and objects. Scalars and flat numeric lists are drawn
# directly as well, since the recursive strategy mostly builds containers.
NUMBERS = st.floats() | st.integers() | st.sampled_from([10**400, -(10**400)])
SCALARS = st.none() | st.booleans() | st.text(max_size=8) | NUMBERS
JSON_VALUES = (
    SCALARS
    | st.lists(NUMBERS, max_size=4)
    | st.recursive(
        SCALARS,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=4), children, max_size=4),
        max_leaves=12,
    )
)

RATES = st.floats(min_value=0.0, allow_infinity=False)


def _pmf(draw, n: int) -> np.ndarray:
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    w = w + 1e-3  # keep every entry positive so the draw is always a pmf
    return w / w.sum()


@st.composite
def fuzzed_model_dicts(draw) -> dict:
    """A valid model dict of one of the four kinds with one field, top-level
    or one of the alphabet sizes, replaced by an arbitrary JSON value."""
    d = copy.deepcopy(VALID[draw(st.sampled_from(sorted(VALID)))])
    paths = [(key,) for key in d] + [("alphabets", key) for key in d.get("alphabets", ())]
    *parents, key = draw(st.sampled_from(paths))
    target = d
    for parent in parents:
        target = target[parent]
    target[key] = draw(JSON_VALUES)
    return d


@st.composite
def shorthand_models(draw):
    family = draw(st.sampled_from([BinaryMrcd, ParallelBinaryMrcd, GaussianMrcd]))
    if family is GaussianMrcd:
        power = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
        return GaussianMrcd(power=power, rho=draw(st.floats(-1.0, 1.0)), r1=draw(RATES))
    return family(delta=draw(st.floats(0.0, 0.5)), p_z=draw(st.floats(0.0, 1.0)), r1=draw(RATES))


@st.composite
def discrete_models(draw) -> DiscreteOrcd:
    n = {key: draw(st.integers(1, 3)) for key in ("x1", "x2", "xr", "yr", "y1", "y2", "z")}

    def table(n_in: str, n_out: str) -> np.ndarray:
        return np.array(
            [[_pmf(draw, n[n_out]) for _ in range(n["z"])] for _ in range(n[n_in])]
        )

    return DiscreteOrcd(
        p_z=_pmf(draw, n["z"]),
        chan_sr=table("x1", "yr"),
        chan_rd=table("xr", "y1"),
        chan_sd=table("x2", "y2"),
        r1_pipe=draw(st.none() | RATES),
    )


def _through_json_text(model):
    return model_from_dict(json.loads(json.dumps(model_to_dict(model))))


@PROPERTY
@given(shorthand_models())
def test_shorthand_round_trip_is_exact(model):
    back = _through_json_text(model)
    assert type(back) is type(model)
    assert back == model


@PROPERTY
@given(discrete_models())
def test_discrete_round_trip(model):
    # loading renormalises every table, which may move an entry by an ulp
    back = _through_json_text(model)
    assert type(back) is DiscreteOrcd
    assert model_to_dict(back)["alphabets"] == model_to_dict(model)["alphabets"]
    assert back.r1_pipe == model.r1_pipe
    np.testing.assert_allclose(back.p_z.probs, model.p_z.probs, rtol=0.0, atol=1e-15)
    for name in ("chan_sr", "chan_rd", "chan_sd"):
        np.testing.assert_allclose(
            getattr(back, name), getattr(model, name), rtol=0.0, atol=1e-15
        )


@PROPERTY
@given(fuzzed_model_dicts())
def test_fuzzed_model_json_fails_only_by_validation(d):
    try:
        model = model_from_dict(d)
    except ValidationError:
        model = None
    # classify takes table models; a rejected file or a gaussian model exits 2
    expected = 2 if model is None or isinstance(model, GaussianMrcd) else 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(d))
        assert main(["classify", "--model", str(path), "--out", str(Path(tmp) / "cases.json")]) == expected


def _stdlib_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


def _written(payload) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        _write_json(payload, path)
        return path.read_bytes()


@pytest.mark.parametrize("bad", [np.int64(3), np.bool_(True), {1, 2}, b"x"],
                         ids=["np-int64", "np-bool", "set", "bytes"])
def test_json_writer_refuses_other_types_as_the_stdlib(bad):
    with pytest.raises(TypeError):
        _stdlib_text({"a": [bad]})
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _written({"a": [bad]})


@pytest.mark.parametrize("figure", ["fig4", "fig6", "fig7"])
def test_json_writer_matches_the_stdlib_on_figures(figure):
    # json.loads gives back every float exactly, so re-encoding a file with
    # the stdlib reproduces its bytes only if the writer laid it out the same
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        assert main([figure, "--format", "json", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
    assert text == _stdlib_text(json.loads(text))


def test_json_writer_matches_the_stdlib_on_a_solve_report():
    report = solve_capacity(embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)),
                            SolveConfig(restarts=2, max_iters=0))
    payload = report_to_dict(report)
    assert _written(payload) == _stdlib_text(payload).encode("utf-8")
