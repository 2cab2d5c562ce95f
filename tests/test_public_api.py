"""The package's public surface: each layer's ``__all__``, exported once."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import relaycap
from relaycap import errors, info, models, rates, solver

LAYERS = (errors, info, models, rates, solver)

# Public names that existed once and were removed because nothing used them.
DELETED = (
    "entropy",
    "f_bound_bsc",
    "reduce_to_mrcd",
    "StochasticMatrix",
)


def test_package_all_is_the_union_of_the_layer_lists():
    union = [name for layer in LAYERS for name in layer.__all__]
    assert relaycap.__all__ == union
    assert len(set(union)) == len(union)


def test_every_listed_name_resolves_to_its_layer_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(relaycap, name) is getattr(layer, name)


def test_star_import_gives_exactly_the_listed_names():
    namespace = {}
    exec("from relaycap import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(relaycap.__all__)


@pytest.mark.parametrize("name", DELETED)
def test_deleted_name_is_not_exported(name):
    assert name not in relaycap.__all__
    assert not any(hasattr(mod, name) for mod in (relaycap, *LAYERS))


def test_deleted_methods_and_input_forms():
    assert not hasattr(relaycap.JointPmf, "marginal")
    assert not hasattr(relaycap.JointPmf, "axis_index")
    assert not hasattr(relaycap.RateCurve, "schemes")
    assert not hasattr(relaycap.RateCurve, "values")
    assert not hasattr(relaycap.Pmf, "__getitem__")
    # a point's scheme is the key it is filed under
    assert [f.name for f in dataclasses.fields(relaycap.RatePoint)] == ["value", "meta"]
    with pytest.raises(TypeError):
        relaycap.JointPmf([0.25] * 4, dims=(2, 2))
    assert relaycap.JointPmf([[0.5, 0.0], [0.25, 0.25]]).dims == (2, 2)


def test_tolerances_are_not_settable():
    for fn in (relaycap.channel_capacity, relaycap.link_capacities,
               relaycap.cutset_discrete):
        assert list(inspect.signature(fn).parameters)[1:] == []
    assert list(inspect.signature(relaycap.brute_force_capacity).parameters) == ["m", "resolution"]
    fields = [f.name for f in dataclasses.fields(relaycap.SolveConfig)]
    assert fields == ["restarts", "max_iters", "seed"]
    assert relaycap.SolveConfig().feas_tol == relaycap.SolveConfig.feas_tol == 1e-9


def test_readme_quick_start_runs_and_shows_what_it_returns(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    monkeypatch.chdir(tmp_path)  # the block writes binary.csv
    namespace, checked = {}, []
    for line in block.split("\n```", 1)[0].splitlines():
        code, _, comment = line.partition("  # ")
        # a comment that opens with a literal, "..." standing for more keys
        shown = re.match(r"\{[^}]*\}|-?[0-9][0-9.]*", comment.strip())
        if not shown:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        expected = ast.literal_eval(shown.group().replace(", ...}", "}"))
        if isinstance(expected, float):
            digits = len(shown.group().partition(".")[2])
            assert round(value, digits) == expected, code
        elif isinstance(expected, dict):
            assert {k: value[k] for k in expected} == expected, code
        else:
            assert value == expected, code
        checked.append(code.strip())
    assert checked == ["rc.binary_cutset(m).value", "rc.binary_capacity_pz_half(m).value",
                       "rc.gaussian_pdcf(g).meta", "rc.classify_cutset_tightness(d)"]
    assert (tmp_path / "binary.csv").exists()
