"""The package's public surface: each layer's ``__all__``, exported once."""

import dataclasses
import inspect

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
    with pytest.raises(TypeError):
        relaycap.JointPmf([0.25] * 4, dims=(2, 2))
    assert relaycap.JointPmf([[0.5, 0.0], [0.25, 0.25]]).dims == (2, 2)


def test_tolerances_are_not_settable():
    for fn in (relaycap.channel_capacity, relaycap.link_capacities,
               relaycap.cutset_discrete):
        assert list(inspect.signature(fn).parameters)[1:] == []
    assert "feas_tol" not in inspect.signature(relaycap.brute_force_capacity).parameters
    fields = [f.name for f in dataclasses.fields(relaycap.SolveConfig)]
    assert fields == ["restarts", "max_iters", "seed"]
    assert relaycap.SolveConfig().feas_tol == relaycap.SolveConfig.feas_tol == 1e-9
