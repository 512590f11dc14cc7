"""Config objects check their own fields when built.

Every config type is frozen and refuses a bad field the moment it is
constructed, whether directly or through
``dataclasses.replace``, with the error type and message its old
``validate()`` method raised.  So no caller has to remember a check.
"""

import dataclasses
import enum
import math
import re

import numpy as np
import pytest

from fewbench import fomaml, heads
from fewbench.api import (METHODS, LearnerState, MethodConfig, Provenance, parse_learner,
                          render_learner)
from fewbench.dataset import SyntheticSpec, generate_synthetic
from fewbench.errors import ArgumentError, ConfigError
from fewbench.fomaml import InnerConfig, OuterConfig
from fewbench.heads import PowerTransformParams, SinkhornConfig
from fewbench.pipeline import load_config
from fewbench.rng import RngState
from fewbench.sampler import EpisodeSpec


def _good(kind):
    return {
        "EpisodeSpec": lambda: EpisodeSpec(n_way=5, k_shot=1, query_per_class=3),
        "SyntheticSpec": lambda: SyntheticSpec(4, 3, 5, 1.0, 2.0, 7),
        "SinkhornConfig": SinkhornConfig,
        "PowerTransformParams": PowerTransformParams,
        "InnerConfig": InnerConfig,
        "OuterConfig": OuterConfig,
        "MethodConfig": lambda: MethodConfig("qda", {"shrinkage": "0.25"}),
        "PhaseConfig": lambda: load_config({}),
    }[kind]()


BAD_FIELDS = [
    ("EpisodeSpec", "n_way", 1, ArgumentError, "n_way must be >= 2, got 1"),
    ("EpisodeSpec", "k_shot", 0, ArgumentError, "k_shot must be >= 1, got 0"),
    ("EpisodeSpec", "query_per_class", 0, ArgumentError,
     "query_per_class must be 'all-remaining' or a positive integer, got 0"),
    ("EpisodeSpec", "query_per_class", "some", ArgumentError,
     "query_per_class must be 'all-remaining' or a positive integer, got 'some'"),
    ("SyntheticSpec", "num_classes", 0, ArgumentError, "non-positive size field in "),
    ("SyntheticSpec", "dim", 0, ArgumentError, "non-positive size field in "),
    ("SyntheticSpec", "samples_per_class", -1, ArgumentError,
     "non-positive size field in "),
    ("SyntheticSpec", "class_std", 0.0, ArgumentError,
     "class_std must be positive and mean_scale non-negative"),
    ("SyntheticSpec", "class_std", math.nan, ArgumentError,
     "class_std must be positive and mean_scale non-negative"),
    ("SyntheticSpec", "mean_scale", -1.0, ArgumentError,
     "class_std must be positive and mean_scale non-negative"),
    ("SyntheticSpec", "seed", -1, ArgumentError,
     "seed must be a 64-bit unsigned integer, got -1"),
    ("SyntheticSpec", "seed", 2**64, ArgumentError,
     f"seed must be a 64-bit unsigned integer, got {2**64}"),
    ("SinkhornConfig", "reg", 0.0, ArgumentError, "reg must be positive, got 0.0"),
    ("SinkhornConfig", "reg", math.nan, ArgumentError, "reg must be positive, got nan"),
    ("SinkhornConfig", "max_iters", 0, ArgumentError, "max_iters must be >= 1, got 0"),
    ("SinkhornConfig", "tol", 0.0, ArgumentError, "tol must be positive, got 0.0"),
    ("PowerTransformParams", "epsilon", -1e-9, ArgumentError,
     "epsilon must be non-negative, got -1e-09"),
    ("InnerConfig", "steps", -1, ArgumentError, "inner steps must be >= 0, got -1"),
    ("InnerConfig", "lr", 0.0, ArgumentError, "inner lr must be positive, got 0.0"),
    ("OuterConfig", "lr", -0.1, ArgumentError, "outer lr must be positive, got -0.1"),
    ("OuterConfig", "meta_batch", 0, ArgumentError, "meta_batch must be >= 1, got 0"),
    ("OuterConfig", "epochs", -1, ArgumentError, "epochs must be >= 0, got -1"),
    ("MethodConfig", "name", "nonesuch", ConfigError, "unknown method 'nonesuch'; known: "),
    ("MethodConfig", "params", {"shrinkagez": "1"}, ConfigError,
     "unknown parameters ['shrinkagez'] for method 'qda'"),
    ("MethodConfig", "params", {"shrinkage": "x"}, ConfigError,
     "method parameter shrinkage='x' is not a valid float"),
    ("MethodConfig", "params", {"shrinkage": "2"}, ConfigError,
     "method parameter shrinkage=2.0 for method 'qda' must lie in [0, 1]"),
    ("PhaseConfig", "budget_seconds", 0.0, ConfigError,
     "phase.budget_seconds must be positive, got 0.0"),
    ("PhaseConfig", "budget_seconds", math.nan, ConfigError,
     "phase.budget_seconds must be positive, got nan"),
    ("PhaseConfig", "episode_count", 0, ConfigError,
     "phase.episode_count must be >= 1, got 0"),
    ("PhaseConfig", "split_seed", -1, ConfigError, "data.split_seed must be >= 0, got -1"),
    ("PhaseConfig", "seeds", (1, 2), ConfigError,
     "phase.seeds must be 3 distinct seeds, got [1, 2]"),
    ("PhaseConfig", "seeds", (1, 2, 1), ConfigError,
     "phase.seeds must be 3 distinct seeds, got [1, 2, 1]"),
    ("PhaseConfig", "seeds", (1, 2, 2**64), ConfigError,
     f"phase.seeds must lie in [0, 2**64), got {2**64}"),
    ("SyntheticSpec", "num_classes", 2.5, ArgumentError, "non-integer size field in "),
    ("SyntheticSpec", "dim", 4.0, ArgumentError, "non-integer size field in "),
    ("SyntheticSpec", "class_std", math.inf, ArgumentError,
     "class_std must be positive and mean_scale non-negative, both finite, got inf"),
    ("SyntheticSpec", "mean_scale", math.inf, ArgumentError,
     "class_std must be positive and mean_scale non-negative, both finite, got 1.0 and inf"),
    # a bool is not an integer
    ("EpisodeSpec", "n_way", True, ArgumentError, "n_way must be an integer, got True"),
    ("EpisodeSpec", "k_shot", True, ArgumentError, "k_shot must be an integer, got True"),
    ("EpisodeSpec", "query_per_class", True, ArgumentError,
     "query_per_class must be 'all-remaining' or a positive integer, got True"),
    ("SyntheticSpec", "num_classes", True, ArgumentError, "non-integer size field in "),
    ("SyntheticSpec", "seed", True, ArgumentError,
     "seed must be a 64-bit unsigned integer, got True"),
    ("MethodConfig", "params", {"shrinkage": True}, ConfigError,
     "method parameter shrinkage=True is not a valid float"),
    # counts are integers: each of these used to pass its bound and fail later
    ("InnerConfig", "steps", 1.5, ArgumentError, "inner steps must be an integer, got 1.5"),
    ("OuterConfig", "meta_batch", 2.5, ArgumentError, "meta_batch must be an integer, got 2.5"),
    ("OuterConfig", "epochs", True, ArgumentError, "epochs must be an integer, got True"),
    ("SinkhornConfig", "max_iters", 2.5, ArgumentError, "max_iters must be an integer, got 2.5"),
    # the bound that the registry declares for method.ptmap.beta
    ("PowerTransformParams", "beta", 0.0, ArgumentError,
     "beta must be positive and finite, got 0.0"),
    ("PowerTransformParams", "beta", math.nan, ArgumentError,
     "beta must be positive and finite, got nan"),
    ("PowerTransformParams", "beta", math.inf, ArgumentError,
     "beta must be positive and finite, got inf"),
]


@pytest.mark.parametrize("kind,key,bad,error,message", BAD_FIELDS)
def test_config_refuses_bad_field_when_built(kind, key, bad, error, message):
    good = _good(kind)
    init = {f.name: getattr(good, f.name) for f in dataclasses.fields(good) if f.init}
    with pytest.raises(error) as direct:
        type(good)(**{**init, key: bad})
    assert str(direct.value).startswith(message)
    with pytest.raises(error) as replaced:
        dataclasses.replace(good, **{key: bad})
    assert str(replaced.value) == str(direct.value)


def test_every_config_type_has_a_bad_field_case():
    kinds = {kind for kind, *_ in BAD_FIELDS}
    assert len(kinds) == 8
    for kind in kinds:
        good = _good(kind)
        assert not hasattr(good, "validate")
        # frozen, so no field can change after the check
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(good, dataclasses.fields(good)[0].name, None)


_SUPPORT_X = np.arange(12.0).reshape(6, 2)
_SUPPORT_Y = np.array([0, 0, 1, 1, 2, 2])

# each raised a bare TypeError from inside its loop or its array shapes
FUNCTION_COUNTS = [
    ("ptmap_fit_predict", lambda: heads.ptmap_fit_predict(
        _SUPPORT_X, _SUPPORT_Y, _SUPPORT_X, n_iters=2.5), "n_iters must be an integer"),
    ("linear_head_fit", lambda: heads.linear_head_fit(_SUPPORT_X, _SUPPORT_Y, epochs=2.5),
     "epochs must be an integer"),
    ("init_mlp", lambda: fomaml.init_mlp(4, 2.5, 3, RngState(0)),
     "bad MLP shape d=4 h=2.5 n=3"),
    ("meta_train", lambda: fomaml.meta_train(
        generate_synthetic(SyntheticSpec(6, 3, 4, 1.0, 2.0, 7)), EpisodeSpec(3, 1),
        outer=OuterConfig(epochs=1, meta_batch=1), hidden=2.5), "bad MLP shape d=3 h=2.5 n=3"),
]


@pytest.mark.parametrize("name,call,message", FUNCTION_COUNTS,
                         ids=[case[0] for case in FUNCTION_COUNTS])
def test_functions_refuse_a_count_that_is_not_an_integer(name, call, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}"):
        call()


# (string overrides, the values they give) per method: the coercions and
# defaults that ``MethodConfig.validate()`` returned before ``values``.
# ``sleeper`` is the test session's own registry entry (see conftest.py).
OVERRIDES = {
    "sleeper": ({"duration_seconds": "2"}, {"duration_seconds": 2.0}),
    "proto": ({"metric": "cosine"}, {"metric": "cosine"}),
    "rect": ({"metric": "cosine"}, {"metric": "cosine"}),
    "qda": ({"shrinkage": "1"}, {"shrinkage": 1.0}),
    "linear": (
        {"pretrain_batches": "2", "step_size": "0.5"},
        {"pretrain_batches": 2, "batch_size": 256, "epochs": 10, "step_size": 0.5},
    ),
    "fomaml": (
        {"inner_steps": "0", "inner_lr": "1e-3", "meta_batch": "4", "hidden": "8"},
        {"inner_steps": 0, "inner_lr": 0.001, "outer_lr": 0.005,
         "meta_batch": 4, "epochs": 300, "hidden": 8},
    ),
    "ptmap": (
        {"beta": "1", "epsilon": "0", "unit_normalize": "off", "reg": "inf",
         "max_iters": "7", "n_iters": "0"},
        {"beta": 1.0, "epsilon": 0.0, "unit_normalize": False, "reg": math.inf,
         "max_iters": 7, "tol": 1e-4, "n_iters": 0, "step_size": 0.2},
    ),
}

DEFAULTS = {
    "sleeper": {"duration_seconds": 10.0},
    "proto": {"metric": "euclidean"},
    "rect": {"metric": "euclidean"},
    "qda": {"shrinkage": 0.5},
    "linear": {"pretrain_batches": 10, "batch_size": 256, "epochs": 10,
               "step_size": 0.001},
    "fomaml": {"inner_steps": 5, "inner_lr": 0.05, "outer_lr": 0.005,
               "meta_batch": 32, "epochs": 300, "hidden": 64},
    "ptmap": {"beta": 0.5, "epsilon": 1e-6, "unit_normalize": True, "reg": 0.1,
              "max_iters": 200, "tol": 1e-4, "n_iters": 20, "step_size": 0.2},
}


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_method_config_values(name):
    overrides, expected = OVERRIDES[name]
    for params, want in (({}, DEFAULTS[name]), (overrides, expected)):
        config = MethodConfig(name, params)
        assert config.values == want
        assert [type(v) for v in config.values.values()] == [type(v) for v in want.values()]
        assert config.params == params  # the artifact keeps the raw values
    assert set(OVERRIDES) == set(DEFAULTS) == set(METHODS)


def test_method_config_values_stay_out_of_equality_and_init():
    a = MethodConfig("ptmap", {"reg": "0.5"})
    assert a == MethodConfig("ptmap", {"reg": "0.5"})
    assert a != MethodConfig("ptmap", {"reg": 0.5})
    assert dataclasses.replace(a, params={}).values == DEFAULTS["ptmap"]
    with pytest.raises(TypeError):
        MethodConfig("ptmap", {}, {})
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.values = {}


# values other than strings that a parameter's type would coerce silently:
# ``int()`` truncates a float and takes a bool, ``bool()`` takes anything,
# and ``float()`` takes a bool
SILENT_COERCIONS = [
    ("fomaml", "epochs", 2.5),
    ("fomaml", "epochs", 2.0),
    ("fomaml", "epochs", np.float64(3.0)),
    ("fomaml", "hidden", True),
    ("fomaml", "meta_batch", np.True_),
    ("ptmap", "unit_normalize", 0.3),
    ("ptmap", "unit_normalize", 1),
    ("ptmap", "unit_normalize", None),
    ("qda", "shrinkage", True),
    ("ptmap", "beta", np.False_),
]


@pytest.mark.parametrize("name,key,value", SILENT_COERCIONS,
                         ids=[f"{n}.{k}={v!r}" for n, k, v in SILENT_COERCIONS])
def test_method_config_refuses_a_value_it_would_coerce_silently(name, key, value):
    kind = type(METHODS[name].params[key]).__name__
    with pytest.raises(ConfigError) as err:
        MethodConfig(name, {key: value})
    assert str(err.value) == f"method parameter {key}={value!r} is not a valid {kind}"


TYPED_VALUES = [
    ("fomaml", "epochs", 3, 3),
    ("fomaml", "epochs", np.int64(3), 3),
    ("fomaml", "epochs", "3", 3),
    ("fomaml", "inner_lr", 1, 1.0),
    ("fomaml", "inner_lr", np.float32(0.5), 0.5),
    ("fomaml", "inner_lr", "1e-3", 0.001),
    ("ptmap", "unit_normalize", False, False),
    ("ptmap", "unit_normalize", np.True_, True),
    ("ptmap", "unit_normalize", "off", False),
    ("qda", "shrinkage", 0.25, 0.25),
]


@pytest.mark.parametrize("name,key,value,want", TYPED_VALUES,
                         ids=[f"{n}.{k}={v!r}" for n, k, v, _ in TYPED_VALUES])
def test_method_config_takes_values_of_its_type(name, key, value, want):
    config = MethodConfig(name, {key: value})
    assert config.values[key] == want and type(config.values[key]) is type(want)
    if not isinstance(value, np.generic):   # an artifact records the repr
        learner = LearnerState(config, {}, Provenance(seed=1))
        again = parse_learner(render_learner(learner))
        assert again.method == config and again.method.values == config.values


NUMPY_SCALARS = [
    ("fomaml", "epochs", np.int64(1), "1"),
    ("qda", "shrinkage", np.float64(0.25), "0.25"),
    ("proto", "metric", np.str_("cosine"), "'cosine'"),
    ("ptmap", "unit_normalize", np.bool_(False), "False"),
]


@pytest.mark.parametrize("name,key,value,text", NUMPY_SCALARS,
                         ids=[f"{n}.{k}" for n, k, _, _ in NUMPY_SCALARS])
def test_numpy_scalar_parameters_round_trip_through_an_artifact(name, key, value, text):
    """An artifact records a NumPy scalar parameter as its Python value,
    which ``parse_learner`` reads back to the same config."""
    config = MethodConfig(name, {key: value})
    rendered = render_learner(LearnerState(config, {}, Provenance(seed=1)))
    assert f"\nconfig,{key},{text}\n" in rendered
    again = parse_learner(rendered)
    assert again.method == config and again.method.values == config.values
    assert type(again.method.params[key]) is type(value.item())
    assert render_learner(again) == rendered


class Epochs(enum.IntEnum):
    FEW = 3


# every default as given, the infinite reg and tol that ptmap's bounds take,
# as a Python and as a NumPy float, and an int of a subclass of int
ACCEPTED_PARAMS = [(name, dict(METHODS[name].params)) for name in sorted(METHODS)] + [
    ("ptmap", {key: value}) for key in ("reg", "tol") for value in (math.inf, np.float64(np.inf))
] + [("fomaml", {"epochs": Epochs.FEW})]


@pytest.mark.parametrize("name,params", ACCEPTED_PARAMS,
                         ids=[f"{n}-{p!r}" for n, p in ACCEPTED_PARAMS])
def test_every_accepted_parameter_value_round_trips_through_an_artifact(name, params):
    """An artifact records each parameter as the repr of its plain Python
    value, ``inf`` included, and ``parse_learner`` reads back the same
    config."""
    config = MethodConfig(name, params)
    rendered = render_learner(LearnerState(config, {}, Provenance(seed=1)))
    for key, value in params.items():
        value = value if type(value) in (str, int, float, bool) else config.values[key]
        assert f"\nconfig,{key},{value!r}\n" in rendered
    again = parse_learner(rendered)
    assert again.method == config and again.method.values == config.values
    assert render_learner(again) == rendered
