"""One bound per method parameter, held by both layers.

Each numeric method parameter's interval is declared once, by the library
object or function that the method's code hands the value to, and the
registry's ``bounds`` reads that declaration.  The sweep below tries the
values where two copies of a bound drift apart, and asserts that a
config refuses a value exactly when the library refuses it.
"""

import math

import numpy as np
import pytest

from fewbench import fomaml, heads
from fewbench.api import METHODS, Method, MethodConfig
from fewbench.dataset import SyntheticSpec, generate_synthetic
from fewbench.errors import ArgumentError, ConfigError
from fewbench.rng import Interval, check_bounds
from fewbench.sampler import EpisodeSpec

BUILT_IN = ("fomaml", "linear", "ptmap", "proto", "qda", "rect")

# three classes of four shots in two dimensions: every class covariance is
# full rank, so qda_fit takes shrinkage 0
_X = np.random.default_rng(5).normal(size=(12, 2))
_Y = np.repeat(np.arange(3), 4)
_POOL = generate_synthetic(SyntheticSpec(6, 2, 6, 1.0, 2.0, 7))
_SPEC = EpisodeSpec(3, 1, 2)

#: (method, key) -> the library call that the method's code makes with it
LIBRARY = {
    ("fomaml", "inner_steps"): lambda v: fomaml.InnerConfig(steps=v),
    ("fomaml", "inner_lr"): lambda v: fomaml.InnerConfig(lr=v),
    ("fomaml", "outer_lr"): lambda v: fomaml.OuterConfig(lr=v),
    ("fomaml", "meta_batch"): lambda v: fomaml.OuterConfig(meta_batch=v),
    ("fomaml", "epochs"): lambda v: fomaml.OuterConfig(epochs=v),
    ("fomaml", "hidden"): lambda v: fomaml.meta_train(
        _POOL, _SPEC, outer=fomaml.OuterConfig(epochs=1, meta_batch=1), hidden=v),
    ("linear", "epochs"): lambda v: heads.linear_head_fit(_X, _Y, epochs=v),
    ("linear", "step_size"): lambda v: heads.linear_head_fit(_X, _Y, step_size=v),
    ("ptmap", "beta"): lambda v: heads.PowerTransformParams(beta=v),
    ("ptmap", "epsilon"): lambda v: heads.PowerTransformParams(epsilon=v),
    ("ptmap", "reg"): lambda v: heads.SinkhornConfig(reg=v),
    ("ptmap", "max_iters"): lambda v: heads.SinkhornConfig(max_iters=v),
    ("ptmap", "tol"): lambda v: heads.SinkhornConfig(tol=v),
    ("ptmap", "n_iters"): lambda v: heads.ptmap_fit_predict(_X, _Y, _X, n_iters=v),
    ("ptmap", "step_size"): lambda v: heads.ptmap_fit_predict(_X, _Y, _X, step_size=v),
    ("qda", "shrinkage"): lambda v: heads.qda_fit(_X, _Y, shrinkage=v),
}

#: keys that ``linear``'s meta-fit reads itself: no library call checks them
REGISTRY_ONLY = {("linear", "pretrain_batches"), ("linear", "batch_size")}

BOUNDED = sorted((name, key) for name in BUILT_IN for key in METHODS[name].bounds)


def _sweep(interval: str, integer: bool) -> list:
    """nan, +-inf, 0, -1, and each finite end with its neighbours, the
    integers among them for an integer parameter; and the bools, which
    neither layer takes for a number."""
    ends = [float(end) for end in interval[1:-1].split(",") if math.isfinite(float(end))]
    if integer:
        return [0, -1, True, False] + [int(end) + step for end in ends for step in (-1, 0, 1)]
    return [math.nan, math.inf, -math.inf, 0.0, -1.0, True, False] + [
        value for end in ends
        for value in (np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf))]


def _refuses(call, value, error) -> bool:
    """Whether ``call(value)`` raises ``error``; any other error propagates."""
    try:
        call(value)
    except error:
        return True
    return False


def test_every_bounded_parameter_of_every_built_in_method_is_swept():
    assert set(BUILT_IN) == set(METHODS) - {"sleeper"}
    assert set(LIBRARY) | REGISTRY_ONLY == set(BOUNDED)
    assert not set(LIBRARY) & REGISTRY_ONLY


@pytest.mark.parametrize("name,key", BOUNDED, ids=[f"{n}.{k}" for n, k in BOUNDED])
def test_a_config_refuses_a_value_exactly_when_the_library_does(name, key):
    interval = METHODS[name].bounds[key]
    integer = type(METHODS[name].params[key]) is int
    disagree = []
    for value in _sweep(interval, integer):
        # as given by a library caller, and as config text gives it
        text = repr(float(value)) if isinstance(value, float) else str(value)
        config = [_refuses(lambda v: MethodConfig(name, {key: v}), given, ConfigError)
                  for given in (value, text)]
        assert config[0] == config[1], value
        if (name, key) in REGISTRY_ONLY:
            library = not interval.holds(value)
        else:
            library = _refuses(LIBRARY[name, key], value, ArgumentError)
        if config[0] != library:
            disagree.append((value, config[0], library))
    assert disagree == [], f"{name}.{key} in {interval}: (value, config, library)"


def _run_method(name: str, values: dict) -> None:
    """``name``'s meta-fit, fit and predict with ``values`` as its
    parameters, as a phase calls them, on tiny shapes."""
    method = METHODS[name]
    arrays = {} if method.meta_fit is None else method.meta_fit(
        values, _SPEC, _POOL, 0, None, None)[0]
    method.predict(method.fit(values, arrays, _X, _Y, 3), _X)


# the small settings of fo-MAML, so that a value reaches its check quickly
_SMALL = {"fomaml": {"epochs": 1, "meta_batch": 1, "hidden": 4, "inner_steps": 1}}


@pytest.mark.parametrize("name,key", sorted(LIBRARY),
                         ids=[f"{n}.{k}" for n, k in sorted(LIBRARY)])
def test_a_value_a_config_refuses_is_refused_on_the_method_path(name, key):
    """Bypassing the config check, the method's own code raises
    ArgumentError for each refused value, before any later error."""
    interval = METHODS[name].bounds[key]
    integer = type(METHODS[name].params[key]) is int
    good = {**MethodConfig(name).values, **_SMALL.get(name, {})}
    for value in _sweep(interval, integer):
        if not interval.holds(value):
            with pytest.raises(ArgumentError):
                _run_method(name, {**good, key: value})


@pytest.mark.parametrize("text,inside,outside", [
    ("(0, 1]", [5e-324, 0.5, 1.0, 1], [0.0, -0.0, np.nextafter(1.0, 2.0), math.nan, -1]),
    ("[0, inf)", [0.0, -0.0, 1e308, np.float64(3.0)], [math.inf, math.nan, -5e-324]),
    ("(0, inf]", [math.inf, 5e-324], [0.0, math.nan, -math.inf]),
])
def test_an_interval_holds_what_its_text_says(text, inside, outside):
    interval = Interval(text)
    assert interval == text and f"{interval}" == text
    assert [interval.holds(v) for v in inside] == [True] * len(inside)
    assert [interval.holds(v) for v in outside] == [False] * len(outside)


def test_an_integer_interval_holds_integers_only():
    interval = Interval("[1, inf)", integer=True)
    assert interval.holds(1) and interval.holds(np.int64(7)) and not interval.holds(0)
    assert not any(interval.holds(v) for v in (1.0, 2.5, True, np.float64(3.0)))
    assert not any(Interval("[0, 1]").holds(v) for v in (True, False, np.True_))
    with pytest.raises(ArgumentError, match=r"^n must be an integer, got 2\.5$"):
        check_bounds({"n": interval}, {"n": 2.5})
    with pytest.raises(ArgumentError, match=r"^n must lie in \[1, inf\), got 0$"):
        check_bounds({"n": interval}, {"n": 0})
    with pytest.raises(ConfigError, match=r"^x must lie in \(0, 1\], got nan$"):
        check_bounds({"x": Interval("(0, 1]")}, {"x": math.nan}, ConfigError)


def test_a_registry_entry_given_as_text_is_parsed_once_when_built():
    method = Method(params={"x": 0.5}, fit=None, predict=None, block_bytes=None,
                    bounds={"x": "(0, 1]"})
    assert type(method.bounds["x"]) is Interval and method.bounds["x"] == "(0, 1]"
    assert METHODS["ptmap"].bounds["beta"] is heads.PowerTransformParams.BOUNDS["beta"]
