"""Meta-learner/learner/predictor contract and artifact serialization."""

import inspect
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fewbench.heads
from fewbench import fomaml as fm
from fewbench.api import (
    ARTIFACT_MAGIC,
    METHODS,
    LearnerState,
    MethodConfig,
    Provenance,
    load_learner,
    meta_fit,
    parse_learner,
    render_learner,
    save_learner,
)
from fewbench.dataset import SyntheticSpec, generate_synthetic
from fewbench.errors import (
    ArgumentError,
    ArtifactError,
    BenchError,
    BudgetExceededError,
    ConfigError,
    EpisodeFormatError,
    ShapeError,
)
from fewbench.pipeline import load_config, parse_config_text
from fewbench.rng import RngState
from fewbench.sampler import EpisodeSpec, sample_episode

EASY_POOL = generate_synthetic(
    SyntheticSpec(num_classes=10, dim=8, samples_per_class=10,
                  class_std=0.05, mean_scale=3.0, seed=1)
)
EP_SPEC = EpisodeSpec(n_way=5, k_shot=2, query_per_class=6)
SIX_METHODS = ("fomaml", "linear", "proto", "ptmap", "qda", "rect")


def spec_for(name, **params):
    """The method and the training episode shape that ``meta_fit`` takes."""
    return MethodConfig(name=name, params=params), EpisodeSpec(n_way=5, k_shot=2)


def easy_episode(seed=2):
    return sample_episode(EASY_POOL, EP_SPEC, RngState(seed))


# ---------------------------------------------------------------------------
# meta_fit


@pytest.mark.parametrize("name", ["proto", "qda", "rect", "ptmap"])
def test_episode_heads_meta_fit_is_a_no_op(name):
    learner = meta_fit(*spec_for(name), EASY_POOL, seed=3)
    assert learner.arrays == {}
    assert learner.provenance == Provenance(seed=3)


def test_linear_meta_fit_learns_feature_statistics():
    learner = meta_fit(*spec_for("linear"), EASY_POOL, seed=4)
    assert set(learner.arrays) == {"feat_mean", "feat_std"}
    assert learner.arrays["feat_mean"].shape == (8,)
    assert (learner.arrays["feat_std"] > 0).all()
    assert learner.provenance.batches_consumed == 10
    again = meta_fit(*spec_for("linear"), EASY_POOL, seed=4)
    assert np.array_equal(learner.arrays["feat_mean"], again.arrays["feat_mean"])


def test_linear_meta_fit_checks_the_budget_before_each_batch():
    class Clock:
        checks = 0

        def check(self):
            Clock.checks += 1
            if Clock.checks == 3:
                raise BudgetExceededError("budget spent")

    with pytest.raises(BudgetExceededError, match="budget spent"):
        meta_fit(*spec_for("linear"), EASY_POOL, seed=4, clock=Clock())
    assert Clock.checks == 3


def test_fomaml_meta_fit_trains_and_counts_episodes():
    learner = meta_fit(*spec_for("fomaml", epochs=4, meta_batch=3, hidden=8),
                       EASY_POOL, seed=5)
    assert set(learner.arrays) == {"W1", "b1", "W2", "b2"}
    assert learner.arrays["W1"].shape == (8, 8)
    assert learner.arrays["W2"].shape == (5, 8)
    assert learner.provenance.episodes_consumed == 12
    again = meta_fit(*spec_for("fomaml", epochs=4, meta_batch=3, hidden=8),
                     EASY_POOL, seed=5)
    for key in learner.arrays:
        assert np.array_equal(learner.arrays[key], again.arrays[key])


def test_fomaml_requires_train_episode_spec():
    """Every method's meta_fit takes the training episode shape, and
    anything but an EpisodeSpec is refused before any training."""
    for name in ("fomaml", "proto"):
        for bad in (None, (5, 2), {"n_way": 5, "k_shot": 2}):
            with pytest.raises(ArgumentError, match="needs an EpisodeSpec"):
                meta_fit(MethodConfig(name=name), bad, EASY_POOL, seed=0)


def test_mode_validation():
    with pytest.raises(ConfigError):
        MethodConfig(name="nonesuch", params={}).values


@pytest.mark.parametrize("name", ["proto", "rect"])
def test_metric_takes_only_known_values(name):
    for metric in fewbench.heads.METRICS:
        assert MethodConfig(name=name, params={"metric": metric}).values == {
            "metric": metric}
    with pytest.raises(ConfigError) as err:
        MethodConfig(name=name, params={"metric": "bogus"}).values
    assert "'bogus'" in str(err.value)
    for metric in fewbench.heads.METRICS:
        assert repr(metric) in str(err.value)


def test_method_config_coercions():
    values = MethodConfig(name="ptmap", params={
        "reg": "0.5", "max_iters": "120", "unit_normalize": "false",
    }).values
    assert values["reg"] == 0.5
    assert values["max_iters"] == 120
    assert values["unit_normalize"] is False
    assert MethodConfig(name="ptmap").values["unit_normalize"] is True
    assert MethodConfig(name="proto", params={"metric": "cosine"}).values == {
        "metric": "cosine"}
    with pytest.raises(ConfigError):
        MethodConfig(name="ptmap", params={"reg": "abc"}).values
    with pytest.raises(ConfigError):
        MethodConfig(name="ptmap", params={"unit_normalize": "maybe"}).values


def test_registry_bounds_cover_numeric_keys_only():
    for name, method in METHODS.items():
        for key, interval in method.bounds.items():
            assert type(method.params[key]) in (int, float), (name, key)
            assert interval[0] in "[(" and interval[-1] in "])", (name, key)
        MethodConfig(name=name).values  # the defaults lie in bounds


@pytest.mark.parametrize("name,key,bad,good", [
    ("qda", "shrinkage", ["-0.01", "1.5", "2", "nan", "inf"], ["0", "1", "0.3"]),
    ("fomaml", "inner_steps", ["-1"], ["0", "7"]),
    ("fomaml", "inner_lr", ["0", "-0.1", "nan", "inf"], ["1e-9"]),
    ("fomaml", "outer_lr", ["0", "nan"], ["0.5"]),
    ("fomaml", "meta_batch", ["0", "-3"], ["1"]),
    ("fomaml", "epochs", ["-1"], ["0"]),
    ("fomaml", "hidden", ["0"], ["1"]),
    ("linear", "pretrain_batches", ["0"], ["1"]),
    ("linear", "batch_size", ["0"], ["1"]),
    ("linear", "epochs", ["0"], ["1"]),
    ("linear", "step_size", ["0", "-1"], ["1e-6"]),
    ("ptmap", "epsilon", ["-1e-9", "inf", "nan"], ["0"]),
    ("ptmap", "reg", ["0", "nan"], ["0.01", "inf"]),
    ("ptmap", "max_iters", ["0"], ["1"]),
    ("ptmap", "tol", ["0", "-1"], ["1e-12", "inf"]),
    ("ptmap", "n_iters", ["-1"], ["0"]),
    ("ptmap", "step_size", ["0", "1.01", "nan"], ["1", "1e-3"]),
    ("ptmap", "beta", ["0", "-1", "nan", "inf"], ["0.5", "2", "1e-9"]),
])
def test_method_config_enforces_bounds(name, key, bad, good):
    for value in bad:
        with pytest.raises(ConfigError) as err:
            MethodConfig(name=name, params={key: value}).values
        assert key in str(err.value) and METHODS[name].bounds[key] in str(err.value)
    for value in good:
        MethodConfig(name=name, params={key: value}).values


# ---------------------------------------------------------------------------
# fit / predict across methods


@pytest.mark.parametrize("name", ["proto", "qda", "rect", "ptmap", "linear",
                                  "fomaml"])
def test_fit_predict_recovers_easy_episode(name):
    params = {}
    if name == "fomaml":
        params = {"epochs": 60, "hidden": 16, "outer_lr": 0.05}
    elif name == "linear":
        params = {"epochs": 60, "step_size": 0.05}
    learner = meta_fit(*spec_for(name, **params), EASY_POOL, seed=6)
    ep = easy_episode()
    predictor = learner.fit(ep.support_x, ep.support_y)
    got = predictor.predict(ep.query_x)
    assert (got == ep.query_y).mean() == 1.0


def test_fit_does_not_mutate_learner():
    learner = meta_fit(*spec_for("proto"), EASY_POOL, seed=7)
    ep1, ep2 = easy_episode(3), easy_episode(4)
    p1a = learner.fit(ep1.support_x, ep1.support_y)
    learner.fit(ep2.support_x, ep2.support_y)
    p1b = learner.fit(ep1.support_x, ep1.support_y)
    assert np.array_equal(p1a.predict(ep1.query_x), p1b.predict(ep1.query_x))


def test_single_vector_query():
    learner = meta_fit(*spec_for("proto"), EASY_POOL, seed=8)
    ep = easy_episode()
    predictor = learner.fit(ep.support_x, ep.support_y)
    got = predictor.predict(ep.query_x[0])
    assert got.shape == (1,)
    assert got[0] == ep.query_y[0]


def test_fomaml_way_mismatch_rejected():
    learner = meta_fit(*spec_for("fomaml", epochs=2, hidden=8), EASY_POOL, seed=9)
    ep = sample_episode(EASY_POOL, EpisodeSpec(n_way=4, k_shot=2), RngState(1))
    with pytest.raises(EpisodeFormatError):
        learner.fit(ep.support_x, ep.support_y)


def test_linear_fit_requires_meta_statistics():
    learner = LearnerState(method=MethodConfig(name="linear", params={}),
                           arrays={}, provenance=Provenance(seed=0))
    ep = easy_episode()
    with pytest.raises(EpisodeFormatError):
        learner.fit(ep.support_x, ep.support_y)


@pytest.mark.parametrize("name,message", [
    ("linear", r"'feat_mean' is 8 wide, the support set 5 wide"),
    ("fomaml", r"batch of shape \(10, 5\) .* for a 8-wide MLP"),
])
def test_fit_refuses_a_support_set_of_another_width(name, message):
    learner = meta_fit(*spec_for(name, epochs=2), EASY_POOL, seed=9)
    ep = easy_episode()
    with pytest.raises(ShapeError, match=message):
        learner.fit(ep.support_x[:, :5], ep.support_y)


def test_sleeper_predicts_lowest_label():
    learner = meta_fit(MethodConfig(name="sleeper", params={"duration_seconds": 0.0}),
                       EP_SPEC, EASY_POOL, seed=10)
    ep = easy_episode()
    predictor = learner.fit(ep.support_x, ep.support_y)
    assert np.array_equal(predictor.predict(ep.query_x),
                          np.zeros(len(ep.query_y)))


@pytest.mark.parametrize("name", SIX_METHODS)
def test_non_finite_inputs_rejected(name):
    params = {"epochs": 2, "hidden": 8} if name == "fomaml" else {}
    learner = meta_fit(*spec_for(name, **params), EASY_POOL, seed=17)
    ep = easy_episode()
    support_x = ep.support_x.copy()
    support_x[0, 0] = np.nan
    with pytest.raises(EpisodeFormatError):
        learner.fit(support_x, ep.support_y)
    predictor = learner.fit(ep.support_x, ep.support_y)
    query_x = ep.query_x.copy()
    query_x[3, 1] = np.inf
    with pytest.raises(EpisodeFormatError):
        predictor.predict(query_x)
    query_x[3, 1] = np.nan
    with pytest.raises(EpisodeFormatError):
        predictor.predict(query_x)


@pytest.mark.parametrize("name", SIX_METHODS)
def test_predict_refuses_a_query_set_of_another_width(name):
    params = {"epochs": 2, "hidden": 8} if name == "fomaml" else {}
    learner = meta_fit(*spec_for(name, **params), EASY_POOL, seed=17)
    ep = easy_episode()
    predictor = learner.fit(ep.support_x, ep.support_y)
    assert predictor.dim == 8
    with pytest.raises(ShapeError, match=r"query shape \(30, 5\) does not match "
                                         r"feature dimension 8"):
        predictor.predict(ep.query_x[:, :5])
    with pytest.raises(ShapeError, match=r"query shape \(0, 5\)"):
        predictor.predict(np.zeros((0, 5)))


@pytest.mark.parametrize("name", SIX_METHODS)
def test_bool_and_float_labels_give_the_integer_label_result(name):
    """``fit`` passes int64 labels to every method, so bool and float
    support labels 0..N-1 give the labels of the integer ones, bit for bit."""
    for n_way in (2, 3):
        method = MethodConfig(name, {"epochs": 2, "hidden": 8} if name == "fomaml" else {})
        learner = meta_fit(method, EpisodeSpec(n_way, 2), EASY_POOL, seed=18)
        ep = sample_episode(EASY_POOL, EpisodeSpec(n_way, 2, 4), RngState(n_way))
        want = learner.fit(ep.support_x, ep.support_y).predict(ep.query_x)
        kinds = [np.float64, np.float32] + [bool] * (n_way == 2)
        for kind in kinds:
            got = learner.fit(ep.support_x, ep.support_y.astype(kind)).predict(ep.query_x)
            assert got.tobytes() == want.tobytes(), (n_way, kind)


# ---------------------------------------------------------------------------
# Method registry


@pytest.mark.parametrize("name", SIX_METHODS)
def test_column_support_labels_rejected(name):
    params = {"epochs": 2, "hidden": 8} if name == "fomaml" else {}
    learner = meta_fit(*spec_for(name, **params), EASY_POOL, seed=17)
    ep = easy_episode()
    with pytest.raises(EpisodeFormatError):
        learner.fit(ep.support_x, ep.support_y[:, None])


@pytest.mark.parametrize("name", SIX_METHODS)
def test_registry_schema_loads_round_trips_and_rejects_misspelling(name):
    schema = METHODS[name].params
    text = f"method.name = {name}\n" + "".join(
        f"method.{name}.{key} = {default}\n" for key, default in schema.items()
    )
    method = load_config(parse_config_text(text)).method
    assert set(method.params) == set(schema)
    values = method.values
    assert values == schema
    for key, default in schema.items():
        assert type(values[key]) is type(default)
    learner = LearnerState(method=method, arrays={}, provenance=Provenance(seed=0))
    back = parse_learner(render_learner(learner))
    assert back.method.params == method.params
    assert back.method.values == schema

    misspelt = f"{sorted(schema)[0]}z"
    with pytest.raises(ConfigError) as err:
        load_config({"method.name": name, f"method.{name}.{misspelt}": "3"})
    assert repr(misspelt) in str(err.value)
    for key in schema:
        assert repr(key) in str(err.value)


# ---------------------------------------------------------------------------
# Repeat predictions


def counting_ptmap(monkeypatch):
    calls = {"n": 0}
    real = fewbench.heads.ptmap_fit_predict

    def wrapper(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(fewbench.heads, "ptmap_fit_predict", wrapper)
    return calls


@pytest.mark.parametrize("name", SIX_METHODS)
def test_repeat_predict_recomputes_equal_labels(name, monkeypatch):
    """Each call runs the head again and returns a fresh array: a caller
    writing into one result does not change the next."""
    calls = counting_ptmap(monkeypatch)
    params = {"epochs": 3, "hidden": 8} if name == "fomaml" else {}
    learner = meta_fit(*spec_for(name, **params), EASY_POOL, seed=11)
    ep = easy_episode()
    predictor = learner.fit(ep.support_x, ep.support_y)
    first = predictor.predict(ep.query_x)
    expected = first.copy()
    first[:] = -1
    assert np.array_equal(predictor.predict(ep.query_x), expected)
    assert calls["n"] == (2 if name == "ptmap" else 0)


def _defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_registry_defaults_equal_the_library_defaults():
    """A registry default that mirrors a library default is declared twice;
    the two must agree in type and value."""
    heads = fewbench.heads
    pt, inner, outer = heads.PowerTransformParams(), fm.InnerConfig(), fm.OuterConfig()
    ptmap, linear = _defaults(heads.ptmap_fit_predict), _defaults(heads.linear_head_fit)
    mirrored = {
        "proto": {"metric": _defaults(heads.compute_prototypes)["metric"]},
        "rect": {"metric": _defaults(heads.rectified_proto_predict)["metric"]},
        "qda": {"shrinkage": _defaults(heads.qda_fit)["shrinkage"]},
        "ptmap": {"beta": pt.beta, "epsilon": pt.epsilon,
                  "unit_normalize": pt.unit_normalize, "reg": heads.PTMAP_SINKHORN.reg,
                  "max_iters": heads.PTMAP_SINKHORN.max_iters,
                  "tol": heads.PTMAP_SINKHORN.tol,
                  "n_iters": ptmap["n_iters"], "step_size": ptmap["step_size"]},
        "linear": {"epochs": linear["epochs"], "step_size": linear["step_size"]},
        "fomaml": {"inner_steps": inner.steps, "inner_lr": inner.lr,
                   "outer_lr": outer.lr, "meta_batch": outer.meta_batch,
                   "epochs": outer.epochs, "hidden": _defaults(fm.meta_train)["hidden"]},
    }
    for name, expected in mirrored.items():
        got = {key: METHODS[name].params[key] for key in expected}
        assert {k: (type(v), v) for k, v in got.items()} == \
               {k: (type(v), v) for k, v in expected.items()}, name


# ---------------------------------------------------------------------------
# Artifact serialization


def test_artifact_round_trip_bit_exact():
    learner = meta_fit(*spec_for("fomaml", epochs=3, hidden=8, outer_lr=0.01),
                       EASY_POOL, seed=14)
    text = render_learner(learner)
    back = parse_learner(text)
    assert back.method.name == "fomaml"
    assert back.method.params == {"epochs": 3, "hidden": 8, "outer_lr": 0.01}
    assert back.provenance == learner.provenance
    for key in learner.arrays:
        assert np.array_equal(back.arrays[key], learner.arrays[key])
    assert render_learner(back) == text


def test_artifact_round_trip_preserves_param_types():
    learner = LearnerState(
        method=MethodConfig(name="ptmap", params={
            "reg": 0.25, "n_iters": 15, "unit_normalize": False,
        }),
        arrays={"v": np.array([1.5, -2.25, 1e-300])},
        provenance=Provenance(seed=9, episodes_consumed=1, batches_consumed=2),
    )
    back = parse_learner(render_learner(learner))
    assert back.method.params == learner.method.params
    assert back.method.params["unit_normalize"] is False
    assert np.array_equal(back.arrays["v"], learner.arrays["v"])


def test_artifact_round_trip_preserves_str_param():
    learner = LearnerState(
        method=MethodConfig(name="proto", params={"metric": "cosine"}),
        arrays={}, provenance=Provenance(seed=9),
    )
    back = parse_learner(render_learner(learner))
    assert back.method.params == {"metric": "cosine"}


def test_artifact_file_round_trip(tmp_path):
    learner = meta_fit(*spec_for("linear"), EASY_POOL, seed=15)
    path = tmp_path / "learner.txt"
    save_learner(learner, str(path))
    loaded = load_learner(str(path))
    assert np.array_equal(loaded.arrays["feat_mean"], learner.arrays["feat_mean"])
    assert loaded.provenance == learner.provenance


def test_failed_save_keeps_earlier_artifact(tmp_path):
    path = tmp_path / "learner.txt"
    save_learner(meta_fit(*spec_for("linear"), EASY_POOL, seed=15), str(path))
    before = path.read_bytes()
    broken = LearnerState(
        method=MethodConfig(name="proto", params={}),
        arrays={"cube": np.zeros((2, 2, 2))}, provenance=Provenance(seed=1),
    )
    with pytest.raises(ArtifactError):
        save_learner(broken, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["learner.txt"]


def test_artifact_rejects_bad_magic():
    with pytest.raises(ArtifactError):
        parse_learner("NOTMAGIC\nmethod,proto\nend\n")
    with pytest.raises(ArtifactError):
        parse_learner("")


def test_artifact_rejects_truncation():
    learner = meta_fit(*spec_for("fomaml", epochs=2, hidden=8), EASY_POOL, seed=16)
    text = render_learner(learner)
    lines = text.splitlines()
    # drop the end marker
    with pytest.raises(ArtifactError):
        parse_learner("\n".join(lines[:-1]) + "\n")
    # cut mid-array but keep an end marker: row count no longer matches
    array_at = next(i for i, ln in enumerate(lines) if ln.startswith("array,"))
    with pytest.raises(ArtifactError):
        parse_learner("\n".join(lines[:array_at + 3] + ["end"]) + "\n")


def test_artifact_rejects_unknown_lines():
    with pytest.raises(ArtifactError):
        parse_learner(f"{ARTIFACT_MAGIC}\nmethod,proto\nbogus,1\nend\n")
    with pytest.raises(ArtifactError):
        parse_learner(f"{ARTIFACT_MAGIC}\nmethod,proto\nend\n")  # no provenance


def test_missing_artifact_file(tmp_path):
    with pytest.raises(ArtifactError):
        load_learner(str(tmp_path / "absent.txt"))


def test_undecodable_artifact_file(tmp_path):
    path = tmp_path / "learner.txt"
    path.write_bytes(ARTIFACT_MAGIC.encode() + b"\nmethod,proto\xff\nend\n")
    with pytest.raises(ArtifactError):
        load_learner(str(path))


@pytest.mark.parametrize("shape", [(), (2, 2, 2)])
def test_render_rejects_arrays_not_1d_or_2d(shape):
    learner = LearnerState(method=MethodConfig(name="proto"),
                           arrays={"a": np.zeros(shape)},
                           provenance=Provenance(seed=0))
    with pytest.raises(ArtifactError):
        render_learner(learner)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_refuses_non_finite_arrays(value, tmp_path):
    """An array that ``parse_learner`` would refuse is never written."""
    path = tmp_path / "learner.txt"
    save_learner(meta_fit(*spec_for("linear"), EASY_POOL, seed=15), str(path))
    before = path.read_bytes()
    broken = LearnerState(method=MethodConfig(name="proto"),
                          arrays={"a": np.array([value, 1.0])},
                          provenance=Provenance(seed=0))
    with pytest.raises(ArtifactError, match="^array 'a' holds non-finite values$"):
        save_learner(broken, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["learner.txt"]


def test_artifact_rejects_malformed_values():
    head = f"{ARTIFACT_MAGIC}\nmethod,proto\n"
    with pytest.raises(ArtifactError):  # unhashable dict key in the literal
        parse_learner(head + "config,k,{[]:1}\nprovenance,0,0,0\nend\n")
    with pytest.raises(ArtifactError):
        parse_learner(head + "provenance,0,0,0\narray,a,1x1x1\n0.0\nend\n")
    with pytest.raises(ArtifactError):  # reshape would infer a -1 entry
        parse_learner(head + "provenance,0,0,0\narray,a,-1\n1.0,2.0\nend\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_artifact_rejects_non_finite_array_values(value):
    # with no inner steps, a NaN row of W2 gives every query label 0
    learner = meta_fit(*spec_for("fomaml", epochs=2, hidden=8, inner_steps=0),
                       EASY_POOL, seed=16)
    lines = render_learner(learner).splitlines()
    row = lines.index("array,W2,5x8") + 1
    lines[row] = ",".join([value] * 8)
    with pytest.raises(ArtifactError, match="'W2'"):
        parse_learner("\n".join(lines) + "\n")


ARTIFACT_LINES = st.lists(
    st.one_of(
        st.text(alphabet="0123456789.,-xe[]{}:'()natrucofigmhdpvly \t", max_size=30),
        st.sampled_from([
            "method,proto", "method,ptmap", "method,nonesuch", "provenance,1,2,3",
            "array,a,2", "array,a,1x2", "array,a,2x1", "array,a,1x1x1",
            "config,metric,'cosine'", "config,reg,[1]", "config,max_iters,1e999",
            "config,k,{[]:1}", "1.5,2", "end",
        ]),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    ARTIFACT_LINES.map(lambda lines: "\n".join([ARTIFACT_MAGIC, *lines, "end"])),
))
def test_parse_learner_fuzz_raises_only_bench_errors(text):
    try:
        parse_learner(text)
    except BenchError:
        pass
