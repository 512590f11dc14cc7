"""Meta-learner/learner/predictor contract and artifact serialization."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fewbench.heads
from fewbench.api import (
    ARTIFACT_MAGIC,
    METHODS,
    LearnerState,
    MetaLearnerSpec,
    MethodConfig,
    Provenance,
    load_learner,
    meta_fit,
    parse_learner,
    render_learner,
    save_learner,
)
from fewbench.dataset import SyntheticSpec, generate_synthetic
from fewbench.errors import ArtifactError, BenchError, ConfigError, EpisodeFormatError
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
    return MetaLearnerSpec(
        method=MethodConfig(name=name, params=params),
        train_episode_spec=EpisodeSpec(n_way=5, k_shot=2),
    )


def easy_episode(seed=2):
    return sample_episode(EASY_POOL, EP_SPEC, RngState(seed))


# ---------------------------------------------------------------------------
# meta_fit


@pytest.mark.parametrize("name", ["proto", "qda", "rect", "ptmap"])
def test_episode_heads_meta_fit_is_a_no_op(name):
    learner = meta_fit(spec_for(name), EASY_POOL, seed=3)
    assert learner.arrays == {}
    assert learner.provenance == Provenance(seed=3)


def test_linear_meta_fit_learns_feature_statistics():
    learner = meta_fit(spec_for("linear"), EASY_POOL, seed=4)
    assert set(learner.arrays) == {"feat_mean", "feat_std"}
    assert learner.arrays["feat_mean"].shape == (8,)
    assert (learner.arrays["feat_std"] > 0).all()
    assert learner.provenance.batches_consumed == 10
    again = meta_fit(spec_for("linear"), EASY_POOL, seed=4)
    assert np.array_equal(learner.arrays["feat_mean"], again.arrays["feat_mean"])


def test_fomaml_meta_fit_trains_and_counts_episodes():
    learner = meta_fit(spec_for("fomaml", epochs=4, meta_batch=3, hidden=8),
                       EASY_POOL, seed=5)
    assert set(learner.arrays) == {"W1", "b1", "W2", "b2"}
    assert learner.arrays["W1"].shape == (8, 8)
    assert learner.arrays["W2"].shape == (5, 8)
    assert learner.provenance.episodes_consumed == 12
    again = meta_fit(spec_for("fomaml", epochs=4, meta_batch=3, hidden=8),
                     EASY_POOL, seed=5)
    for key in learner.arrays:
        assert np.array_equal(learner.arrays[key], again.arrays[key])


def test_fomaml_requires_train_episode_spec():
    bad = MetaLearnerSpec(method=MethodConfig(name="fomaml", params={}))
    with pytest.raises(ConfigError):
        meta_fit(bad, EASY_POOL, seed=0)


def test_mode_validation():
    with pytest.raises(ConfigError):
        MethodConfig(name="nonesuch", params={}).validate()


@pytest.mark.parametrize("name", ["proto", "rect"])
def test_metric_takes_only_known_values(name):
    for metric in fewbench.heads.METRICS:
        assert MethodConfig(name=name, params={"metric": metric}).validate() == {
            "metric": metric}
    with pytest.raises(ConfigError) as err:
        MethodConfig(name=name, params={"metric": "bogus"}).validate()
    assert "'bogus'" in str(err.value)
    for metric in fewbench.heads.METRICS:
        assert repr(metric) in str(err.value)


def test_method_config_coercions():
    values = MethodConfig(name="ptmap", params={
        "reg": "0.5", "max_iters": "120", "unit_normalize": "false",
    }).validate()
    assert values["reg"] == 0.5
    assert values["max_iters"] == 120
    assert values["unit_normalize"] is False
    assert MethodConfig(name="ptmap").validate()["unit_normalize"] is True
    assert MethodConfig(name="proto", params={"metric": "cosine"}).validate() == {
        "metric": "cosine"}
    with pytest.raises(ConfigError):
        MethodConfig(name="ptmap", params={"reg": "abc"}).validate()
    with pytest.raises(ConfigError):
        MethodConfig(name="ptmap", params={"unit_normalize": "maybe"}).validate()


def test_registry_bounds_cover_numeric_keys_only():
    for name, method in METHODS.items():
        for key, interval in method.bounds.items():
            assert type(method.params[key]) in (int, float), (name, key)
            assert interval[0] in "[(" and interval[-1] in "])", (name, key)
        MethodConfig(name=name).validate()  # the defaults lie in bounds


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
])
def test_method_config_enforces_bounds(name, key, bad, good):
    for value in bad:
        with pytest.raises(ConfigError) as err:
            MethodConfig(name=name, params={key: value}).validate()
        assert key in str(err.value) and METHODS[name].bounds[key] in str(err.value)
    for value in good:
        MethodConfig(name=name, params={key: value}).validate()


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
    learner = meta_fit(spec_for(name, **params), EASY_POOL, seed=6)
    ep = easy_episode()
    predictor = learner.fit(ep.support_x, ep.support_y)
    got = predictor.predict(ep.query_x)
    assert (got == ep.query_y).mean() == 1.0
    assert np.array_equal(predictor.labels, np.arange(5))


def test_fit_does_not_mutate_learner():
    learner = meta_fit(spec_for("proto"), EASY_POOL, seed=7)
    ep1, ep2 = easy_episode(3), easy_episode(4)
    p1a = learner.fit(ep1.support_x, ep1.support_y)
    learner.fit(ep2.support_x, ep2.support_y)
    p1b = learner.fit(ep1.support_x, ep1.support_y)
    assert np.array_equal(p1a.predict(ep1.query_x), p1b.predict(ep1.query_x))


def test_single_vector_query():
    learner = meta_fit(spec_for("proto"), EASY_POOL, seed=8)
    ep = easy_episode()
    predictor = learner.fit(ep.support_x, ep.support_y)
    got = predictor.predict(ep.query_x[0])
    assert got.shape == (1,)
    assert got[0] == ep.query_y[0]


def test_fomaml_way_mismatch_rejected():
    learner = meta_fit(spec_for("fomaml", epochs=2, hidden=8), EASY_POOL, seed=9)
    ep = sample_episode(EASY_POOL, EpisodeSpec(n_way=4, k_shot=2), RngState(1))
    with pytest.raises(EpisodeFormatError):
        learner.fit(ep.support_x, ep.support_y)


def test_linear_fit_requires_meta_statistics():
    learner = LearnerState(method=MethodConfig(name="linear", params={}),
                           arrays={}, provenance=Provenance(seed=0))
    ep = easy_episode()
    with pytest.raises(EpisodeFormatError):
        learner.fit(ep.support_x, ep.support_y)


def test_sleeper_predicts_lowest_label():
    learner = meta_fit(
        MetaLearnerSpec(method=MethodConfig(name="sleeper",
                                            params={"duration_seconds": 0.0})),
        EASY_POOL, seed=10,
    )
    ep = easy_episode()
    predictor = learner.fit(ep.support_x, ep.support_y)
    assert np.array_equal(predictor.predict(ep.query_x),
                          np.zeros(len(ep.query_y)))


@pytest.mark.parametrize("name", SIX_METHODS)
def test_non_finite_inputs_rejected(name):
    params = {"epochs": 2, "hidden": 8} if name == "fomaml" else {}
    learner = meta_fit(spec_for(name, **params), EASY_POOL, seed=17)
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


# ---------------------------------------------------------------------------
# Method registry


@pytest.mark.parametrize("name", SIX_METHODS)
def test_column_support_labels_rejected(name):
    params = {"epochs": 2, "hidden": 8} if name == "fomaml" else {}
    learner = meta_fit(spec_for(name, **params), EASY_POOL, seed=17)
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
    values = method.validate()
    assert values == schema
    for key, default in schema.items():
        assert type(values[key]) is type(default)
    learner = LearnerState(method=method, arrays={}, provenance=Provenance(seed=0))
    back = parse_learner(render_learner(learner))
    assert back.method.params == method.params
    assert back.method.validate() == schema

    misspelt = f"{sorted(schema)[0]}z"
    with pytest.raises(ConfigError) as err:
        load_config({"method.name": name, f"method.{name}.{misspelt}": "3"})
    assert repr(misspelt) in str(err.value)
    for key in schema:
        assert repr(key) in str(err.value)


# ---------------------------------------------------------------------------
# Transductive batch purity


def counting_ptmap(monkeypatch):
    calls = {"n": 0}
    real = fewbench.heads.ptmap_fit_predict

    def wrapper(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(fewbench.heads, "ptmap_fit_predict", wrapper)
    return calls


def test_transductive_predict_is_cached(monkeypatch):
    calls = counting_ptmap(monkeypatch)
    learner = meta_fit(spec_for("ptmap"), EASY_POOL, seed=11)
    ep = easy_episode()
    predictor = learner.fit(ep.support_x, ep.support_y)
    first = predictor.predict(ep.query_x)
    second = predictor.predict(ep.query_x)
    assert calls["n"] == 1
    assert np.array_equal(first, second)
    # mutating a returned array must not poison the cache
    first[:] = -1
    third = predictor.predict(ep.query_x)
    assert np.array_equal(third, second)
    # a different query set is a different transductive problem
    predictor.predict(ep.query_x[:5])
    assert calls["n"] == 2


def test_transductive_cache_is_thread_safe(monkeypatch):
    calls = counting_ptmap(monkeypatch)
    learner = meta_fit(spec_for("ptmap"), EASY_POOL, seed=12)
    ep = easy_episode()
    predictor = learner.fit(ep.support_x, ep.support_y)
    results = [None] * 8

    def work(i):
        results[i] = predictor.predict(ep.query_x)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert calls["n"] == 1
    for r in results[1:]:
        assert np.array_equal(r, results[0])


def test_non_transductive_predict_not_cached(monkeypatch):
    calls = {"n": 0}
    real = fewbench.heads.proto_labels

    def wrapper(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(fewbench.heads, "proto_labels", wrapper)
    learner = meta_fit(spec_for("proto"), EASY_POOL, seed=13)
    ep = easy_episode()
    predictor = learner.fit(ep.support_x, ep.support_y)
    predictor.predict(ep.query_x)
    predictor.predict(ep.query_x)
    assert calls["n"] == 2


# ---------------------------------------------------------------------------
# Artifact serialization


def test_artifact_round_trip_bit_exact():
    learner = meta_fit(spec_for("fomaml", epochs=3, hidden=8, outer_lr=0.01),
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
    learner = meta_fit(spec_for("linear"), EASY_POOL, seed=15)
    path = tmp_path / "learner.txt"
    save_learner(learner, str(path))
    loaded = load_learner(str(path))
    assert np.array_equal(loaded.arrays["feat_mean"], learner.arrays["feat_mean"])
    assert loaded.provenance == learner.provenance


def test_failed_save_keeps_earlier_artifact(tmp_path):
    path = tmp_path / "learner.txt"
    save_learner(meta_fit(spec_for("linear"), EASY_POOL, seed=15), str(path))
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
    learner = meta_fit(spec_for("fomaml", epochs=2, hidden=8), EASY_POOL, seed=16)
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


def test_artifact_rejects_malformed_values():
    head = f"{ARTIFACT_MAGIC}\nmethod,proto\n"
    with pytest.raises(ArtifactError):  # unhashable dict key in the literal
        parse_learner(head + "config,k,{[]:1}\nprovenance,0,0,0\nend\n")
    with pytest.raises(ArtifactError):
        parse_learner(head + "provenance,0,0,0\narray,a,1x1x1\n0.0\nend\n")
    with pytest.raises(ArtifactError):  # reshape would infer a -1 entry
        parse_learner(head + "provenance,0,0,0\narray,a,-1\n1.0,2.0\nend\n")


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
