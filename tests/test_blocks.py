"""Scoring over blocks of episodes: the same reports as one episode at a time.

A built-in ``LearnerState`` of ``proto``, ``qda``, ``rect``, ``ptmap``,
``linear`` or ``fomaml`` is scored over blocks of episodes stacked along a
leading axis: one ``LearnerState.fit`` on a block's support rows, one
``PredictorState.predict`` on its queries.  Wrapping the learner in an
object that exposes only ``fit`` hides its ``block_size``, which gives
episodes fitted and predicted one at a time, as 2-d arrays, to compare
against.
"""

import dataclasses

import numpy as np
import pytest

from fewbench.api import METHODS, LearnerState, Method, MethodConfig, meta_fit
from fewbench.dataset import ClassRecord, DatasetTable, SyntheticSpec, generate_synthetic
from fewbench.errors import BudgetExceededError, EvaluationError, ShapeError
from fewbench.evaluation import evaluate_learner, render_score_report
from fewbench.rng import RngState
from fewbench.sampler import EpisodeSpec, episode_shape, episode_stream, sample_block


class Serial:
    """Only ``fit``: the scoring loop sees no ``block_size``."""

    def __init__(self, learner):
        self.learner = learner

    def fit(self, support_x, support_y):
        return self.learner.fit(support_x, support_y)


class Clock:
    """A budget clock that lets ``allowed`` checks pass, then expires."""

    def __init__(self, allowed):
        self.left = allowed

    def check(self):
        if self.left == 0:
            raise BudgetExceededError("budget of the test clock exceeded")
        self.left -= 1


def pool(seed=4, classes=12, samples=10, dim=6):
    return generate_synthetic(SyntheticSpec(classes, dim, samples, class_std=1.0,
                                            mean_scale=0.8, seed=seed))


def learner(name, data=None, n_way=5, **params):
    """A learner meta-fitted on ``data``; fo-MAML trains briefly on
    ``n_way``-way tasks."""
    if name == "fomaml":
        params = {"epochs": 3, **params}
    method = MethodConfig(name, {k: str(v) for k, v in params.items()})
    return meta_fit(method, EpisodeSpec(n_way, 1), data or pool(), 0)


@pytest.fixture
def block_calls(monkeypatch):
    """Counts the episodes of each ``LearnerState.fit`` call on a block."""
    calls = []
    fit = LearnerState.fit

    def counted(self, support_x, support_y):
        if np.ndim(support_x) == 3:
            calls.append(len(support_x))
        return fit(self, support_x, support_y)

    monkeypatch.setattr(LearnerState, "fit", counted)
    return calls


NAMES = ("proto", "qda", "rect", "ptmap", "fomaml", "linear")

CASES = [
    ("proto", {}, 1),
    ("proto", {"metric": "cosine"}, 1),
    ("qda", {}, 1),
    ("qda", {"shrinkage": 0.3}, 5),
    ("rect", {}, 1),
    ("rect", {"metric": "cosine"}, 2),
    ("ptmap", {}, 1),
    ("ptmap", {"reg": 0.03}, 5),
    ("fomaml", {}, 1),
    ("fomaml", {"hidden": 16, "inner_steps": 2}, 2),
    ("fomaml", {"inner_steps": 0}, 1),   # every episode keeps the learner's weights
    ("linear", {}, 1),
    ("linear", {}, 5),
    ("linear", {"epochs": 3, "step_size": 0.05}, 2),
]


@pytest.mark.parametrize("name,params,k_shot", CASES,
                         ids=[f"{n}-{k}shot-{'-'.join(p) or 'default'}" for n, p, k in CASES])
def test_block_reports_equal_serial_reports(name, params, k_shot, block_calls):
    data, spec = pool(), EpisodeSpec(5, k_shot)
    fitted = learner(name, **params)
    size = fitted.block_size(*episode_shape(data, spec), data.dim)
    count = 2 * size + 3                # the last block is partial
    assert size > 1
    block = render_score_report(evaluate_learner(fitted, data, spec, count, seed=3))
    assert block_calls == [size, size, 3]
    serial = render_score_report(evaluate_learner(Serial(fitted), data, spec, count, seed=3))
    assert block_calls == [size, size, 3]
    assert block == serial


def test_block_size_follows_the_cell_cap():
    """2**14 cells over the largest per-episode array: 10 episodes per block
    for proto, rect, PT-MAP and linear on the default 5-way 1-shot 95-query
    shape, 2 for QDA and for fo-MAML's (95, 64) hidden layer, and 1 for
    everything at 2,975 queries.  fo-MAML's hidden width is the learner's."""
    sizes = {name: learner(name).block_size(5, 1, 95, 16) for name in NAMES}
    assert sizes == {"proto": 10, "qda": 2, "rect": 10, "ptmap": 10, "fomaml": 2,
                     "linear": 10}
    assert learner("fomaml", hidden=16).block_size(5, 1, 95, 16) == 10
    assert {learner(name).block_size(5, 5, 2975, 16) for name in NAMES} == {1}


def test_every_built_in_method_has_a_block_entry():
    """``block_cells`` is a required field, so no registry entry lacks it and
    every learner's block size is at least 1."""
    assert sorted(METHODS) == ["fomaml", "linear", "proto", "ptmap", "qda", "rect", "sleeper"]
    assert [name for name, m in METHODS.items() if m.block_cells is None] == []
    field = {f.name: f for f in dataclasses.fields(Method)}["block_cells"]
    assert field.default is dataclasses.MISSING
    with pytest.raises(TypeError, match="block_cells"):
        Method(params={}, fit=METHODS["proto"].fit, predict=METHODS["proto"].predict)
    huge = (1000, 50, 10**6, 10**3)
    assert {learner(name).block_size(*huge) for name in NAMES} == {1}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("k_shot", [1, 3])
def test_fit_on_a_block_predicts_each_episode_alone(name, k_shot):
    """One ``fit`` on a block's stacked support rows, then one ``predict`` on
    its stacked queries: each episode's own 2-d labels, bit for bit."""
    data, spec = pool(), EpisodeSpec(5, k_shot, 4)
    fitted = learner(name)
    block = sample_block(data, spec, [RngState(2).fork(i) for i in range(4)])
    predictor = fitted.fit(block.support_x, block.support_y)
    assert (predictor.dim, predictor.episodes) == (6, (4,))
    labels = predictor.predict(block.query_x)
    assert labels.shape == block.query_y.shape
    for e in range(4):
        alone = fitted.fit(block[e].support_x, block.support_y)
        assert (alone.dim, alone.episodes) == (6, ())
        assert labels[e].tobytes() == alone.predict(block[e].query_x).tobytes(), e


@pytest.mark.parametrize("name", ["proto", "ptmap", "linear"])
def test_predict_refuses_queries_of_another_block(name):
    data, spec = pool(), EpisodeSpec(5, 1, 4)
    block = sample_block(data, spec, [RngState(3).fork(i) for i in range(3)])
    predictor = learner(name).fit(block.support_x, block.support_y)
    for bad in (block.query_x[:2], block.query_x[:, :, :4], block.query_x[0],
                block.query_x[None], block.query_x[0, 0]):
        with pytest.raises(ShapeError, match="does not match feature dimension 6"):
            predictor.predict(bad)
    # one episode's predictor refuses a block of its width
    alone = learner(name).fit(block[0].support_x, block.support_y)
    with pytest.raises(ShapeError, match="does not match feature dimension 6$"):
        alone.predict(block.query_x)


def unequal_pool():
    gen = np.random.default_rng(6)
    return DatasetTable(4, [ClassRecord(3 * c + 1, gen.normal(c, 1.0, size=(n, 4)))
                            for c, n in enumerate((7, 9, 6, 11, 8, 6, 10))])


@pytest.mark.parametrize("name", NAMES)
def test_unequal_class_sizes_fall_back_to_the_serial_loop(name, block_calls):
    data = unequal_pool()
    fitted = learner(name, data, n_way=3)
    spec = EpisodeSpec(3, 2)            # all-remaining: the query count varies
    assert episode_shape(data, spec) is None
    report = render_score_report(evaluate_learner(fitted, data, spec, 30, seed=8))
    assert block_calls == [1] * 30      # blocks of one, fitted as blocks
    assert report == render_score_report(
        evaluate_learner(Serial(fitted), data, spec, 30, seed=8))
    # a fixed query count gives every episode one shape again
    fixed = EpisodeSpec(3, 2, 4)
    block_calls.clear()
    report = render_score_report(evaluate_learner(fitted, data, fixed, 30, seed=8))
    assert len(block_calls) < 30 and sum(block_calls) == 30
    assert report == render_score_report(
        evaluate_learner(Serial(fitted), data, fixed, 30, seed=8))


def test_non_finite_support_row_names_the_serial_episode():
    """Poison a pool row that first appears in the support set of an episode
    j inside a block: the block path raises the serial loop's error."""
    for name in ("proto", "fomaml", "linear"):
        check_poisoned_support_row(learner(name), np.nan,
                                   "support set holds non-finite values")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_diverging_linear_episode_names_the_serial_episode():
    """A finite support row whose standardized values overflow makes one
    episode's logistic head diverge; the block holding it raises the serial
    loop's error for that episode."""
    fitted = learner("linear")
    fitted.arrays["feat_std"] = np.full(6, 0.5)
    check_poisoned_support_row(fitted, 1e308, "loss diverged at epoch 1; reduce step_size")


def check_poisoned_support_row(fitted, value, message):
    data, spec = pool(classes=20), EpisodeSpec(5, 1)
    size = fitted.block_size(*episode_shape(data, spec), data.dim)
    episodes = list(episode_stream(data, spec, 3 * size, seed=3))
    seen = set()
    for j, ep in enumerate(episodes):
        fresh = [row for row in ep.support_x if row.tobytes() not in seen]
        if j % size and fresh:
            break
        seen.update(row.tobytes() for row in np.concatenate([ep.support_x, ep.query_x]))
    else:
        pytest.fail("no episode inside a block brings a new support row")
    for rec in data.classes:
        rec.examples[(rec.examples == fresh[0]).all(axis=1)] = value

    with pytest.raises(EvaluationError) as serial:
        evaluate_learner(Serial(fitted), data, spec, 3 * size, seed=3)
    with pytest.raises(EvaluationError) as block:
        evaluate_learner(fitted, data, spec, 3 * size, seed=3)
    assert serial.value.episode_index == block.value.episode_index == j
    assert str(block.value) == str(serial.value)
    assert str(block.value) == f"episode {j} failed: {message}"


def test_fomaml_learner_without_weights_fails_as_the_serial_loop_does():
    data, spec, fitted = pool(), EpisodeSpec(5, 1), learner("fomaml")
    del fitted.arrays["W1"]
    with pytest.raises(EvaluationError) as serial:
        evaluate_learner(Serial(fitted), data, spec, 6, seed=3)
    with pytest.raises(EvaluationError) as block:
        evaluate_learner(fitted, data, spec, 6, seed=3)
    assert str(block.value) == str(serial.value) == "episode 0 failed: 'W1'"


def test_expired_clock_counts_whole_blocks():
    data, spec = pool(), EpisodeSpec(5, 1)
    for name in ("ptmap", "fomaml", "linear"):
        fitted = learner(name)
        size = fitted.block_size(*episode_shape(data, spec), data.dim)
        with pytest.raises(BudgetExceededError) as block:
            evaluate_learner(fitted, data, spec, 5 * size, seed=3, clock=Clock(2))
        assert block.value.completed == 2 * size, name
        with pytest.raises(BudgetExceededError) as serial:
            evaluate_learner(Serial(fitted), data, spec, 5 * size, seed=3, clock=Clock(2))
        assert serial.value.completed == 2, name
