"""Scoring over blocks of episodes: the same reports as one episode at a time.

A built-in ``LearnerState`` of ``proto``, ``qda``, ``rect``, ``ptmap``,
``linear`` or ``fomaml`` is scored over blocks of episodes stacked along a
leading axis.  Wrapping the learner in an object that exposes only
``fit``/``predict`` hides its block entry, which gives blocks of one episode
to compare against.
"""

import numpy as np
import pytest

from fewbench.api import METHODS, LearnerState, MethodConfig, meta_fit
from fewbench.dataset import ClassRecord, DatasetTable, SyntheticSpec, generate_synthetic
from fewbench.errors import BudgetExceededError, EvaluationError
from fewbench.evaluation import evaluate_learner, render_score_report
from fewbench.sampler import EpisodeSpec, episode_shape, episode_stream


class Serial:
    """Only ``fit`` and ``predict``: the scoring loop sees no block entry."""

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
    """Counts the calls of ``LearnerState.predict_block``."""
    calls = []
    predict_block = LearnerState.predict_block

    def counted(self, support_x, support_y, query_x):
        calls.append(len(support_x))
        return predict_block(self, support_x, support_y, query_x)

    monkeypatch.setattr(LearnerState, "predict_block", counted)
    return calls


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
    names = ("proto", "qda", "rect", "ptmap", "fomaml", "linear")
    sizes = {name: learner(name).block_size(5, 1, 95, 16) for name in names}
    assert sizes == {"proto": 10, "qda": 2, "rect": 10, "ptmap": 10, "fomaml": 2,
                     "linear": 10}
    assert learner("fomaml", hidden=16).block_size(5, 1, 95, 16) == 10
    assert {learner(name).block_size(5, 5, 2975, 16) for name in names} == {1}


def test_every_built_in_method_has_a_block_entry():
    """Only the test session's ``sleeper`` is scored one episode at a time."""
    assert sorted(METHODS) == ["fomaml", "linear", "proto", "ptmap", "qda", "rect", "sleeper"]
    assert [name for name, m in METHODS.items() if m.block_cells is None] == ["sleeper"]


def unequal_pool():
    gen = np.random.default_rng(6)
    return DatasetTable(4, [ClassRecord(3 * c + 1, gen.normal(c, 1.0, size=(n, 4)))
                            for c, n in enumerate((7, 9, 6, 11, 8, 6, 10))])


@pytest.mark.parametrize("name", ["proto", "qda", "rect", "ptmap", "fomaml", "linear"])
def test_unequal_class_sizes_fall_back_to_the_serial_loop(name, block_calls):
    data = unequal_pool()
    fitted = learner(name, data, n_way=3)
    spec = EpisodeSpec(3, 2)            # all-remaining: the query count varies
    assert episode_shape(data, spec) is None
    report = render_score_report(evaluate_learner(fitted, data, spec, 30, seed=8))
    assert block_calls == []
    assert report == render_score_report(
        evaluate_learner(Serial(fitted), data, spec, 30, seed=8))
    # a fixed query count gives every episode one shape again
    fixed = EpisodeSpec(3, 2, 4)
    report = render_score_report(evaluate_learner(fitted, data, fixed, 30, seed=8))
    assert block_calls and sum(block_calls) == 30
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
