"""Scoring: accuracy, confidence intervals, seeded streams, worst-of-3."""

import numpy as np
import pytest

from fewbench.dataset import SyntheticSpec, generate_synthetic, parse_feature_dataset
from fewbench.errors import (
    ArgumentError,
    BudgetExceededError,
    EvaluationError,
    ProtocolError,
    ShapeError,
)
from fewbench.evaluation import (
    AggregateScore,
    cat_accuracy,
    ci95,
    evaluate_learner,
    final_score,
    render_score_report,
)
from fewbench.pipeline import BudgetClock
from fewbench.rng import RngState
from fewbench.sampler import EpisodeSpec, episode_stream, sample_batch

POOL = generate_synthetic(
    SyntheticSpec(num_classes=8, dim=4, samples_per_class=6,
                  class_std=1.0, mean_scale=2.0, seed=0)
)
SPEC = EpisodeSpec(n_way=5, k_shot=1)


class ConstantLearner:
    """Always predicts episode label 0; the scoring canary."""

    def fit(self, support_x, support_y):
        return self

    def predict(self, query_x):
        return np.zeros(len(query_x), dtype=np.int64)


class NearestSupportLearner:
    """1-NN against the support set; deterministic and reasonably good."""

    def fit(self, support_x, support_y):
        learner = NearestSupportLearner()
        learner.sx = np.asarray(support_x)
        learner.sy = np.asarray(support_y)
        return learner

    def predict(self, query_x):
        d = ((np.asarray(query_x)[:, None, :] - self.sx[None, :, :]) ** 2).sum(axis=2)
        return self.sy[np.argmin(d, axis=1)]


class FailingLearner:
    """Raises on the fit call of a chosen episode."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.calls = 0

    def fit(self, support_x, support_y):
        if self.calls == self.fail_at:
            raise ValueError("synthetic failure")
        self.calls += 1
        return ConstantLearner()


# ---------------------------------------------------------------------------
# Accuracy and confidence intervals


def test_cat_accuracy():
    assert cat_accuracy(np.array([0, 1, 2, 2]), np.array([0, 1, 2, 1])) == 0.75
    assert cat_accuracy(np.array([3]), np.array([3])) == 1.0


def test_cat_accuracy_of_a_block_is_each_row_alone():
    gen = np.random.default_rng(2)
    predicted, true = gen.integers(0, 5, size=(2, 7, 95))
    accs = cat_accuracy(predicted, true)
    assert accs.shape == (7,)
    for e in range(7):
        alone = cat_accuracy(predicted[e], true[e])
        assert isinstance(alone, float)
        assert accs[e].tobytes() == np.float64(alone).tobytes()


def test_cat_accuracy_errors():
    with pytest.raises(ShapeError):
        cat_accuracy(np.array([1, 2]), np.array([1]))
    with pytest.raises(ShapeError):
        cat_accuracy(np.array([]), np.array([]))
    with pytest.raises(ShapeError):
        cat_accuracy(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        cat_accuracy(np.zeros((2, 0)), np.zeros((2, 0)))


def test_ci95_frozen_oracle():
    """Alternating 0/1 over 600 episodes, value computed independently."""
    acc = np.array([i % 2 for i in range(600)], dtype=float)
    assert ci95(acc) == pytest.approx(0.040041714475826405, abs=1e-15)


def test_ci95_matches_formula():
    gen = np.random.default_rng(1)
    acc = gen.uniform(size=37)
    want = 1.96 * acc.std(ddof=1) / np.sqrt(37)
    assert ci95(acc) == pytest.approx(want, abs=0)


def test_ci95_needs_two_values():
    with pytest.raises(ArgumentError):
        ci95([0.5])
    with pytest.raises(ArgumentError):
        ci95(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# evaluate_learner


def test_canary_constant_learner_scores_one_over_n():
    """Balanced query sets: always-predict-0 must score exactly 1/N."""
    agg = evaluate_learner(ConstantLearner(), POOL, SPEC, 40, seed=3)
    assert agg.mean == pytest.approx(0.2, abs=0)
    for ep in agg.episodes:
        assert ep.accuracy == pytest.approx(0.2, abs=0)


def test_deterministic_across_runs_and_sensitive_to_seed():
    a = evaluate_learner(NearestSupportLearner(), POOL, SPEC, 30, seed=4)
    b = evaluate_learner(NearestSupportLearner(), POOL, SPEC, 30, seed=4)
    c = evaluate_learner(NearestSupportLearner(), POOL, SPEC, 30, seed=5)
    assert [e.accuracy for e in a.episodes] == [e.accuracy for e in b.episodes]
    assert a.mean == b.mean and a.ci95_halfwidth == b.ci95_halfwidth
    assert [e.accuracy for e in a.episodes] != [e.accuracy for e in c.episodes]


def test_aggregate_is_per_episode_mean_not_pooled():
    """Episodes weigh equally even when their query counts differ."""
    table = parse_feature_dataset(
        "dim=1\n"
        + "".join(f"0,{float(v)}\n" for v in range(3))     # 2 queries
        + "".join(f"1,{float(v)}\n" for v in range(10, 21))  # 10 queries
    )
    spec = EpisodeSpec(n_way=2, k_shot=1)
    agg = evaluate_learner(ConstantLearner(), table, spec, 12, seed=6)
    counts = {ep.query_count for ep in agg.episodes}
    assert counts == {12}  # 2 + 10 remaining examples every episode
    accs = [ep.accuracy for ep in agg.episodes]
    assert agg.mean == pytest.approx(np.mean(accs), abs=1e-15)
    # the two orderings of class draw produce different per-episode accuracy
    assert set(np.round(accs, 6)) == {round(2 / 12, 6), round(10 / 12, 6)}
    pooled = (np.array(accs) * 12).sum() / (12 * len(accs))
    assert pooled == pytest.approx(agg.mean)  # equal counts here, so equal --
    # the real distinction: per-episode accuracies are what ci95 sees
    assert agg.ci95_halfwidth == pytest.approx(ci95(accs), abs=0)


def test_failure_names_episode_index():
    with pytest.raises(EvaluationError) as err:
        evaluate_learner(FailingLearner(fail_at=3), POOL, SPEC, 10, seed=8)
    assert err.value.episode_index == 3
    assert "episode 3" in str(err.value)


def test_budget_abort_records_completed_count():
    clock = BudgetClock(limit_seconds=0.0)
    with pytest.raises(BudgetExceededError) as err:
        evaluate_learner(NearestSupportLearner(), POOL, SPEC, 10, seed=9,
                         clock=clock)
    assert err.value.completed == 0


def test_a_budget_error_inside_a_fit_is_raised_as_it_is():
    """A learner that runs out of budget inside its own fit raises the
    budget error itself, not as a failure of that episode."""
    class OutOfTime:
        def fit(self, support_x, support_y):
            raise BudgetExceededError("spent inside fit", completed=2)

    with pytest.raises(BudgetExceededError, match="^spent inside fit$") as err:
        evaluate_learner(OutOfTime(), POOL, SPEC, 4, seed=1)
    assert err.value.completed == 2


def test_single_episode_has_zero_halfwidth():
    agg = evaluate_learner(ConstantLearner(), POOL, SPEC, 1, seed=11)
    assert agg.episode_count == 1
    assert agg.ci95_halfwidth == 0.0


def test_argument_validation():
    with pytest.raises(ArgumentError):
        evaluate_learner(ConstantLearner(), POOL, SPEC, 0, seed=1)


@pytest.mark.parametrize("spec", [(5, 1), {"n_way": 5}, None])
def test_a_spec_that_is_not_an_episode_spec_is_refused(spec):
    """As ``meta_fit`` does: the shape would otherwise fail as a bare
    ``AttributeError`` deep in the sampler."""
    with pytest.raises(ArgumentError, match="evaluate_learner needs an EpisodeSpec"):
        evaluate_learner(ConstantLearner(), POOL, spec, 3, seed=1)


COUNTED = {
    "evaluate_learner": lambda n: evaluate_learner(ConstantLearner(), POOL, SPEC, n, seed=1),
    "episode_stream": lambda n: list(episode_stream(POOL, SPEC, n, seed=1)),
    "sample_batch": lambda n: sample_batch(POOL, n, RngState(1)),
}


@pytest.mark.parametrize("entry", sorted(COUNTED))
@pytest.mark.parametrize("count", [2.5, 2.0, np.float64(3.0), "3"])
def test_non_integer_counts_are_refused(entry, count):
    """A count must be a Python or NumPy integer, as ``EpisodeSpec``'s
    counts are: ``range`` would refuse a float with a bare ``TypeError``."""
    with pytest.raises(ArgumentError, match="must be an integer"):
        COUNTED[entry](count)
    COUNTED[entry](np.int64(3))   # NumPy integers pass


# ---------------------------------------------------------------------------
# Worst-of-3 and reports


def agg(mean, seed, n=4):
    return AggregateScore(mean=mean, ci95_halfwidth=0.01, episode_count=n,
                          seed=seed)


def test_final_score_takes_minimum_mean():
    result = final_score([agg(0.8, 1), agg(0.6, 2), agg(0.7, 3)])
    assert result.final == 0.6
    assert [s.seed for s in result.per_seed] == [1, 2, 3]


def test_final_score_validation():
    with pytest.raises(ProtocolError):
        final_score([agg(0.8, 1), agg(0.6, 2)])
    with pytest.raises(ProtocolError):
        final_score([agg(0.8, 1), agg(0.6, 1), agg(0.7, 3)])


def test_score_report_format():
    result = evaluate_learner(ConstantLearner(), POOL, SPEC, 3, seed=12)
    text = render_score_report(result)
    lines = text.splitlines()
    assert len(lines) == 4
    for i, line in enumerate(lines[:3]):
        tag, idx, acc = line.split(",")
        assert tag == "episode" and int(idx) == i
        assert float(acc) == result.episodes[i].accuracy
    tag, mean, ci, count, seed = lines[3].split(",")
    assert tag == "aggregate"
    assert float(mean) == result.mean
    assert float(ci) == result.ci95_halfwidth
    assert int(count) == 3 and int(seed) == 12
    assert text.endswith("\n")
