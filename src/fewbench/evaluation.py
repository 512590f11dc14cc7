"""Episode scoring, aggregation, confidence intervals, worst-of-3 rule.

A learner is evaluated by sampling a seeded stream of episodes, fitting a
predictor on each support set, and scoring its query predictions with
categorical accuracy — query labels never reach the method.  Per-episode
accuracies aggregate to a mean with a normal-approximation 95% confidence
half-width over episodes.  A full protocol run repeats this three times
with distinct seeds and reports the worst mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    BudgetExceededError,
    EvaluationError,
    ProtocolError,
    ShapeError,
)
from .rng import RngState, check_count
from .sampler import EpisodeSpec, episode_shape, sample_block

__all__ = [
    "EpisodeScore",
    "AggregateScore",
    "RunResult",
    "cat_accuracy",
    "ci95",
    "evaluate_learner",
    "final_score",
    "render_score_report",
]


@dataclass(frozen=True)
class EpisodeScore:
    episode_index: int
    accuracy: float
    query_count: int


@dataclass(frozen=True)
class AggregateScore:
    """Mean accuracy over an episode stream with its 95% CI half-width."""

    mean: float
    ci95_halfwidth: float
    episode_count: int
    seed: int
    episodes: tuple[EpisodeScore, ...] = ()


@dataclass(frozen=True)
class RunResult:
    """Three seeded aggregate scores and the worst-of-3 final."""

    per_seed: tuple[AggregateScore, ...]
    final: float


def cat_accuracy(predicted: np.ndarray, true: np.ndarray) -> float | np.ndarray:
    """Fraction of positions where the labels agree: a float for label
    vectors ``(Q,)``, or each row's fraction, ``(E,)``, for a block's labels
    ``(E, Q)``.  A mean of 0/1 values is exact, so each row of a block
    scores bitwise as it does alone."""
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    if predicted.shape != true.shape or predicted.ndim not in (1, 2):
        raise ShapeError(f"label shapes {predicted.shape} / {true.shape} are not "
                         f"one equal (Q,) or (E, Q) shape")
    if true.size == 0:
        raise ShapeError("cannot score an empty label vector")
    hits = (predicted == true).mean(axis=-1)
    return float(hits) if true.ndim == 1 else hits


def ci95(accuracies) -> float:
    """1.96 * sample std (n-1 denominator) / sqrt(n) over episode accuracies."""
    acc = np.asarray(accuracies, dtype=np.float64)
    if acc.ndim != 1 or len(acc) < 2:
        raise ArgumentError("ci95 needs at least 2 per-episode accuracies")
    return float(1.96 * acc.std(ddof=1) / np.sqrt(len(acc)))


def evaluate_learner(
    learner,
    pool,
    spec: EpisodeSpec,
    episode_count: int = 600,
    *,
    seed: int,
    clock=None,
) -> AggregateScore:
    """Score a learner over a seeded stream of episodes of ``spec``.

    Per episode: ``learner.fit(support_x, support_y)`` then
    ``predictor.predict(query_x)``; true query labels stay on this side of
    the call.  Any episode failure aborts, naming the episode index.

    Episodes are drawn in blocks.  A learner with a ``block_size`` (every
    :class:`~fewbench.api.LearnerState`) fits and predicts a block in one
    call each: ``block_size`` episodes when every episode of the stream has
    the same shape (see :func:`~fewbench.sampler.episode_shape`), one
    otherwise.  A block that fails is scored again one episode at a time,
    which names the episode and its error; any other learner is scored one
    episode at a time.  A budget ``clock`` is checked before each block, so
    a timeout's count of completed episodes is whole blocks.
    """
    episode_count = check_count("episode_count", episode_count)
    if not isinstance(spec, EpisodeSpec):
        raise ArgumentError(f"evaluate_learner needs an EpisodeSpec, got {spec!r}")
    root = RngState(seed)
    sizer = getattr(learner, "block_size", None)
    shape = None if sizer is None else episode_shape(pool, spec)
    size = 1 if shape is None else sizer(*shape, pool.dim)
    scores: list[EpisodeScore] = []
    for start in range(0, episode_count, size):
        _check_clock(clock, start)
        stop = min(start + size, episode_count)
        block = sample_block(pool, spec, [root.fork(i) for i in range(start, stop)])
        accs = None
        if sizer is not None:
            try:
                # one expression: no predictor or labels outlive the block
                accs = cat_accuracy(learner.fit(block.support_x, block.support_y)
                                    .predict(block.query_x), block.query_y)
            except Exception:
                pass    # scored again below, which names the failing episode
        if accs is None:
            accs = [_score_episode(learner, i, block[i - start]) for i in range(start, stop)]
        scores.extend(EpisodeScore(episode_index=i, accuracy=float(acc),
                                   query_count=block.query_y.shape[1])
                      for i, acc in enumerate(accs, start))

    accs = [s.accuracy for s in scores]
    return AggregateScore(
        mean=float(np.mean(accs)),
        ci95_halfwidth=ci95(accs) if len(accs) >= 2 else 0.0,
        episode_count=episode_count,
        seed=int(seed),
        episodes=tuple(scores),
    )


def _check_clock(clock, completed: int) -> None:
    if clock is not None:
        try:
            clock.check()
        except BudgetExceededError as exc:
            raise BudgetExceededError(str(exc), completed=completed) from None


def _score_episode(learner, i: int, episode) -> float:
    """The accuracy of one episode, fitted and predicted alone."""
    try:
        predictor = learner.fit(episode.support_x, episode.support_y)
        predicted = predictor.predict(episode.query_x)
        return cat_accuracy(np.asarray(predicted), episode.query_y)
    except BudgetExceededError:
        raise
    except Exception as exc:
        raise EvaluationError(f"episode {i} failed: {exc}", episode_index=i) from exc


def final_score(scores) -> RunResult:
    """Worst-of-3 rule: the final is the minimum of the three seeded means."""
    scores = tuple(scores)
    if len(scores) != 3:
        raise ProtocolError(f"final_score needs exactly 3 scores, got {len(scores)}")
    seeds = [s.seed for s in scores]
    if len(set(seeds)) != 3:
        raise ProtocolError(f"run seeds must be distinct, got {seeds}")
    return RunResult(per_seed=scores, final=min(s.mean for s in scores))


def render_score_report(score: AggregateScore) -> str:
    """Machine-parseable score report, stable field order.

    One ``episode,<index>,<accuracy>`` line per episode, then a single
    ``aggregate,<mean>,<ci95>,<count>,<seed>`` line.
    """
    lines = [
        f"episode,{s.episode_index},{s.accuracy!r}" for s in score.episodes
    ]
    lines.append(
        f"aggregate,{score.mean!r},{score.ci95_halfwidth!r},"
        f"{score.episode_count},{score.seed}"
    )
    return "\n".join(lines) + "\n"
