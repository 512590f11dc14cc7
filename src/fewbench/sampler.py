"""N-way K-shot episode and batch sampling, deterministic under a seed.

An episode draws N distinct classes uniformly from the pool, K support
examples per class, and queries from the remaining examples.  Episode
labels 0..N-1 are assigned in class-draw order, and the original class ids
are recorded in ``class_map``.  Episode ``i`` of a stream is generated
from the ``i``-th forked substream of the stream seed, so streams are
reproducible element-wise and safe to generate in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dataset import DatasetTable
from .errors import ArgumentError, SamplingError
from .rng import RngState

__all__ = [
    "ALL_REMAINING",
    "EpisodeSpec",
    "Episode",
    "RngState",
    "check_pool",
    "sample_episode",
    "episode_stream",
    "sample_batch",
]

ALL_REMAINING = "all-remaining"
_INTEGERS = (int, np.integer)


@dataclass(frozen=True)
class EpisodeSpec:
    """Shape of one few-shot task: N-way, K-shot, Q queries per class.

    ``query_per_class`` is either a positive integer or the string
    ``"all-remaining"`` (the meta-test default: every example not used for
    support becomes a query).  The counts may be Python or NumPy integers,
    never floats.  The fields are checked when it is built.
    """

    n_way: int = 5
    k_shot: int = 1
    query_per_class: int | str = ALL_REMAINING

    def __post_init__(self) -> None:
        for name, value, least in (("n_way", self.n_way, 2), ("k_shot", self.k_shot, 1)):
            if not isinstance(value, _INTEGERS):
                raise ArgumentError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ArgumentError(f"{name} must be >= {least}, got {value}")
        qpc = self.query_per_class
        if qpc != ALL_REMAINING and not (isinstance(qpc, _INTEGERS) and qpc >= 1):
            raise ArgumentError(
                f"query_per_class must be '{ALL_REMAINING}' or a positive "
                f"integer, got {qpc!r}"
            )


@dataclass(frozen=True)
class Episode:
    """One few-shot task: a labeled support set and a query set.

    Labels are episode labels in 0..N-1; ``class_map[label]`` recovers the
    original class id.  Support and query never share an example.
    """

    support_x: np.ndarray  # (N*K, d)
    support_y: np.ndarray  # (N*K,) int64 episode labels
    query_x: np.ndarray    # (Q_total, d)
    query_y: np.ndarray    # (Q_total,) int64 episode labels
    class_map: np.ndarray  # (N,) int64 original class ids

    @property
    def n_way(self) -> int:
        return len(self.class_map)


def _examples_needed(spec: EpisodeSpec) -> int:
    """Fewest examples a class must hold: its support set plus one query,
    or plus ``query_per_class`` queries."""
    return spec.k_shot + (
        1 if spec.query_per_class == ALL_REMAINING else spec.query_per_class
    )


def _too_few_classes(pool: DatasetTable, n_way: int) -> SamplingError:
    return SamplingError(f"pool has {pool.n_classes} classes, episode needs {n_way}")


def _too_few_examples(class_id: int, count: int, need: int) -> SamplingError:
    return SamplingError(f"class {class_id} has {count} examples, episode needs {need}")


def check_pool(pool: DatasetTable, spec: EpisodeSpec) -> None:
    """Raise the :class:`SamplingError` that ``sample_episode`` raises when
    ``pool`` cannot serve an episode of ``spec``: fewer than ``n_way``
    classes, or a class too small for the support set and its queries.
    Every class is checked, since any class can be drawn."""
    if pool.n_classes < spec.n_way:
        raise _too_few_classes(pool, spec.n_way)
    need = _examples_needed(spec)
    for rec in pool.classes:
        if len(rec.examples) < need:
            raise _too_few_examples(rec.class_id, len(rec.examples), need)


def sample_episode(pool: DatasetTable, spec: EpisodeSpec, rng: RngState) -> Episode:
    """Draw one episode from the pool under the given substream.

    Classes are chosen uniformly without replacement; support examples per
    class without replacement; queries take the remaining examples of each
    class (or Q of them).  The query set is shuffled so that position
    carries no label information.
    """
    n, k = spec.n_way, spec.k_shot
    if pool.n_classes < n:
        raise _too_few_classes(pool, n)
    gen = rng.generator
    chosen = gen.choice(pool.n_classes, size=n, replace=False)

    need = _examples_needed(spec)
    sup_x, qry_x, ids = [], [], []
    for idx in chosen:
        rec = pool.classes[int(idx)]
        count = len(rec.examples)
        if count < need:
            raise _too_few_examples(rec.class_id, count, need)
        perm = gen.permutation(count)
        sup_x.append(rec.examples[perm[:k]])
        if spec.query_per_class == ALL_REMAINING:
            q_idx = perm[k:]
        else:
            q_idx = perm[k:k + spec.query_per_class]
        qry_x.append(rec.examples[q_idx])
        ids.append(rec.class_id)

    labels = np.arange(n, dtype=np.int64)
    query_x = np.concatenate(qry_x)
    query_y = np.repeat(labels, [len(q) for q in qry_x])
    shuffle = gen.permutation(len(query_y))
    return Episode(
        support_x=np.concatenate(sup_x),
        support_y=np.repeat(labels, k),
        query_x=query_x[shuffle],
        query_y=query_y[shuffle],
        class_map=np.asarray(ids, dtype=np.int64),
    )


def episode_stream(
    pool: DatasetTable, spec: EpisodeSpec, count: int, seed: int
) -> Iterator[Episode]:
    """Yield ``count`` episodes; episode i comes from substream i of ``seed``."""
    if count < 1:
        raise ArgumentError(f"count must be >= 1, got {count}")
    root = RngState(int(seed))
    for i in range(count):
        yield sample_episode(pool, spec, root.fork(i))


def sample_batch(pool: DatasetTable, batch_size: int, rng: RngState) -> np.ndarray:
    """Draw a flat ``(batch_size, d)`` batch of rows, uniform over all
    examples of the pool and without replacement within one call."""
    if batch_size < 1:
        raise ArgumentError(f"batch_size must be >= 1, got {batch_size}")
    total = pool.total_examples
    if batch_size > total:
        raise ArgumentError(
            f"batch_size {batch_size} exceeds pool size {total}"
        )
    flat_x = np.concatenate([rec.examples for rec in pool.classes])
    take = rng.generator.permutation(total)[:batch_size]
    return flat_x[take]
