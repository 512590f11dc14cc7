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
from functools import lru_cache
from typing import Iterator

import numpy as np

from .dataset import DatasetTable
from .errors import ArgumentError, SamplingError
from .rng import RngState, check_count, is_integer

__all__ = [
    "ALL_REMAINING",
    "EpisodeSpec",
    "Episode",
    "RngState",
    "check_pool",
    "episode_shape",
    "sample_block",
    "sample_episode",
    "episode_stream",
    "sample_batch",
]

ALL_REMAINING = "all-remaining"


@dataclass(frozen=True)
class EpisodeSpec:
    """Shape of one few-shot task: N-way, K-shot, Q queries per class.

    ``query_per_class`` is either a positive integer or the string
    ``"all-remaining"`` (the meta-test default: every example not used for
    support becomes a query).  The counts may be Python or NumPy integers,
    never floats or bools.  The fields are checked when it is built.
    """

    n_way: int = 5
    k_shot: int = 1
    query_per_class: int | str = ALL_REMAINING

    def __post_init__(self) -> None:
        check_count("n_way", self.n_way, 2)
        check_count("k_shot", self.k_shot)
        qpc = self.query_per_class
        if qpc != ALL_REMAINING and not (is_integer(qpc) and qpc >= 1):
            raise ArgumentError(
                f"query_per_class must be '{ALL_REMAINING}' or a positive "
                f"integer, got {qpc!r}"
            )


@dataclass(frozen=True)
class Episode:
    """One few-shot task: a labeled support set and a query set.

    Labels are episode labels in 0..N-1; ``class_map[label]`` recovers the
    original class id.  Support and query never share an example.  A block
    from :func:`sample_block` stacks E episodes: every field but
    ``support_y``, which they share, gains a leading episode axis, and
    ``block[e]`` is episode ``e``.
    """

    support_x: np.ndarray  # (N*K, d)
    support_y: np.ndarray  # (N*K,) int64 episode labels
    query_x: np.ndarray    # (Q_total, d)
    query_y: np.ndarray    # (Q_total,) int64 episode labels
    class_map: np.ndarray  # (N,) int64 original class ids

    @property
    def n_way(self) -> int:
        return self.class_map.shape[-1]

    def __getitem__(self, e: int) -> "Episode":
        return Episode(self.support_x[e], self.support_y, self.query_x[e],
                       self.query_y[e], self.class_map[e])


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


def episode_shape(pool: DatasetTable, spec: EpisodeSpec) -> tuple[int, int, int] | None:
    """``(n_way, k_shot, queries)`` shared by every episode ``pool`` can
    serve under ``spec``, or ``None`` when the query count depends on the
    classes drawn: ``all-remaining`` over classes of unequal sizes."""
    n, k, qpc = spec.n_way, spec.k_shot, spec.query_per_class
    if qpc != ALL_REMAINING:
        return n, k, n * qpc
    sizes = {len(rec.examples) for rec in pool.classes}
    return (n, k, n * (sizes.pop() - k)) if len(sizes) == 1 else None


#: Bytes a block of episodes may hold while it is sampled and scored, or a
#: chunk of fo-MAML tasks while it is meta-trained: 1 MiB, the traced peak
#: an eight-task training chunk already reached, so larger scoring blocks
#: leave a run's peak memory where it was.
_BLOCK_BYTES = 1 << 20


def block_episodes(episode_bytes: int) -> int:
    """Episodes of ``episode_bytes`` each that one block holds within
    ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // episode_bytes)


@lru_cache(maxsize=64)
def _layout(k: int, sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where an episode's rows sit once the rows taken from its classes
    (``sizes[c]`` of class ``c``, support first) are concatenated: the
    support positions, the query positions in class order, and the label
    of each of those queries."""
    starts = np.cumsum((0,) + sizes[:-1])
    support = (starts[:, None] + np.arange(k)).ravel()
    query = np.concatenate([np.arange(s + k, s + m) for s, m in zip(starts, sizes)])
    labels = np.repeat(np.arange(len(sizes), dtype=np.int64), [m - k for m in sizes])
    for a in (support, query, labels):
        a.flags.writeable = False
    return support, query, labels


def sample_block(pool: DatasetTable, spec: EpisodeSpec, rngs) -> Episode:
    """Draw one episode under each substream of ``rngs``, stacked along a
    leading episode axis.

    Each episode draws its classes uniformly without replacement, then one
    permutation per class (its first K entries pick the support rows, the
    rest the queries, or Q of them), then a shuffle of the query set so
    that position carries no label information.  Rows are copied from the
    pool's class arrays, which are never concatenated.  ``support_y`` is
    shared by every episode; the other fields have a leading axis of
    ``len(rngs)``.  Every episode must have the same query count (see
    :func:`episode_shape`).
    """
    n, k = spec.n_way, spec.k_shot
    if not rngs:
        raise ArgumentError("a block needs at least one substream")
    if pool.n_classes < n:
        raise _too_few_classes(pool, n)
    need = _examples_needed(spec)
    qpc = None if spec.query_per_class == ALL_REMAINING else spec.query_per_class
    for e, rng in enumerate(rngs):
        gen = rng.generator
        recs = [pool.classes[c] for c in gen.choice(pool.n_classes, size=n, replace=False)]
        perms = []
        for rec in recs:
            if len(rec.examples) < need:
                raise _too_few_examples(rec.class_id, len(rec.examples), need)
            perms.append(gen.permutation(len(rec.examples)))
        sizes = tuple(len(perm) if qpc is None else k + qpc for perm in perms)
        rows = np.concatenate([rec.examples[perm[:m]]
                               for rec, perm, m in zip(recs, perms, sizes)])
        support, query, labels = _layout(k, sizes)
        shuffle = gen.permutation(len(query))
        if e == 0:
            support_x = np.empty((len(rngs), n * k, pool.dim))
            query_x = np.empty((len(rngs), len(query), pool.dim))
            query_y = np.empty((len(rngs), len(query)), dtype=np.int64)
            class_map = np.empty((len(rngs), n), dtype=np.int64)
        elif len(query) != query_x.shape[1]:
            raise ArgumentError(f"episode {e} of the block has {len(query)} "
                                f"queries, episode 0 has {query_x.shape[1]}")
        # the indices are valid; "clip" only spares the buffered copy that
        # take makes of ``out`` under the default mode
        np.take(rows, support, axis=0, out=support_x[e], mode="clip")
        np.take(rows, query[shuffle], axis=0, out=query_x[e], mode="clip")
        query_y[e] = labels[shuffle]
        class_map[e] = [rec.class_id for rec in recs]
    return Episode(
        support_x=support_x,
        support_y=np.repeat(np.arange(n, dtype=np.int64), k),
        query_x=query_x,
        query_y=query_y,
        class_map=class_map,
    )


def sample_episode(pool: DatasetTable, spec: EpisodeSpec, rng: RngState) -> Episode:
    """Draw one episode from the pool under the given substream: the
    one-episode case of :func:`sample_block`."""
    return sample_block(pool, spec, (rng,))[0]


def episode_stream(
    pool: DatasetTable, spec: EpisodeSpec, count: int, seed: int
) -> Iterator[Episode]:
    """Yield ``count`` episodes; episode i comes from substream i of ``seed``."""
    check_count("count", count)
    root = RngState(seed)
    for i in range(count):
        yield sample_episode(pool, spec, root.fork(i))


def sample_batch(pool: DatasetTable, batch_size: int, rng: RngState) -> np.ndarray:
    """Draw a flat ``(batch_size, d)`` batch of rows, uniform over all
    examples of the pool and without replacement within one call.

    Row ``j`` of the pool is row ``j - offset`` of the class whose rows
    start at ``offset``, in class order; the rows are copied from the class
    arrays, never from a concatenated copy of the pool.
    """
    check_count("batch_size", batch_size)
    total = pool.total_examples
    if batch_size > total:
        raise ArgumentError(
            f"batch_size {batch_size} exceeds pool size {total}"
        )
    take = rng.generator.permutation(total)[:batch_size]
    sizes = np.array([len(rec.examples) for rec in pool.classes])
    ends = np.cumsum(sizes)
    owner = np.searchsorted(ends, take, side="right")   # class of each drawn row
    rows = take - (ends - sizes)[owner]
    out = np.empty((batch_size, pool.dim))
    for c in np.flatnonzero(np.bincount(owner)):
        pick = owner == c
        out[pick] = pool.classes[c].examples[rows[pick]]
    return out
