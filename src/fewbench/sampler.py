"""N-way K-shot episode and batch sampling, deterministic under a seed.

An episode draws N distinct classes uniformly from the pool, K support
examples per class, and queries from the remaining examples.  Episode
labels 0..N-1 are assigned in class-draw order, and the original class ids
are recorded in ``class_map``.  Episode ``i`` of a stream is generated
from the ``i``-th forked substream of the stream seed, so streams are
reproducible element-wise and safe to generate in parallel.

The draws pick row indices into the pool's one row array
(:attr:`~fewbench.dataset.DatasetTable.x`, in class order), and the rows
of a whole block of episodes, or of a batch, are gathered from it at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .dataset import DatasetTable
from .errors import ArgumentError, SamplingError
from .rng import RngState, check_count, is_integer, streams

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
    original int64 class id (a table's ids are below 2**63).  Support and
    query never share an example.  A block from :func:`sample_block` stacks
    E episodes: every field but ``support_y``, which they share, gains a
    leading episode axis, and ``block[e]`` is episode ``e``.
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


def check_spec(name: str, spec) -> None:
    """:class:`ArgumentError` naming ``name`` unless ``spec`` is an :class:`EpisodeSpec`."""
    if not isinstance(spec, EpisodeSpec):
        raise ArgumentError(f"{name} needs an EpisodeSpec, got {spec!r}")


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
    check_spec("check_pool", spec)
    if pool.n_classes < spec.n_way:
        raise _too_few_classes(pool, spec.n_way)
    _check_sizes(pool, np.arange(pool.n_classes), _examples_needed(spec))


def _check_sizes(pool: DatasetTable, picked: np.ndarray, need: int) -> None:
    """Raise for the first class of ``picked`` with fewer than ``need`` rows."""
    counts = pool.sizes[picked]
    small = np.flatnonzero(counts < need)
    if len(small):
        raise _too_few_examples(int(pool.ids[picked[small[0]]]), int(counts[small[0]]), need)


def episode_shape(pool: DatasetTable, spec: EpisodeSpec) -> tuple[int, int, int] | None:
    """``(n_way, k_shot, queries)`` shared by every episode ``pool`` can
    serve under ``spec``, or ``None`` when the query count depends on the
    classes drawn: ``all-remaining`` over classes of unequal sizes."""
    check_spec("episode_shape", spec)
    n, k, qpc = spec.n_way, spec.k_shot, spec.query_per_class
    if qpc != ALL_REMAINING:
        return n, k, n * qpc
    sizes = set(pool.sizes.tolist())
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
    that position carries no label information.  The draws of each
    episode are indices into the pool's rows ``pool.x``; the support and
    the query rows of the whole block are then gathered from it at once.
    The substreams are walked with :func:`~fewbench.rng.streams`, which
    draws what each ``RngState.generator`` would.  ``support_y`` is shared
    by every episode; the other fields have a leading axis of
    ``len(rngs)``.  Every episode must have the same query count (see
    :func:`episode_shape`).
    """
    check_spec("sample_block", spec)
    n, k = spec.n_way, spec.k_shot
    if not rngs:
        raise ArgumentError("a block needs at least one substream")
    if pool.n_classes < n:
        raise _too_few_classes(pool, n)
    need = _examples_needed(spec)
    qpc = None if spec.query_per_class == ALL_REMAINING else spec.query_per_class
    sizes, starts = pool.sizes, pool.starts
    short = bool((sizes < need).any())  # else no drawn class can be too small
    support = np.empty((len(rngs), n * k), dtype=np.int64)
    chosen = np.empty((len(rngs), n), dtype=np.int64)
    for e, gen in enumerate(streams(rngs)):
        picked = gen.choice(pool.n_classes, size=n, replace=False)
        if short:
            _check_sizes(pool, picked, need)
        counts = sizes[picked].tolist()
        perms = [gen.permutation(m) for m in counts]
        taken = tuple(counts) if qpc is None else (k + qpc,) * n
        # the pool rows that the taken permutation entries name, class by class
        rows = np.concatenate([perm[:m] for perm, m in zip(perms, taken)])
        rows += np.repeat(starts[picked], taken)
        sup, qry, labels = _layout(k, taken)
        shuffle = gen.permutation(len(qry))
        if e == 0:
            query = np.empty((len(rngs), len(qry)), dtype=np.int64)
            query_y = np.empty((len(rngs), len(qry)), dtype=np.int64)
        elif len(qry) != query.shape[1]:
            raise ArgumentError(f"episode {e} of the block has {len(qry)} "
                                f"queries, episode 0 has {query.shape[1]}")
        support[e] = rows[sup]
        query[e] = rows[qry[shuffle]]
        query_y[e] = labels[shuffle]
        chosen[e] = picked
    return Episode(
        support_x=pool.x.take(support, axis=0),
        support_y=np.repeat(np.arange(n, dtype=np.int64), k),
        query_x=pool.x.take(query, axis=0),
        query_y=query_y,
        class_map=pool.ids[chosen],
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
    examples of the pool and without replacement within one call: the
    first ``batch_size`` entries of a permutation of the pool's rows in
    class order, gathered from ``pool.x`` at once."""
    check_count("batch_size", batch_size)
    total = pool.total_examples
    if batch_size > total:
        raise ArgumentError(
            f"batch_size {batch_size} exceeds pool size {total}"
        )
    take = rng.generator.permutation(total)[:batch_size]
    # row j of the pool in class order is row j of x, shifted by its class's
    # start past the rows of the classes before it
    shift = np.repeat(pool.starts - np.cumsum(pool.sizes) + pool.sizes, pool.sizes)
    return pool.x.take(take + shift[take], axis=0)
