"""Episode and batch sampling: structure, determinism, substream layout."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewbench.dataset import (SyntheticSpec, bayes_oracle_accuracy, generate_synthetic,
                              split_classes)
from fewbench.dataset import ClassRecord, DatasetTable
from fewbench.errors import ArgumentError, SamplingError
from fewbench.rng import RngState
from fewbench.sampler import (
    ALL_REMAINING,
    Episode,
    EpisodeSpec,
    check_pool,
    episode_shape,
    episode_stream,
    sample_batch,
    sample_block,
    sample_episode,
)


def make_pool(num_classes=10, dim=4, samples=8, seed=0):
    return generate_synthetic(
        SyntheticSpec(num_classes=num_classes, dim=dim, samples_per_class=samples,
                      class_std=1.0, mean_scale=2.0, seed=seed)
    )


def as_set(rows: np.ndarray) -> set:
    return {tuple(r) for r in rows}


# entry point: (the function named in its error, a call with the spec)
NOT_A_SPEC_ENTRY_POINTS = {
    "sample_episode": ("sample_block", lambda s: sample_episode(make_pool(), s, RngState(1))),
    "sample_block": ("sample_block", lambda s: sample_block(make_pool(), s, [RngState(1)])),
    "episode_stream": ("sample_block", lambda s: list(episode_stream(make_pool(), s, 2, 1))),
    "check_pool": ("check_pool", lambda s: check_pool(make_pool(), s)),
    "episode_shape": ("episode_shape", lambda s: episode_shape(make_pool(), s)),
    "bayes_oracle_accuracy": ("sample_block",
                              lambda s: bayes_oracle_accuracy(SyntheticSpec(), s, 3, 0)),
}


@pytest.mark.parametrize("spec", [(5, 1), None, {"n_way": 5, "k_shot": 1}])
@pytest.mark.parametrize("entry", sorted(NOT_A_SPEC_ENTRY_POINTS))
def test_a_spec_that_is_not_an_episode_spec_is_refused(entry, spec):
    """As ``meta_fit`` and ``evaluate_learner`` do, rather than with a bare
    ``AttributeError`` on the spec's fields."""
    name, call = NOT_A_SPEC_ENTRY_POINTS[entry]
    with pytest.raises(ArgumentError, match=f"^{name} needs an EpisodeSpec, got "
                                            f"{re.escape(repr(spec))}$"):
        call(spec)


def test_a_block_of_no_substreams_is_refused():
    with pytest.raises(ArgumentError, match="^a block needs at least one substream$"):
        sample_block(make_pool(), EpisodeSpec(n_way=5, k_shot=1), [])


def test_episode_structure():
    pool = make_pool()
    ep = sample_episode(pool, EpisodeSpec(n_way=5, k_shot=2), RngState(1))
    assert ep.support_x.shape == (10, 4)
    assert np.array_equal(np.sort(ep.support_y), np.repeat(np.arange(5), 2))
    # all-remaining: 8 - 2 = 6 queries per class
    assert ep.query_x.shape == (30, 4)
    assert np.array_equal(np.bincount(ep.query_y), np.full(5, 6))
    assert ep.n_way == 5
    assert len(set(ep.class_map.tolist())) == 5


def test_support_query_disjoint():
    pool = make_pool()
    ep = sample_episode(pool, EpisodeSpec(n_way=5, k_shot=3), RngState(2))
    assert as_set(ep.support_x).isdisjoint(as_set(ep.query_x))


def test_labels_follow_class_draw_order():
    """Episode label L must always carry examples of class_map[L]."""
    pool = make_pool()
    ep = sample_episode(pool, EpisodeSpec(n_way=4, k_shot=1), RngState(3))
    for label in range(4):
        (rec,) = [r for r in pool.classes if r.class_id == ep.class_map[label]]
        members = as_set(rec.examples)
        for row in ep.support_x[ep.support_y == label]:
            assert tuple(row) in members
        for row in ep.query_x[ep.query_y == label]:
            assert tuple(row) in members


def test_fixed_query_count():
    pool = make_pool(samples=9)
    ep = sample_episode(pool, EpisodeSpec(n_way=3, k_shot=2, query_per_class=4),
                        RngState(4))
    assert ep.query_x.shape[0] == 12
    assert np.array_equal(np.bincount(ep.query_y), np.full(3, 4))


def test_query_positions_carry_no_label_order():
    """Queries must not arrive grouped by class."""
    pool = make_pool(samples=20)
    grouped = 0
    for i in range(20):
        ep = sample_episode(pool, EpisodeSpec(n_way=5, k_shot=1), RngState(50 + i))
        if np.array_equal(ep.query_y, np.sort(ep.query_y)):
            grouped += 1
    assert grouped == 0


def test_sampling_errors():
    pool = make_pool(num_classes=4, samples=3)
    with pytest.raises(SamplingError):
        sample_episode(pool, EpisodeSpec(n_way=5, k_shot=1), RngState(0))
    with pytest.raises(SamplingError) as err:
        sample_episode(pool, EpisodeSpec(n_way=3, k_shot=3), RngState(0))
    assert "3 examples" in str(err.value)


@pytest.mark.parametrize("spec", [
    EpisodeSpec(n_way=5, k_shot=1),                     # too few classes
    EpisodeSpec(n_way=3, k_shot=3),                     # no query left
    EpisodeSpec(n_way=2, k_shot=1, query_per_class=3),  # too few queries
])
def test_check_pool_raises_what_sample_episode_raises(spec):
    pool = make_pool(num_classes=4, samples=3)
    with pytest.raises(SamplingError) as sampled:
        sample_episode(pool, spec, RngState(0))
    with pytest.raises(SamplingError) as checked:
        check_pool(pool, spec)
    # every class of this pool is the same size, so the messages agree up
    # to which class is named
    assert re.sub(r"^class \d+ ", "", str(checked.value)) == \
        re.sub(r"^class \d+ ", "", str(sampled.value))


def test_check_pool_checks_every_class():
    recs = make_pool(num_classes=4, samples=3).classes
    pool = DatasetTable(4, recs[:2] + [ClassRecord(2, recs[2].examples[:1])] + recs[3:])
    for spec in (EpisodeSpec(n_way=4, k_shot=2),
                 EpisodeSpec(n_way=2, k_shot=1, query_per_class=2)):
        check_pool(make_pool(num_classes=4, samples=3), spec)
        with pytest.raises(SamplingError, match=r"^class 2 has 1 examples, "
                                                  r"episode needs \d+$"):
            check_pool(pool, spec)


def test_spec_validation():
    with pytest.raises(ArgumentError):
        EpisodeSpec(n_way=1)
    with pytest.raises(ArgumentError):
        EpisodeSpec(k_shot=0)
    with pytest.raises(ArgumentError):
        EpisodeSpec(query_per_class=0)
    with pytest.raises(ArgumentError):
        EpisodeSpec(query_per_class="some")
    EpisodeSpec(query_per_class=ALL_REMAINING)


@pytest.mark.parametrize("fields", [
    (2, 1.5), (2.0, 1), (2, 1, 2.0), (np.float64(5), 1), (5, 1, np.float64(3)), ("5", 1),
])
def test_spec_refuses_counts_that_are_not_integers(fields):
    with pytest.raises(ArgumentError, match="integer"):
        EpisodeSpec(*fields)


def test_spec_takes_numpy_integers():
    spec = EpisodeSpec(np.int64(3), np.int32(2), np.int64(2))
    ep = sample_episode(make_pool(), spec, RngState(4))
    plain = sample_episode(make_pool(), EpisodeSpec(3, 2, 2), RngState(4))
    assert np.array_equal(ep.support_x, plain.support_x)
    assert np.array_equal(ep.query_x, plain.query_x)


def test_stream_refuses_a_negative_seed():
    with pytest.raises(ArgumentError, match="seed"):
        next(episode_stream(make_pool(), EpisodeSpec(), 1, seed=-1))


def test_stream_deterministic():
    pool = make_pool()
    spec = EpisodeSpec(n_way=5, k_shot=1)
    for e1, e2 in zip(episode_stream(pool, spec, 5, seed=9),
                      episode_stream(pool, spec, 5, seed=9)):
        assert np.array_equal(e1.support_x, e2.support_x)
        assert np.array_equal(e1.query_x, e2.query_x)
        assert np.array_equal(e1.query_y, e2.query_y)
        assert np.array_equal(e1.class_map, e2.class_map)


def test_stream_element_independent_of_count():
    """Episode i is a function of (seed, i) alone, not of stream length."""
    pool = make_pool()
    spec = EpisodeSpec(n_way=5, k_shot=1)
    short = list(episode_stream(pool, spec, 3, seed=77))
    long = list(episode_stream(pool, spec, 10, seed=77))
    for e1, e2 in zip(short, long):
        assert np.array_equal(e1.support_x, e2.support_x)
        assert np.array_equal(e1.query_x, e2.query_x)


def test_streams_differ_across_seeds():
    pool = make_pool()
    spec = EpisodeSpec(n_way=5, k_shot=1)
    a = next(iter(episode_stream(pool, spec, 1, seed=1)))
    b = next(iter(episode_stream(pool, spec, 1, seed=2)))
    assert not (np.array_equal(a.support_x, b.support_x)
                and np.array_equal(a.query_x, b.query_x))


@settings(max_examples=30, deadline=None)
@given(
    n_way=st.integers(min_value=2, max_value=6),
    k_shot=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_episode_invariants_property(n_way, k_shot, seed):
    pool = make_pool(num_classes=8, samples=6)
    ep = sample_episode(pool, EpisodeSpec(n_way=n_way, k_shot=k_shot),
                        RngState(seed))
    assert len(ep.support_y) == n_way * k_shot
    assert np.array_equal(np.unique(ep.support_y), np.arange(n_way))
    assert len(ep.query_y) == n_way * (6 - k_shot)
    assert as_set(ep.support_x).isdisjoint(as_set(ep.query_x))


# ---------------------------------------------------------------------------
# Batches


def test_batch_uniform_without_replacement():
    pool = make_pool(num_classes=5, samples=4)
    batch = sample_batch(pool, 20, RngState(6))
    assert batch.shape == (20, 4)
    assert len(as_set(batch)) == 20


def test_batch_bounds():
    pool = make_pool(num_classes=2, samples=3)
    with pytest.raises(ArgumentError):
        sample_batch(pool, 0, RngState(0))
    with pytest.raises(ArgumentError):
        sample_batch(pool, 7, RngState(0))


def test_batch_deterministic():
    pool = make_pool()
    b1 = sample_batch(pool, 10, RngState(9))
    b2 = sample_batch(pool, 10, RngState(9))
    assert np.array_equal(b1, b2)


def sample_episode_oracle(pool: DatasetTable, spec: EpisodeSpec, rng: RngState):
    """The sampler before its label vectors came from one ``np.repeat``
    each: one ``np.full`` per class and role."""
    n, k = spec.n_way, spec.k_shot
    if pool.n_classes < n:
        raise SamplingError(f"pool has {pool.n_classes} classes, episode needs {n}")
    gen = rng.generator
    chosen = gen.choice(pool.n_classes, size=n, replace=False)
    need = k + (1 if spec.query_per_class == ALL_REMAINING else spec.query_per_class)
    sup_x, sup_y, qry_x, qry_y, ids = [], [], [], [], []
    for label, idx in enumerate(chosen):
        rec = pool.classes[int(idx)]
        count = len(rec.examples)
        if count < need:
            raise SamplingError(
                f"class {rec.class_id} has {count} examples, episode needs {need}"
            )
        perm = gen.permutation(count)
        sup_x.append(rec.examples[perm[:k]])
        sup_y.append(np.full(k, label, dtype=np.int64))
        if spec.query_per_class == ALL_REMAINING:
            q_idx = perm[k:]
        else:
            q_idx = perm[k:k + spec.query_per_class]
        qry_x.append(rec.examples[q_idx])
        qry_y.append(np.full(len(q_idx), label, dtype=np.int64))
        ids.append(rec.class_id)
    query_x = np.concatenate(qry_x)
    query_y = np.concatenate(qry_y)
    shuffle = gen.permutation(len(query_y))
    return Episode(
        support_x=np.concatenate(sup_x),
        support_y=np.concatenate(sup_y),
        query_x=query_x[shuffle],
        query_y=query_y[shuffle],
        class_map=np.asarray(ids, dtype=np.int64),
    )


@pytest.mark.parametrize("query_per_class", [ALL_REMAINING, 1, 3])
def test_sample_episode_matches_oracle(query_per_class):
    # classes of unequal size, so all-remaining gives unequal query counts
    base = make_pool(num_classes=9, dim=3, samples=15, seed=5)
    pool = DatasetTable(dim=3, classes=[
        ClassRecord(rec.class_id, rec.examples[:7 + i])
        for i, rec in enumerate(base.classes)
    ])
    for n_way, k_shot in ((2, 1), (5, 1), (5, 4), (9, 2)):
        spec = EpisodeSpec(n_way=n_way, k_shot=k_shot, query_per_class=query_per_class)
        for seed in range(60):
            rng = RngState(seed, (n_way, k_shot))
            got = sample_episode(pool, spec, rng)
            want = sample_episode_oracle(pool, spec, rng)
            for field in ("support_x", "support_y", "query_x", "query_y", "class_map"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), field
            assert got.support_y.dtype == got.query_y.dtype == np.int64


def unequal_pool():
    gen = np.random.default_rng(3)
    return DatasetTable(3, [ClassRecord(5 * c + 2, gen.normal(size=(n, 3)))
                            for c, n in enumerate((7, 4, 12, 4, 9, 5))])


def test_sample_batch_is_the_concatenated_pool_formula():
    """The rows equal what indexing the concatenated class arrays with the
    same permutation gives, bit for bit."""
    pool = unequal_pool()
    flat = np.concatenate([rec.examples for rec in pool.classes])
    for i, size in enumerate((1, 5, 16, 38)):
        rng = RngState(9).fork(i)
        take = rng.generator.permutation(len(flat))[:size]
        got = sample_batch(pool, size, rng)
        assert got.dtype == flat.dtype and got.shape == (size, 3)
        assert got.tobytes() == flat[take].tobytes()


def sample_episode_oracle(pool, spec, rng):
    """The per-class loop the block sampler replaced: the same draws in the
    same order, with the rows concatenated class by class."""
    n, k = spec.n_way, spec.k_shot
    gen = rng.generator
    chosen = gen.choice(pool.n_classes, size=n, replace=False)
    sup_x, qry_x, ids = [], [], []
    for idx in chosen:
        rec = pool.classes[int(idx)]
        perm = gen.permutation(len(rec.examples))
        sup_x.append(rec.examples[perm[:k]])
        stop = None if spec.query_per_class == ALL_REMAINING else k + spec.query_per_class
        qry_x.append(rec.examples[perm[k:stop]])
        ids.append(rec.class_id)
    labels = np.arange(n, dtype=np.int64)
    query_x = np.concatenate(qry_x)
    query_y = np.repeat(labels, [len(q) for q in qry_x])
    shuffle = gen.permutation(len(query_y))
    return Episode(np.concatenate(sup_x), np.repeat(labels, k), query_x[shuffle],
                   query_y[shuffle], np.asarray(ids, dtype=np.int64))


@pytest.mark.parametrize("spec", [EpisodeSpec(3, 2, 1), EpisodeSpec(4, 1, 3),
                                  EpisodeSpec(5, 2), EpisodeSpec(2, 3)])
def test_block_and_single_episodes_match_the_per_class_loop(spec):
    """Episode e of a block, and ``sample_episode`` under the same substream,
    are the per-class loop's episode: every array bit for bit and of the
    same dtype.  Over unequal class sizes with ``all-remaining`` only single
    episodes can be drawn."""
    pool = make_pool() if spec.n_way == 5 else unequal_pool()
    rngs = [RngState(12).fork(i) for i in range(7)]
    shape = episode_shape(pool, spec)
    if shape is not None:
        block = sample_block(pool, spec, rngs)
        assert block.query_x.shape == (7, shape[2], pool.dim)
    for e, rng in enumerate(rngs):
        want = sample_episode_oracle(pool, spec, rng)
        for got in [sample_episode(pool, spec, rng)] + ([block[e]] if shape else []):
            for name in ("support_x", "support_y", "query_x", "query_y", "class_map"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), name


def test_episode_shape():
    assert episode_shape(make_pool(samples=8), EpisodeSpec(5, 2)) == (5, 2, 30)
    assert episode_shape(unequal_pool(), EpisodeSpec(3, 1, 2)) == (3, 1, 6)
    assert episode_shape(unequal_pool(), EpisodeSpec(3, 1)) is None


def test_block_of_unequal_query_counts_is_refused():
    pool = DatasetTable(2, [ClassRecord(c, np.arange(2.0 * n).reshape(n, 2) + 100 * c)
                            for c, n in enumerate((3, 4, 5))])
    spec = EpisodeSpec(2, 1)
    rngs = [RngState(1).fork(i) for i in range(20)]
    counts = {len(sample_episode(pool, spec, r).query_y) for r in rngs}
    assert len(counts) > 1
    with pytest.raises(ArgumentError, match="queries"):
        sample_block(pool, spec, rngs)


@pytest.mark.parametrize("rngs", [
    [RngState(5, (1, e, j)) for e in (0, 3) for j in (0, 4)],    # two parent paths
    [RngState(s).fork(2) for s in (0, 1, 2**64 - 1)],             # three seeds
    [RngState(7, (2**32 + j,)) for j in range(3)],                # words past 32 bits
    [RngState(9)] + [RngState(9).fork(j) for j in range(3)],      # a root and its children
], ids=["parents", "seeds", "wide-words", "depths"])
@pytest.mark.parametrize("pool,spec", [
    (make_pool(), EpisodeSpec(5, 2)),                   # equal sizes, all-remaining
    (make_pool(), EpisodeSpec(4, 1, 3)),                # equal sizes, Q per class
    (unequal_pool(), EpisodeSpec(3, 2, 1)),             # unequal sizes, Q per class
    (unequal_pool(), EpisodeSpec(2, 3)),                # unequal sizes, all-remaining
], ids=["equal-all", "equal-q3", "unequal-q1", "unequal-all"])
def test_blocks_of_any_streams_match_the_per_class_loop(rngs, pool, spec):
    """A block of states that do not all share a seed and a parent path,
    or whose path words reach 2**32, draws each episode from that state's
    own generator, bit for bit.  Over unequal sizes with ``all-remaining``,
    each episode is a block of its own."""
    blocks = ([sample_block(pool, spec, rngs)] if episode_shape(pool, spec)
              else [sample_block(pool, spec, [rng]) for rng in rngs])
    got = [block[e] for block in blocks for e in range(len(block.class_map))]
    for ep, rng in zip(got, rngs, strict=True):
        want = sample_episode_oracle(pool, spec, rng)
        for name in ("support_x", "support_y", "query_x", "query_y", "class_map"):
            a, b = getattr(ep, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name


def test_sample_batch_draws_the_rows_it_always_drew():
    """Rows that name their class and index, drawn from classes of unequal
    sizes: the (class, index) pairs the per-class sampler drew."""
    pool = DatasetTable(2, [ClassRecord(c, np.stack([np.full(n, c), np.arange(n)], axis=1))
                            for c, n in zip((4, 0, 9), (3, 5, 2))])
    want = {1: [(0, 4)], 4: [(0, 0), (9, 1), (9, 0), (4, 0)],
            10: [(4, 0), (0, 1), (4, 2), (0, 4), (9, 0), (0, 2), (0, 3), (4, 1), (0, 0),
                 (9, 1)]}
    for i, (size, rows) in enumerate(want.items()):
        got = sample_batch(pool, size, RngState(9).fork(i))
        assert got.dtype == np.float64 and got.tolist() == [list(row) for row in rows]


def test_split_pools_draw_what_their_copies_draw():
    """The pools of a class split share their table's rows, with their
    classes not back to back: they draw the rows that a copy of each
    pool, classes back to back, draws."""
    split = split_classes(make_pool(num_classes=10, samples=8), 6, seed=3)
    for pool in (split.meta_train, split.meta_test):
        copy = DatasetTable(pool.dim, pool.classes)
        assert not np.shares_memory(copy.x, pool.x)
        rngs = [RngState(4).fork(i) for i in range(5)]
        for spec in (EpisodeSpec(3, 2, 2), EpisodeSpec(4, 1)):
            got, want = sample_block(pool, spec, rngs), sample_block(copy, spec, rngs)
            for name in ("support_x", "query_x", "query_y", "class_map"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for size in (1, 9, pool.total_examples):
            assert sample_batch(pool, size, RngState(2)).tobytes() == \
                sample_batch(copy, size, RngState(2)).tobytes()
