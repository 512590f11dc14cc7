"""Deterministic substream behavior of RngState."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewbench.errors import ArgumentError
from fewbench.dataset import split_classes
from fewbench.rng import RngState, _philox_keys, check_count, is_integer, streams


def test_same_state_same_draws():
    a = RngState(42).generator.uniform(size=8)
    b = RngState(42).generator.uniform(size=8)
    assert np.array_equal(a, b)


def test_generator_property_does_not_advance():
    state = RngState(7)
    first = state.generator.uniform(size=4)
    second = state.generator.uniform(size=4)
    assert np.array_equal(first, second)


def test_forks_are_distinct_streams():
    root = RngState(3)
    draws = [root.fork(i).generator.uniform(size=16) for i in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            assert not np.array_equal(draws[i], draws[j])


def test_fork_differs_from_parent():
    root = RngState(11)
    assert not np.array_equal(
        root.generator.uniform(size=16), root.fork(0).generator.uniform(size=16)
    )


def test_path_identity():
    assert RngState(5).fork(2).fork(9) == RngState(5, (2, 9))
    assert RngState(5).fork(2).fork(9) != RngState(5, (9, 2))


def test_fork_order_does_not_matter():
    """Child i's stream is a function of (seed, path), not of sibling access."""
    root = RngState(123)
    direct = root.fork(5).generator.uniform(size=8)
    for i in range(5):
        root.fork(i).generator.uniform(size=100)
    again = root.fork(5).generator.uniform(size=8)
    assert np.array_equal(direct, again)


def test_seed_bounds():
    RngState(0)
    RngState(2**64 - 1)
    with pytest.raises(ArgumentError):
        RngState(-1)
    with pytest.raises(ArgumentError):
        RngState(2**64)
    with pytest.raises(ArgumentError):
        RngState(1).fork(-1)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    path=st.lists(st.integers(min_value=0, max_value=1000), max_size=4),
)
def test_reconstructed_state_reproduces_stream(seed, path):
    state = RngState(seed)
    for idx in path:
        state = state.fork(idx)
    rebuilt = RngState(seed, tuple(path))
    assert np.array_equal(
        state.generator.uniform(size=4), rebuilt.generator.uniform(size=4)
    )


def _pool():
    from fewbench.dataset import SyntheticSpec, generate_synthetic

    return generate_synthetic(SyntheticSpec(6, 3, 4, 1.0, 1.0, seed=2))


def _spec(seed):
    from fewbench.dataset import SyntheticSpec

    return SyntheticSpec(6, 3, 4, 1.0, 1.0, seed=seed)


def _entry_points():
    """Each place a seed or fork index enters, as ``name -> call(value)``."""
    from fewbench import api, fomaml
    from fewbench.dataset import bayes_oracle_accuracy, split_classes
    from fewbench.sampler import EpisodeSpec, episode_stream

    spec = EpisodeSpec(3, 1)
    return {
        "RngState": lambda s: RngState(s),
        "RngState.fork": lambda s: RngState(1).fork(s),
        "SyntheticSpec": _spec,
        "split_classes": lambda s: split_classes(_pool(), 3, s),
        "episode_stream": lambda s: next(episode_stream(_pool(), spec, 1, s)),
        "fomaml.meta_train": lambda s: fomaml.meta_train(
            _pool(), spec, outer=fomaml.OuterConfig(epochs=1, meta_batch=1), seed=s),
        "api.meta_fit": lambda s: api.meta_fit(
            api.MethodConfig("proto"), spec, _pool(), s),
        "bayes_oracle_accuracy": lambda s: bayes_oracle_accuracy(_spec(1), spec, 2, s),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points()))
@pytest.mark.parametrize("value", [1.5, 2.0, np.float64(3.0)])
def test_float_seeds_are_refused(entry, value):
    """``int()`` would truncate 1.5 to 1 and draw seed 1's stream; every
    entry point takes Python or NumPy integers only, like ``EpisodeSpec``."""
    call = _entry_points()[entry]
    with pytest.raises(ArgumentError, match="integer"):
        call(value)
    call(np.uint8(2))   # NumPy integers pass


@pytest.mark.parametrize("entry", sorted(_entry_points()))
def test_bool_seeds_are_refused(entry):
    """A bool is an ``int`` subclass, but no seed: ``True`` would draw seed
    1's stream."""
    with pytest.raises(ArgumentError, match="integer"):
        _entry_points()[entry](True)


def test_bool_counts_are_refused():
    with pytest.raises(ArgumentError, match="^c must be an integer, got True$"):
        check_count("c", True)
    with pytest.raises(ArgumentError, match="n_train_classes must be an integer"):
        split_classes(_pool(), True, 1)
    assert not is_integer(np.True_) and is_integer(np.uint8(1)) and not is_integer(1.0)


def test_numpy_integer_seeds_draw_the_python_integer_stream():
    a = RngState(np.uint64(5)).fork(np.int32(2)).generator.uniform(size=4)
    assert np.array_equal(a, RngState(5).fork(2).generator.uniform(size=4))


@pytest.mark.parametrize("path", [(1.5,), (-1,), (True,), (2, np.float64(3.0)), (np.True_,),
                                  5, None])
def test_states_built_directly_check_their_path(path):
    """``fork``'s rule holds for a path given whole: a float is not
    truncated, a negative index is not a bare ``ValueError``, and a bool
    does not draw fork 1's stream."""
    with pytest.raises(ArgumentError, match="fork index|path"):
        RngState(1, path)


def test_states_store_python_ints():
    state = RngState(np.uint8(2), (np.int32(3), np.uint64(2**40)))
    assert type(state.seed) is int and [type(i) for i in state.path] == [int, int]
    assert state == RngState(2, (3, 2**40)) and hash(state) == hash(RngState(2, (3, 2**40)))
    assert RngState(5, [1, 2]).path == (1, 2)
    child = RngState(np.uint8(2), (np.int32(3),)).fork(np.uint64(2**40))
    assert [type(i) for i in child.path] == [int, int] and child == state


def seed_sequence_keys(rngs):
    return np.array([np.random.SeedSequence(rng.seed, spawn_key=rng.path)
                     .generate_state(2, np.uint64) for rng in rngs])


words = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), parent=st.lists(words, max_size=2),
       last=st.lists(words, min_size=1, max_size=5))
def test_key_mix_matches_seed_sequence(seed, parent, last):
    """The keys of a block of sibling states, at the path depths
    ``evaluate_learner`` (``(i,)``) and ``meta_train`` (``(1, epoch, j)``)
    use, and with words of 2**32 or more, which ask numpy instead."""
    rngs = [RngState(seed, tuple(parent) + (word,)) for word in last]
    got = _philox_keys(rngs)
    assert got.dtype == np.uint64 and np.array_equal(got, seed_sequence_keys(rngs))


def test_key_mix_of_32_bit_siblings_asks_no_seed_sequence(monkeypatch):
    for rngs in ([RngState(2**64 - 1, (1, 7, j)) for j in (0, 5, 2**32 - 1)],
                 [RngState(0).fork(j) for j in range(30)]):
        want = seed_sequence_keys(rngs)
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "SeedSequence", None)
            assert np.array_equal(_philox_keys(rngs), want)


def test_streams_draw_what_each_generator_draws():
    """Siblings, a mixed block of seeds and depths, the root state, and
    blocks of one and two states."""
    for rngs in ([RngState(4).fork(j) for j in range(5)],
                 [RngState(6, (2,))], [RngState(6, (2, 9)), RngState(6, (2, 3))],
                 [RngState(3), RngState(3).fork(1), RngState(8, (2, 2**33)), RngState(0, (1,))]):
        got = [gen.permutation(50) for gen in streams(rngs)]
        assert all(np.array_equal(a, rng.generator.permutation(50))
                   for a, rng in zip(got, rngs))
        assert len(got) == len(rngs)
