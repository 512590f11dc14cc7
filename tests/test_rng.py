"""Deterministic substream behavior of RngState."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewbench.errors import ArgumentError
from fewbench.rng import RngState


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
