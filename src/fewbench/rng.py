"""Deterministic, forkable random streams.

The whole harness draws randomness through :class:`RngState`, a value
type identifying one substream of a counter-based generator.  A state is
(seed, path): the path is a tuple of integers fed to numpy's
``SeedSequence`` spawn key, so forking by index yields statistically
independent streams that do not depend on call order.  Episode ``i`` of a
stream therefore always sees the same draws no matter how many episodes
were generated before it, which is what makes parallel generation safe.

A stream is a Philox generator whose counter starts at 0, so its 128-bit
key alone names it (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011).  :func:`streams` walks many states with the first
state's generator, resetting its key and counter for each later state
instead of building a ``SeedSequence``, a ``Philox`` and a ``Generator``
per state.  When two states or more share a seed and all but the last
word of their path, their keys come from one vectorised pass of numpy's
``SeedSequence`` mix, whose work up to the last path word is cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import ArgumentError

_MAX_SEED = 2**64


def is_integer(value) -> bool:
    """Whether ``value`` may serve as a seed, fork index or count: a Python
    or NumPy integer, never a float, which ``int()`` would silently
    truncate, nor a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed) -> int:
    """``seed`` as an ``int``; :class:`ArgumentError` unless it is an
    integer (see :func:`is_integer`) in ``[0, 2**64)``."""
    if not (is_integer(seed) and 0 <= int(seed) < _MAX_SEED):
        raise ArgumentError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an ``int``; :class:`ArgumentError` unless it is an
    integer (see :func:`is_integer`) of at least ``least``."""
    if not is_integer(value):
        raise ArgumentError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ArgumentError(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class RngState:
    """One deterministic substream, identified by a 64-bit seed and a fork
    path of non-negative integers, checked (the seed by :func:`check_seed`,
    each path entry as :meth:`fork` checks an index) and stored as Python
    ints when the state is built."""

    seed: int
    path: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        try:
            path = tuple(self.path)
        except TypeError:
            raise ArgumentError(f"path must be a sequence of fork indices, "
                                f"got {self.path!r}") from None
        for index in path:
            if not is_integer(index) or index < 0:
                raise ArgumentError(f"fork index must be a non-negative integer, got {index!r}")
        object.__setattr__(self, "path", tuple(map(int, path)))

    @property
    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this substream.

        Each access returns a new generator; consuming from one does not
        advance another.  Treat an RngState as naming a stream, not as a
        mutable cursor.
        """
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def fork(self, index: int) -> "RngState":
        """The ``index``-th child substream of this state."""
        if not is_integer(index) or index < 0:
            raise ArgumentError(f"fork index must be a non-negative integer, got {index!r}")
        # this state's fields are checked already: only the new index is
        child = object.__new__(RngState)
        object.__setattr__(child, "seed", self.seed)
        object.__setattr__(child, "path", self.path + (int(index),))
        return child


def streams(rngs: Sequence[RngState]) -> Iterator[np.random.Generator]:
    """For each state of ``rngs`` in order, a generator at the start of its
    substream, drawing what ``state.generator`` would draw.

    Every item is the first state's generator, reset to the next state's
    key and a zero counter, so finish drawing from one item before taking
    the next.
    """
    gen = rngs[0].generator
    bits = gen.bit_generator
    start = bits.state   # counter 0, buffer spent, no 32-bit half kept
    yield gen
    for key in _philox_keys(rngs[1:]):
        start["state"]["key"] = key
        bits.state = start
        yield gen


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _hash(value, const_in, const_out):
    """SeedSequence's hash of the 32-bit words ``value`` between two hash
    constants: Python ints, or uint32 arrays, which wrap as the C code
    does."""
    value = (value ^ const_in) * const_out & _WORD
    return value ^ value >> 16


def _hash_run(const: int, mult: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants before and after each of four hashes that start
    at ``const``."""
    run = [const]
    for _ in range(4):
        run.append(run[-1] * mult & _WORD)
    return np.array(run[:-1], dtype=np.uint32), np.array(run[1:], dtype=np.uint32)


_STATE_HASH = _hash_run(_INIT_B, _MULT_B)  # generate_state's, for four words


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words (or arrays of them)."""
    out = (_MIX_L * x - _MIX_R * y) & _WORD
    return out ^ out >> 16


@lru_cache(maxsize=256)
def _pool_before_last(seed: int, parent: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The entropy pool of ``SeedSequence(seed, spawn_key=parent + (w,))``
    before its last spawn word ``w`` is mixed in, and the hash constants
    that mixing ``w`` into each of the pool's four words uses.

    The entropy is the seed's two 32-bit words, padded with zeros to the
    pool's four, then ``parent``'s words, each below ``2**32``."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        const, before = const * _MULT_A & _WORD, const
        return _hash(value, before, const)

    pool = [hashmix(word) for word in (seed & _WORD, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in parent:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    arrays = np.array(pool, dtype=np.uint32), *_hash_run(const, _MULT_A)
    for a in arrays:
        a.flags.writeable = False   # shared by every caller of the cache
    return arrays


def _philox_keys(rngs: Sequence[RngState]) -> np.ndarray:
    """The Philox key of each state, ``(len(rngs), 2)`` uint64: what
    ``SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)``
    gives.

    When there are two states or more, they share a seed and a parent
    path, and every path word is below ``2**32`` so it is one 32-bit word
    of entropy, only the last word differs from state to state: the mix up
    to it is cached, and the last word is mixed into the four pool words
    of all states at once.  Other blocks ask numpy for each key, which is
    faster for one state.
    """
    if len(rngs) > 1:
        seed, parent = rngs[0].seed, rngs[0].path[:-1]
        last = [rng.path[-1] for rng in rngs
                if rng.path and rng.seed == seed and rng.path[:-1] == parent]
        if len(last) == len(rngs) and max(parent + tuple(last)) <= _WORD:
            pool, before, after = _pool_before_last(seed, parent)
            words = np.array(last, dtype=np.uint32)[:, None]
            pool = _mix(pool, _hash(words, before, after))  # (E, 4)
            # four little-endian 32-bit words make two 64-bit ones, as in numpy
            out = _hash(pool, *_STATE_HASH).astype("<u4", copy=False)
            return out.view("<u8").astype(np.uint64, copy=False)
    return np.array([np.random.SeedSequence(rng.seed, spawn_key=rng.path)
                     .generate_state(2, np.uint64) for rng in rngs]).reshape(-1, 2)
