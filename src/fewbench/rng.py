"""Deterministic, forkable random streams.

The whole harness draws randomness through :class:`RngState`, a value
type identifying one substream of a counter-based generator.  A state is
(seed, path): the path is a tuple of integers fed to numpy's
``SeedSequence`` spawn key, so forking by index yields statistically
independent streams that do not depend on call order.  Episode ``i`` of a
stream therefore always sees the same draws no matter how many episodes
were generated before it, which is what makes parallel generation safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError

_MAX_SEED = 2**64

#: The types a seed, fork index or count may have: never a float, which
#: ``int()`` would silently truncate.
INTEGERS = (int, np.integer)


def check_seed(seed) -> int:
    """``seed`` as an ``int``; :class:`ArgumentError` unless it is a Python
    or NumPy integer in ``[0, 2**64)``."""
    if not (isinstance(seed, INTEGERS) and 0 <= int(seed) < _MAX_SEED):
        raise ArgumentError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an ``int``; :class:`ArgumentError` unless it is a Python
    or NumPy integer of at least ``least``."""
    if not isinstance(value, INTEGERS):
        raise ArgumentError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ArgumentError(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class RngState:
    """One deterministic substream, identified by a 64-bit seed and a fork path."""

    seed: int
    path: tuple[int, ...] = field(default=())

    def __post_init__(self):
        check_seed(self.seed)

    @property
    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this substream.

        Each access returns a new generator; consuming from one does not
        advance another.  Treat an RngState as naming a stream, not as a
        mutable cursor.
        """
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def fork(self, index: int) -> "RngState":
        """The ``index``-th child substream of this state."""
        if not isinstance(index, INTEGERS) or index < 0:
            raise ArgumentError(f"fork index must be a non-negative integer, got {index!r}")
        return RngState(self.seed, self.path + (int(index),))
