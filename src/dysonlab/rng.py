"""Counter-based random streams.

Every stochastic routine in the package takes an :class:`RngStream`,
a (seed, stream_id) address into the Philox counter-based generator.
Identical addresses reproduce identical draws bit for bit on every
platform, and distinct stream ids are statistically independent, which
is what makes embarrassingly parallel Monte Carlo reproducible: worker
pools hand out stream ids, never generator state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Address of one reproducible random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= self.stream_id <= _MASK64:
            raise ValueError("stream_id must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = (self.stream_id << 64) | self.seed
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, k: int) -> "RngStream":
        """Derived stream, used when a routine needs several independent
        streams of its own (k is a small local index)."""
        return RngStream(self.seed, ((self.stream_id * 1_000_003) + k + 1) & _MASK64)
