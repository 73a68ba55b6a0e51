"""Counter-based random streams.

Every stochastic routine in the package takes an :class:`RngStream`,
a (seed, stream_id) address into the Philox counter-based generator.
Identical addresses reproduce identical draws bit for bit on every
platform, and distinct stream ids are statistically independent, which
is what makes embarrassingly parallel Monte Carlo reproducible: worker
pools hand out stream ids, never generator state.  Loops over many
consecutive streams use :func:`stream_generators`, which rewinds one
generator per stream instead of building a new one.  :func:`map_streams`
is the one place that spreads a range of streams over worker processes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import numpy.random  # numpy 2 imports it on first use; RngStream always needs it

_MASK64 = (1 << 64) - 1


def _philox_key(seed: int, stream_id: int) -> np.ndarray:
    """Philox key words of the address (seed, stream_id): the 128-bit key
    (stream_id << 64) | seed, least significant word first."""
    return np.array([seed, stream_id], dtype=np.uint64)


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
        return np.random.Generator(np.random.Philox(key=_philox_key(self.seed,
                                                                    self.stream_id)))

    def child(self, k: int) -> "RngStream":
        """Derived stream, used when a routine needs several independent
        streams of its own (k is a small local index)."""
        return RngStream(self.seed, ((self.stream_id * 1_000_003) + k + 1) & _MASK64)


def stream_generators(seed: int, start: int, count: int) -> Iterator[np.random.Generator]:
    """Generators of streams start, ..., start + count - 1, in order.

    One Philox bit generator is rewound for each stream: key set to the
    stream's address, counter to 0, output buffer emptied.  Each draw is
    bit-identical to ``RngStream(seed, i).generator()``, at a fraction of
    the cost of building a new generator.  A yielded generator is valid
    only until the next one is yielded.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    RngStream(seed, start)            # both ends of the range must be valid addresses
    if count:
        RngStream(seed, start + count - 1)
    return _rewound(seed, start, count)


def _rewound(seed: int, start: int, count: int) -> Iterator[np.random.Generator]:
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for i in range(start, start + count):
        state["state"]["key"][:] = _philox_key(seed, i)
        state["state"]["counter"][:] = 0
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        bitgen.state = state
        yield gen


def map_streams(fn: Callable, seed: int, start: int, count: int, workers: int):
    """Results of streams start, ..., start + count - 1, in stream order.

    ``fn(seed, n, base_stream=s)`` returns the results of streams s ... s+n-1
    as a list or an array along axis 0.  With one process ``fn`` runs here on
    the whole range; otherwise the range is split into contiguous chunks, one
    per process, and the chunks are joined in order.  At most
    min(workers, count, cpu count) processes start.  Every stream's result is
    fixed by its id, so the output does not depend on ``workers``.
    """
    procs = min(workers, count, os.cpu_count() or 1)
    if procs <= 1:
        return fn(seed, count, base_stream=start)
    from concurrent.futures import ProcessPoolExecutor   # only a pool needs it
    edges = [start + count * j // procs for j in range(procs + 1)]
    with ProcessPoolExecutor(max_workers=procs) as ex:
        futures = [ex.submit(fn, seed, b - a, base_stream=a)
                   for a, b in zip(edges[:-1], edges[1:])]
        chunks = [f.result() for f in futures]
    if isinstance(chunks[0], np.ndarray):
        return np.concatenate(chunks)
    return [r for chunk in chunks for r in chunk]
