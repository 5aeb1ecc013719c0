"""Deterministic random streams with parallel-safe chunking.

Every random draw in the library goes through a `RandomStream`, which is a
root seed plus a path of nonnegative integers.  The path is spawned through
numpy's `SeedSequence` spawn keys, so distinct paths give independent
generators and the same (seed, path) always gives the same bytes — no global
state, no order dependence.

Sampling n replicates is split into fixed chunks of `CHUNK_SIZE`; chunk j of
a stream uses sub-path (path..., j).  Because the chunk grid never moves,
results are byte-identical whether the chunks run serially or on any number
of worker threads, and a prefix of a larger run equals the smaller run.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import ValidationError

CHUNK_SIZE = 8192


@dataclass(frozen=True)
class RandomStream:
    seed: int
    path: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError("stream/seed", f"seed must be a nonnegative integer, got {self.seed!r}")
        if any((not isinstance(p, (int, np.integer))) or p < 0 for p in self.path):
            raise ValidationError("stream/path", f"path entries must be nonnegative integers: {self.path!r}")
        object.__setattr__(self, "path", tuple(int(p) for p in self.path))

    def child(self, *steps: int) -> "RandomStream":
        return RandomStream(self.seed, self.path + tuple(steps))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.path))


def chunk_ranges(n: int, chunk_size: int = CHUNK_SIZE) -> Iterator[tuple[int, int, int]]:
    """Yield (chunk_index, start, stop) covering range(n) in fixed chunks."""
    if n < 0:
        raise ValidationError("stream/count", f"sample count must be >= 0, got {n}")
    j = 0
    start = 0
    while start < n:
        stop = min(start + chunk_size, n)
        yield j, start, stop
        j += 1
        start = stop


def run_chunked(stream: RandomStream, n: int,
                draw: Callable[[RandomStream, int], np.ndarray],
                *, jobs: int = 1, chunk_size: int = CHUNK_SIZE) -> np.ndarray:
    """Evaluate draw(stream.child(j), chunk_len) over the fixed chunk grid.

    `draw` receives the substream for chunk j and the number of rows to
    produce; rows are concatenated in chunk order.  The result does not
    depend on `jobs`.
    """
    chunks = list(chunk_ranges(n, chunk_size))
    if not chunks:
        probe = draw(stream.child(0), 0)
        return probe
    if jobs < 1:
        raise ValidationError("stream/jobs", f"jobs must be >= 1, got {jobs}")

    def one(args):
        j, start, stop = args
        return draw(stream.child(j), stop - start)

    if jobs == 1 or len(chunks) == 1:
        parts = [one(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(one, chunks))
    return np.concatenate(parts, axis=0)
