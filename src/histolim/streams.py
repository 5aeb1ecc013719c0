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

from dataclasses import dataclass, field
from typing import Callable, Sequence

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


def chunk_ranges(n: int) -> list[tuple[int, int, int]]:
    """(chunk_index, start, stop) covering range(n) in chunks of `CHUNK_SIZE`."""
    if n < 0:
        raise ValidationError("stream/count", f"sample count must be >= 0, got {n}")
    return [(j, a, min(a + CHUNK_SIZE, n)) for j, a in enumerate(range(0, n, CHUNK_SIZE))]


def run_grids(grids: Sequence[tuple[RandomStream, int, Callable]], *,
              jobs: int = 1) -> list[list]:
    """Evaluate the chunks of several grids on one pool of `jobs` threads.

    Grid g is ``(stream, n, draw)``: ``draw(stream.child(j), chunk_len)``
    is called on every chunk j of the fixed grid over range(n).  Chunk j of
    every grid is started before chunk j + 1 of any, so full chunks go first
    and workers that draw for different grids stay busy together.  Grid g's
    entry of the result is the list of what its chunks returned, in chunk
    order, so nothing depends on `jobs`.  Nothing is copied or joined: a
    draw fills rows its caller owns.
    """
    tasks = [(j, g, stop - start) for g, (_, n, _) in enumerate(grids)
             for j, start, stop in chunk_ranges(n)]
    if jobs < 1:
        raise ValidationError("stream/jobs", f"jobs must be >= 1, got {jobs}")
    tasks.sort(key=lambda task: task[0])  # stable: grid order within a chunk index

    def one(task):
        j, g, k = task
        stream, _, draw = grids[g]
        return draw(stream.child(j), k)

    if jobs == 1 or len(tasks) <= 1:
        done = list(map(one, tasks))
    else:
        from concurrent.futures import ThreadPoolExecutor  # loads logging and threading

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(one, tasks))
    return [[part for (_, h, _), part in zip(tasks, done) if h == g] for g in range(len(grids))]


def run_chunked(stream: RandomStream, n: int, draw: Callable[[RandomStream, int], object],
                *, jobs: int = 1) -> list:
    """The one-grid case of `run_grids`: what draw(stream.child(j),
    chunk_len) returns for each chunk j, in chunk order."""
    return run_grids([(stream, n, draw)], jobs=jobs)[0]
