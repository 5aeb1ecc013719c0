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
from typing import Callable, Iterator, Sequence

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


def chunk_ranges(n: int) -> Iterator[tuple[int, int, int]]:
    """Yield (chunk_index, start, stop) covering range(n) in chunks of
    `CHUNK_SIZE`."""
    if n < 0:
        raise ValidationError("stream/count", f"sample count must be >= 0, got {n}")
    j = 0
    start = 0
    while start < n:
        stop = min(start + CHUNK_SIZE, n)
        yield j, start, stop
        j += 1
        start = stop


def run_grids(grids: Sequence[tuple[RandomStream, int, Callable]], *,
              jobs: int = 1, outs: Sequence | None = None) -> list:
    """Evaluate the chunks of several grids on one pool of `jobs` threads.

    Grid g is ``(stream, n, draw)``: ``draw(stream.child(j), chunk_len)``
    is called on every chunk j of the fixed grid over range(n), or once
    with 0 rows when n is 0, to give the result its shape.  Chunk j of every
    grid is started before chunk j + 1 of any, so full chunks go first and
    workers that draw for different grids stay busy together.  A chunk
    returns an array, copied as it completes into its rows of one (n, ...)
    array (``outs[g]`` if given, the chunk itself if it is the whole grid),
    or a tuple of arrays, concatenated field by field; either way in chunk
    order, so nothing depends on `jobs`.
    """
    tasks = []
    for g, (stream, n, _) in enumerate(grids):
        ranges = list(chunk_ranges(n)) or [(0, 0, 0)]
        tasks.extend((j, g, start, stop) for j, start, stop in ranges)
    if jobs < 1:
        raise ValidationError("stream/jobs", f"jobs must be >= 1, got {jobs}")
    tasks.sort(key=lambda task: task[0])  # stable: grid order within a chunk index
    results = list(outs or [None] * len(grids))
    parts: list[list] = [[] for _ in grids]

    def one(task):
        j, g, start, stop = task
        stream, _, draw = grids[g]
        return draw(stream.child(j), stop - start)

    def collect(done):
        for (_, g, start, stop), part in zip(tasks, done):
            if isinstance(part, tuple):
                parts[g].append(part)
                continue
            n = grids[g][1]
            if results[g] is None:
                results[g] = (part if stop - start == n
                              else np.empty((n, *part.shape[1:]), part.dtype))
            results[g][start:stop] = part  # a no-op where part is that very slice

    if jobs == 1 or len(tasks) <= 1:
        collect(map(one, tasks))
    else:
        from concurrent.futures import ThreadPoolExecutor  # loads logging and threading

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            collect(pool.map(one, tasks))
    return [tuple(np.concatenate(field, axis=0) for field in zip(*p)) if p else r
            for p, r in zip(parts, results)]


def run_chunked(stream: RandomStream, n: int,
                draw: Callable[[RandomStream, int], np.ndarray],
                *, jobs: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate draw(stream.child(j), chunk_len) over the fixed chunk grid:
    the one-grid case of `run_grids`, its rows landing in `out` if given."""
    return run_grids([(stream, n, draw)], jobs=jobs, outs=[out])[0]
