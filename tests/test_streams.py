"""Seeded streams: reproducibility, chunk grid, job independence."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from histolim.errors import ValidationError
from histolim.streams import (
    CHUNK_SIZE,
    RandomStream,
    chunk_ranges,
    run_chunked,
    run_grids,
)


def test_same_seed_same_bytes():
    a = RandomStream(17).generator().random(32)
    b = RandomStream(17).generator().random(32)
    assert np.array_equal(a, b)


def test_children_are_independent_streams():
    root = RandomStream(3)
    x = root.child(0).generator().random(1000)
    y = root.child(1).generator().random(1000)
    assert not np.array_equal(x, y)
    # child path composes
    assert root.child(0, 5).path == (0, 5)
    assert root.child(0).child(5).path == (0, 5)


def test_seed_validation():
    with pytest.raises(ValidationError):
        RandomStream(-1)
    with pytest.raises(ValidationError):
        RandomStream(2, (1, -3))
    # numpy integers are accepted and normalized
    s = RandomStream(np.int64(4), (np.int64(1),))
    assert s.path == (1,)


@given(st.integers(0, 40_000))
def test_chunk_ranges_cover_exactly(n):
    spans = list(chunk_ranges(n))
    assert sum(stop - start for _, start, stop in spans) == n
    if spans:
        assert spans[0][1] == 0 and spans[-1][2] == n
        assert all(s[2] == t[1] for s, t in zip(spans, spans[1:]))
        assert [j for j, *_ in spans] == list(range(len(spans)))


def draw_uniform(sub, k):
    return sub.generator().random((k, 3))


def test_run_chunked_job_count_invariance():
    stream = RandomStream(11)
    n = 2 * CHUNK_SIZE + 137
    serial = run_chunked(stream, n, draw_uniform, jobs=1)
    threaded = run_chunked(stream, n, draw_uniform, jobs=4)
    assert serial.shape == (n, 3)
    assert np.array_equal(serial, threaded)


def test_run_chunked_prefix_property():
    # a smaller run is a prefix of a larger one on the same stream
    stream = RandomStream(23)
    small = run_chunked(stream, CHUNK_SIZE + 10, draw_uniform)
    large = run_chunked(stream, 2 * CHUNK_SIZE, draw_uniform)
    assert np.array_equal(large[: CHUNK_SIZE + 10], small)


def test_run_chunked_zero_rows():
    out = run_chunked(RandomStream(1), 0, draw_uniform)
    assert out.shape == (0, 3)


def test_run_chunked_fills_the_given_array():
    """Rows land in `out`; a one-chunk grid is the drawn chunk itself."""
    n = 2 * CHUNK_SIZE + 5
    out = np.empty((n, 3))
    for jobs in (1, 2):
        assert run_chunked(RandomStream(6), n, draw_uniform, jobs=jobs, out=out) is out
        assert np.array_equal(out, run_chunked(RandomStream(6), n, draw_uniform))
    chunk = np.zeros((4, 2))
    assert run_chunked(RandomStream(6), 4, lambda sub, k: chunk) is chunk


def test_run_chunked_rejects_bad_jobs():
    with pytest.raises(ValidationError):
        run_chunked(RandomStream(1), 10, draw_uniform, jobs=0)


def test_run_grids_equals_one_run_per_grid():
    """One pool over several grids gives each grid what `run_chunked`
    alone gives it, for any job count; tuple results concatenate field by
    field."""
    sizes = (2 * CHUNK_SIZE + 3, 5, 0, CHUNK_SIZE)
    grids = [(RandomStream(3, (g,)), n, draw_uniform) for g, n in enumerate(sizes)]
    alone = [run_chunked(stream, n, draw) for stream, n, draw in grids]
    for jobs in (1, 2, 3, 8):
        pooled = run_grids(grids, jobs=jobs)
        assert all(np.array_equal(a, b) for a, b in zip(alone, pooled))

    def pair(sub, k):
        rows = draw_uniform(sub, k)
        return rows.max(axis=1), np.array([rows.shape[0]])

    (shares, counts), = run_grids([(RandomStream(4), CHUNK_SIZE + 9, pair)], jobs=2)
    assert np.array_equal(shares, run_chunked(RandomStream(4), CHUNK_SIZE + 9,
                                              draw_uniform).max(axis=1))
    assert counts.tolist() == [CHUNK_SIZE, 9]


def test_run_grids_starts_full_chunks_first():
    started = []

    def record(sub, k):
        started.append((sub.path[0], k))
        return np.zeros((k, 1))

    run_grids([(RandomStream(1, (g,)), CHUNK_SIZE + 2, record) for g in range(3)])
    assert started == [(0, CHUNK_SIZE), (1, CHUNK_SIZE), (2, CHUNK_SIZE),
                       (0, 2), (1, 2), (2, 2)]
