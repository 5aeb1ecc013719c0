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


def drawn_rows(stream, n, jobs=1):
    return np.concatenate(run_chunked(stream, n, draw_uniform, jobs=jobs))


def test_run_chunked_job_count_invariance():
    stream = RandomStream(11)
    n = 2 * CHUNK_SIZE + 137
    serial = drawn_rows(stream, n, jobs=1)
    threaded = drawn_rows(stream, n, jobs=4)
    assert serial.shape == (n, 3)
    assert np.array_equal(serial, threaded)


def test_run_chunked_prefix_property():
    # a smaller run is a prefix of a larger one on the same stream
    stream = RandomStream(23)
    small = drawn_rows(stream, CHUNK_SIZE + 10)
    large = drawn_rows(stream, 2 * CHUNK_SIZE)
    assert np.array_equal(large[: CHUNK_SIZE + 10], small)


def test_run_chunked_returns_each_chunk_result_in_order():
    """The runner keeps what each chunk returns, the very object, in chunk
    order, and draws nothing for an empty grid."""
    results = [object() for _ in range(3)]
    for jobs in (1, 2):
        got = run_chunked(RandomStream(6), 2 * CHUNK_SIZE + 5,
                          lambda sub, k: results[sub.path[-1]], jobs=jobs)
        assert len(got) == 3 and all(a is b for a, b in zip(got, results))
    assert run_chunked(RandomStream(1), 0, draw_uniform) == []


def test_run_chunked_rejects_bad_jobs():
    with pytest.raises(ValidationError):
        run_chunked(RandomStream(1), 10, draw_uniform, jobs=0)


def test_run_grids_equals_one_run_per_grid():
    """One pool over several grids gives each grid what `run_chunked`
    alone gives it, for any job count, whatever a chunk returns."""
    sizes = (2 * CHUNK_SIZE + 3, 5, 0, CHUNK_SIZE)
    grids = [(RandomStream(3, (g,)), n, draw_uniform) for g, n in enumerate(sizes)]
    alone = [run_chunked(stream, n, draw) for stream, n, draw in grids]
    for jobs in (1, 2, 3, 8):
        pooled = run_grids(grids, jobs=jobs)
        assert [len(chunks) for chunks in pooled] == [3, 1, 0, 1]
        assert all(np.array_equal(a, b) for chunks, same in zip(alone, pooled)
                   for a, b in zip(chunks, same, strict=True))

    def pair(sub, k):
        rows = draw_uniform(sub, k)
        return rows.max(axis=1), np.array([rows.shape[0]])

    (chunks,) = run_grids([(RandomStream(4), CHUNK_SIZE + 9, pair)], jobs=2)
    assert np.array_equal(np.concatenate([shares for shares, _ in chunks]),
                          drawn_rows(RandomStream(4), CHUNK_SIZE + 9).max(axis=1))
    assert [int(count[0]) for _, count in chunks] == [CHUNK_SIZE, 9]


def test_run_grids_starts_full_chunks_first():
    started = []

    def record(sub, k):
        started.append((sub.path[0], k))
        return np.zeros((k, 1))

    run_grids([(RandomStream(1, (g,)), CHUNK_SIZE + 2, record) for g in range(3)])
    assert started == [(0, CHUNK_SIZE), (1, CHUNK_SIZE), (2, CHUNK_SIZE),
                       (0, 2), (1, 2), (2, 2)]


def test_a_negative_sample_count_is_refused():
    with pytest.raises(ValidationError) as e:
        run_chunked(RandomStream(0), -1, lambda sub, k: np.zeros((k, 1)))
    assert (e.value.code, str(e.value)) == ("stream/count", "sample count must be >= 0, got -1")
