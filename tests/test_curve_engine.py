"""The pooled Monte-Carlo curve engine against the sequential curves.

`atomicity_statistic`, `domination_statistic` and `phase_report` draw every
chunk of every depth on one thread pool and reduce each chunk where it is
drawn.  The oracles below are the sequential bodies that built one whole
stack per depth, kept verbatim; the engine must give the same JSON for
every job count, the same first error, and must never hold a whole stack.
"""

import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import histolim
import histolim.diagnostics as diagnostics
from histolim.diagnostics import (
    CurvePoint,
    DiagnosticCurve,
    DominationResult,
    _largest_shares,
    _mean_point,
    atomicity_statistic,
    domination_statistic,
    phase_report,
    tv_martingale_curve,
)
from histolim.errors import ValidationError
from histolim.histograms import (
    POSITIVE,
    PROBABILITY,
    Histogram,
    HistogramStack,
    PolynomialDensity,
    truncation_values,
)
from histolim.partitions import Domain, dyadic_chain
from histolim.sampling import level_drawer, sample_stack
from histolim.streams import CHUNK_SIZE, RandomStream
from histolim.systems import (
    AtomicBase,
    DiagonalCovariance,
    DirichletSystem,
    GaussianSystem,
    HomogeneousRule,
    LeakageSystem,
    LebesgueBase,
    PolyaTreeSystem,
)


def oracle_atomicity(system, chain, depths, replicates, *, seed=0, jobs=1):
    if replicates < 2:
        raise ValidationError("diagnostics/insufficient-samples",
                              "need at least 2 replicates for a standard error")
    root = RandomStream(seed, (0,))
    points = []
    for i, depth in enumerate(depths):
        stack = sample_stack(system, chain, depth, root.child(i),
                             replicates, jobs=jobs)
        points.append(_mean_point(depth, None, _largest_shares(stack.values, stack.kind)))
    return DiagnosticCurve("atomicity", tuple(points))


def oracle_domination(system, chain, depths, L_grid, replicates, *,
                      delta=0.1, seed=0, jobs=1, reference=None):
    if replicates < 2:
        raise ValidationError("diagnostics/insufficient-samples",
                              "need at least 2 replicates for a standard error")
    if any(L < 0 for L in L_grid):
        raise ValidationError("diagnostics/truncation-level",
                              f"L grid must be nonnegative, got {list(L_grid)}")
    root = RandomStream(seed, (1,))
    mean_points, tail_points, notes = [], [], []
    for i, depth in enumerate(depths):
        part = chain[depth]
        q = reference(part) if reference is not None else system.reference(part)
        stack = sample_stack(system, chain, depth, root.child(i),
                             replicates, jobs=jobs)
        dead = q.values == 0
        if np.any(dead):
            hit = int(np.count_nonzero(np.any(stack.values[:, dead] != 0, axis=0)))
            if hit:
                notes.append(f"depth {depth}: {hit} zero-reference cells "
                             "receive sample mass")
        for L in L_grid:
            excess = truncation_values(stack.values, q.values, float(L))
            mean_points.append(_mean_point(depth, float(L), excess))
            over = (excess > delta).astype(float)
            phat = float(over.mean())
            se = math.sqrt(phat * (1.0 - phat) / len(over))
            tail_points.append(CurvePoint(depth, float(L), phat, se, len(over)))
    notes = tuple(notes)
    return DominationResult(delta,
                            DiagnosticCurve("domination-mean",
                                            tuple(mean_points), notes),
                            DiagnosticCurve("domination-tail",
                                            tuple(tail_points), notes))


UNIT = dyadic_chain(depth=5)
CLOSED = dyadic_chain(Domain.unit(closed_left=True), depth=5)
LEAK = LeakageSystem(0.3, 6)


def _half_reference(partition):
    """Lebesgue mass on the right half of the cells only: the left half are
    zero-reference cells that every Dirichlet draw puts mass on."""
    values = np.full(len(partition), 2.0 / len(partition))
    values[: len(partition) // 2] = 0.0
    return Histogram(partition, values, POSITIVE)


CASES = {
    "dirichlet": (DirichletSystem(LebesgueBase()), UNIT, None),
    "dirichlet-atoms": (DirichletSystem(AtomicBase((0.2, 0.7), (1.0, 2.0))), UNIT, None),
    "polya-p0-closed-left": (PolyaTreeSystem(HomogeneousRule("m"), 0.3), CLOSED, None),
    "gaussian-signed": (GaussianSystem(DiagonalCovariance(LebesgueBase())), UNIT, None),
    "leakage": (LEAK, LEAK.chain(), None),
    "zero-reference": (DirichletSystem(LebesgueBase()), UNIT, _half_reference),
}


@pytest.mark.parametrize("replicates", [CHUNK_SIZE + 5, 1500])
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_sequential_curves(case, replicates):
    system, chain, reference = CASES[case]
    depths, L_grid = (2, 3, 5), (0.0, 1.0, 2.5)
    atom = oracle_atomicity(system, chain, depths, replicates, seed=4).to_json()
    dom = oracle_domination(system, chain, depths, L_grid, replicates, seed=4,
                            delta=0.05, reference=reference).to_json()
    if case == "zero-reference":
        assert dom["means"]["notes"], "the reference must leave hit cells"
    for jobs in (1, 2, 3):
        assert atomicity_statistic(system, chain, depths, replicates, seed=4,
                                   jobs=jobs).to_json() == atom
        assert domination_statistic(system, chain, depths, L_grid, replicates,
                                    seed=4, delta=0.05, jobs=jobs,
                                    reference=reference).to_json() == dom


@pytest.mark.parametrize("case", ["dirichlet", "polya-p0-closed-left", "gaussian-signed"])
def test_phase_report_curves_match_sequential_curves(case):
    system, chain, _ = CASES[case]
    depths, L_grid, n = (2, 4), (1.0, 20.0), CHUNK_SIZE + 5
    atom = oracle_atomicity(system, chain, depths, n, seed=9).to_json()
    dom = oracle_domination(system, chain, depths, L_grid, n, seed=9).to_json()
    for jobs in (1, 3):
        rep = phase_report(system, chain, depths=depths, replicates=n, seed=9,
                           L_grid=L_grid, jobs=jobs).to_json()
        assert rep["atomicity_curve"] == atom
        assert rep["domination_curve"] == dom["means"]
        assert rep["domination_tail_curve"] == dom["tails"]


def test_pool_threads_write_their_own_columns_of_the_results():
    """Every chunk writes its rows' results into its own columns of an array
    the calling thread owns: with more threads than cores, switching every
    microsecond, over five chunks per depth, the curves equal the oracle's."""
    system, chain, reference = CASES["zero-reference"]
    depths, L_grid, n = (2, 3), (0.0, 1.0), 4 * CHUNK_SIZE + 5
    atom = oracle_atomicity(system, chain, depths, n, seed=6).to_json()
    dom = oracle_domination(system, chain, depths, L_grid, n, seed=6,
                            reference=reference).to_json()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = diagnostics._curves(system, chain, depths, n, seed=6, jobs=6, L_grid=L_grid,
                                  reference=reference)
    finally:
        sys.setswitchinterval(interval)
    assert got[0].to_json() == atom
    assert got[1].to_json() == dom


# --- errors: the first one the sequential order raises ----------------------

def _error(call):
    with pytest.raises(ValidationError) as e:
        call()
    return e.value.code, str(e.value)


def test_missing_atom_cell_fails_at_the_first_atomicity_depth():
    polya = PolyaTreeSystem(HomogeneousRule("m^2"), 0.3)
    code, msg = _error(lambda: phase_report(polya, dyadic_chain(depth=8),
                                            replicates=1000, jobs=2))
    assert code == "sampling/atom-mass"
    assert msg.endswith("absent at level 2")


def test_negative_L_grid_fails_after_the_atomicity_curve():
    dirichlet = DirichletSystem(LebesgueBase())
    code, _ = _error(lambda: phase_report(dirichlet, UNIT, depths=(2, 3),
                                          replicates=1000, L_grid=(-1.0, 2.0)))
    assert code == "diagnostics/truncation-level"
    # the atomicity set-up comes first in the sequential order
    polya = PolyaTreeSystem(HomogeneousRule("m^2"), 0.3)
    code, _ = _error(lambda: phase_report(polya, UNIT, depths=(2, 3),
                                          replicates=1000, L_grid=(-1.0, 2.0)))
    assert code == "sampling/atom-mass"


@pytest.mark.parametrize("L_grid, delta, code", [
    ((1.0, math.nan), 0.1, "diagnostics/truncation-level"),
    ((math.inf,), 0.1, "diagnostics/truncation-level"),
    ((1.0, 2.0), math.nan, "diagnostics/delta"),
    ((1.0, 2.0), -1.0, "diagnostics/delta"),
    ((1.0, 2.0), math.inf, "diagnostics/delta"),
])
def test_non_finite_or_negative_L_and_delta_are_refused(L_grid, delta, code):
    """A NaN or infinite L would put NaN or Infinity into the report, a NaN
    delta would make every tail point 0 and a negative one every point 1."""
    dirichlet = DirichletSystem(LebesgueBase())
    for call in (lambda: phase_report(dirichlet, UNIT, depths=(2, 3), replicates=1000,
                                      L_grid=L_grid, delta=delta),
                 lambda: domination_statistic(dirichlet, UNIT, (2, 3), L_grid, 1000,
                                              delta=delta)):
        assert _error(call)[0] == code


@pytest.mark.parametrize("depths", [(-1, 3), (3, 2), (2, 2), (2, 4)])
def test_depths_that_are_not_increasing_chain_levels_are_refused(depths):
    """A negative depth indexed the chain from its end (-1 was drawn on
    level 3 and labelled -1), unsorted depths reached `classify_atomicity`,
    which reads the first point as the shallowest, and a depth past the
    chain was drawn on a level of its own; the total-variation curve read
    the chain the same way."""
    chain, leak = dyadic_chain(depth=3), LeakageSystem(0.3, 3)
    dirichlet = DirichletSystem(LebesgueBase())
    for call in (lambda: phase_report(dirichlet, chain, depths=depths, replicates=1000),
                 lambda: atomicity_statistic(dirichlet, chain, depths, 1000),
                 lambda: domination_statistic(dirichlet, chain, depths, (1.0,), 1000),
                 lambda: phase_report(leak, leak.chain(), depths=depths),
                 lambda: tv_martingale_curve(PolynomialDensity((0.0, 2.0)), chain, depths)):
        code, msg = _error(call)
        assert code == "diagnostics/depth"
        assert msg.endswith(f"got {list(depths)}")


@pytest.mark.parametrize("L_grid, delta, code", [
    ((math.nan,), math.nan, "diagnostics/truncation-level"),
    ((1.0,), math.nan, "diagnostics/delta"),
    ((1.0,), -1.0, "diagnostics/delta"),
])
def test_report_without_curves_still_checks_L_and_delta(L_grid, delta, code):
    """A leakage system has no domination verdict, so no curves are drawn;
    its L grid and delta are refused all the same, as with replicates=1."""
    for system, chain, replicates in ((LEAK, LEAK.chain(), 1000),
                                      (DirichletSystem(LebesgueBase()), UNIT, 1)):
        assert _error(lambda: phase_report(system, chain, depths=(2, 3),
                                           replicates=replicates, L_grid=L_grid,
                                           delta=delta))[0] == code


def _fake_drawer(bad_depth, rows_of, setup_fails_at=None):
    """A level drawer whose chunk j at `bad_depth` gives rows_of(j, k), with
    a set-up error at depth `setup_fails_at`."""

    def level_drawer(system, chain, depth):
        if depth == setup_fails_at:
            raise ValidationError("sampling/fake", f"set-up fails at {depth}")
        partition = chain[depth]
        cells = len(partition)

        def draw(sub, k, out):
            out[:] = rows_of(sub.path[-1], k, cells) if depth == bad_depth else 1.0 / cells
            return out

        return partition, PROBABILITY, draw

    return level_drawer


def _whole_stack_error(rows_of, n, cells):
    rows = np.concatenate([rows_of(0, CHUNK_SIZE, cells),
                           rows_of(1, n - CHUNK_SIZE, cells)])
    return _error(lambda: HistogramStack(UNIT[2], rows, PROBABILITY))


def _off_total(j, k, cells):
    rows = np.full((k, cells), 1.0 / cells)
    rows[:, 0] += np.linspace(0.0, 1e-9, k) * (j + 1)  # worst in chunk 1
    return rows


def _negative(j, k, cells):
    rows = np.full((k, cells), 1.0 / cells)
    rows[-1, :2] = (1.0 / cells - 0.5 * j - 0.3, 1.0 / cells + 0.5 * j + 0.3)  # worst in chunk 1
    return rows


def _not_finite(j, k, cells):
    rows = np.full((k, cells), 1.0 / cells)
    rows[0, 0] = np.nan if j == 1 else rows[0, 0]
    return rows


@pytest.mark.parametrize("rows_of", [_off_total, _negative, _not_finite])
def test_merged_chunk_checks_raise_the_whole_stack_error(rows_of, monkeypatch):
    """Each chunk is checked where it is drawn; the merged summary gives the
    error, and the text, of validating the whole stack at once, ahead of a
    set-up error at a later depth."""
    n = CHUNK_SIZE + 5
    expected = _whole_stack_error(rows_of, n, len(UNIT[2]))
    monkeypatch.setattr(diagnostics, "level_drawer",
                        _fake_drawer(2, rows_of, setup_fails_at=3))
    system = DirichletSystem(LebesgueBase())
    for jobs in (1, 2):
        assert _error(lambda: phase_report(system, UNIT, depths=(2, 3),
                                           replicates=n, jobs=jobs)) == expected
    # a bad chunk in the domination curve still comes after the atomicity set-up
    code, _ = _error(lambda: domination_statistic(system, UNIT, (2,), (1.0,), n))
    assert code == expected[0]


def test_setup_error_comes_after_valid_draws(monkeypatch):
    monkeypatch.setattr(diagnostics, "level_drawer",
                        _fake_drawer(None, None, setup_fails_at=3))
    system = DirichletSystem(LebesgueBase())
    code, msg = _error(lambda: phase_report(system, UNIT, depths=(2, 3),
                                            replicates=1000, jobs=2))
    assert (code, msg) == ("sampling/fake", "set-up fails at 3")


def test_zero_reference_hits_merge_over_chunks(monkeypatch):
    """A zero-reference cell that only a later chunk puts mass on is still
    reported, as the whole-stack scan reports it."""
    import histolim.sampling as sampling

    def level_drawer(system, chain, depth):
        partition = chain[depth]
        cells = len(partition)

        def draw(sub, k, out):
            out[:] = 1.0 / (cells - 1)
            out[:, sub.path[-1]] = 0.0  # chunk j leaves cell j empty
            return out

        return partition, PROBABILITY, draw

    def reference(partition):
        values = np.full(len(partition), 1.0 / (len(partition) - 2))
        values[:2] = 0.0
        return Histogram(partition, values, POSITIVE)

    for module in (diagnostics, sampling):
        monkeypatch.setattr(module, "level_drawer", level_drawer)
    n, system = CHUNK_SIZE + 5, DirichletSystem(LebesgueBase())
    expected = oracle_domination(system, UNIT, (2, 3), (1.0,), n,
                                 reference=reference).to_json()
    assert expected["means"]["notes"] == [
        "depth 2: 2 zero-reference cells receive sample mass",
        "depth 3: 2 zero-reference cells receive sample mass"]
    for jobs in (1, 2):
        assert domination_statistic(system, UNIT, (2, 3), (1.0,), n, jobs=jobs,
                                    reference=reference).to_json() == expected


# --- the chunk reducer works a block of rows at a time ----------------------

BLOCK_CHAIN = dyadic_chain(depth=6)
BLOCK = diagnostics._BLOCK_CELLS // len(BLOCK_CHAIN[6])


def _whole_chunk(rows, kind, q, L_grid):
    """The chunk's reduction in one pass over all its rows, as it was
    written before the rows were blocked."""
    with np.errstate(all="ignore"):
        off = np.abs(rows.sum(axis=1) - 1.0).max() if kind == PROBABILITY else 0.0
        summary = [np.isfinite(rows).all(), rows.min(), off]
        if q is None:
            if kind == PROBABILITY:
                return summary + [rows.max(axis=1)]
            absval = np.abs(rows)
            totals = absval.sum(axis=1)
            shares = np.zeros(len(absval))
            live = totals > 0
            shares[live] = absval[live].max(axis=1) / totals[live]
            return summary + [shares]
        hit = np.any(rows[:, q == 0] != 0, axis=0)
        return summary + [hit] + [np.clip(rows - float(L) * q, 0.0, None).sum(axis=-1)
                                  for L in L_grid]


@functools.lru_cache(maxsize=None)
def _drawn(case):
    """(kind, one full chunk of rows, reference values) at depth 6."""
    systems = {
        "dirichlet-lebesgue": DirichletSystem(LebesgueBase()),
        # two charged cells of 64, with Gammas of shape 1e-3 that both
        # underflow in about 23% of the rows: the categorical fallback
        "dirichlet-dead-rows": DirichletSystem(AtomicBase((0.2, 0.9), (1e-3, 1e-3))),
        "atoms-reference": DirichletSystem(LebesgueBase()),
        "gaussian-diagonal": GaussianSystem(DiagonalCovariance(LebesgueBase())),
        "signed-zero-rows": GaussianSystem(DiagonalCovariance(LebesgueBase())),
    }
    system = systems[case]
    partition, kind, draw = level_drawer(system, BLOCK_CHAIN, 6)
    rows = draw(RandomStream(3), CHUNK_SIZE, np.empty((CHUNK_SIZE, len(partition))))
    if case == "atoms-reference":  # q is zero in 62 of the 64 cells
        system = DirichletSystem(AtomicBase((0.2, 0.7), (1.0, 2.0)))
    if case == "signed-zero-rows":
        rows[::3] = 0.0
    return kind, rows, system.reference(partition).values


@pytest.mark.parametrize("k", [1, BLOCK - 1, BLOCK, BLOCK + 1, 1808, CHUNK_SIZE])
@pytest.mark.parametrize("case", ["dirichlet-lebesgue", "dirichlet-dead-rows", "atoms-reference",
                                  "gaussian-diagonal", "signed-zero-rows"])
def test_block_reducer_gives_the_whole_chunk_bits(case, k):
    kind, chunk, q = _drawn(case)
    rows, L_grid = chunk[:k], (0.0, 1.0, 2.5)
    for ref in (None, q):
        results = np.empty((k,) if ref is None else (len(L_grid), k))
        reduce = diagnostics._chunk_reducer(lambda sub, n, out: rows.copy(), kind, ref, L_grid,
                                            lambda n: None, lambda sub: results)
        finite, low, off, hits = zip(*reduce(RandomStream(0), k))
        got = [all(finite), np.min(low), np.max(off)]
        got += [results] if ref is None else [np.any(hits, axis=0), *results]
        want = _whole_chunk(rows, kind, ref, L_grid)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(np.asarray(g, float)),
                                  np.signbit(np.asarray(w, float)))


# --- memory -----------------------------------------------------------------

@pytest.mark.parametrize("system, bound", [
    (DirichletSystem(LebesgueBase()), 1.5),
    (GaussianSystem(DiagonalCovariance(LebesgueBase())), 1.5),
    (PolyaTreeSystem(HomogeneousRule("m**2")), 1.5),
], ids=lambda v: type(v).__name__ if not isinstance(v, float) else None)
def test_one_chunk_curves_hold_little_beside_the_chunk(system, bound):
    """A chunk is reduced in blocks of rows, so its temporaries are a
    block's, not the chunk's: the traced peak of one-chunk curves stays near
    the chunk (about 3x when the excess, its clip and the absolute values
    were whole-chunk arrays).  A Polya tree draws each level's Beta pair in
    blocks of rows too (1.33x; 2.14x when it held its last level's two
    half-chunk Gamma arrays)."""
    chunk_bytes = CHUNK_SIZE * len(BLOCK_CHAIN[6]) * 8
    args = dict(seed=0, jobs=1, L_grid=(1.0, 2.0))
    diagnostics._curves(system, BLOCK_CHAIN, (6,), 100, **args)  # warm caches
    tracemalloc.start()
    try:
        diagnostics._curves(system, BLOCK_CHAIN, (6,), CHUNK_SIZE, **args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * chunk_bytes, f"{peak / chunk_bytes:.2f}x the chunk"


def test_phase_report_never_holds_a_whole_stack():
    chain = dyadic_chain(depth=7)
    n = 6 * CHUNK_SIZE
    stack_bytes = n * len(chain[7]) * 8
    system = DirichletSystem(LebesgueBase())
    phase_report(system, chain, depths=(7,), replicates=1000)  # warm caches
    tracemalloc.start()
    try:
        phase_report(system, chain, depths=(7,), replicates=n, jobs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("case", ["dirichlet", "dirichlet-atoms", "polya-p0-closed-left",
                                  "gaussian-signed", "zero-reference"])
def test_curves_never_read_the_draw_buffer_after_their_chunk(case, monkeypatch):
    """Every chunk is drawn into its thread's one buffer, which the next
    chunk overwrites: filling the rows with NaN as soon as a chunk is
    reduced leaves every curve as it was, so nothing a chunk returns is a
    view of them, and every draw writes all of its rows."""
    system, chain, reference = CASES[case]
    depths, L_grid, n = (2, 5), (0.0, 1.0), CHUNK_SIZE + 5
    atom = oracle_atomicity(system, chain, depths, n, seed=2).to_json()
    dom = oracle_domination(system, chain, depths, L_grid, n, seed=2,
                            reference=reference).to_json()
    reducer = diagnostics._chunk_reducer

    def wiping_reducer(draw, kind, q, L_grid, rows_for, out_for):
        reduce = reducer(draw, kind, q, L_grid, rows_for, out_for)

        def wiped(sub, k):
            out = reduce(sub, k)
            rows_for(k).fill(np.nan)
            return out

        return wiped

    monkeypatch.setattr(diagnostics, "_chunk_reducer", wiping_reducer)
    for jobs in (1, 2):
        assert atomicity_statistic(system, chain, depths, n, seed=2,
                                   jobs=jobs).to_json() == atom
        assert domination_statistic(system, chain, depths, L_grid, n, seed=2, jobs=jobs,
                                    reference=reference).to_json() == dom


_RSS_SCRIPT = """
import contextlib, io, json, sys
import histolim.cli

def status():
    fields = dict(line.split(":", 1) for line in open("/proc/self/status"))
    return {key: int(fields[key].split()[0]) / 1024 for key in ("VmRSS", "VmHWM")}

before = status()["VmRSS"]
with contextlib.redirect_stdout(io.StringIO()):
    code = histolim.cli.main(sys.argv[1:])
after = status()
print(json.dumps({"code": code, "kept": after["VmRSS"] - before,
                  "peak": after["VmHWM"] - before}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("system", [
    {"family": "dirichlet", "base": {"type": "lebesgue"}},
    {"family": "polya", "beta": {"rule": "homogeneous", "expr": "m**2"}},
    {"family": "gaussian", "covariance": {"variant": "diagonal", "sigma2": {"type": "lebesgue"}}},
], ids=["dirichlet", "polya", "gaussian_diagonal"])
def test_diagnose_hands_its_draw_buffers_back(system, tmp_path):
    """`diagnose` at depth 8, N = 10^4 on two threads, in a fresh process:
    each thread draws into one 16.8 MB buffer, freed when the call returns,
    and writes its rows' results into arrays the calling thread owns, so
    the resident memory it adds to the imported CLI (10.1-10.5 MB) is
    mostly what it loads: numpy.random's extension modules and libcrypto,
    through `secrets` (about 5 MB), and the `diagnostics`, `conditions` and
    `concurrent.futures` modules.  When the workers allocated each block's
    results, the pages those pinned in their malloc arenas took it to
    13-14 MB; with a fresh array per chunk, the threads' allocators kept
    29-41 MB after Dirichlet.  The peak stays near the two buffers
    (36-46 MB); a Polya tree's last-level Gamma arrays once took it to
    61-64 MB."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    src = str(Path(histolim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT, "diagnose", "--system", str(path),
         "--N", "10000", "--depths", "2,3,4,5,6,7,8", "--seed", "0", "--jobs", "2"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    assert report["kept"] < 12, report
    assert report["peak"] < 52, report
