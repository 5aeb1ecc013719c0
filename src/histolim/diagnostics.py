"""Monte-Carlo phase diagnostics.

Sampling-based evidence about a histogram family: does projecting finer
samples reproduce coarser ones (coherence), does the largest cell mass
plateau or vanish (atomicity), is the excess over a scaled reference small
(domination), and how fast do fixed-density histograms converge.  The
aggregated phase report combines these curves with the exact condition
verdicts; the declared phase always comes from verdicts plus the
complete-randomness flag, never from the Monte-Carlo curves alone — the
curves corroborate or veto only the atomic sub-label.

Every curve carries standard errors, and every pass/fail rule is expressed
in standard-error units rather than raw tolerances.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .conditions import (
    FAILS,
    HOLDS,
    MATRIX_DEPTH,
    PRODUCT_DEPTH,
    SUFFICIENT_CONDITION_FAILS,
    Verdict,
    dirichlet_condition,
    dirichlet_weak_condition,
    gaussian_conditions,
    leakage_counterexample,
    polya_leakage_condition,
    polya_tight_condition,
    polya_weak_condition,
)
from .errors import HistolimError, NumericError, ValidationError
from .histograms import (
    PROBABILITY,
    POSITIVE,
    Density,
    Histogram,
    PiecewiseDensity,
    PolynomialDensity,
    _abs_polynomial_integral,
    _adaptive_simpson,
    _positions_in,
    _step_on_cell,
    check_summary,
    project_values,
    truncation_values,
    value_summary,
)
from .partitions import Partition, PartitionChain, max_depth
from .sampling import _BLOCK_CELLS, level_drawer, sample_stack
from .streams import CHUNK_SIZE, RandomStream, chunk_ranges, run_grids
from .systems import (
    DirichletSystem,
    GaussianSystem,
    HistogramSystem,
    PolyaTreeSystem,
    Record,
)

Z_THRESHOLD = 4.0
MIN_STATISTICAL_SAMPLES = 1_000
#: default replicates per depth of the Monte-Carlo curves
DEFAULT_CURVE_SAMPLES = 10_000

PHASES = ("absolutely-continuous", "fixed-atomic", "continuous-singular",
          "random-atomic", "inconclusive")


# ---------------------------------------------------------------------------
# coherence

@dataclass(frozen=True)
class CoherenceRun(Record):
    """One seeded comparison of projected fine samples vs direct coarse
    samples; z-scores are per coarse cell."""

    seed: int
    passed: bool
    max_abs_z: float
    first_moment_z: tuple[float, ...]
    second_moment_z: tuple[float, ...]


@dataclass(frozen=True)
class CoherenceResult(Record):
    levels: tuple[int, int]
    replicates: int
    threshold: float
    runs: tuple[CoherenceRun, ...]
    passed: bool  # majority over the logged runs


def _two_sample_z(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    diff = x.mean(axis=0) - y.mean(axis=0)
    denom = np.sqrt(x.var(axis=0, ddof=1) / n + y.var(axis=0, ddof=1) / n)
    z = np.zeros_like(diff)
    live = denom > 0
    np.divide(diff, denom, out=z, where=live)
    # both sides degenerate: equal means pass (z=0), unequal fail hard
    z[~live & (diff != 0)] = np.inf
    return z


def coherence_test(system: HistogramSystem, chain: PartitionChain,
                   levels: tuple[int, int], replicates: int, *,
                   seed: int = 0, jobs: int = 1,
                   sampler: Optional[Callable] = None) -> CoherenceResult:
    """Two-sample moment comparison of project(fine) against direct coarse.

    The two sides draw from independent substreams, so the z-scores follow
    the usual two-sample calibration; a shared stream would make the
    comparison vacuous for samplers that replay their coarse draws inside
    the fine ones.  Three seeds are run and logged, and the verdict is the
    majority, which guards against the ~per-mille chance of a stray 4-sigma
    cell in an honest family.

    ``sampler`` (same signature as `sample_stack`) substitutes the draw —
    the hook that lets tests inject a deliberately incoherent sampler and
    confirm the z-scores catch it.
    """
    if replicates < MIN_STATISTICAL_SAMPLES:
        raise ValidationError("diagnostics/insufficient-samples",
                              f"need at least {MIN_STATISTICAL_SAMPLES} replicates, "
                              f"got {replicates}")
    check_depths(levels, chain, "diagnostics/levels")
    coarse, fine = levels
    rmap = chain.refinement(coarse, fine)
    draw = sample_stack if sampler is None else sampler
    runs = []
    for k in range(3):
        root = RandomStream(seed + k)
        fine_stack = draw(system, chain, fine, root.child(0),
                          replicates, jobs=jobs)
        coarse_stack = draw(system, chain, coarse, root.child(1),
                            replicates, jobs=jobs)
        projected = project_values(fine_stack.values, rmap)
        z1 = _two_sample_z(projected, coarse_stack.values)
        z2 = _two_sample_z(projected ** 2, coarse_stack.values ** 2)
        top = float(max(np.abs(z1).max(), np.abs(z2).max()))
        runs.append(CoherenceRun(seed + k, top < Z_THRESHOLD, top,
                                 tuple(float(v) for v in z1),
                                 tuple(float(v) for v in z2)))
    passing = sum(r.passed for r in runs)
    return CoherenceResult((coarse, fine), replicates, Z_THRESHOLD,
                           tuple(runs), passing * 2 > len(runs))


# ---------------------------------------------------------------------------
# Monte-Carlo curves

@dataclass(frozen=True)
class CurvePoint(Record):
    depth: int
    L: Optional[float]
    mean: float
    stderr: float
    n: int


@dataclass(frozen=True)
class DiagnosticCurve(Record):
    name: str
    points: tuple[CurvePoint, ...]
    notes: tuple[str, ...] = ()

    def to_csv(self) -> str:
        rows = (f"{p.depth},{'' if p.L is None else repr(p.L)},{p.mean!r},{p.stderr!r},{p.n}"
                for p in self.points)
        return "\n".join(["depth,L,mean,stderr,n", *rows, ""])


def _mean_point(depth: int, L: Optional[float], values: np.ndarray) -> CurvePoint:
    """The mean of `values` and its standard error, refused if either overflows."""
    n = len(values)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, stderr = float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise NumericError("diagnostics/not-finite",
                           f"depth {depth}: sample mean {mean}, standard error {stderr}")
    return CurvePoint(depth, L, mean, stderr, n)


def _largest_shares(values: np.ndarray, kind: str) -> np.ndarray:
    """Per-row largest cell share: max mass for probability rows, and
    max |value| / sum |value| for signed ones (zero rows give 0)."""
    if kind == PROBABILITY:
        return values.max(axis=1)
    absval = np.abs(values)
    totals = absval.sum(axis=1)
    out = np.zeros(len(absval))
    live = totals > 0
    out[live] = absval.max(axis=1)[live] / totals[live]
    return out


def atomicity_statistic(system: HistogramSystem, chain: PartitionChain,
                        depths: Sequence[int], replicates: int = DEFAULT_CURVE_SAMPLES,
                        *, seed: int = 0, jobs: int = 1) -> DiagnosticCurve:
    """Curve of E[largest cell share] per depth, with standard errors.

    A curve that keeps decreasing toward 0 is evidence against atoms; a
    plateau at a positive level is evidence for them.  The classification
    thresholds live in `classify_atomicity` and were calibrated on
    simulations of known-atomic and known-continuous families.
    """
    return _curves(system, chain, depths, replicates, seed=seed, jobs=jobs)[0]


def classify_atomicity(curve: DiagnosticCurve) -> str:
    """'plateau' | 'decreasing' | 'ambiguous' from the calibrated thresholds:
    a plateau keeps the final mean at >= 0.25 and >= 3/4 of the mid-curve
    value; 'decreasing' needs the final mean at most half the first and
    below 0.1."""
    if len(curve.points) < 3:
        return "ambiguous"
    first = curve.points[0].mean
    mid = curve.points[len(curve.points) // 2].mean
    final = curve.points[-1].mean
    if final >= 0.25 and final >= 0.75 * mid:
        return "plateau"
    if final <= 0.5 * first and final <= 0.1:
        return "decreasing"
    return "ambiguous"


@dataclass(frozen=True)
class DominationResult(Record):
    """Mean truncation-excess curve and tail-probability curve over a
    (depth, L) grid, plus any zero-reference-cell reports."""

    delta: float
    means: DiagnosticCurve
    tails: DiagnosticCurve


def domination_statistic(system: HistogramSystem, chain: PartitionChain,
                         depths: Sequence[int], L_grid: Sequence[float],
                         replicates: int = DEFAULT_CURVE_SAMPLES, *,
                         delta: float = 0.1, seed: int = 0, jobs: int = 1,
                         reference: Optional[Callable[[Partition], Histogram]] = None,
                         ) -> DominationResult:
    """Empirical excess of samples over L times the reference, per (depth, L).

    Reports E[excess] and P(excess > delta).  Per sample the excess is
    non-increasing in L, so decay along the L grid that is uniform over the
    depths is evidence for the dominated phases.  Cells where the reference
    vanishes but samples put mass are reported in the curve notes and the
    statistic remains defined.
    """
    return _curves(system, chain, depths, replicates, seed=seed, jobs=jobs,
                   atomicity=False, L_grid=L_grid, delta=delta,
                   reference=reference)[1]


def _chunk_reducer(draw, kind: str, q: Optional[np.ndarray], L_grid: Sequence[float],
                   rows_for: Callable[[int], np.ndarray], out_for: Callable):
    """Wrap a level's draw so that a chunk is drawn into ``rows_for(k)`` and
    writes its per-row largest shares when `q` is None, or else its per-row
    excess over L * q for every L, into ``out_for(sub)``: its columns of an
    array the caller owns.  It returns one ``(finite, low, off, hit)`` per
    block of rows: the block's `value_summary` (judged by `check_summary`) and,
    given `q`, which zero-reference cells got mass.  Each row's results
    depend on that row alone, so reducing the chunk in blocks of rows gives
    the bits of reducing it whole, without its full-size temporaries; the
    worker keeps no result, and nothing refers to the rows it overwrites next."""

    def reduce_block(rows: np.ndarray, out: np.ndarray) -> tuple:
        if q is None:
            out[:] = _largest_shares(rows, kind)
            return (*value_summary(rows, kind), None)
        for L, excess in zip(L_grid, out):
            excess[:] = truncation_values(rows, q, float(L))
        return (*value_summary(rows, kind), np.any(rows[:, q == 0] != 0, axis=0))

    def reduce(sub: RandomStream, k: int) -> list[tuple]:
        rows, out = draw(sub, k, rows_for(k)), out_for(sub)
        step = max(1, _BLOCK_CELLS // rows.shape[1])
        # a chunk that fails validation is never read, so its warnings are noise
        with np.errstate(all="ignore"):
            return [reduce_block(rows[i:i + step], out[..., i:i + step]) for i in range(0, k, step)]

    return reduce


def check_domination_args(L_grid: Sequence[float], delta: float) -> None:
    """Refuse a truncation level L or a tail threshold delta that is
    negative, NaN or infinite."""
    if not all(0 <= L < math.inf for L in L_grid):
        raise ValidationError("diagnostics/truncation-level",
                              f"L grid must be finite and nonnegative, got {list(L_grid)}")
    if not 0 <= delta < math.inf:
        raise ValidationError("diagnostics/delta",
                              f"delta must be finite and nonnegative, got {delta}")


def check_depths(depths: Sequence[int], chain: PartitionChain,
                 code: str = "diagnostics/depth") -> None:
    """Refuse depths that are not strictly increasing levels of `chain`: a curve reads
    its first point as the shallowest, and a negative depth indexes the chain from its end."""
    if depths and (depths[0] < 0 or depths[-1] > chain.depth
                   or any(b <= a for a, b in zip(depths, depths[1:]))):
        raise ValidationError(code, "depths must be strictly increasing levels "
                                    f"0..{chain.depth} of the chain, got {list(depths)}")


def _curves(system: HistogramSystem, chain: PartitionChain, depths: Sequence[int],
            replicates: int, *, seed: int, jobs: int, atomicity: bool = True,
            L_grid: Optional[Sequence[float]] = None, delta: float = 0.1,
            reference: Optional[Callable[[Partition], Histogram]] = None,
            ) -> tuple[Optional[DiagnosticCurve], Optional[DominationResult]]:
    """The atomicity curve (stream root ``(seed, (0,))``) and, given an L
    grid, the domination curves (root ``(seed, (1,))``), with every chunk
    of every depth drawn on one pool of `jobs` threads and reduced where it
    is drawn, so no whole stack is ever held.  Each thread draws all its
    chunks into one buffer, allocated once and freed by the time this call
    returns, and writes its rows' results into arrays allocated here, so
    the threads' allocators keep no freed arrays.

    The steps fail in the order of drawing the curves one after the other:
    every atomicity depth (set-up, then its stack's validation), then the L
    grid and delta, then every domination depth (reference, set-up,
    validation).
    Set-up runs first and stops at its first error; the draws before it are
    still checked, and that error is raised only if none of them fails.
    """
    check_depths(depths, chain)
    if replicates < 2:
        raise ValidationError("diagnostics/insufficient-samples",
                              "need at least 2 replicates for a standard error")
    levels: dict[int, tuple] = {}  # depth -> (partition, kind, draw)
    steps, grids, failure = [], [], None
    local = threading.local()

    def rows_for(cells: int, k: int) -> np.ndarray:
        """This thread's draw buffer, made by its first chunk, as k rows."""
        if not hasattr(local, "buffer"):
            local.buffer = np.empty(size)
        return local.buffer[:k * cells].reshape(k, cells)

    try:
        for curve in ((0,) if atomicity else ()) + ((1,) if L_grid is not None else ()):
            if curve == 1:
                check_domination_args(L_grid, delta)
            root = RandomStream(seed, (curve,))
            for i, depth in enumerate(depths):
                q = None
                if curve == 1:
                    q = (reference or system.reference)(chain[depth]).values
                if depth not in levels:
                    levels[depth] = level_drawer(system, chain, depth)
                partition, kind, draw = levels[depth]
                values = np.empty((replicates,) if q is None else (len(L_grid), replicates))
                outs = {root.child(i, j): values[..., a:b] for j, a, b in chunk_ranges(replicates)}
                steps.append((depth, kind, q, values))
                grids.append((root.child(i), replicates, _chunk_reducer(
                    draw, kind, q, L_grid, functools.partial(rows_for, len(partition)), outs.__getitem__)))
    except HistolimError as e:
        failure = e
    # the largest chunk of the largest level; each buffer is freed when its
    # pool thread exits, or with `local` when this call returns
    size = min(replicates, CHUNK_SIZE) * max((len(p) for p, _, _ in levels.values()), default=0)
    atom_points, mean_points, tail_points, notes = [], [], [], []
    for (depth, kind, q, values), chunks in zip(steps, run_grids(grids, jobs=jobs)):
        finite, low, off, hits = zip(*(block for chunk in chunks for block in chunk))
        check_summary(kind, all(finite), float(np.min(low)), float(np.max(off)))
        if q is None:
            atom_points.append(_mean_point(depth, None, values))
            continue
        hit = int(np.count_nonzero(np.any(hits, axis=0)))
        if hit:
            notes.append(f"depth {depth}: {hit} zero-reference cells "
                         "receive sample mass")
        for L, excess in zip(L_grid, values):
            mean_points.append(_mean_point(depth, float(L), excess))
            over = (excess > delta).astype(float)
            phat = float(over.mean())
            se = math.sqrt(phat * (1.0 - phat) / len(over))
            tail_points.append(CurvePoint(depth, float(L), phat, se, len(over)))
    if failure is not None:
        raise failure
    atom_curve = DiagnosticCurve("atomicity", tuple(atom_points)) if atomicity else None
    if L_grid is None:
        return atom_curve, None
    notes = tuple(notes)
    return atom_curve, DominationResult(
        delta,
        DiagnosticCurve("domination-mean", tuple(mean_points), notes),
        DiagnosticCurve("domination-tail", tuple(tail_points), notes))


# ---------------------------------------------------------------------------
# deterministic curves

def tv_martingale_curve(density: Density, chain: PartitionChain,
                        depths: Optional[Sequence[int]] = None,
                        ) -> tuple[tuple[int, float], ...]:
    """Total-variation distance (1/2) * integral |f - f_m| between a fixed
    density f and its level-m histogram average f_m (each cell's mass over
    its width), at each depth m; the distances decrease along refinements.

    Each level reads f once on each interval cell: a polynomial exactly, a
    `PiecewiseDensity` as its constant on that cell, any other callable by
    adaptive Simpson.  The masses must be a positive histogram, the cells
    bounded, and a cell of zero width massless.  The distance is then exact
    on a polynomial cell (the absolute value split at its real roots) and
    adaptive Simpson on any other.
    """
    if depths is None:
        depths = range(1, chain.depth + 1)
    check_depths(depths, chain)
    out = []
    for m in depths:
        part = chain[m]
        edges = part.edges().tolist()
        steps = (_positions_in(density.partition, part, part.cut_points())
                 if isinstance(density, PiecewiseDensity) else None)
        masses, cells = np.zeros(len(part)), []
        for k, (a, b) in enumerate(zip(edges, edges[1:])):
            if not (-math.inf < a and b < math.inf):
                continue  # refused below, once every mass is read
            i, f = k + part.has_atom, density
            if steps is not None:
                f = _step_on_cell(density, steps[k])
                masses[i] = f.coefficients[0] * (b - a)
            elif isinstance(density, PolynomialDensity):
                masses[i] = density.integral(a, b)
            else:
                masses[i] = _adaptive_simpson(density, a, b)
            if a < b:
                cells.append((i, a, b, f))
        check_summary(POSITIVE, *value_summary(masses, POSITIVE))
        widths = part.widths()
        if not np.all(np.isfinite(widths)):
            raise ValidationError("histogram/unbounded", "flat reference needs bounded cells")
        check_summary(POSITIVE, *value_summary(widths, POSITIVE))  # cut points out of order
        heavy = np.flatnonzero((widths == 0) & (masses != 0))
        if len(heavy):
            i = int(heavy[0])
            raise ValidationError("density/zero-reference-cell", f"cell {part.describe_cell(i)} "
                                  f"has zero reference mass but p={masses[i]}")
        means = np.divide(masses, widths, out=np.zeros_like(masses), where=widths != 0)
        total = 0.0
        for i, a, b, f in cells:
            mean = PolynomialDensity((float(means[i]),))
            if isinstance(f, PolynomialDensity):
                diff = itertools.zip_longest(f.coefficients, mean.coefficients, fillvalue=0.0)
                gap = PolynomialDensity(tuple(c - g for c, g in diff))
                total += _abs_polynomial_integral(gap, a, b)
            else:
                total += _adaptive_simpson(lambda x: abs(f(x) - mean(x)), a, b)
        out.append((int(m), 0.5 * total))
    return tuple(out)


def quadratic_variation(points: Sequence) -> float:
    """Sum of squared increments of a path given as (t, value) pairs or as a
    plain value sequence; needs at least two points."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 2:
        values = arr[:, 1]
    elif arr.ndim == 1:
        values = arr
    else:
        raise ValidationError("diagnostics/path-shape",
                              f"expected points or values, got shape {arr.shape}")
    if len(values) < 2:
        raise ValidationError("diagnostics/path-too-short",
                              "quadratic variation needs at least 2 points")
    return float(np.sum(np.diff(values) ** 2))


# ---------------------------------------------------------------------------
# the aggregated report

@dataclass(frozen=True)
class PhaseReport(Record):
    family: dict
    condition_verdicts: dict
    atomicity_curve: Optional[DiagnosticCurve]
    domination_curve: Optional[DiagnosticCurve]
    domination_tail_curve: Optional[DiagnosticCurve]
    declared_phase: str
    rationale: str
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.declared_phase not in PHASES:
            raise ValidationError("phase/label",
                                  f"unknown phase {self.declared_phase!r}")


def family_verdicts(system: HistogramSystem,
                    chain_at: Callable[[int], PartitionChain],
                    depth: Optional[int] = None,
                    ) -> tuple[dict, Optional[Verdict], Optional[Verdict]]:
    """(all verdicts, existence verdict, domination verdict) of the family.

    ``chain_at(level)`` gives a chain reaching that level; only the
    Dirichlet and Gaussian conditions read a chain.  ``depth`` overrides the
    evaluation depth (None or 0: each condition's default).
    """
    if isinstance(system, DirichletSystem):
        chain = chain_at(0)
        existence = dirichlet_condition(system, chain.domain)
        dominated = dirichlet_weak_condition(system, depth=depth or PRODUCT_DEPTH,
                                             chain=chain)
        return {"existence": existence, "dominated": dominated}, existence, dominated
    if isinstance(system, PolyaTreeSystem):
        d = depth or PRODUCT_DEPTH
        tight = polya_tight_condition(system, depth=d)
        leak = polya_leakage_condition(system, depth=d)
        dominated = polya_weak_condition(system, depth=d)
        return ({"tight": tight, "leakage": leak, "dominated": dominated},
                tight, dominated)
    if isinstance(system, GaussianSystem):
        d = depth or MATRIX_DEPTH
        verdicts = gaussian_conditions(system, chain_at(min(d, max_depth())), depth=d)
        return verdicts, verdicts.get("diagonal"), verdicts["weak"]
    # a leakage system, the last of the closed `FAMILIES`
    tight = leakage_counterexample(system.delta, system.depth,
                                   interior=system.interior).verdict
    return {"tight": tight}, tight, None


_DEMOTED = {"random-atomic": "continuous-singular",
            "fixed-atomic": "absolutely-continuous"}


def phase_report(system: HistogramSystem, chain: PartitionChain, *,
                 depths: Optional[Sequence[int]] = None,
                 replicates: int = DEFAULT_CURVE_SAMPLES,
                 seed: int = 0, L_grid: Sequence[float] = (1.0, 2.0, 5.0, 20.0),
                 delta: float = 0.1, jobs: int = 1) -> PhaseReport:
    """Exact condition verdicts plus Monte-Carlo corroboration, combined
    through the phase decision table.

    The table reads the domination verdict against the complete-randomness
    flag: dominated and not completely random gives absolutely-continuous,
    dominated and completely random gives fixed-atomic; a domination
    statistic that provably diverges flips those to continuous-singular and
    random-atomic, provided the existence-side verdict holds.  Undetermined
    verdicts, or a failed existence condition, give inconclusive.  When the
    table lands on an atomic label, the largest-cell-share curve must
    plateau to keep it; a decreasing curve vetoes the atomic sub-label and
    demotes to the corresponding non-atomic phase.
    """
    if depths is None:
        depths = tuple(range(2, min(chain.depth, 8) + 1))
    check_depths(depths, chain)
    verdicts, existence, dominated = family_verdicts(system, lambda _: chain)
    completely_random = system.completely_random

    atom_curve = dom_result = None
    if depths and replicates >= 2 and dominated is not None:
        atom_curve, dom_result = _curves(
            system, chain, depths, replicates, seed=seed, jobs=jobs,
            L_grid=L_grid, delta=delta)
    else:  # the curves check these in their order of drawing
        check_domination_args(L_grid, delta)

    flags = {"completely_random": completely_random,
             "atomic_corroborated": None}

    if existence is not None and existence.status == FAILS:
        declared = "inconclusive"
        rationale = (f"the tightness condition ({existence.anchor}) fails at "
                     f"finite depth — {existence.argument} — so no tight "
                     "limit exists and no phase clause applies")
    elif dominated is None:
        declared = "inconclusive"
        rationale = ("degenerate deterministic family: tightness holds but "
                     "no domination clause is evaluated")
    elif dominated.status == HOLDS and \
            (existence is None or existence.status == HOLDS):
        declared = "fixed-atomic" if completely_random else "absolutely-continuous"
        rationale = (f"the domination condition ({dominated.anchor}) holds and "
                     f"the family is {'completely random' if completely_random else 'not completely random'}, "
                     f"which selects the {declared} clause")
    elif dominated.status in (FAILS, SUFFICIENT_CONDITION_FAILS) and \
            (existence is None or existence.status == HOLDS):
        declared = "random-atomic" if completely_random else "continuous-singular"
        how = ("fails outright" if dominated.status == FAILS
               else "diverges, so the sufficient domination criterion cannot engage")
        rationale = (f"the domination statistic ({dominated.anchor}) {how}, "
                     f"while the existence side "
                     f"({existence.anchor if existence is not None else 'unconditional'}) "
                     f"holds; with the family "
                     f"{'completely random' if completely_random else 'not completely random'} "
                     f"this selects the {declared} clause")
    else:
        declared = "inconclusive"
        rationale = ("an undetermined verdict blocks every clause of the "
                     "phase table; Monte-Carlo curves are attached as "
                     "evidence only")

    if declared in _DEMOTED and atom_curve is not None:
        shape = classify_atomicity(atom_curve)
        if shape == "plateau":
            flags["atomic_corroborated"] = True
            rationale += ("; the largest-cell-share curve plateaus at "
                          f"{atom_curve.points[-1].mean:.3g}, corroborating "
                          "the atomic label")
        elif shape == "decreasing":
            flags["atomic_corroborated"] = False
            demoted = _DEMOTED[declared]
            rationale += ("; however the largest-cell-share curve decreases "
                          f"to {atom_curve.points[-1].mean:.3g}, so the "
                          f"atomic sub-label is vetoed and the phase demotes "
                          f"to {demoted}")
            declared = demoted
        else:
            rationale += ("; the largest-cell-share curve is ambiguous, so "
                          "the atomic sub-label rests on the verdicts alone")

    return PhaseReport(
        family=system.to_json(),
        condition_verdicts=verdicts,
        atomicity_curve=atom_curve,
        domination_curve=None if dom_result is None else dom_result.means,
        domination_tail_curve=None if dom_result is None else dom_result.tails,
        declared_phase=declared,
        rationale=rationale,
        flags=flags,
    )
