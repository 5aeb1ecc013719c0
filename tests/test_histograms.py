"""Histogram values, projection, truncation, densities, serialization."""

import csv
import functools
import io
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from histolim import histograms
from histolim.diagnostics import tv_martingale_curve
from histolim.errors import NumericError, ValidationError
from histolim.histograms import (
    POSITIVE,
    PROBABILITY,
    SIGNED,
    Histogram,
    HistogramStack,
    PiecewiseDensity,
    PolynomialDensity,
    histogram_to_csv,
    histogram_to_json,
    project_values,
    stack_to_csv,
    truncation_statistic,
    tv_norm,
)
from histolim.partitions import Domain, Partition, PartitionChain, dyadic_chain, triangular_chain

import tv_pipeline
from cell_walk import cells_of


def text_of(export, *args) -> str:
    """The text an exporter passes to its `write` callable, joined."""
    pieces = []
    export(*args, pieces.append)
    return "".join(pieces)


CHAIN = dyadic_chain(depth=4)


def prob(level, values):
    return Histogram(CHAIN[level], np.asarray(values, dtype=float), PROBABILITY)


def test_probability_kind_enforces_simplex():
    with pytest.raises(ValidationError) as e:
        prob(1, [0.7, 0.4])
    assert (e.value.code, str(e.value)) == (
        "histogram/total-mass",
        "probability histogram total differs from 1 by 1.000e-01 (> 1e-12)")
    with pytest.raises(ValidationError):
        prob(1, [1.1, -0.1])
    h = prob(1, [0.35, 0.65])
    assert h.total() == pytest.approx(1.0)


def _old_check_kind(values, kind):
    """`histograms._check_kind` as it was written with value-sized masks."""
    finite = bool(np.all(np.isfinite(values)))
    negative = finite and kind != SIGNED and bool(np.any(values < 0))
    low = float(values.min()) if negative else 0.0
    off = 0.0
    if kind == PROBABILITY and finite and not negative:
        totals = values.sum(axis=-1)
        off = float(np.abs(totals - 1.0).max()) if totals.size else 0.0
    histograms.check_summary(kind, finite, low, off)


def _kind_outcome(check):
    try:
        check()
    except ValidationError as e:
        return e.code, str(e)
    return None


def test_value_summary_judges_as_the_value_masks_did():
    """Reductions alone give the old checks' outcome, with no warning; so do
    rows summarised one at a time and judged as a whole, as `diagnose` does."""
    tol = histograms.PROBABILITY_SUM_TOL
    near = [t for d in (tol, 0.5 * tol, 2 * tol) for t in (math.nextafter(d, 0), d, math.nextafter(d, 1))]
    rows = [[0.5, 0.5], [1.0, 0.0], [-0.0, 1.0], [-0.0, -0.0], [0.25, -0.25], [1.5, -0.5],
            [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [np.inf, -np.inf], [1e308, 1e308]]
    rows += [[1.0 + s * t, 0.0] for t in near for s in (1, -1)]
    rows += [[0.25, 0.75 + s * t] for t in near for s in (1, -1)]
    cases = [np.array(row) for row in rows]
    cases += [np.array([row, [0.5, 0.5]]) for row in rows] + [np.array([[0.5, 0.5], row]) for row in rows]
    cases += [np.empty((0, 2)), np.array(rows[:4])]
    outcomes = set()
    for values in cases:
        for kind in (PROBABILITY, POSITIVE, SIGNED):
            with np.errstate(all="ignore"):
                want = _kind_outcome(lambda: _old_check_kind(values, kind))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _kind_outcome(lambda: histograms._check_kind(values, kind)) == want, (values, kind)
                make = Histogram if values.ndim == 1 else HistogramStack
                assert _kind_outcome(lambda: make(CHAIN[1], values, kind)) == want
                if values.ndim == 2 and len(values):
                    finite, low, off = zip(*(histograms.value_summary(row[None], kind) for row in values))
                    assert _kind_outcome(lambda: histograms.check_summary(
                        kind, all(finite), min(low), max(off))) == want
            outcomes.add(want and want[0])
    assert outcomes == {None, "histogram/not-finite", "histogram/negative", "histogram/total-mass"}


def test_values_are_frozen():
    h = prob(1, [0.5, 0.5])
    with pytest.raises(ValueError):
        h.values[0] = 1.0


def test_stack_shape_validation():
    with pytest.raises(ValidationError) as e:
        HistogramStack(CHAIN[2], np.ones((3, 5)))
    assert e.value.code == "histogram/shape"


def test_project_values_sums_children():
    h = prob(2, [0.1, 0.2, 0.3, 0.4])
    assert project_values(h.values, CHAIN.refinement(1, 2)).tolist() == pytest.approx([0.3, 0.7])


@given(st.integers(0, 3))
def test_project_stack_matches_rowwise(level):
    rng = np.random.default_rng(99)
    vals = rng.dirichlet(np.ones(16), size=5)
    stack = HistogramStack(CHAIN[4], vals, PROBABILITY)
    starts = CHAIN.refinement(level, 4)
    out = project_values(stack.values, starts)
    assert out.shape == (5, 2**level)
    ends = np.append(starts[1:], 16)
    for i in range(5):
        expect = [vals[i, s:e].sum() for s, e in zip(starts, ends)]
        assert out[i].tolist() == pytest.approx(expect)


def test_tv_norm_signed():
    h = Histogram(CHAIN[2], np.array([0.5, -0.25, 0.0, 0.25]), SIGNED)
    assert tv_norm(h) == 1.0
    stack = HistogramStack(CHAIN[2], np.array([[1.0, 0, 0, 0], [0.5, -0.5, 0, 0]]))
    assert tv_norm(stack).tolist() == [1.0, 1.0]


# --- truncated excess -------------------------------------------------------

def test_truncation_frozen_value():
    p = prob(1, [0.7, 0.3])
    q = prob(1, [0.5, 0.5])
    # 0.7 - 0.5 in IEEE doubles
    assert truncation_statistic(p, q, 1.0) == 0.19999999999999996
    assert truncation_statistic(p, q, 1.4) == 0.0


def test_truncation_validations():
    p = prob(1, [0.7, 0.3])
    q = prob(2, [0.25] * 4)
    with pytest.raises(ValidationError) as e:
        truncation_statistic(p, q, 1.0)
    assert e.value.code == "histogram/partition-mismatch"
    neg = Histogram(CHAIN[1], np.array([1.0, -1.0]), SIGNED)
    with pytest.raises(ValidationError):
        truncation_statistic(p, neg, 1.0)
    # a NaN level gave nan, and an infinite one nan after inf * 0 on a zero cell
    for level in (-0.5, math.nan, math.inf):
        with pytest.raises(ValidationError) as e:
            truncation_statistic(p, prob(1, [1.0, 0.0]), level)
        assert (e.value.code, str(e.value)) == ("histogram/truncation-level",
                                                f"level must be finite and >= 0, got {level}")


@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=5))
def test_truncation_monotone_in_level(levels):
    rng = np.random.default_rng(sum(int(v * 100) for v in levels))
    p = prob(3, rng.dirichlet(np.ones(8)))
    q = prob(3, rng.dirichlet(np.ones(8)))
    vals = [truncation_statistic(p, q, L) for L in sorted(levels)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_truncation_grows_under_refinement():
    rng = np.random.default_rng(5)
    p = prob(4, rng.dirichlet(np.ones(16)))
    q = prob(4, rng.dirichlet(np.ones(16)))
    starts = CHAIN.refinement(2, 4)
    p2, q2 = (prob(2, project_values(h.values, starts)) for h in (p, q))
    for L in (0.5, 1.0, 2.0):
        fine = truncation_statistic(p, q, L)
        coarse = truncation_statistic(p2, q2, L)
        assert coarse <= fine + 1e-12


# --- densities --------------------------------------------------------------

def test_piecewise_density_takes_its_cell_value():
    d = PiecewiseDensity(CHAIN[1], np.array([0.5, 1.5]))
    assert (d(0.3), d(0.5), d(0.9)) == (0.5, 0.5, 1.5)  # right ends included


def test_polynomial_density_exact_integral():
    poly = PolynomialDensity((0.0, 2.0))  # density 2x
    assert poly.integral(0.0, 1.0) == pytest.approx(1.0)
    assert poly.integral(0.25, 0.5) == pytest.approx(0.25**2 * 3)


def test_tv_curve_is_exact_for_polynomials():
    flat = PolynomialDensity((1.0,))
    slope = PolynomialDensity((0.0, 2.0))
    # (1/2) int_0^1 |2x - 1| dx = 1/4, computed by root splitting
    assert tv_martingale_curve(slope, CHAIN, (0,)) == ((0, pytest.approx(0.25, abs=1e-14)),)
    assert tv_martingale_curve(flat, CHAIN, (0, 3)) == ((0, 0.0), (3, 0.0))


@pytest.mark.parametrize("make, code, message", [
    (lambda: Histogram(CHAIN[1], np.ones((1, 2))), "histogram/shape",
     "expected 1-d values, got shape (1, 2)"),
    (lambda: Histogram(CHAIN[1], [0.5, 0.5], "mass"), "histogram/kind", "unknown kind 'mass'"),
    (lambda: Histogram(CHAIN[2], [0.5, 0.5]), "histogram/shape", "2 values for 4 cells"),
    (lambda: PiecewiseDensity(CHAIN[2], [1.0]), "density/shape", "1 values for 4 cells"),
    (lambda: HistogramStack(CHAIN[1], [0.5, 0.5]), "histogram/shape",
     "expected 2-d values, got shape (2,)"),
    (lambda: HistogramStack(CHAIN[2], np.ones((3, 2))), "histogram/shape", "2 columns for 4 cells"),
    (lambda: PiecewiseDensity(CHAIN[1], np.ones((1, 2))), "histogram/shape",
     "expected 1-d values, got shape (1, 2)"),
], ids=["two-dimensional", "unknown-kind", "length", "density-length", "stack-one-dimensional",
        "stack-columns", "density-two-dimensional"])
def test_malformed_histograms_are_refused(make, code, message):
    with pytest.raises(ValidationError) as e:
        make()
    assert (e.value.code, str(e.value)) == (code, message)


def test_histogram_length_is_its_cell_count():
    assert len(prob(3, [0.125] * 8)) == 8


def test_tv_curve_skips_an_empty_cell():
    """A last cut at the domain's right end leaves the empty cell (1, 1];
    chains refuse that cut, so the chain is built directly."""
    empty_last = Partition(Domain.unit(), 1, (Fraction(0), 1.0, Fraction(1)))
    assert empty_last.edges().tolist() == [0.0, 1.0, 1.0]
    chain = PartitionChain((CHAIN[0], empty_last))
    slope = PolynomialDensity((0.0, 2.0))
    assert tv_martingale_curve(slope, chain, (1,))[0][1] == \
        tv_martingale_curve(slope, CHAIN, (0,))[0][1]


def test_tv_curve_refuses_a_density_simpson_cannot_resolve():
    """A jump of 1e12 at 0.3, which no bisection point hits: the cells that
    hold it keep a Simpson error far above the tolerance down to the
    bisection budget."""
    def jump(x):
        return 1e12 if x > 0.3 else 0.0

    with pytest.raises(NumericError) as e:
        tv_martingale_curve(jump, CHAIN, (0,))
    assert e.value.code == "quadrature/no-convergence"
    assert str(e.value) == ("adaptive Simpson failed to converge on "
                            "[0.29999999999999716, 0.3000000000000007]")


def test_tv_curve_refuses_a_density_that_goes_negative():
    with pytest.raises(ValidationError) as e:
        tv_martingale_curve(PolynomialDensity((1.0, -3.0)), CHAIN, (1,))
    assert (e.value.code, str(e.value)) == (
        "histogram/negative", "positive histogram has negative entry -0.625")


#: a domain of width 2^-1099 around 1 + 2^-53, the midpoint of two adjacent
#: floats: its ends round apart, to 1 and 1 + 2^-52, but its width to 0.0
MIDPOINT = Fraction(1) + Fraction(1, 1 << 53)
STRADDLE = dyadic_chain(Domain(MIDPOINT - Fraction(1, 1 << 1100), MIDPOINT + Fraction(1, 1 << 1100)),
                        depth=1)


def test_tv_curve_refuses_mass_on_a_cell_of_zero_width():
    """A cell whose float ends differ but whose width rounds to 0.0 has no
    mean; at level 1 the middle cut rounds to 1, so the first cell is empty
    and skipped, and the second is refused."""
    flat = PolynomialDensity((1.0,))
    with pytest.raises(ValidationError) as e:
        tv_martingale_curve(flat, STRADDLE, (1,))
    cell = f"({MIDPOINT}, {MIDPOINT + Fraction(1, 1 << 1100)}]"
    assert (e.value.code, str(e.value)) == (
        "density/zero-reference-cell",
        f"cell {cell} has zero reference mass but p={2.0 ** -52}")
    # a density with no mass there gives the zero distance
    assert tv_martingale_curve(PolynomialDensity((0.0,)), STRADDLE) == ((1, 0.0),)


def test_tv_curve_reads_a_step_density_on_the_levels_cells():
    """A step density on a partition that has the level's cells and more
    is read on the level's cells, and its mass beyond them is never read."""
    wider = Partition(Domain(Fraction(0), Fraction(2)), 1,
                      (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)))
    step = PiecewiseDensity(wider, np.array([0.5, 1.5, 7.0]))
    assert tv_martingale_curve(step, CHAIN, (1,)) == ((1, 0.0),)


# --- serialization ----------------------------------------------------------

def test_histogram_json_round_trip():
    h = prob(2, [0.1, 0.2, 0.3, 0.4])
    back = json.loads(json.dumps(histogram_to_json(h)))
    assert back["values"] == h.values.tolist()
    assert back["kind"] == h.kind
    assert back["endpoints"] == ["0", "1/4", "1/2", "3/4", "1"]


def test_histogram_csv_round_trip_is_exact():
    vals = np.array([1 / 3, 0.1 + 0.2, 1e-17, 1 - 1e-16])
    h = Histogram(CHAIN[2], vals, SIGNED)
    rows = list(csv.reader(io.StringIO(text_of(histogram_to_csv, h))))
    assert rows[0] == ["cell_left", "cell_right", "value"]
    assert [float(v) for _, _, v in rows[1:]] == vals.tolist()  # bit-exact via repr


def test_stack_csv_layout():
    stack = HistogramStack(CHAIN[1], np.array([[0.5, 0.5], [0.25, 0.75]]),
                           PROBABILITY)
    lines = text_of(stack_to_csv, stack).splitlines()
    assert lines[0] == "sample,0,1"
    assert lines[1].startswith("0,")
    assert len(lines) == 3


def test_stack_never_freezes_or_aliases_the_callers_array():
    values = np.full((3, 4), 0.25)
    stack = HistogramStack(CHAIN[2], values, PROBABILITY)
    assert values.flags.writeable
    assert not np.shares_memory(values, stack.values)
    assert not stack.values.flags.writeable
    # only a fresh array handed over with owned=True is held as it is
    adopted = HistogramStack(CHAIN[2], values, PROBABILITY, owned=True)
    assert adopted.values is values and not values.flags.writeable


# --- total variation against the cell walk ----------------------------------
# The distance and the cell masses as they were computed by walking `Cell`
# objects, a density's cell found by `Partition.index`; the package reads
# positions and edges, and must give the same floats and the same errors.

@functools.lru_cache(maxsize=None)
def _cells(partition):
    return cells_of(partition)


def oracle_index(partition, cell):
    """Position of `cell`, read off its address; ValueError when the
    partition does not have it."""
    pos = 0 if cell.is_atom else cell.index.position + partition.has_atom
    if cell.index.level != partition.level or pos >= len(partition) or _cells(partition)[pos] != cell:
        raise ValueError(f"{cell!r} is not a cell of this partition")
    return pos


def oracle_density_on_cell(f, cell):
    if isinstance(f, PiecewiseDensity):
        try:
            idx = oracle_index(f.partition, cell)
        except ValueError:
            raise ValidationError(
                "density/partition-mismatch",
                "piecewise density does not align with the integration cells") from None
        return PolynomialDensity((float(f.values[idx]),))
    return f


def oracle_common_cells(f, g, partition):
    for d in (f, g):
        if isinstance(d, PiecewiseDensity):
            if partition is None or len(d.partition) >= len(partition):
                partition = d.partition
    if partition is None:
        raise ValidationError("density/no-cells",
                              "need a partition when neither density is piecewise")
    return [c for c in _cells(partition) if not c.is_atom]


def oracle_tv_distance_density(f, g, partition):
    cells = oracle_common_cells(f, g, partition)
    total = 0.0
    for cell in cells:
        if not cell.bounded:
            raise ValidationError("density/unbounded",
                                  "density distances need bounded cells")
        a, b = float(cell.left), float(cell.right)
        if b <= a:
            continue
        fc, gc = oracle_density_on_cell(f, cell), oracle_density_on_cell(g, cell)
        if isinstance(fc, PolynomialDensity) and isinstance(gc, PolynomialDensity):
            n = max(len(fc.coefficients), len(gc.coefficients))
            diff = tuple(
                (fc.coefficients[k] if k < len(fc.coefficients) else 0.0)
                - (gc.coefficients[k] if k < len(gc.coefficients) else 0.0)
                for k in range(n)
            )
            total += histograms._abs_polynomial_integral(PolynomialDensity(diff), a, b)
        else:
            total += histograms._adaptive_simpson(lambda x: abs(fc(x) - gc(x)), a, b)
    return 0.5 * total


def oracle_cell_masses(density, partition):
    """A step density is read on its own cells, as the distance reads it; a
    bare callable is integrated by `quad`, not by the package's integrator."""
    from scipy.integrate import quad

    masses = np.zeros(len(partition))
    for i, cell in enumerate(_cells(partition)):
        if cell.is_atom or not cell.bounded:
            continue
        a = float(cell.left)
        b = float(cell.right)
        if isinstance(density, PolynomialDensity):
            masses[i] = density.integral(a, b)
        elif isinstance(density, PiecewiseDensity):
            masses[i] = oracle_density_on_cell(density, cell).coefficients[0] * (b - a)
        else:
            masses[i], _ = quad(density, a, b)
    return masses


def oracle_tv_martingale_curve(density, chain, depths):
    out = []
    for m in depths:
        part = chain[m]
        h = Histogram(part, oracle_cell_masses(density, part), POSITIVE)
        step = tv_pipeline.histogram_density(h, tv_pipeline.lebesgue_reference(part))
        out.append((int(m), oracle_tv_distance_density(density, step, part)))
    return tuple(out)


def outcome(call):
    """A float result as its repr (so -0.0 and 0.0 differ), or the error's
    type, code and text."""
    try:
        result = call()
    except (ValidationError, NumericError) as e:
        return type(e).__name__, getattr(e, "code", None), str(e)
    return repr(result)


UNIT_ROWS = [[(k / (1 << n)) ** 2 for k in range(1, 1 << n)] for n in range(1, 6)]
TV_CHAINS = {
    "dyadic-open": dyadic_chain(Domain.unit(), depth=6),
    "dyadic-closed": dyadic_chain(Domain.unit(closed_left=True), depth=6),
    "triangular-unit": triangular_chain(UNIT_ROWS, Domain.unit()),
    "triangular-real": triangular_chain([[(2.0 * k / (1 << n) - 1.0) ** 3 for k in range(1, 1 << n)]
                                         for n in range(1, 5)]),
}
TV_DENSITIES = {
    "slope": PolynomialDensity((0.0, 2.0)),
    "bowl": PolynomialDensity((0.5, -2.0, 2.5)),
    "wave": lambda x: 1.0 + 0.5 * math.sin(7.0 * x),
    "step": PiecewiseDensity(TV_CHAINS["dyadic-open"][2], np.array([0.5, 2.0, 0.0, 1.5])),
    # more cells than the open level it matches: the atom's value is never read
    "closed-step": PiecewiseDensity(TV_CHAINS["dyadic-closed"][2],
                                    np.array([9.0, 0.5, 2.0, 0.0, 1.5])),
}


#: adaptive Simpson against `quad` on a bare callable, per curve point (the
#: largest gap on these chains is about 8e-12)
QUAD_TOL = 1e-10


def assert_outcomes_agree(call, oracle, tol):
    """The same error, or results that differ by at most `tol` entrywise."""
    want = outcome(oracle)
    if tol == 0.0 or isinstance(want, tuple):
        assert outcome(call) == want
        return
    got, expected = np.asarray(call()), np.asarray(oracle())
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= tol


@pytest.mark.parametrize("name", TV_CHAINS)
@pytest.mark.parametrize("density", TV_DENSITIES)
def test_tv_martingale_curve_matches_the_cell_walk(name, density):
    """Polynomial and step densities give the cell walk's floats and errors
    exactly; the bare callable agrees with `quad` within QUAD_TOL."""
    chain, f = TV_CHAINS[name], TV_DENSITIES[density]
    tol = QUAD_TOL if density == "wave" else 0.0
    depths = range(1, chain.depth + 1)
    assert_outcomes_agree(lambda: tv_martingale_curve(f, chain, depths),
                          lambda: oracle_tv_martingale_curve(f, chain, depths), tol)


#: hand-built chains that no chain builder makes: an empty last cell, cut
#: points out of order, and the zero-width cells of STRADDLE
ODD_CHAINS = {
    "empty-last": PartitionChain((CHAIN[0], Partition(Domain.unit(), 1,
                                                      (Fraction(0), 1.0, Fraction(1))))),
    "unordered": PartitionChain((CHAIN[0], Partition(Domain.unit(), 1,
                                                     (Fraction(0), 0.75, 0.5, Fraction(1))))),
    "straddle": STRADDLE,
}
ODD_DENSITIES = {
    "zero": PolynomialDensity((0.0,)),
    "empty": PolynomialDensity(()),
    "unordered-step": PiecewiseDensity(ODD_CHAINS["unordered"][1], np.array([1.0, 0.0, 2.0])),
    "unordered-wave": lambda x: 0.0 if 0.5 < x <= 0.75 else 1.0 + 0.5 * math.sin(7.0 * x),
    "jump": lambda x: 1e12 if x > 0.3 else 0.0,
}


@pytest.mark.parametrize("name", {**TV_CHAINS, **ODD_CHAINS})
@pytest.mark.parametrize("density", {**TV_DENSITIES, **ODD_DENSITIES})
def test_tv_martingale_curve_matches_the_parent_pipeline(name, density):
    """The one pass per level gives the five-step pipeline's floats, by
    repr, and its errors, by type, code and text, on every chain at every
    level."""
    chain = {**TV_CHAINS, **ODD_CHAINS}[name]
    f = {**TV_DENSITIES, **ODD_DENSITIES}[density]
    for m in range(chain.depth + 1):
        assert outcome(lambda: tv_martingale_curve(f, chain, (m,))) == \
            outcome(lambda: tv_pipeline.tv_martingale_curve(f, chain, (m,))), m

