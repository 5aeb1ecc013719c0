"""Histogram values, projection, truncation, densities, serialization."""

import csv
import functools
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from histolim import diagnostics, histograms
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
    histogram_density,
    histogram_to_csv,
    histogram_to_json,
    lebesgue_reference,
    project,
    project_values,
    stack_to_csv,
    truncation_statistic,
    tv_distance_density,
    tv_norm,
)
from histolim.partitions import Domain, dyadic_chain, triangular_chain

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


def test_values_are_frozen():
    h = prob(1, [0.5, 0.5])
    with pytest.raises(ValueError):
        h.values[0] = 1.0


def test_stack_shape_validation():
    with pytest.raises(ValidationError) as e:
        HistogramStack(CHAIN[2], np.ones((3, 5)))
    assert e.value.code == "histogram/shape"


def test_project_sums_children():
    h = prob(2, [0.1, 0.2, 0.3, 0.4])
    coarse = project(h, CHAIN[1])
    assert coarse.values.tolist() == pytest.approx([0.3, 0.7])
    assert coarse.kind == h.kind


@given(st.integers(0, 3))
def test_project_stack_matches_rowwise(level):
    rng = np.random.default_rng(99)
    vals = rng.dirichlet(np.ones(16), size=5)
    stack = HistogramStack(CHAIN[4], vals, PROBABILITY)
    rmap = CHAIN.refinement(level, 4)
    out = project_values(stack.values, rmap)
    assert out.shape == (5, 2**level)
    ends = np.append(rmap.boundaries[1:], 16)
    for i in range(5):
        expect = [vals[i, s:e].sum() for s, e in zip(rmap.boundaries, ends)]
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
    with pytest.raises(ValidationError):
        truncation_statistic(p, prob(1, [0.5, 0.5]), -0.5)


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
    for L in (0.5, 1.0, 2.0):
        fine = truncation_statistic(p, q, L)
        coarse = truncation_statistic(project(p, CHAIN[2]), project(q, CHAIN[2]), L)
        assert coarse <= fine + 1e-12


# --- densities --------------------------------------------------------------

def test_histogram_density_and_zero_reference():
    p = prob(1, [0.25, 0.75])
    q = lebesgue_reference(CHAIN[1])
    d = histogram_density(p, q)
    assert isinstance(d, PiecewiseDensity)
    assert d(0.3) == pytest.approx(0.5)
    assert d(0.9) == pytest.approx(1.5)
    q0 = Histogram(CHAIN[1], np.array([0.0, 1.0]), POSITIVE)
    with pytest.raises(ValidationError) as e:
        histogram_density(p, q0)
    assert e.value.code == "density/zero-reference-cell"
    # zero over zero is fine and gives density zero
    p0 = Histogram(CHAIN[1], np.array([0.0, 1.0]), PROBABILITY)
    assert histogram_density(p0, q0)(0.2) == 0.0


def test_polynomial_density_exact_integral():
    poly = PolynomialDensity((0.0, 2.0))  # density 2x
    assert poly.integral(0.0, 1.0) == pytest.approx(1.0)
    assert poly.integral(0.25, 0.5) == pytest.approx(0.25**2 * 3)


def test_tv_distance_exact_for_polynomials():
    flat = PolynomialDensity((1.0,))
    slope = PolynomialDensity((0.0, 2.0))
    # (1/2) int_0^1 |2x - 1| dx = 1/4, computed by root splitting
    d = tv_distance_density(slope, flat, partition=CHAIN[0])
    assert d == pytest.approx(0.25, abs=1e-14)
    assert tv_distance_density(flat, flat, partition=CHAIN[3]) == 0.0


def test_tv_distance_weighted_reference():
    f = PiecewiseDensity(CHAIN[1], np.array([1.0, 0.0]))
    g = PiecewiseDensity(CHAIN[1], np.array([0.0, 1.0]))
    ref = Histogram(CHAIN[1], np.array([0.25, 0.75]), POSITIVE)
    # (1/2) * (1 * 0.25 + 1 * 0.75)
    assert tv_distance_density(f, g, partition=CHAIN[1], reference=ref) == \
        pytest.approx(0.5)


@pytest.mark.parametrize("make, code, message", [
    (lambda: Histogram(CHAIN[1], np.ones((1, 2))), "histogram/shape",
     "expected 1-d values, got shape (1, 2)"),
    (lambda: Histogram(CHAIN[1], [0.5, 0.5], "mass"), "histogram/kind", "unknown kind 'mass'"),
    (lambda: Histogram(CHAIN[2], [0.5, 0.5]), "histogram/shape", "2 values for 4 cells"),
    (lambda: PiecewiseDensity(CHAIN[2], [1.0]), "density/shape", "1 values for 4 cells"),
    (lambda: project(prob(2, [0.25] * 4), CHAIN.refinement(1, 3)), "histogram/partition-mismatch",
     "refinement map does not match the histogram's partition"),
    (lambda: histogram_density(prob(1, [0.5, 0.5]), prob(2, [0.25] * 4)),
     "histogram/partition-mismatch", "p and q must live on the same partition"),
    (lambda: histogram_density(prob(1, [0.5, 0.5]), Histogram(CHAIN[1], [1.0, -1.0])),
     "histogram/negative-reference", "reference histogram must be nonnegative"),
], ids=["two-dimensional", "unknown-kind", "length", "density-length", "foreign-map",
        "density-partitions", "density-negative-reference"])
def test_malformed_histograms_are_refused(make, code, message):
    with pytest.raises(ValidationError) as e:
        make()
    assert (e.value.code, str(e.value)) == (code, message)


def test_histogram_length_is_its_cell_count():
    assert len(prob(3, [0.125] * 8)) == 8


def test_tv_distance_skips_an_empty_cell():
    """A last cut at the domain's right end leaves the empty cell (1, 1]."""
    empty_last = triangular_chain([[1.0]], Domain.unit())[1]
    assert empty_last.edges().tolist() == [0.0, 1.0, 1.0]
    slope, flat = PolynomialDensity((0.0, 2.0)), PolynomialDensity((1.0,))
    assert tv_distance_density(slope, flat, partition=empty_last) == \
        tv_distance_density(slope, flat, partition=CHAIN[0])


def test_tv_distance_refuses_a_density_simpson_cannot_resolve():
    """A jump of 1e12 at 0.3, which no bisection point hits: the cells that
    hold it keep a Simpson error far above the tolerance down to the
    bisection budget."""
    def jump(x):
        return 1e12 if x > 0.3 else 0.0

    with pytest.raises(NumericError) as e:
        tv_distance_density(jump, PolynomialDensity((0.0,)), partition=CHAIN[0])
    assert e.value.code == "quadrature/no-convergence"
    assert str(e.value) == ("adaptive Simpson failed to converge on "
                            "[0.29999999999999716, 0.3000000000000007]")


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


def test_zero_reference_cell_error_prints_the_cell():
    """The cell is printed as '{left}' for the atom and '(l, r]' otherwise,
    each end in its text form."""
    closed = dyadic_chain(Domain.unit(closed_left=True), depth=2)[2]
    real = triangular_chain([[0.0], [-1.0, 0.0, 1.0]])[2]
    cases = [(closed, 0, "{0}"), (closed, 2, "(1/4, 1/2]"),
             (real, 3, "(1.0, +inf]"), (real, 0, "(-inf, -1.0]")]
    for part, i, cell in cases:
        p, q = np.zeros(len(part)), np.ones(len(part))
        p[[i, i - 1]], q[i] = 0.5, 0.0
        with pytest.raises(ValidationError) as e:
            histogram_density(Histogram(part, p, PROBABILITY), Histogram(part, q, POSITIVE))
        text = f"cell {cell} has zero reference mass but p=0.5"
        assert (e.value.code, str(e.value)) == ("density/zero-reference-cell", text)


# --- total variation: error paths -------------------------------------------

def tv_error(*args, **kwargs):
    with pytest.raises(ValidationError) as e:
        tv_distance_density(*args, **kwargs)
    return e.value.code, str(e.value)


PIECEWISE_MISMATCH = ("density/partition-mismatch",
                      "piecewise density does not align with the integration cells")
REFERENCE_MISMATCH = ("density/partition-mismatch",
                      "reference histogram does not cover the integration cells")
UNIT_ROWS = [[(k / (1 << n)) ** 2 for k in range(1, 1 << n)] for n in range(1, 6)]


def test_tv_distance_refuses_a_piecewise_density_on_another_partition():
    flat = PolynomialDensity((1.0,))
    step = PiecewiseDensity(CHAIN[2], np.arange(4.0))
    other = PiecewiseDensity(triangular_chain(UNIT_ROWS, Domain.unit())[2], np.arange(4.0))
    # the last piecewise density with as many cells sets the cells
    assert tv_error(step, other) == PIECEWISE_MISMATCH
    assert tv_error(other, step) == PIECEWISE_MISMATCH
    # an explicit finer partition is kept, and the step does not cover it
    assert tv_error(step, flat, partition=CHAIN[3]) == PIECEWISE_MISMATCH
    # an explicit coarser partition gives way to the step's own cells
    assert tv_distance_density(step, flat, partition=CHAIN[1]) == \
        tv_distance_density(step, flat, partition=CHAIN[2])


def test_tv_distance_refuses_a_reference_that_does_not_cover_the_cells():
    flat, slope = PolynomialDensity((1.0,)), PolynomialDensity((0.0, 2.0))
    assert tv_error(flat, slope, partition=CHAIN[2],
                    reference=lebesgue_reference(CHAIN[1])) == REFERENCE_MISMATCH
    assert tv_error(flat, slope, partition=CHAIN[2],
                    reference=lebesgue_reference(CHAIN[3])) == REFERENCE_MISMATCH


def test_tv_distance_needs_cells_and_bounded_cells():
    flat, slope = PolynomialDensity((1.0,)), PolynomialDensity((0.0, 2.0))
    assert tv_error(flat, slope) == (
        "density/no-cells", "need a partition when neither density is piecewise")
    real = triangular_chain([[0.0], [-1.0, 0.0, 1.0]])
    assert tv_error(flat, slope, partition=real[2]) == (
        "density/unbounded", "density distances need bounded cells")


def test_tv_distance_reports_the_first_fault_first():
    flat = PolynomialDensity((1.0,))
    step = PiecewiseDensity(CHAIN[2], np.ones(4))
    negative = Histogram(CHAIN[1], np.array([1.0, -1.0]), SIGNED)
    # no cells before a negative reference
    assert tv_error(flat, flat, reference=negative)[0] == "density/no-cells"
    # a negative reference before any cell is read
    assert tv_error(step, flat, partition=CHAIN[3], reference=negative)[0] == \
        "histogram/negative-reference"
    # in a cell, the reference is looked up before the densities
    assert tv_error(step, flat, partition=CHAIN[3],
                    reference=lebesgue_reference(CHAIN[2])) == REFERENCE_MISMATCH
    # a cell of zero reference mass is skipped: the fault is in the next cell
    zeros = Histogram(CHAIN[3], np.array([0.0] + [1.0] * 7), POSITIVE)
    assert tv_error(step, flat, partition=CHAIN[3], reference=zeros) == PIECEWISE_MISMATCH
    # on the real line the unbounded first cell comes before any mismatch
    real = triangular_chain([[0.0], [-1.0, 0.0, 1.0]])
    assert tv_error(flat, flat, partition=real[2],
                    reference=lebesgue_reference(CHAIN[2]))[0] == "density/unbounded"


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


def oracle_tv_distance_density(f, g, *, partition=None, reference=None):
    cells = oracle_common_cells(f, g, partition)
    if reference is not None and np.any(reference.values < 0):
        raise ValidationError("histogram/negative-reference",
                              "reference histogram must be nonnegative")
    ref_lookup = None
    if reference is not None:
        ref_lookup = {c: float(v) for c, v in zip(_cells(reference.partition), reference.values)}
    total = 0.0
    for cell in cells:
        if not cell.bounded:
            raise ValidationError("density/unbounded",
                                  "density distances need bounded cells")
        a, b = float(cell.left), float(cell.right)
        if b <= a:
            continue
        weight = 1.0
        if ref_lookup is not None:
            mass = ref_lookup.get(cell)
            if mass is None:
                raise ValidationError("density/partition-mismatch",
                                      "reference histogram does not cover the integration cells")
            weight = mass / (b - a)
            if weight == 0.0:
                continue
        fc, gc = oracle_density_on_cell(f, cell), oracle_density_on_cell(g, cell)
        if isinstance(fc, PolynomialDensity) and isinstance(gc, PolynomialDensity):
            n = max(len(fc.coefficients), len(gc.coefficients))
            diff = tuple(
                (fc.coefficients[k] if k < len(fc.coefficients) else 0.0)
                - (gc.coefficients[k] if k < len(gc.coefficients) else 0.0)
                for k in range(n)
            )
            total += weight * histograms._abs_polynomial_integral(PolynomialDensity(diff), a, b)
        else:
            total += weight * histograms._adaptive_simpson(lambda x: abs(fc(x) - gc(x)), a, b)
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
        step = histogram_density(h, lebesgue_reference(part))
        out.append((int(m), oracle_tv_distance_density(density, step, partition=part)))
    return tuple(out)


def outcome(call):
    """A float result as its repr (so -0.0 and 0.0 differ), or the error's
    type, code and text."""
    try:
        result = call()
    except ValueError as e:  # ValidationError among them
        return type(e).__name__, getattr(e, "code", None), str(e)
    return repr(result)


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
}


def _steps(part, rng):
    """Two step densities on `part`, one with zero cells."""
    n = len(part)
    values = rng.uniform(0.0, 3.0, size=(2, n))
    values[1, ::3] = 0.0
    return PiecewiseDensity(part, values[0]), PiecewiseDensity(part, values[1])


@pytest.mark.parametrize("name", TV_CHAINS)
def test_tv_distance_matches_the_cell_walk(name):
    chain = TV_CHAINS[name]
    rng = np.random.default_rng(sorted(TV_CHAINS).index(name))
    others = [c for key, c in TV_CHAINS.items() if key != name]
    cases = 0
    for m in range(chain.depth):
        part = chain[m]
        step, zeroed = _steps(part, rng)
        finer, coarser = chain[m + 1], chain[max(m - 1, 0)]
        widths = part.widths()
        refs = [None, Histogram(part, rng.uniform(0.0, 1.0, len(part)) * (widths > 0), POSITIVE),
                Histogram(part, np.where(np.arange(len(part)) % 2, 0.0, 1.0), POSITIVE),
                Histogram(finer, np.ones(len(finer)), POSITIVE)]
        refs += [Histogram(o[m], np.ones(len(o[m])), POSITIVE) for o in others if o.depth >= m]
        alien = [PiecewiseDensity(o[m], np.ones(len(o[m]))) for o in others if o.depth >= m]
        pairs = [(f, g, part) for f in TV_DENSITIES.values() for g in TV_DENSITIES.values()]
        pairs += [(step, g, None) for g in TV_DENSITIES.values()]
        pairs += [(g, zeroed, None) for g in TV_DENSITIES.values()]
        pairs += [(step, zeroed, None), (zeroed, step, finer), (step, zeroed, coarser)]
        pairs += [(step, a, None) for a in alien] + [(a, step, None) for a in alien]
        for f, g, partition in pairs:
            for reference in refs:
                want = outcome(lambda: oracle_tv_distance_density(
                    f, g, partition=partition, reference=reference))
                got = outcome(lambda: tv_distance_density(
                    f, g, partition=partition, reference=reference))
                assert got == want, (m, f, g, partition, reference)
                cases += 1
    assert cases > 500


#: adaptive Simpson against `quad` on a bare callable, per cell mass and per
#: curve point (the largest gap on these chains is about 8e-12)
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
    for m in depths:
        assert_outcomes_agree(lambda: diagnostics._cell_masses(f, chain[m]).tolist(),
                              lambda: oracle_cell_masses(f, chain[m]).tolist(), tol)

