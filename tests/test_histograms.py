"""Histogram values, projection, truncation, densities, serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from histolim.errors import ValidationError
from histolim.histograms import (
    POSITIVE,
    PROBABILITY,
    SIGNED,
    Histogram,
    HistogramStack,
    PiecewiseDensity,
    PolynomialDensity,
    histogram_density,
    histogram_from_csv,
    histogram_from_json,
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
from histolim.partitions import dyadic_chain


def text_of(export, *args) -> str:
    """The text an exporter passes to its `write` callable, joined."""
    pieces = []
    export(*args, pieces.append)
    return "".join(pieces)


CHAIN = dyadic_chain(depth=4)


def prob(level, values):
    return Histogram(CHAIN[level], np.asarray(values, dtype=float), PROBABILITY)


def test_probability_kind_enforces_simplex():
    with pytest.raises(ValidationError):
        prob(1, [0.7, 0.4])
    with pytest.raises(ValidationError):
        prob(1, [1.1, -0.1])
    h = Histogram.probability(CHAIN[1], [0.35, 0.65])
    assert h.total() == pytest.approx(1.0)


def test_probability_normalize_flag():
    h = Histogram.probability(CHAIN[1], [2.0, 6.0], normalize=True)
    assert h.values.tolist() == [0.25, 0.75]


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


# --- serialization ----------------------------------------------------------

def test_histogram_json_round_trip():
    h = prob(2, [0.1, 0.2, 0.3, 0.4])
    back = histogram_from_json(histogram_to_json(h), CHAIN[2])
    assert back.values.tolist() == h.values.tolist()
    assert back.kind == h.kind


def test_histogram_csv_round_trip_is_exact():
    vals = np.array([1 / 3, 0.1 + 0.2, 1e-17, 1 - 1e-16])
    h = Histogram(CHAIN[2], vals, SIGNED)
    back = histogram_from_csv(text_of(histogram_to_csv, h), CHAIN[2])
    assert back.values.tolist() == vals.tolist()  # bit-exact via repr


def test_csv_header_and_shape_checks():
    with pytest.raises(ValidationError):
        histogram_from_csv("a,b\n1,2\n", CHAIN[1])
    good = text_of(histogram_to_csv, prob(1, [0.5, 0.5]))
    with pytest.raises(ValidationError):
        histogram_from_csv(good, CHAIN[2])


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
