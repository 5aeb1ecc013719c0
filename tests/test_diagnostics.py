"""Monte-Carlo diagnostics: coherence, atomicity, domination, phases.

Replicate counts here are deliberately small (the acceptance module runs
the full-size versions); what is tested is wiring, invariants, and verdict
logic, not statistical power.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from histolim.diagnostics import (
    MIN_STATISTICAL_SAMPLES,
    CurvePoint,
    DiagnosticCurve,
    PhaseReport,
    _largest_shares,
    atomicity_statistic,
    classify_atomicity,
    coherence_test,
    domination_statistic,
    phase_report,
    quadratic_variation,
    tv_martingale_curve,
)
from histolim.errors import ValidationError
from histolim.histograms import HistogramStack, PolynomialDensity, project_values
from histolim.partitions import dyadic_chain
from histolim.sampling import sample_stack
from histolim.streams import RandomStream
from histolim.systems import (
    AtomicBase,
    ConstantCovariance,
    DiagonalCovariance,
    DirichletSystem,
    GaussianSystem,
    HomogeneousRule,
    LeakageSystem,
    LebesgueBase,
    PolyaTreeSystem,
    TableRule,
)

CHAIN = dyadic_chain(depth=8)
DIR_LEB = DirichletSystem(LebesgueBase())
POLYA_M2 = PolyaTreeSystem(HomogeneousRule("m^2"))
GAUSS_DIAG = GaussianSystem(DiagonalCovariance(LebesgueBase()))


# --- coherence --------------------------------------------------------------

def test_coherence_passes_for_honest_samplers():
    res = coherence_test(POLYA_M2, CHAIN, (2, 3), 2000, seed=11)
    assert res.passed
    assert len(res.runs) == 3  # three seeds, all logged
    assert all(r.max_abs_z < res.threshold for r in res.runs)


def test_coherence_is_deterministic():
    a = coherence_test(DIR_LEB, CHAIN, (2, 3), 2000, seed=4)
    b = coherence_test(DIR_LEB, CHAIN, (2, 3), 2000, seed=4)
    assert [r.max_abs_z for r in a.runs] == [r.max_abs_z for r in b.runs]


def test_coherence_enforces_sample_floor():
    with pytest.raises(ValidationError) as e:
        coherence_test(DIR_LEB, CHAIN, (2, 3), MIN_STATISTICAL_SAMPLES - 1)
    assert e.value.code == "diagnostics/insufficient-samples"


def test_coherence_rejects_bad_levels():
    with pytest.raises(ValidationError):
        coherence_test(DIR_LEB, CHAIN, (3, 2), 2000)
    with pytest.raises(ValidationError):
        coherence_test(DIR_LEB, CHAIN, (2, 99), 2000)


def test_coherence_detects_an_incoherent_sampler():
    """Swapping the extreme fine cells of a lopsided tree shifts the coarse
    means (1/64 vs 27/64), which the two-substream z-test must flag."""
    lopsided = PolyaTreeSystem(TableRule({}, default=(1.0, 3.0)))
    honest = coherence_test(lopsided, CHAIN, (2, 3), 2000, seed=11)
    assert honest.passed

    def corrupted(system, chain, depth, stream, n, jobs=1):
        stack = sample_stack(system, chain, depth, stream, n, jobs=jobs)
        if depth == 3:
            v = stack.values.copy()
            v[:, [0, 7]] = v[:, [7, 0]]
            return HistogramStack(stack.partition, v, stack.kind)
        return stack

    broken = coherence_test(lopsided, CHAIN, (2, 3), 2000, seed=11,
                            sampler=corrupted)
    assert not broken.passed
    z = np.asarray(broken.runs[0].first_moment_z)
    # exactly the coarse cells above the swapped fine cells light up
    assert abs(z[0]) > 4 and abs(z[3]) > 4
    assert abs(z[1]) < 4 and abs(z[2]) < 4


def test_coherence_gaussian_families():
    res = coherence_test(GaussianSystem(ConstantCovariance(1.0)),
                         CHAIN, (2, 3), 2000, seed=5)
    assert res.passed


# --- atomicity --------------------------------------------------------------

def test_atomicity_values_probability_and_signed():
    stack = HistogramStack(CHAIN[2],
                           np.array([[0.5, 0.25, 0.25, 0.0]]), "probability")
    assert _largest_shares(stack.values, stack.kind).tolist() == [0.5]
    signed = HistogramStack(CHAIN[2], np.array([[0.5, -1.5, 0.0, 0.0],
                                                [0.0, 0.0, 0.0, 0.0]]))
    out = _largest_shares(signed.values, signed.kind)
    assert out.tolist() == [0.75, 0.0]  # max|v| / sum|v|; zero rows give 0


def test_atomicity_never_decreases_under_coarsening():
    # for nonnegative rows the coarse max cell mass dominates the fine one
    stack = sample_stack(DIR_LEB, CHAIN, 6, RandomStream(3), 500)
    fine = _largest_shares(stack.values, stack.kind)
    coarse = _largest_shares(project_values(stack.values, CHAIN.refinement(3, 6)), stack.kind)
    assert np.all(coarse >= fine - 1e-12)


def test_atomicity_curves_and_classification():
    curve = atomicity_statistic(DIR_LEB, CHAIN, (2, 4, 6, 8), 3000, seed=3)
    assert classify_atomicity(curve) == "plateau"
    curve = atomicity_statistic(POLYA_M2, CHAIN, (2, 4, 6, 8), 3000, seed=3)
    assert classify_atomicity(curve) == "decreasing"
    curve = atomicity_statistic(GAUSS_DIAG, CHAIN, (2, 4, 6, 8), 3000, seed=3)
    assert classify_atomicity(curve) == "decreasing"


def test_atomicity_point_mass_is_flat_one():
    point = LeakageSystem(0.0, 8)
    chain = point.chain()
    curve = atomicity_statistic(point, chain, (2, 4, 6), 10, seed=0)
    assert all(p.mean == 1.0 and p.stderr == 0.0 for p in curve.points)


def test_classify_needs_three_points():
    curve = atomicity_statistic(DIR_LEB, CHAIN, (2, 4), 1000, seed=1)
    assert classify_atomicity(curve) == "ambiguous"


def test_classify_between_plateau_and_decrease_is_ambiguous():
    """A final mean below 1/4 that has not halved from the first is neither."""
    curve = DiagnosticCurve("atomicity", tuple(CurvePoint(depth, None, mean, 0.0, 1)
                                               for depth, mean in ((2, 0.3), (3, 0.25), (4, 0.2))))
    assert classify_atomicity(curve) == "ambiguous"


def test_curves_need_two_replicates_for_a_standard_error():
    with pytest.raises(ValidationError) as e:
        atomicity_statistic(DIR_LEB, CHAIN, (2, 3), 1)
    assert (e.value.code, str(e.value)) == ("diagnostics/insufficient-samples",
                                            "need at least 2 replicates for a standard error")


# --- domination -------------------------------------------------------------

def test_domination_zero_for_self_dominated_system():
    leak = LeakageSystem(0.3, 8)
    chain = leak.chain()
    dom = domination_statistic(leak, chain, (2, 4), (1.0, 2.0), 50, seed=1)
    assert all(p.mean == 0.0 for p in dom.means.points)
    assert all(p.mean == 0.0 for p in dom.tails.points)


def test_domination_separates_random_atomic_from_dominated():
    dom = domination_statistic(DIR_LEB, CHAIN, (2, 4, 6), (1.0, 20.0),
                               2000, seed=7)
    tail = {(p.depth, p.L): p.mean for p in dom.tails.points}
    assert tail[(6, 20.0)] > 0.5  # excess survives any L: not dominated
    dom = domination_statistic(POLYA_M2, CHAIN, (2, 4, 6), (1.0, 20.0),
                               2000, seed=7)
    tail = {(p.depth, p.L): p.mean for p in dom.tails.points}
    assert all(tail[(d, 20.0)] < 0.05 for d in (2, 4, 6))


def test_domination_means_monotone_in_L():
    dom = domination_statistic(DIR_LEB, CHAIN, (2, 4), (1.0, 2.0, 5.0, 20.0),
                               1500, seed=9)
    means = {(p.depth, p.L): p.mean for p in dom.means.points}
    for d in (2, 4):
        row = [means[(d, L)] for L in (1.0, 2.0, 5.0, 20.0)]
        assert all(a >= b - 1e-12 for a, b in zip(row, row[1:]))


def test_reference_histogram_per_family():
    """Each family's `reference`: the mean, or for a Gaussian the spread."""
    ref = DIR_LEB.reference(CHAIN[3])
    assert ref.values.tolist() == pytest.approx([1 / 8] * 8)
    ref = GAUSS_DIAG.reference(CHAIN[2])
    assert np.all(ref.values > 0)  # q_alpha reference for centred gaussians
    shifted = GaussianSystem(DiagonalCovariance(LebesgueBase()),
                             centre=AtomicBase((0.3,), (2.0,)))
    ref = shifted.reference(CHAIN[2])
    assert ref.values.tolist() == (
        np.array([0.0, 2.0, 0.0, 0.0]) + shifted.spread(CHAIN[2])).tolist()
    leak = LeakageSystem(0.2, 6)
    ref = leak.reference(leak.chain()[3])
    assert ref.total() == pytest.approx(1.0)


# --- curves from closed forms ----------------------------------------------

def test_tv_martingale_curve_matches_closed_form():
    two_x = PolynomialDensity((0.0, 2.0))
    curve = tv_martingale_curve(two_x, CHAIN)
    for m, value in curve:
        assert value == pytest.approx(2.0 ** -(m + 2), abs=1e-12)


def test_tv_martingale_curve_flat_density_is_zero():
    flat = PolynomialDensity((1.0,))
    assert all(v == 0.0 for _, v in tv_martingale_curve(flat, CHAIN))


def test_quadratic_variation_of_linear_path():
    for m in (3, 6, 9):
        ts = np.linspace(0.0, 1.0, 2**m + 1)
        qv = quadratic_variation(np.stack([ts, ts], axis=1))
        assert qv == pytest.approx(2.0**-m, abs=1e-15)
    assert quadratic_variation([(0.0, 0.5), (1.0, 0.5)]) == 0.0


def test_quadratic_variation_validations():
    with pytest.raises(ValidationError) as e:
        quadratic_variation([(0.0, 0.0)])
    assert e.value.code == "diagnostics/path-too-short"
    with pytest.raises(ValidationError) as e:
        quadratic_variation(np.zeros((4, 3, 2)))
    assert e.value.code == "diagnostics/path-shape"
    # a bare value sequence works too
    assert quadratic_variation([0.0, 1.0, 0.0]) == 2.0


# --- phase reports ----------------------------------------------------------

def test_phase_dirichlet_lebesgue_random_atomic():
    rep = phase_report(DIR_LEB, CHAIN, replicates=2000, seed=2)
    assert rep.declared_phase == "random-atomic"
    assert rep.flags["atomic_corroborated"] is True
    assert rep.flags["completely_random"] is True


def test_phase_dirichlet_finite_base_fixed_atomic():
    finite = DirichletSystem(AtomicBase((0.2, 0.5, 0.9), (1.0, 1.0, 1.0)))
    rep = phase_report(finite, CHAIN, replicates=2000, seed=2)
    assert rep.declared_phase == "fixed-atomic"


def test_phase_polya_m2_absolutely_continuous():
    rep = phase_report(POLYA_M2, CHAIN, replicates=2000, seed=2)
    assert rep.declared_phase == "absolutely-continuous"


def test_phase_gaussian_diagonal_continuous_singular():
    rep = phase_report(GAUSS_DIAG, CHAIN, replicates=2000, seed=2)
    assert rep.declared_phase == "continuous-singular"
    assert rep.flags["atomic_corroborated"] is False
    assert rep.flags["completely_random"] is True


def test_phase_leakage_inconclusive_with_anchor():
    leak = LeakageSystem(0.3, 8)
    rep = phase_report(leak, leak.chain(), replicates=0)
    assert rep.declared_phase == "inconclusive"
    assert "no tight limit" in rep.rationale
    assert "(P-tight)" in rep.rationale


def test_phase_of_a_leakage_system_without_escaping_mass_is_inconclusive():
    """Tightness holds, and the family has no domination clause."""
    leak = LeakageSystem(0.0, 6)
    rep = phase_report(leak, leak.chain(), replicates=0)
    assert (rep.declared_phase, rep.rationale) == (
        "inconclusive", "degenerate deterministic family: tightness holds but no "
                        "domination clause is evaluated")


def test_phase_report_refuses_an_unknown_phase():
    with pytest.raises(ValidationError) as e:
        PhaseReport({}, {}, None, None, None, "gaseous", "")
    assert (e.value.code, str(e.value)) == ("phase/label", "unknown phase 'gaseous'")


def test_phase_report_json_serializes():
    rep = phase_report(GaussianSystem(ConstantCovariance(1.0)), CHAIN,
                       replicates=2000, seed=2)
    assert rep.declared_phase == "absolutely-continuous"
    obj = rep.to_json()
    text = json.dumps(obj)
    assert "condition_verdicts" in obj and text
    assert rep.atomicity_curve.to_csv().splitlines()[0] == "depth,L,mean,stderr,n"


def oracle_curve_csv(curve):
    """The curve CSV as `csv.writer` writes it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["depth", "L", "mean", "stderr", "n"])
    for p in curve.points:
        writer.writerow([p.depth, "" if p.L is None else repr(p.L),
                         repr(p.mean), repr(p.stderr), p.n])
    return out.getvalue()


@pytest.mark.parametrize("L", [None, 0.5, -0.0, 1e16])
def test_curve_csv_bytes_match_csv_writer(L):
    values = [-0.0, 5e-324, 1e-05, 1e16, math.nan, math.inf, -math.inf]
    points = tuple(CurvePoint(depth, L if depth % 2 else None, mean, stderr, 10 ** depth)
                   for depth, (mean, stderr) in enumerate(zip(values, values[::-1])))
    for curve in (DiagnosticCurve("atomicity", points), DiagnosticCurve("tv", points[:1]),
                  DiagnosticCurve("empty", ())):
        assert curve.to_csv() == oracle_curve_csv(curve)
