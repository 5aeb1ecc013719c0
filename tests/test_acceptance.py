"""End-to-end acceptance checklist.

One test per shipped guarantee, in a fixed order, so that ``pytest -v``
prints a single pass/fail line for each.  Every tolerance and runtime
budget is asserted inside the test that owns it; nothing here is loosened
for convenience.  Monte-Carlo tests pin their seeds, so a pass is
reproducible bit for bit.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from histolim.cli import main
from histolim.conditions import (gaussian_conditions, leakage_counterexample,
                                 polya_tight_condition, polya_weak_condition)
from histolim.diagnostics import (coherence_test, phase_report,
                                  quadratic_variation, tv_martingale_curve)
from histolim.histograms import PolynomialDensity
from histolim.partitions import dyadic_chain
from histolim.sampling import path_from_histogram, sample_stack
from histolim.streams import RandomStream
from histolim.systems import (AtomicBase, CantorTrigRule, ConstantCovariance,
                              DiagonalCovariance, DirichletSystem,
                              GaussianSystem, HomogeneousRule, LeakageSystem,
                              LebesgueBase, PolyaTreeSystem, TableRule)

JOBS = 4

DIR_LEB = DirichletSystem(LebesgueBase())
GAUSS_DIAG = GaussianSystem(DiagonalCovariance(LebesgueBase()))

COHERENCE_SUITE = (
    ("dirichlet-lebesgue", DIR_LEB),
    ("polya-beta-1", PolyaTreeSystem(HomogeneousRule("1"))),
    ("polya-beta-m", PolyaTreeSystem(HomogeneousRule("m"))),
    ("polya-beta-m^2", PolyaTreeSystem(HomogeneousRule("m**2"))),
    ("gaussian-diagonal-lebesgue", GAUSS_DIAG),
    ("gaussian-constant-1", GaussianSystem(ConstantCovariance(1.0))),
)


def _path_moment(system: PolyaTreeSystem, level: int, pos: int, power: int) -> float:
    """E P(cell)^power, power 1 or 2, of interval cell (level, pos), as the
    product of the Beta split moments along its path from the root (finite
    splitting parameters)."""
    value = 1.0
    for l in range(level):
        b0, b1 = system.rule.pair(l, pos >> (level - l))
        total = b0 + b1
        share = (b0, b1)[pos >> (level - l - 1) & 1] / total
        value *= share if power == 1 else b0 * b1 / (total * total * (total + 1.0)) + share ** 2
    return value * (1.0 - system.p0) ** power


def _z(values: np.ndarray, target: float) -> float:
    se = values.std(ddof=1) / math.sqrt(len(values))
    return (values.mean() - target) / se


@pytest.mark.wallclock
def test_criterion_01_coherence_suite():
    chain = dyadic_chain(depth=6)
    started = time.perf_counter()
    worst = 0.0
    for name, system in COHERENCE_SUITE:
        for levels in ((2, 3), (5, 6)):
            res = coherence_test(system, chain, levels, 100_000,
                                 seed=31, jobs=JOBS)
            assert res.passed, f"{name} at levels {levels}"
            worst = max(worst, max(r.max_abs_z for r in res.runs))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"coherence suite took {elapsed:.1f}s"
    print(f"criterion 01 PASS  12 coherence runs, worst |z| = {worst:.2f}, "
          f"{elapsed:.1f}s")


def test_criterion_02_dirichlet_marginal_beta_law():
    chain = dyadic_chain(depth=3)
    stack = sample_stack(DIR_LEB, chain, 3, RandomStream(101), 10_000,
                         jobs=JOBS)
    law = stats.beta(1 / 8, 7 / 8)
    pvalues = [stats.kstest(stack.values[:, j], law.cdf).pvalue
               for j in range(stack.values.shape[1])]
    assert min(pvalues) > 0.01, f"KS p-values {pvalues}"
    print(f"criterion 02 PASS  8 cells vs Beta(1/8, 7/8), "
          f"min p = {min(pvalues):.3f}")


def test_criterion_03_dirichlet_second_moment():
    chain = dyadic_chain(depth=2)
    stack = sample_stack(DIR_LEB, chain, 2, RandomStream(59), 10_000,
                         jobs=JOBS)
    z = _z(stack.values[:, 0] ** 2, 5 / 32)
    assert abs(z) < 4.0
    print(f"criterion 03 PASS  second moment vs 5/32, z = {z:+.2f}")


def test_criterion_04_polya_moment_closed_forms():
    chain = dyadic_chain(depth=2)
    cell = (2, 0b01)

    het = PolyaTreeSystem(TableRule({"()": (2.0, 1.0), "0": (1.0, 3.0)},
                                    default=(1.0, 1.0)))
    assert _path_moment(het, *cell, 1) == pytest.approx(0.5, abs=1e-15)
    stack = sample_stack(het, chain, 2, RandomStream(55), 100_000, jobs=JOBS)
    z_het = _z(stack.values[:, 1], 0.5)
    assert abs(z_het) < 4.0

    homog = PolyaTreeSystem(HomogeneousRule("1"))
    assert _path_moment(homog, *cell, 2) == pytest.approx(1 / 9, abs=1e-15)
    stack = sample_stack(homog, chain, 2, RandomStream(56), 100_000, jobs=JOBS)
    z_homog = _z(stack.values[:, 1] ** 2, 1 / 9)
    assert abs(z_homog) < 4.0
    print(f"criterion 04 PASS  mean 0.5 z = {z_het:+.2f}, "
          f"second moment 1/9 z = {z_homog:+.2f}")


@pytest.mark.wallclock
def test_criterion_05_condition_evaluators():
    started = time.perf_counter()

    for expr in ("1", "m", "m**2"):
        v = polya_tight_condition(PolyaTreeSystem(HomogeneousRule(expr)))
        assert v.status == "holds", expr

    cantor = polya_tight_condition(PolyaTreeSystem(CantorTrigRule()))
    assert cantor.status == "fails"
    assert cantor.extrapolation is not None
    assert cantor.extrapolation["ratio_bound"] <= 1 / 3

    weak_m = polya_weak_condition(PolyaTreeSystem(HomogeneousRule("m")))
    assert weak_m.status == "holds"
    assert max(v for _, v in weak_m.evidence) <= math.exp(0.5)

    weak_1 = polya_weak_condition(PolyaTreeSystem(HomogeneousRule("1")))
    assert weak_1.status == "sufficient_condition_fails"

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"evaluators took {elapsed:.2f}s"
    print(f"criterion 05 PASS  4 exact verdicts in {elapsed * 1000:.0f}ms")


def test_criterion_06_constant_kernel_statistics():
    c = 4.0
    chain = dyadic_chain(depth=8)
    system = GaussianSystem(ConstantCovariance(c))

    out = gaussian_conditions(system, chain)
    weak_levels = dict(out["weak"].evidence)
    spectral_levels = dict(out["spectral"].evidence)
    assert set(weak_levels) == set(range(9))
    assert set(spectral_levels) == set(range(9))
    assert all(v == math.sqrt(c) for v in weak_levels.values())
    assert all(v == c for v in spectral_levels.values())

    stack = sample_stack(system, chain, 8, RandomStream(7), 500, jobs=JOBS)
    spread = np.ptp(stack.values, axis=1)
    scale = np.maximum(np.abs(stack.values).max(axis=1), 1e-300)
    worst = float((spread / scale).max())
    assert worst <= 1e-9
    print(f"criterion 06 PASS  weak = sqrt(c), top eigenvalue = c at levels "
          f"0..8; row spread {worst:.1e}")


@pytest.mark.wallclock
def test_criterion_07_brownian_increments():
    started = time.perf_counter()
    chain = dyadic_chain(depth=12)
    stack = sample_stack(GAUSS_DIAG, chain, 12, RandomStream(77), 10_000,
                         jobs=JOBS)

    totals = stack.values.sum(axis=1)
    p = stats.kstest(totals, "norm").pvalue
    assert p > 0.01, f"KS p = {p:.4f}"

    qv = (stack.values[:1000] ** 2).sum(axis=1)
    path = [(0.0, 0.0)] + path_from_histogram(stack.histogram(0))
    path_qv = quadratic_variation(path)
    assert path_qv == pytest.approx(qv[0], abs=1e-10)
    in_band = float(((qv > 0.9) & (qv < 1.1)).mean())
    assert in_band >= 0.95

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"criterion 07 PASS  B(1) KS p = {p:.3f}, QV in band "
          f"{in_band:.1%}, {elapsed:.1f}s")


def test_criterion_08_tv_martingale_curve():
    chain = dyadic_chain(depth=8)
    curve = tv_martingale_curve(PolynomialDensity((0.0, 2.0)), chain)
    values = dict(curve)
    assert set(values) == set(range(1, 9))
    assert values[1] == pytest.approx(0.125, abs=1e-12)
    for m in range(1, 9):
        assert values[m] == pytest.approx(2.0 ** -(m + 2), abs=1e-12)
    print("criterion 08 PASS  TV curve = 2^-(m+2) for m = 1..8 to 1e-12")


def test_criterion_09_leakage_counterexample():
    report = leakage_counterexample(0.2, 12)
    deepest = {}
    for depth, window, outside in report.rows:
        deepest[window] = outside
    assert set(deepest) == set(report.windows)
    assert all(outside == 0.2 for outside in deepest.values())
    assert report.verdict.status == "fails"
    assert report.verdict.anchor == "P-tight"

    leak = LeakageSystem(0.2, 12)
    rep = phase_report(leak, leak.chain(), replicates=0)
    assert rep.declared_phase == "inconclusive"
    assert "no tight limit" in rep.rationale
    assert "(P-tight)" in rep.rationale
    print("criterion 09 PASS  outside mass exactly 0.2 beyond all windows; "
          "phase inconclusive with (P-tight)")


def test_criterion_10_phase_table():
    chain = dyadic_chain(depth=6)
    atoms = AtomicBase(points=(0.125, 0.625, 0.875), weights=(1.0, 2.0, 1.0))
    polya_m2 = PolyaTreeSystem(HomogeneousRule("m**2"))

    rep = phase_report(DIR_LEB, chain, seed=11, jobs=JOBS)
    assert rep.declared_phase == "random-atomic"

    rep = phase_report(DirichletSystem(atoms), chain, seed=12, jobs=JOBS)
    assert rep.declared_phase == "fixed-atomic"

    rep = phase_report(polya_m2, chain, seed=13, jobs=JOBS)
    assert rep.declared_phase == "absolutely-continuous"
    assert rep.condition_verdicts["dominated"].status == "holds"

    rep = phase_report(GAUSS_DIAG, chain, seed=14, jobs=JOBS)
    assert rep.declared_phase == "continuous-singular"
    assert rep.flags["atomic_corroborated"] is False
    print("criterion 10 PASS  four families land on their phase table rows")


def test_criterion_11_determinism(tmp_path: Path, capsys):
    system = tmp_path / "system.json"
    system.write_text('{"family": "dirichlet", "base": {"type": "lebesgue"}}')

    outputs = []
    for tag, jobs in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / f"sample-{tag}.csv"
        code = main(["sample", "--system", str(system), "--depth", "5",
                     "--seed", "42", "--replicates", "200", "--format", "csv",
                     "--jobs", str(jobs), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    reports = []
    for tag, jobs in (("a", 2), ("b", 1)):
        out = tmp_path / f"diagnose-{tag}.json"
        code = main(["diagnose", "--system", str(system), "--N", "1000",
                     "--depths", "2,3", "--seed", "5", "--jobs", str(jobs),
                     "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    print("criterion 11 PASS  byte-identical outputs across reruns and "
          "--jobs 1/2/4")
