"""Condition evaluators: exact verdicts, frozen tails, verdict discipline.

Terminal statuses (holds / fails / sufficient_condition_fails) must rest on
closed forms or certified bounds; floating-point trends alone may only ever
produce `undetermined` with a labelled extrapolation.  The tests here pin
the frozen reference numbers and the structural invariants behind each
closed form.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from histolim.conditions import (
    FAILS,
    HOLDS,
    SUFFICIENT_CONDITION_FAILS,
    UNDETERMINED,
    EVALUATOR_TAGS,
    PRODUCT_DEPTH,
    Verdict,
    dirichlet_condition,
    dirichlet_weak_condition,
    gaussian_conditions,
    leakage_counterexample,
    polya_leakage_condition,
    polya_tight_condition,
    polya_weak_condition,
)
from histolim.errors import NumericError, ValidationError
from histolim.partitions import Domain, dyadic_chain, triangular_chain
from histolim.systems import (
    AtomicBase,
    CantorTrigRule,
    ConstantCovariance,
    DiagonalCovariance,
    DirichletMatchRule,
    DirichletSystem,
    GaussianSystem,
    GreensCovariance,
    HomogeneousRule,
    KernelCovariance,
    LebesgueBase,
    PointMassCovariance,
    PolyaTreeSystem,
    TableRule,
    assemble_sigma,
)

CHAIN10 = dyadic_chain(depth=10)


def polya(rule):
    return PolyaTreeSystem(rule)


# --- verdict plumbing -------------------------------------------------------

def test_verdict_rejects_unknown_status():
    with pytest.raises(ValidationError):
        Verdict("polya-tight", "maybe", "P-tight", "nope", ())


def test_verdict_json_shape():
    v = polya_tight_condition(polya(HomogeneousRule("m")))
    obj = v.to_json()
    assert obj["condition"] == "polya-tight"
    assert obj["status"] == HOLDS
    assert obj["anchor"] == "P-tight"
    assert "argument" in obj and obj["argument"]
    assert "extrapolation" not in obj  # exact verdicts carry none


def test_every_evaluator_has_a_tag():
    for name, tag in EVALUATOR_TAGS.items():
        assert tag.startswith("P-"), (name, tag)


# --- tightness products -----------------------------------------------------

def test_homogeneous_tight_holds_exactly():
    v = polya_tight_condition(polya(HomogeneousRule("m^2")))
    assert v.status == HOLDS
    # symmetric splits: every log term is log(2), divergence is exact
    assert v.evidence[0][1] == pytest.approx(math.log(2.0))


def test_cantor_boundary_product_certified():
    """Convexity gives tan(theta/3) <= tan(theta)/3, so the boundary terms
    decay at worst geometrically with ratio 1/3 and the product has a
    certified positive floor: a fails verdict, not a numeric guess."""
    system = polya(CantorTrigRule())
    v = polya_tight_condition(system)
    assert v.status == FAILS
    assert v.extrapolation is not None
    assert v.extrapolation["method"] == "certified-geometric-tail"
    assert v.extrapolation["ratio_bound"] == pytest.approx(1 / 3)
    # frozen partial sum at depth 40 and the resulting product floor
    assert v.evidence[-1] == (40, pytest.approx(1.057592923844381, abs=1e-14))
    assert v.extrapolation["product_floor"] == \
        pytest.approx(0.34729076034106726, rel=1e-12)
    assert v.extrapolation["tail_bound"] < 2e-9


def test_cantor_directional_mirror_symmetry():
    """The all-zeros and all-ones boundary products are mirror images; their
    depth-40 partial sums must agree to well under 1e-12."""
    system = polya(CantorTrigRule())
    down = polya_tight_condition(system)
    up = polya_leakage_condition(system)
    assert up.status == down.status == FAILS
    gap = abs(down.evidence[-1][1] - up.evidence[-1][1])
    assert gap < 1e-12


def test_tight_terms_are_nonincreasing_partial_sums():
    for rule in (CantorTrigRule(), HomogeneousRule("m")):
        v = polya_tight_condition(polya(rule))
        sums = [s for _, s in v.evidence]
        assert all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))


def test_divergence_lower_bound_for_ratio_bounded_rules():
    # S_M >= M * log(1 + r) whenever every other/path ratio is >= r;
    # for homogeneous rules r = 1 exactly
    v = polya_tight_condition(polya(HomogeneousRule("m^3")), depth=25)
    m, s = v.evidence[-1]
    assert s >= m * math.log(2.0) - 1e-9


def test_dirichlet_match_tight_telescopes():
    system = polya(DirichletMatchRule(LebesgueBase()))
    v = polya_tight_condition(system)
    assert v.status == HOLDS
    # the product of left-fractions telescopes to the cell mass 2^-m,
    # so the log-sum at depth m is exactly m log 2
    m, s = v.evidence[-1]
    assert s == pytest.approx(m * math.log(2.0), rel=1e-12)


def test_table_rule_default_drives_tail_status():
    fin = polya(TableRule({"0": (3.0, 1.0)}, default=(2.0, 2.0)))
    assert polya_tight_condition(fin).status == HOLDS
    pinned = polya(TableRule({}, default=(math.inf, 1.0)))
    v = polya_tight_condition(pinned)
    # path weight pinned to 1: the other-side terms vanish, product positive
    assert v.status == FAILS
    no_default = polya(TableRule({"()": (1.0, 1.0)}))
    assert polya_tight_condition(no_default).status == UNDETERMINED


def test_undetermined_verdict_explains_itself():
    v = polya_tight_condition(polya(TableRule({"()": (1.0, 1.0)})))
    assert v.status == UNDETERMINED
    # the rule is literally undefined past its horizon; the argument says so
    assert "no exact tail argument" in v.argument
    assert v.evidence  # partial sums up to the horizon are still reported


# --- weak (domination) conditions ------------------------------------------

def test_homogeneous_weak_closed_forms():
    """sup_m (1 + 1/(2 b_m + 1))^m: finite limit iff m / (2 b_m + 1) is
    bounded.  Frozen values at depth 40 for the three calibration rules."""
    grow = polya_weak_condition(polya(HomogeneousRule("m")))
    assert grow.status == HOLDS
    assert grow.evidence[-1][1] == pytest.approx(1.6336286458262632, rel=1e-12)
    assert grow.evidence[-1][1] <= math.exp(0.5) + 1e-9

    flat = polya_weak_condition(polya(HomogeneousRule("1")))
    assert flat.status == SUFFICIENT_CONDITION_FAILS
    assert flat.evidence[-1][1] == pytest.approx((4 / 3) ** 40, rel=1e-10)

    fast = polya_weak_condition(polya(HomogeneousRule("m^2")))
    assert fast.status == HOLDS
    # sup over all m is attained at m = 1: (1 + 1/3)^1
    sup = max(s for _, s in fast.evidence)
    assert sup == pytest.approx(4 / 3, rel=1e-12)


def test_weak_exponent_limit_uses_symbolic_growth():
    # b_m = m^3 grows even faster; the exponent limit is 0, condition holds
    v = polya_weak_condition(polya(HomogeneousRule("m^3")))
    assert v.status == HOLDS


def test_dirichlet_match_weak_diverges_exactly():
    system = polya(DirichletMatchRule(LebesgueBase()))
    v = polya_weak_condition(system)
    assert v.status == SUFFICIENT_CONDITION_FAILS
    # closed form (total + 2^m) / (total + 1) with total = 1
    m, s = v.evidence[-1]
    assert s == pytest.approx((1.0 + 2.0**m) / 2.0, rel=1e-12)


def test_table_weak_default_tail():
    inf_default = polya(TableRule({"0": (1.0, 2.0)},
                                  default=(math.inf, math.inf)))
    assert polya_weak_condition(inf_default).status == HOLDS
    fin_default = polya(TableRule({}, default=(1.0, 3.0)))
    v = polya_weak_condition(fin_default)
    assert v.status == SUFFICIENT_CONDITION_FAILS
    assert polya_weak_condition(polya(TableRule({"()": (1.0, 1.0)}))).status \
        == UNDETERMINED


def test_weak_enumeration_matches_homogeneous_closed_form():
    """A table rule that mimics beta = 1 everywhere must reproduce the
    homogeneous level products through the generic enumeration path."""
    table = polya(TableRule({}, default=(1.0, 1.0)))
    v = polya_weak_condition(table)
    assert v.status == SUFFICIENT_CONDITION_FAILS
    for m, s in v.evidence[:10]:
        assert s == pytest.approx((4 / 3) ** m, rel=1e-9)


# --- Dirichlet conditions ---------------------------------------------------

def test_dirichlet_existence_unconditional():
    v = dirichlet_condition(DirichletSystem(LebesgueBase(scale=3.0)))
    assert v.status == HOLDS
    assert v.anchor == "P-tight"
    broke = DirichletSystem(AtomicBase((0.5,), (0.0,)))
    with pytest.raises(ValidationError):
        dirichlet_condition(broke)


def test_dirichlet_weak_splits_on_base_type():
    atoms = DirichletSystem(AtomicBase((0.2, 0.7), (1.0, 2.0)))
    v = dirichlet_weak_condition(atoms)
    assert v.status == HOLDS
    # bound (total + #atoms) / (total + 1) is depth free
    assert all(s == pytest.approx((3.0 + 2) / 4.0) for _, s in v.evidence)
    lebesgue = DirichletSystem(LebesgueBase())
    assert dirichlet_weak_condition(lebesgue).status == FAILS


@pytest.mark.parametrize("points, weights, domain, cells", [
    ((1.5, 3.5), (1.0, 1.0), Domain(Fraction(0), Fraction(4)), [2, 2, 2]),
    ((0.3, 0.6), (1.0, 0.0), Domain.unit(), [1, 1, 1]),
    ((0.0, 0.3, 0.45), (1.0, 1.0, 1.0), Domain.unit(closed_left=True), [2, 2, 3]),
], ids=["wide-domain", "zero-weight-atom", "atom-at-left-end"])
def test_dirichlet_weak_counts_the_cells_that_sampling_fills(points, weights, domain, cells):
    """Each level counts the cells where `cell_masses` puts the atoms of
    positive weight, and the bound counts only those atoms."""
    system = DirichletSystem(AtomicBase(points, weights))
    total = sum(weights)
    v = dirichlet_weak_condition(system, domain, depth=3)
    assert v.evidence == tuple((m, (total + c) / (total + 1.0))
                               for m, c in enumerate(cells, start=1))
    for m, c in enumerate(cells, start=1):
        masses = system.base.cell_masses(dyadic_chain(domain, depth=m)[m])
        assert np.count_nonzero(masses) == c
    atoms = sum(w > 0 for w in weights)
    assert f"at most {atoms} cells" in v.argument
    assert v.argument.endswith(f"{(total + atoms) / (total + 1.0):.6g}")


ON_LINE = triangular_chain([[0.0], [-1.0, 0.0, 1.0], [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]])


@pytest.mark.parametrize("chain, depth, cells", [
    (ON_LINE, 3, [2, 3, 3]),
    (ON_LINE, PRODUCT_DEPTH, [2, 3, 3]),
    (dyadic_chain(Domain(Fraction(-2), Fraction(4)), 1), 4, [2, 3, 3, 3]),
], ids=["triangular", "triangular-past-its-depth", "dyadic-past-its-depth"])
def test_dirichlet_weak_counts_atoms_in_the_chain_levels(chain, depth, cells):
    """Level m counts the cells of the chain's own level m that sampling
    fills: on the line, (-inf, 0] and (0, inf) hold -1.5 | 0.25, 3.0 at
    level 1.  A dyadic chain goes on halving past its depth; a triangular
    one has no levels past its depth and no evidence there."""
    system = DirichletSystem(AtomicBase((0.25, -1.5, 3.0), (1.0, 2.0, 0.5)))
    v = dirichlet_weak_condition(system, depth=depth, chain=chain)
    assert v.evidence == tuple((m, (3.5 + c) / 4.5) for m, c in enumerate(cells, start=1))
    for m, c in enumerate(cells[:chain.depth], start=1):
        assert np.count_nonzero(system.base.cell_masses(chain[m])) == c
    lebesgue = DirichletSystem(LebesgueBase())
    bounded = dyadic_chain(depth=1) if chain.kind == "dyadic" else triangular_chain(
        [[k / 2 ** n for k in range(1, 2 ** n)] for n in (1, 2, 3)], domain=Domain.unit())
    assert [m for m, _ in dirichlet_weak_condition(lebesgue, depth=depth, chain=bounded)
            .evidence] == [m for m, _ in v.evidence]


# --- Gaussian conditions ----------------------------------------------------

def test_constant_kernel_exact_relations():
    system = GaussianSystem(ConstantCovariance(4.0))
    out = gaussian_conditions(system, CHAIN10)
    assert set(out) == {"spectral", "weak", "trace"}
    # E|alpha(X)| = sqrt(c) * mu(X): constant in depth, exactly 2 here
    assert all(s == pytest.approx(2.0, rel=1e-12) for _, s in out["weak"].evidence)
    assert out["weak"].status == HOLDS
    assert out["spectral"].status == SUFFICIENT_CONDITION_FAILS
    assert out["trace"].status == UNDETERMINED


def test_diagonal_lebesgue_statuses():
    system = GaussianSystem(DiagonalCovariance(LebesgueBase()))
    out = gaussian_conditions(system, CHAIN10)
    assert out["diagonal"].status == HOLDS
    # largest diagonal entry halves per level: exact 2^-m evidence
    for m, s in out["diagonal"].evidence:
        assert s == pytest.approx(2.0**-m, rel=1e-12)
    assert out["weak"].status == SUFFICIENT_CONDITION_FAILS
    assert out["spectral"].status == SUFFICIENT_CONDITION_FAILS


def test_diagonal_atomic_statuses():
    system = GaussianSystem(DiagonalCovariance(AtomicBase((0.3,), (2.0,))))
    out = gaussian_conditions(system, CHAIN10)
    # the atom keeps a fixed diagonal entry: sufficient condition fails
    assert out["diagonal"].status == SUFFICIENT_CONDITION_FAILS
    assert all(s == pytest.approx(2.0) for _, s in out["diagonal"].evidence)
    assert out["weak"].status == HOLDS


def test_point_mass_spectral_depth_invariant():
    system = GaussianSystem(PointMassCovariance(
        (0.25, 0.75), np.array([[1.0, 0.5], [0.5, 1.0]])))
    out = gaussian_conditions(system, CHAIN10)
    assert out["spectral"].status == SUFFICIENT_CONDITION_FAILS
    # evidence n * lambda_max stays >= the grand sum 3 (flat-vector bound)
    # and doubles with the cell count once the sites separate
    values = [s for _, s in out["spectral"].evidence]
    assert all(s >= 3.0 - 1e-12 for s in values)
    assert values[2:] == pytest.approx([6.0 * 2**k for k in range(len(values) - 2)])
    assert out["weak"].status == HOLDS


def test_point_mass_cancelling_offdiagonal_is_undetermined():
    matrix = np.array([[1.0, -1.0], [-1.0, 1.0]])
    system = GaussianSystem(PointMassCovariance((0.25, 0.75), matrix))
    out = gaussian_conditions(system, CHAIN10)
    assert out["spectral"].status == UNDETERMINED


@pytest.mark.parametrize("spec", [
    PointMassCovariance((0.25, 0.75), np.array([[1.0, 0.5], [0.5, 1.0]])),
    KernelCovariance("gaussian", {"length": 0.3}, order=3),
], ids=["point-mass", "kernel"])
def test_one_spectrum_per_gaussian_level(spec, monkeypatch):
    """The PSD check's spectrum gives `tau`: one `eigvalsh` per level."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args, **kwargs: calls.append(a.shape)
                        or eigvalsh(a, *args, **kwargs))
    out = gaussian_conditions(GaussianSystem(spec), CHAIN10, depth=4)
    # `leggauss` finds the order-3 quadrature nodes with one 3x3 `eigvalsh`
    assert [shape for shape in calls if shape != (3, 3)] == [(2**m, 2**m) for m in range(5)]
    assert [m for m, _ in out["spectral"].evidence] == list(range(5))


def test_quadrature_kernels_stay_undetermined():
    for spec in (KernelCovariance("gaussian", {"length": 0.3}),
                 GreensCovariance(1)):
        out = gaussian_conditions(GaussianSystem(spec), CHAIN10)
        # quadrature assemblies carry no exact argument: never a terminal
        # verdict, only reported levels
        assert out["spectral"].status == UNDETERMINED
        assert out["weak"].status == UNDETERMINED
        assert "no exact" in out["spectral"].argument
        assert out["spectral"].evidence


def test_trace_is_always_informational():
    for cov in (ConstantCovariance(1.0), DiagonalCovariance(LebesgueBase())):
        out = gaussian_conditions(GaussianSystem(cov), CHAIN10)
        assert out["trace"].status == UNDETERMINED


# --- leakage ----------------------------------------------------------------

def test_leakage_counterexample_rows():
    rep = leakage_counterexample(0.2, 12)
    assert rep.verdict.status == FAILS
    assert "no tight limit" in rep.verdict.argument
    assert rep.windows == (1.0, 2.0, 4.0, 8.0)
    by_window = {}
    for depth, window, mass in rep.rows:
        by_window.setdefault(window, []).append(mass)
        assert mass in (0.0, pytest.approx(0.2))
    # the outer cuts reach +-11 by depth 12: every default window is
    # eventually escaped with the full escaping mass
    for window, masses in by_window.items():
        assert masses[-1] == pytest.approx(0.2), window
        assert masses == sorted(masses)  # monotone in depth


def test_leakage_zero_delta_holds():
    rep = leakage_counterexample(0.0, 6)
    assert rep.verdict.status == HOLDS


def test_leakage_interior_variant():
    rep = leakage_counterexample(0.3, 9, interior=True)
    assert rep.verdict.status == FAILS
    assert all(m in (0.0, pytest.approx(0.3)) for _, _, m in rep.rows)


# --- depth handling ---------------------------------------------------------

def test_product_depth_parameter():
    v = polya_tight_condition(polya(HomogeneousRule("m")), depth=12)
    assert len(v.evidence) == 12
    assert v.evidence[-1][0] == 12
    assert PRODUCT_DEPTH == 40


# --- diagonal covariances: variances without the dense matrix ---------------

def _dense_variances(spec, partition):
    """The diagonal of the assembled matrix as `spread` and the Gaussian
    conditions read it before they skipped the matrix for diagonal specs."""
    return np.diag(assemble_sigma(spec, partition))


@pytest.mark.parametrize("sigma2, closed", [
    (LebesgueBase(), False),
    (LebesgueBase(), True),  # the atom cell has no variance
    (LebesgueBase(0.0), False),
    (LebesgueBase(1.5 * 2.0 ** 1023), False),  # level 0's one mass doubles to inf
    (AtomicBase((0.25, 0.6, 0.61), (5e-324, 1.0, 3.0)), False),
    (AtomicBase((0.25, 0.6), (2.0 ** 1023, 1.0)), False),  # inf at every level
    (AtomicBase((0.25, 0.26), (1e308, 1e308)), False),  # the masses sum to inf
], ids=["lebesgue", "closed-left", "zero", "huge-scale", "atoms", "huge-atom", "inf-cell"])
def test_diagonal_variances_give_the_dense_diagonal(sigma2, closed, monkeypatch):
    """`DiagonalCovariance.variances` has the bits of the symmetrised
    matrix's diagonal, where masses of 2**1023 or more double to inf, and
    `spread` and the Gaussian verdicts that read it are those of the dense
    path.  Where the dense path refuses an inf diagonal as not finite, the
    variances are still that diagonal."""
    spec = DiagonalCovariance(sigma2)
    system = GaussianSystem(spec)
    chain = dyadic_chain(Domain.unit(closed_left=closed), depth=6)
    converged = True
    with np.errstate(over="ignore"):
        for level in range(7):
            part = chain[level]
            masses = np.diag(sigma2.cell_masses(part))
            want = np.diag(0.5 * (masses + masses.T))
            got = spec.variances(part)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(system.spread(part), np.sqrt(2.0 * want / math.pi))
            try:
                assert np.array_equal(_dense_variances(spec, part), want)
            except NumericError as e:
                assert e.code == "covariance/not-finite"
                converged = False
        verdicts = gaussian_conditions(system, chain, depth=6)
        if converged:  # the verdicts of the dense path
            monkeypatch.setattr(DiagonalCovariance, "variances", _dense_variances)
            assert gaussian_conditions(system, chain, depth=6) == verdicts
