"""System families: base measures, splitting rules, covariances, JSON."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from histolim.conditions import polya_weak_condition
from histolim.errors import NumericError, ValidationError
from histolim.partitions import Domain, dyadic_chain
from histolim.sampling import sample_stack
from histolim.streams import RandomStream
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
    LeakageSystem,
    LebesgueBase,
    PointMassCovariance,
    PolyaTreeSystem,
    TableRule,
    assemble_sigma,
    leakage_rows,
    sigma_factor,
    system_from_json,
)

from cell_walk import CellIndex, cantor_midpoint, dyadic_cell_bounds, oracle_pair

CHAIN = dyadic_chain(depth=4)


# --- per-node moment oracles ------------------------------------------------
# Closed forms node by node, against which the level-wise means and the
# Beta split moments are checked.

def split_mean(b0: float, b1: float) -> tuple[float, float]:
    """Expected (left, right) fractions of a Beta split, honoring the
    infinite-parameter point masses."""
    inf0, inf1 = math.isinf(b0), math.isinf(b1)
    if inf0 and inf1:
        return (0.5, 0.5)
    if inf0:
        return (1.0, 0.0)
    if inf1:
        return (0.0, 1.0)
    total = b0 + b1
    return (b0 / total, b1 / total)


def split_second_moment(b0: float, b1: float) -> tuple[float, float]:
    """Expected squared (left, right) fractions of a Beta split."""
    if math.isinf(b0) or math.isinf(b1):
        m0, m1 = split_mean(b0, b1)
        return (m0 * m0, m1 * m1)  # the split is deterministic
    total = b0 + b1
    common = b0 * b1 / (total * total * (total + 1.0))
    return (common + (b0 / total) ** 2, common + (b1 / total) ** 2)


def mean_of_cell(system: PolyaTreeSystem, level: int, pos: int) -> float:
    """E P(cell) as the product of expected split fractions along the
    path from the root to interval cell (level, pos)."""
    value = 1.0
    for l in range(level):
        b0, b1 = system.rule.pair(l, pos >> (level - l))
        value *= split_mean(b0, b1)[pos >> (level - l - 1) & 1]
    return value * (1.0 - system.p0)


def second_moment_of_cell(system: PolyaTreeSystem, level: int, pos: int) -> float:
    value = 1.0
    for l in range(level):
        b0, b1 = system.rule.pair(l, pos >> (level - l))
        value *= split_second_moment(b0, b1)[pos >> (level - l - 1) & 1]
    return value * (1.0 - system.p0) ** 2


def dirichlet_second_moment(system: DirichletSystem, partition) -> np.ndarray:
    """Per-cell E[P(A)^2] = (nu(A)^2 + nu(A)) / (nu(X)^2 + nu(X))."""
    nu = system.concentrations(partition)
    total = nu.sum()
    return (nu**2 + nu) / (total**2 + total)


# --- base measures ----------------------------------------------------------

def test_lebesgue_cell_masses():
    masses = LebesgueBase(scale=2.0).cell_masses(CHAIN[2])
    assert masses.tolist() == [0.5] * 4


def test_atomic_cell_masses_respect_half_open_cells():
    # cells are (left, right], so an atom at a cut point lands left of it
    base = AtomicBase((0.25, 0.5, 0.9), (1.0, 2.0, 4.0))
    masses = base.cell_masses(CHAIN[1])
    assert masses.tolist() == [3.0, 4.0]
    assert base.mass_of_interval(0, 1) == 7.0


def test_atomic_base_validation():
    with pytest.raises(ValidationError):
        AtomicBase((0.5,), (-1.0,))
    with pytest.raises(ValidationError):
        AtomicBase((), ())


# --- Dirichlet --------------------------------------------------------------

def test_dirichlet_mean_is_normalized_base():
    system = DirichletSystem(LebesgueBase())
    mean = system.mean(CHAIN[3])
    assert mean.values.tolist() == pytest.approx([1 / 8] * 8)


def test_dirichlet_second_moment_level2():
    # nu = (1/4,...,1/4), total 1: E P(A)^2 = (1/16 + 1/4) / 2 = 5/32
    system = DirichletSystem(LebesgueBase())
    m2 = dirichlet_second_moment(system, CHAIN[2])
    assert m2.tolist() == pytest.approx([5 / 32] * 4)


def test_dirichlet_degenerate_base_rejected():
    system = DirichletSystem(AtomicBase((0.5,), (0.0,)))
    with pytest.raises(ValidationError) as e:
        system.mean(CHAIN[1])
    assert e.value.code == "system/degenerate"


# --- splitting rules --------------------------------------------------------

def test_homogeneous_rule_expressions():
    rule = HomogeneousRule("m^2 + 1")
    assert rule.level_parameter(3) == 10.0
    # children of a level-2 node split at level m = 3
    assert rule.pair(2, 0b01) == (10.0, 10.0)
    with pytest.raises(ValidationError):
        HomogeneousRule("__import__('os')")
    with pytest.raises(ValidationError):
        HomogeneousRule("m + -m")  # zero at every level
    for expr in ("True*m", "m+False", "m**True", "True"):  # a bool is an int, not a number
        with pytest.raises(ValidationError) as e:
            HomogeneousRule(expr)
        assert e.value.code == "system/beta-expression"


def test_table_rule_lookup_and_default():
    rule = TableRule({"0": (2.0, 1.0)}, default=(1.0, 3.0))
    assert rule.pair(1, 0b0) == (2.0, 1.0)
    assert rule.pair(2, 0b11) == (1.0, 3.0)
    bare = TableRule({"()": (1.0, 1.0)})
    with pytest.raises(ValidationError) as e:
        bare.pair(1, 0b0)
    assert e.value.code == "system/beta"


def test_table_rule_accepts_inf():
    rule = TableRule({}, default=(math.inf, 1.0))
    assert rule.pair(0, 0) == (math.inf, 1.0)


def test_cantor_rule_is_trig_of_midpoint():
    rule = CantorTrigRule()
    angle = 0.5 * math.pi * float(cantor_midpoint((0, 1)))
    b0, b1 = rule.pair(2, 0b01)
    assert (b0, b1) == (math.cos(angle), math.sin(angle))
    assert b0**2 + b1**2 == pytest.approx(1.0)


def test_dirichlet_match_rule_sums_to_parent():
    rule = DirichletMatchRule(LebesgueBase(scale=4.0))
    b0, b1 = rule.pair(1, 0b1)
    assert b0 + b1 == pytest.approx(rule.base.mass_of_interval(*dyadic_cell_bounds((1,))))
    zero = DirichletMatchRule(AtomicBase((0.1,), (1.0,)))
    with pytest.raises(ValidationError):
        zero.pair(1, 0b1)  # right half has no base mass


def test_split_moments_closed_forms():
    assert split_mean(2.0, 1.0) == pytest.approx((2 / 3, 1 / 3))
    assert split_mean(math.inf, 1.0) == (1.0, 0.0)
    assert split_mean(math.inf, math.inf) == (0.5, 0.5)
    # Beta(1,1): E U^2 = 1/3
    m0, m1 = split_second_moment(1.0, 1.0)
    assert m0 == pytest.approx(1 / 3) and m1 == pytest.approx(1 / 3)
    # deterministic splits square the mean
    assert split_second_moment(math.inf, 1.0) == (1.0, 0.0)


def test_polya_mean_and_second_moment():
    het = TableRule({"()": (2.0, 1.0), "0": (1.0, 3.0)}, default=(1.0, 1.0))
    system = PolyaTreeSystem(het)
    # cell 01: E = (2/3) * (3/4); E^2 uses Beta second moments per level
    assert mean_of_cell(system, 2, 0b01) == pytest.approx(0.5)
    s1 = split_second_moment(2.0, 1.0)[0]
    s2 = split_second_moment(1.0, 3.0)[1]
    assert second_moment_of_cell(system, 2, 0b01) == pytest.approx(s1 * s2)
    total = system.mean(CHAIN[2]).total()
    assert total == pytest.approx(1.0)


def test_polya_singleton_mass():
    chain = dyadic_chain(Domain.unit(closed_left=True), depth=2)
    system = PolyaTreeSystem(HomogeneousRule("1"), p0=0.25)
    mean = system.mean(chain[2])
    assert mean.values[0] == 0.25
    assert mean.total() == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        PolyaTreeSystem(HomogeneousRule("1"), p0=1.0)


@pytest.mark.parametrize("rule", [
    HomogeneousRule("m**2"),
    CantorTrigRule(),
    DirichletMatchRule(LebesgueBase(2.0)),
    TableRule({"()": (2.0, 1.0), "1": (0.5, 3.0)}, default=(math.inf, 2.0)),
], ids=lambda rule: rule.to_json()["rule"])
@pytest.mark.parametrize("p0, domain", [(0.0, Domain.unit()),
                                        (0.3, Domain.unit(closed_left=True))])
def test_polya_mean_equals_per_cell_products(rule, p0, domain):
    system = PolyaTreeSystem(rule, p0)
    chain = dyadic_chain(domain, depth=8)
    for part in chain.partitions:
        per_cell = [p0] * part.has_atom + [mean_of_cell(system, part.level, pos)
                                           for pos in range(1 << part.level)]
        assert np.array_equal(system.mean(part).values, per_cell)


def test_polya_table_without_default_stops_at_missing_node():
    system = PolyaTreeSystem(TableRule({"()": (1.0, 1.0), "0": (2.0, 2.0)}))
    chain = dyadic_chain(depth=3)
    assert system.mean(chain[1]).values.tolist() == [0.5, 0.5]
    for call in (lambda: system.mean(chain[2]),
                 lambda: sample_stack(system, chain, 2, RandomStream(0), 1)):
        with pytest.raises(ValidationError) as e:
            call()
        assert e.value.code == "system/beta"
    # the enumerated evidence ends at the last level with every node defined
    assert [m for m, _ in polya_weak_condition(system).evidence] == [1]


def per_node_pairs(rule, level):
    """The node-by-node loop that `level_pairs` replaces."""
    width = level - 1
    pairs = [rule.pair(width, i) for i in range(1 << width)]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


RULES = [
    HomogeneousRule("m**2"),
    HomogeneousRule("0.5"),
    HomogeneousRule("m*m + -6*m + 9"),  # zero at m = 3 only
    CantorTrigRule(),
    DirichletMatchRule(LebesgueBase(2.5)),
    DirichletMatchRule(LebesgueBase(0.75), Domain(Fraction(-3, 2), Fraction(5, 4))),
    DirichletMatchRule(AtomicBase((0.1, 0.2, 0.3, 0.5, 0.7, 0.9),
                                  (1.0, 2.0, 0.5, 0.25, 1.0, 3.0))),  # fails at node 10
    TableRule({"()": (2.0, 1.0), "01": (0.5, math.inf)}, default=(1.5, 2.5)),
    TableRule({"()": (1.0, 1.0), "0": (2.0, 2.0), "1": (3.0, 1.0)}),
]


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.to_json()["rule"])
def test_level_pairs_equal_per_node_pairs(rule):
    for level in range(1, 13):
        try:
            expect = per_node_pairs(rule, level)
        except ValidationError as e:
            with pytest.raises(ValidationError) as got:
                rule.level_pairs(level)
            assert (got.value.code, str(got.value)) == (e.code, str(e))
            continue
        a, b = rule.level_pairs(level)
        assert np.array_equal(a, expect[0]) and np.array_equal(b, expect[1])


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.to_json()["rule"])
def test_pair_equals_the_bit_address_oracle(rule):
    """`pair(level, pos)` gives what the rule gave the node's bit address:
    the same floats, or the same error code and text.  Levels reach past
    the 40 of the boundary-path conditions and past 3^m > 2^53."""
    rng = random.Random(20)
    for level in range(46):
        top = (1 << level) - 1
        for pos in sorted({0, top, *(rng.randint(0, top) for _ in range(6))}):
            try:
                expect = oracle_pair(rule, CellIndex.at(pos, level))
            except ValidationError as e:
                with pytest.raises(ValidationError) as got:
                    rule.pair(level, pos)
                assert (got.value.code, str(got.value)) == (e.code, str(e))
                continue
            assert rule.pair(level, pos) == expect


def test_polya_completely_random_tracks_rule():
    assert not PolyaTreeSystem(HomogeneousRule("m")).completely_random
    match = PolyaTreeSystem(DirichletMatchRule(LebesgueBase()))
    assert match.completely_random


# --- covariances ------------------------------------------------------------

def test_constant_covariance_rank_one():
    spec = ConstantCovariance(4.0)
    sigma = assemble_sigma(spec, CHAIN[2])
    w = np.full(4, 0.25)
    assert np.allclose(sigma, 4.0 * np.outer(w, w))
    f = sigma_factor(spec, CHAIN[2])
    assert f.shape == (4, 1)  # exact rank-1 factor
    assert np.allclose(f @ f.T, sigma)


def test_diagonal_covariance_factor():
    spec = DiagonalCovariance(LebesgueBase())
    f = sigma_factor(spec, CHAIN[3])
    assert np.allclose(f, np.diag(np.sqrt(np.full(8, 1 / 8))))


def test_point_mass_covariance_checks():
    good = PointMassCovariance((0.25, 0.75), np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert not good.is_diagonal
    diag = PointMassCovariance((0.25, 0.75), np.eye(2))
    assert diag.is_diagonal
    with pytest.raises(ValidationError):
        PointMassCovariance((0.25, 0.75), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValidationError):
        PointMassCovariance((0.25,), np.array([[1.0, 0.0], [0.0, 1.0]]))
    # refused before the symmetry check, which counts inf == inf and calls
    # a nan asymmetric
    for entry in (math.inf, math.nan):
        with pytest.raises(ValidationError) as e:
            PointMassCovariance((0.3,), np.array([[entry]]))
        assert (e.value.code, str(e.value)) == ("covariance/point-mass",
                                                "site matrix entries must be finite")


def test_point_mass_assembly_lands_on_containing_cells():
    spec = PointMassCovariance((0.3, 0.8), np.diag([2.0, 5.0]))
    sigma = assemble_sigma(spec, CHAIN[1])
    assert sigma.tolist() == [[2.0, 0.0], [0.0, 5.0]]


def test_kernel_covariance_psd_and_names():
    spec = KernelCovariance("gaussian", {"length": 0.5})
    sigma = assemble_sigma(spec, CHAIN[3])
    assert np.all(np.linalg.eigvalsh(sigma) > -1e-12)
    with pytest.raises(ValidationError):
        KernelCovariance("unknown-kernel")


def test_greens_needs_boundary_correction():
    # bare -|x-y| is conditionally negative definite, not a covariance
    bad = GreensCovariance(1, affine=(0.0, 0.0, 0.0))
    with pytest.raises(NumericError) as e:
        assemble_sigma(bad, CHAIN[3])
    assert e.value.code == "covariance/not-psd"
    good = GreensCovariance(1)  # Brownian-bridge-type correction
    sigma = assemble_sigma(good, CHAIN[3])
    assert np.all(np.linalg.eigvalsh(sigma) >= -1e-10)


def test_gaussian_system_properties():
    diag = GaussianSystem(DiagonalCovariance(LebesgueBase()))
    assert diag.completely_random and diag.centred
    assert diag.centre_histogram(CHAIN[2]).values.tolist() == [0.0] * 4
    q = diag.q_alpha(CHAIN[2])
    assert q.values.tolist() == pytest.approx([math.sqrt(2 * 0.25 / math.pi)] * 4)
    assert q.values.tolist() == diag.spread(CHAIN[2]).tolist()
    centred_only = GaussianSystem(ConstantCovariance(1.0), LebesgueBase())
    assert not centred_only.centred
    assert centred_only.spread(CHAIN[2]).tolist() == pytest.approx(
        [math.sqrt(2 * 0.25 ** 2 / math.pi)] * 4)
    with pytest.raises(ValidationError) as e:
        centred_only.q_alpha(CHAIN[2])
    assert e.value.code == "system/not-centred"


# --- leakage ----------------------------------------------------------------

def test_leakage_outside_mass_schedule():
    system = LeakageSystem(0.2, depth=8)
    # outer cuts sit at +-(n-1); the closed window [-4, 4] is escaped as
    # soon as the cut reaches it, i.e. from depth 5 on
    for n, expect in [(2, 0.0), (4, 0.0), (5, 0.2), (8, 0.2)]:
        assert system.outside_masses(n, (4.0,)) == [pytest.approx(expect)]
    assert system.outside_masses(8, (0.5, 4.0, 8.0)) == pytest.approx([0.2, 0.2, 0.0])


def _deepest_rule():
    """The HomogeneousRule of the longest even run of unary minus before m
    that can be built (and evaluated at m = 1) from this stack."""
    lo, hi = 0, 4000  # built at 2 lo levels, not at 2 hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            HomogeneousRule("-" * (2 * mid) + "m")
            lo = mid
        except ValidationError:
            hi = mid
    return HomogeneousRule("-" * (2 * lo) + "m")


def _below(frames: int, call):
    return call() if frames == 0 else _below(frames - 1, call)


def test_an_expression_built_near_the_recursion_limit_fails_deeper_down():
    """Reading and evaluating each recurse once per level of the expression,
    so a rule built near the recursion limit fails, as too deep, where it is
    evaluated from a deeper stack."""
    rule = _deepest_rule()
    assert rule.level_parameter(2) == 2.0
    with pytest.raises(ValidationError) as e:
        _below(50, lambda: rule.level_parameter(2))
    assert (e.value.code, str(e.value)) == ("system/beta-expression",
                                            f"{rule.expr!r} is nested too deeply to evaluate")


def test_a_kernel_length_whose_square_overflows_is_refused_on_load():
    """((x - y) / length)^2 overflows at the gap 0.65 for lengths below about
    4.85e-155; at the gap 0.6 only below about 4.47e-155."""
    KernelCovariance("gaussian", {"length": 4.9e-155})
    with pytest.raises(OverflowError):
        KernelCovariance("gaussian", {"length": 4.8e-155})
    KernelCovariance("exponential", {"length": 1e-300})  # exp(-inf) is 0.0


def test_leakage_outside_mass_refuses_a_negative_window():
    with pytest.raises(ValidationError) as e:
        LeakageSystem(0.2, depth=4).outside_masses(2, (1.0, -0.5))
    assert (e.value.code, str(e.value)) == ("system/window", "window must be >= 0, got -0.5")


def _fraction_leakage_rows(depth):
    """The cut points built as exact Fractions, then turned into floats."""
    rows = []
    current = [Fraction(0)]
    rows.append(list(current))
    for _ in range(2, depth + 1):
        new = [current[0] - 1]
        for a, b in zip(current[:-1], current[1:]):
            new.append(a)
            new.append((a + b) / 2)
        new.append(current[-1])
        new.append(current[-1] + 1)
        current = new
        rows.append(list(current))
    return [[float(q) for q in row] for row in rows]


def test_leakage_rows_equal_the_exact_fraction_rows():
    exact = _fraction_leakage_rows(18)
    got = leakage_rows(18)
    assert got == exact
    assert all(np.array_equal(np.signbit(g), np.signbit(e)) for g, e in zip(got, exact))
    for depth in (1, 2, 7):
        assert leakage_rows(depth) == exact[:depth]


def test_leakage_histogram_masses():
    system = LeakageSystem(0.3, depth=4)
    chain = system.chain()
    h = system.mean(chain[3])
    assert h.values[0] == 0.15 and h.values[-1] == 0.15
    assert h.total() == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        LeakageSystem(1.0, depth=4)


def test_leakage_interior_chart_stays_in_unit():
    system = LeakageSystem(0.2, depth=6, interior=True)
    chain = system.chain()
    assert chain.domain == Domain.unit()
    h = system.mean(chain[4])
    assert h.total() == pytest.approx(1.0)


# --- JSON round trips -------------------------------------------------------

@pytest.mark.parametrize("obj", [
    {"family": "dirichlet", "base": {"type": "lebesgue", "scale": 2.0}},
    {"family": "dirichlet", "base": {"type": "atoms", "points": [0.5],
                                     "weights": [3.0]}},
    {"family": "polya", "beta": {"rule": "homogeneous", "expr": "m^2"}},
    {"family": "polya", "beta": {"rule": "table", "pairs": {"0": [1.0, 2.0]},
                                 "default": [1.0, 1.0]}},
    {"family": "polya", "beta": {"rule": "cantor_trig"}},
    {"family": "gaussian", "covariance": {"variant": "constant", "c": 1.0}},
    {"family": "gaussian",
     "covariance": {"variant": "diagonal", "sigma2": {"type": "lebesgue"}},
     "centre": {"type": "atoms", "points": [0.5], "weights": [1.0]}},
    {"family": "leakage", "delta": 0.25, "depth": 6, "interior": True},
])
def test_system_json_round_trip(obj):
    system = system_from_json(obj)
    again = system_from_json(system.to_json())
    assert again.to_json() == system.to_json()


def test_table_rule_json_accepts_inf_strings():
    system = system_from_json({"family": "polya",
                               "beta": {"rule": "table", "pairs": {},
                                        "default": ["inf", 1.0]}})
    assert system.rule.default == (math.inf, 1.0)


def test_system_json_rejects_unknown_family():
    with pytest.raises(ValidationError):
        system_from_json({"family": "teleport"})
    with pytest.raises(ValidationError):
        system_from_json(["not", "a", "dict"])
