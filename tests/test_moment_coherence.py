"""Coherence of the first two moments, computed exactly rather than sampled.

A system is coherent when the law of its level-m histogram is the law of
the level-(m+1) histogram summed along `refine_map`.  Then the level-m
mean vector is the summed level-(m+1) mean, and the level-m covariance is
R Sigma_{m+1} R^T, for R the 0/1 matrix of the refinement map.  Dirichlet
and Polya moments are in closed form here; Gaussian ones are the package's
`mean` and `assemble_sigma`.  Integral (kernel and Green's) covariances are
left out: they are assembled by quadrature per level, and are not coherent.
"""

from fractions import Fraction

import numpy as np
import pytest

from histolim.histograms import project_values
from histolim.partitions import Domain, dyadic_chain, refine_map, triangular_chain
from histolim.systems import (
    AtomicBase,
    CantorTrigRule,
    ConstantCovariance,
    DiagonalCovariance,
    DirichletMatchRule,
    DirichletSystem,
    GaussianSystem,
    HomogeneousRule,
    LebesgueBase,
    PointMassCovariance,
    PolyaTreeSystem,
    TableRule,
    assemble_sigma,
)

#: relative gap allowed between level m and level m+1 summed: float
#: rounding, nothing more
REL_TOL = 1e-12

CHAINS = {
    "dyadic-open": dyadic_chain(Domain.unit(), depth=6),
    "dyadic-closed": dyadic_chain(Domain.unit(closed_left=True), depth=6),
    "triangular-unit": triangular_chain(
        [[(k / (1 << n)) ** 2 for k in range(1, 1 << n)] for n in range(1, 6)], Domain.unit()),
    "triangular-real": triangular_chain(
        [[(2.0 * k / (1 << n) - 1.0) ** 3 for k in range(1, 1 << n)] for n in range(1, 5)]),
}
BOUNDED = ("dyadic-open", "dyadic-closed", "triangular-unit")
UNIT_ATOMS = AtomicBase((0.1, 0.5, 0.5625, 1.0), (1.0, 2.0, 0.5, 0.25))
REAL_ATOMS = AtomicBase((0.25, -1.5, 3.0), (1.0, 2.0, 0.5))


def dirichlet_moments(system, part):
    alpha = system.concentrations(part)
    total = alpha.sum()
    mean = alpha / total
    cov = (total * np.diag(alpha) - np.outer(alpha, alpha)) / (total * total * (total + 1.0))
    return mean, cov


def polya_moments(system, part):
    """E P and E P P^T built down the tree: a child pair of one node takes
    the Beta(a, b) second moments, children of distinct nodes split
    independently; the singleton atom holds p0 without variance."""
    second = np.ones((1, 1))
    mean = np.ones(1)
    for level in range(1, part.level + 1):
        a, b = system.rule.level_pairs(level)
        t = a + b
        share = np.stack([a / t, b / t], axis=1).reshape(-1)
        mean = np.repeat(mean, 2) * share
        parent = second
        second = np.kron(parent, np.ones((2, 2))) * np.outer(share, share)
        node = np.arange(len(a))
        same = np.diag(parent) / (t * (t + 1.0))
        second[2 * node, 2 * node] = same * a * (a + 1.0)
        second[2 * node + 1, 2 * node + 1] = same * b * (b + 1.0)
        second[2 * node, 2 * node + 1] = second[2 * node + 1, 2 * node] = same * a * b
    scale = 1.0 - system.p0
    mean, cov = scale * mean, scale * scale * (second - np.outer(mean, mean))
    if part.has_atom:
        mean = np.concatenate([[system.p0], mean])
        cov = np.pad(cov, ((1, 0), (1, 0)))
    return mean, cov


def gaussian_moments(system, part):
    return system.mean(part).values, assemble_sigma(system.covariance, part)


DIR_LEB = DirichletSystem(LebesgueBase())
CASES = [
    ("dirichlet-lebesgue", DIR_LEB, dirichlet_moments, BOUNDED),
    ("dirichlet-unit-atoms", DirichletSystem(UNIT_ATOMS), dirichlet_moments, BOUNDED),
    ("dirichlet-real-atoms", DirichletSystem(REAL_ATOMS), dirichlet_moments, ("triangular-real",)),
    ("polya-m^2", PolyaTreeSystem(HomogeneousRule("m**2")), polya_moments, tuple(CHAINS)),
    ("polya-cantor-trig", PolyaTreeSystem(CantorTrigRule()), polya_moments, tuple(CHAINS)),
    ("polya-dirichlet-match", PolyaTreeSystem(DirichletMatchRule(LebesgueBase())),
     polya_moments, tuple(CHAINS)),
    ("polya-table", PolyaTreeSystem(TableRule({"()": (2.0, 1.0), "1": (0.5, 3.0)},
                                              default=(1.5, 0.75))), polya_moments, tuple(CHAINS)),
    ("polya-p0", PolyaTreeSystem(HomogeneousRule("m + 1"), p0=0.25), polya_moments,
     ("dyadic-closed",)),
    ("gaussian-diagonal", GaussianSystem(DiagonalCovariance(LebesgueBase())),
     gaussian_moments, BOUNDED),
    ("gaussian-diagonal-atoms", GaussianSystem(DiagonalCovariance(REAL_ATOMS)),
     gaussian_moments, ("triangular-real",)),
    ("gaussian-constant-centred", GaussianSystem(ConstantCovariance(2.0), LebesgueBase(0.5)),
     gaussian_moments, BOUNDED),
    ("gaussian-point-mass", GaussianSystem(PointMassCovariance(
        (0.3, 0.7, 0.5625), np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.0], [0.25, 0.0, 2.0]]))),
     gaussian_moments, BOUNDED),
    ("gaussian-point-mass-real", GaussianSystem(PointMassCovariance(
        (-1.5, 0.25), np.array([[1.0, -0.5], [-0.5, 1.0]]))), gaussian_moments,
     ("triangular-real",)),
]


def _gap(coarse, summed):
    scale = max(1.0, float(np.abs(coarse).max()))
    return float(np.abs(coarse - summed).max()) / scale


@pytest.mark.parametrize("system,moments,chain", [
    pytest.param(system, moments, CHAINS[chain], id=f"{name}-{chain}")
    for name, system, moments, chains in CASES for chain in chains])
def test_moments_are_coherent_along_refinements(system, moments, chain):
    fine_mean, fine_cov = moments(system, chain[chain.depth])
    for m in reversed(range(chain.depth)):
        starts = refine_map(chain[m], chain[m + 1])
        mean, cov = moments(system, chain[m])
        assert cov.shape == (len(chain[m]),) * 2
        assert _gap(system.mean(chain[m]).values, mean) <= REL_TOL, m
        assert _gap(mean, project_values(fine_mean, starts)) <= REL_TOL, m
        assert _gap(cov, project_values(project_values(fine_cov, starts).T, starts)) <= REL_TOL, m
        fine_mean, fine_cov = mean, cov


def test_polya_moments_match_a_path_product():
    """The tree recursion agrees with E P(A)^2 as the product of Beta
    second moments along the cell's path, in exact rationals."""
    system = PolyaTreeSystem(TableRule({"()": (2.0, 1.0), "1": (0.5, 3.0)}, default=(1.5, 0.75)))
    part = CHAINS["dyadic-open"][3]
    mean, cov = polya_moments(system, part)
    for pos in range(len(part)):
        first = second = Fraction(1)
        for level in range(3):
            b0, b1 = map(Fraction, system.rule.pair(level, pos >> (3 - level)))
            own = (b0, b1)[pos >> (2 - level) & 1]
            first *= own / (b0 + b1)
            second *= own * (own + 1) / ((b0 + b1) * (b0 + b1 + 1))
        assert mean[pos] == pytest.approx(float(first), rel=1e-15)
        assert cov[pos, pos] == pytest.approx(float(second - first * first), rel=1e-13)


def test_dirichlet_matching_polya_tree_has_the_dirichlet_moments():
    """A Polya tree whose splits are the base masses is the Dirichlet
    system on dyadic cells, moments included."""
    tree = PolyaTreeSystem(DirichletMatchRule(LebesgueBase()))
    for part in CHAINS["dyadic-open"]:
        for got, want in zip(polya_moments(tree, part), dirichlet_moments(DIR_LEB, part)):
            assert _gap(got, want) <= REL_TOL
