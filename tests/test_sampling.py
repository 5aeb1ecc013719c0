"""Samplers: determinism, level replay, moment sanity, coherence."""

import math
import tracemalloc

import numpy as np
import pytest

from histolim.errors import ValidationError
from histolim.histograms import PROBABILITY, project_values
from histolim.partitions import Domain, PartitionChain, dyadic_chain
from histolim.sampling import (
    path_from_histogram,
    sample_stack,
)
from histolim.streams import CHUNK_SIZE, RandomStream, run_chunked
from histolim.systems import (
    AtomicBase,
    CantorTrigRule,
    ConstantCovariance,
    DiagonalCovariance,
    DirichletMatchRule,
    DirichletSystem,
    GaussianSystem,
    HomogeneousRule,
    LeakageSystem,
    LebesgueBase,
    PolyaTreeSystem,
    TableRule,
    sigma_factor,
)

CHAIN = dyadic_chain(depth=6)


def test_dirichlet_rows_live_on_simplex():
    system = DirichletSystem(LebesgueBase())
    stack = sample_stack(system, CHAIN, 3, RandomStream(1), 500)
    assert stack.kind == PROBABILITY
    assert np.allclose(stack.values.sum(axis=1), 1.0)
    assert np.all(stack.values >= 0)


def test_dirichlet_zero_concentration_cells_stay_zero():
    base = AtomicBase((0.2, 0.9), (1.0, 1.0))  # only cells 0 and 3 charged
    stack = sample_stack(DirichletSystem(base), CHAIN, 2, RandomStream(2), 200)
    assert np.all(stack.values[:, 1] == 0.0)
    assert np.all(stack.values[:, 2] == 0.0)


def test_dirichlet_tiny_concentrations_degenerate_to_atoms():
    # all-Gamma-underflow rows must still be unit atoms, not NaN
    base = AtomicBase((0.2, 0.9), (1e-300, 1e-300))
    stack = sample_stack(DirichletSystem(base), CHAIN, 1, RandomStream(3), 300)
    assert np.all(np.isfinite(stack.values))
    assert np.allclose(stack.values.sum(axis=1), 1.0)
    # every row is a single unit atom
    assert np.all(np.sort(stack.values, axis=1)[:, -1] == 1.0)


def test_dirichlet_mean_matches_monte_carlo():
    system = DirichletSystem(LebesgueBase())
    stack = sample_stack(system, CHAIN, 2, RandomStream(4), 20_000)
    est = stack.values.mean(axis=0)
    se = stack.values.std(axis=0, ddof=1) / math.sqrt(len(stack))
    z = (est - system.mean(CHAIN[2]).values) / se
    assert np.all(np.abs(z) < 4)


def test_polya_level_replay_identity():
    """Depth-(m-1) run replays inside a depth-m run with the same stream."""
    system = PolyaTreeSystem(HomogeneousRule("m"))
    fine = sample_stack(system, CHAIN, 5, RandomStream(9), 64)
    coarse = sample_stack(system, CHAIN, 4, RandomStream(9), 64)
    projected = project_values(fine.values, CHAIN.refinement(4, 5))
    assert np.allclose(projected, coarse.values, atol=1e-12)


def test_polya_infinite_parameters_pin_splits():
    system = PolyaTreeSystem(TableRule({}, default=(math.inf, 1.0)))
    stack = sample_stack(system, CHAIN, 3, RandomStream(11), 50)
    # every split pins left, so all mass sits in cell 0
    assert np.all(stack.values[:, 0] == 1.0)
    assert np.all(stack.values[:, 1:] == 0.0)


def test_polya_p0_needs_atom_cell():
    system = PolyaTreeSystem(HomogeneousRule("1"), p0=0.25)
    with pytest.raises(ValidationError) as e:
        sample_stack(system, CHAIN, 2, RandomStream(1), 10)
    assert e.value.code == "sampling/atom-mass"
    chain = dyadic_chain(Domain.unit(closed_left=True), depth=3)
    stack = sample_stack(system, chain, 3, RandomStream(1), 40)
    assert np.all(stack.values[:, 0] == 0.25)
    assert np.allclose(stack.values.sum(axis=1), 1.0)


def test_polya_rejects_non_binary_chain():
    rows = [[0.0], [-1.0, 0.0, 1.0]]
    from histolim.partitions import triangular_chain

    chain = triangular_chain(rows)
    system = PolyaTreeSystem(HomogeneousRule("1"))
    stack = sample_stack(system, chain, 2, RandomStream(1), 5)  # binary: fine
    assert stack.values.shape == (5, 4)
    bad = triangular_chain([[0.0], [-1.0, 0.0, 1.0],
                            [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]])
    assert len(bad[3]) - bad[3].has_atom == 8  # still binary; build a broken one
    with pytest.raises(ValidationError):
        sample_stack(system, CHAIN, 99, RandomStream(1), 5)


def test_gaussian_constant_covariance_draws_are_rank_one():
    system = GaussianSystem(ConstantCovariance(2.0))
    stack = sample_stack(system, CHAIN, 3, RandomStream(6), 100)
    w = np.full(8, 1 / 8)
    # every row is a scalar multiple of the cell-width vector, exactly
    ratio = stack.values / w[None, :]
    assert np.allclose(ratio, ratio[:, :1])


def test_gaussian_diagonal_moments():
    system = GaussianSystem(DiagonalCovariance(LebesgueBase()))
    stack = sample_stack(system, CHAIN, 2, RandomStream(7), 30_000)
    var = stack.values.var(axis=0, ddof=1)
    assert np.allclose(var, 0.25, atol=0.02)
    cov = np.cov(stack.values[:, 0], stack.values[:, 1])[0, 1]
    assert abs(cov) < 0.01


def test_gaussian_centre_offsets_rows():
    system = GaussianSystem(DiagonalCovariance(AtomicBase((0.9,), (0.0,))),
                            centre=LebesgueBase())
    stack = sample_stack(system, CHAIN, 1, RandomStream(8), 10)
    # zero covariance: rows equal the centre exactly
    assert np.allclose(stack.values, 0.5)


@pytest.mark.parametrize("depth,replicates", [(4, 300), (8, 200), (10, 40)])
@pytest.mark.parametrize("sigma2,centre", [
    (LebesgueBase(), None),
    (AtomicBase((0.25, 0.6), (1.0, 2.0)), None),  # zero-variance cells
    (LebesgueBase(3.0), LebesgueBase()),
])
def test_gaussian_diagonal_equals_dense_factor(depth, replicates, sigma2, centre):
    """Elementwise diagonal draws give the bits of centre + z @ F^T with
    the dense factor F = diag(sqrt(sigma2)), signed zeros included."""
    system = GaussianSystem(DiagonalCovariance(sigma2), centre=centre)
    chain = dyadic_chain(depth=depth)
    partition = chain[depth]
    stream = RandomStream(17)
    got = sample_stack(system, chain, depth, stream, replicates).values
    mean = system.centre_histogram(partition).values
    factor = sigma_factor(system.covariance, partition)

    def dense(sub, k):
        z = sub.generator().standard_normal((k, factor.shape[1]))
        return mean[None, :] + z @ factor.T

    want = np.concatenate(run_chunked(stream, replicates, dense))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_sample_stack_dispatch_and_leakage_tiling():
    system = LeakageSystem(0.2, depth=5)
    chain = system.chain()
    stack = sample_stack(system, chain, 4, RandomStream(1), 7)
    assert stack.values.shape == (7, len(chain[4]))
    assert np.allclose(stack.values, stack.values[0][None, :])


def test_sample_stack_jobs_invariance():
    for system in (DirichletSystem(LebesgueBase()),
                   PolyaTreeSystem(HomogeneousRule("m")),
                   GaussianSystem(DiagonalCovariance(LebesgueBase()))):
        one = sample_stack(system, CHAIN, 4, RandomStream(42), 9000, jobs=1)
        four = sample_stack(system, CHAIN, 4, RandomStream(42), 9000, jobs=4)
        assert np.array_equal(one.values, four.values), type(system).__name__


def test_path_from_histogram_endpoints():
    system = DirichletSystem(LebesgueBase())
    h = sample_stack(system, CHAIN, 3, RandomStream(21), 1).histogram(0)
    pts = path_from_histogram(h)
    assert len(pts) == 8
    assert pts[0][0] == 0.125
    assert pts[-1][0] == 1.0
    assert pts[-1][1] == pytest.approx(1.0)
    # cumulative and nondecreasing for probability histograms
    values = [v for _, v in pts]
    assert values == sorted(values)


def test_path_skips_unbounded_cells():
    system = LeakageSystem(0.4, depth=4)
    chain = system.chain()
    h = system.mean(chain[3])
    pts = path_from_histogram(h)
    # end cells are unbounded: no point at +-inf
    assert all(math.isfinite(t) for t, _ in pts)
    assert len(pts) == len(chain[3]) - 1  # last cell emits nothing
    assert pts[-1][1] == pytest.approx(1.0 - 0.2)


def test_replicate_validation():
    with pytest.raises(ValidationError):
        sample_stack(DirichletSystem(LebesgueBase()), CHAIN, 2,
                     RandomStream(1), 0)


# --- the draws as they were written before the trims ------------------------

def _old_beta_matrix(rng, a, b, n):
    fa = np.where(np.isfinite(a), a, 1.0)
    fb = np.where(np.isfinite(b), b, 1.0)
    ga = rng.gamma(fa, 1.0, size=(n, len(a)))
    gb = rng.gamma(fb, 1.0, size=(n, len(b)))
    u = rng.uniform(size=(n, len(a)))
    total = ga + gb
    v = np.divide(ga, total, out=np.zeros_like(ga), where=total > 0)
    dead = total == 0.0
    if dead.any():
        odds = np.broadcast_to(fa / (fa + fb), v.shape)
        v[dead] = (u[dead] < odds[dead]).astype(float)
    pin_one = np.isinf(a) & np.isfinite(b)
    pin_zero = np.isfinite(a) & np.isinf(b)
    pin_half = np.isinf(a) & np.isinf(b)
    if pin_one.any():
        v[:, pin_one] = 1.0
    if pin_zero.any():
        v[:, pin_zero] = 0.0
    if pin_half.any():
        v[:, pin_half] = 0.5
    return v


def _old_polya_rows(system, chain, depth, stream, replicates):
    partition = chain[depth]
    pairs = [system.rule.level_pairs(level) for level in range(1, depth + 1)]
    tree_mass = 1.0 if not partition.has_atom else 1.0 - system.p0

    def draw(sub, k):
        mass = np.full((k, 1), tree_mass)
        for level, (a, b) in enumerate(pairs, start=1):
            v = _old_beta_matrix(sub.child(level).generator(), a, b, k)
            mass = np.stack([mass * v, mass * (1.0 - v)], axis=2).reshape(k, -1)
        if partition.has_atom:
            mass = np.concatenate([np.full((k, 1), system.p0), mass], axis=1)
        return mass

    return np.concatenate(run_chunked(stream, replicates, draw, jobs=2))


def _old_dirichlet_rows(system, partition, stream, replicates):
    nu = system.concentrations(partition)
    positive = nu > 0
    cum = np.cumsum(nu) / nu.sum()
    cum[-1] = 1.0

    def draw(sub, k):
        rng = sub.generator()
        g = np.zeros((k, len(nu)))
        g[:, positive] = rng.gamma(nu[positive], 1.0, size=(k, int(positive.sum())))
        u = rng.uniform(size=k)
        total = g.sum(axis=1)
        dead = np.flatnonzero(total == 0.0)
        if len(dead):
            g[dead, np.searchsorted(cum, u[dead], side="right")] = 1.0
            total[dead] = 1.0
        return g / total[:, None]

    return np.concatenate(run_chunked(stream, replicates, draw, jobs=2))


def test_beta_matrix_draws_uniforms_only_for_underflows(monkeypatch):
    """The blocked level split writes mass * v and mass * (1 - v) with the
    bits of the whole-matrix Beta draw: in one block, in blocks of 7 rows
    or of one row (also where a block would hold less than a row), and into
    strided views of the output rows."""
    import histolim.sampling as sampling

    # tiny shapes: both Gammas underflow in about half of the draws
    a = np.array([1e-4, 1e-4, 2.0, math.inf, math.inf, 0.5])
    b = np.array([1e-4, 3e-4, 2.0, 1.0, math.inf, math.inf])
    for block_cells in (sampling._BLOCK_CELLS, 42, 6, 1):
        monkeypatch.setattr(sampling, "_BLOCK_CELLS", block_cells)
        for seed in range(4):
            tree = np.ones((300, 12))
            sampling._split_level(np.random.default_rng(seed), a, b,
                                  tree[:, 0::2], tree[:, 1::2])
            old = _old_beta_matrix(np.random.default_rng(seed), a, b, 300)
            assert np.array_equal(tree[:, 0::2], old)
            assert np.array_equal(tree[:, 1::2], 1.0 - old)
    assert 0.0 < np.mean(old[:, 0] == 0.0) < 1.0


@pytest.mark.parametrize("rule", [
    HomogeneousRule("m**2"),
    HomogeneousRule("0.0001"),  # tiny shapes: swaps in many blocks
    TableRule({"0": (math.inf, 1.0), "1": (0.5, math.inf), "01": (math.inf, math.inf)},
              default=(1e-4, 2e-4)),
], ids=["m2", "tiny", "table_pins_tiny"])
def test_polya_draws_in_small_blocks_equal_the_level_loop(rule, monkeypatch):
    """Row blocks much smaller than a chunk (and one of a single row) give
    the bits of drawing each level whole."""
    import histolim.sampling as sampling

    system = PolyaTreeSystem(rule)
    chain = dyadic_chain(depth=5)
    want = _level_loop_polya_rows(system, chain, 5, RandomStream(3), 700)
    for block_cells in (1, 40, 100):
        monkeypatch.setattr(sampling, "_BLOCK_CELLS", block_cells)
        got = sample_stack(system, chain, 5, RandomStream(3), 700).values
        assert np.array_equal(got, want), block_cells
        assert np.array_equal(np.signbit(got), np.signbit(want)), block_cells


@pytest.mark.parametrize("system, closed", [
    (PolyaTreeSystem(HomogeneousRule("m^2")), False),
    (PolyaTreeSystem(HomogeneousRule("0.0001")), False),  # Bernoulli fallback
    (PolyaTreeSystem(TableRule({"0": (math.inf, 1.0)}, default=(0.5, math.inf))), False),
    (PolyaTreeSystem(HomogeneousRule("m"), p0=0.25), True),
])
def test_polya_draws_equal_the_stacked_level_loop(system, closed):
    chain = dyadic_chain(Domain.unit(closed_left=closed), depth=6)
    for depth in (0, 1, 6):
        new = sample_stack(system, chain, depth, RandomStream(5), 8200, jobs=2)
        old = _old_polya_rows(system, chain, depth, RandomStream(5), 8200)
        assert np.array_equal(new.values, old)


def _level_loop_polya_rows(system, chain, depth, stream, replicates):
    """The Polya draw as it was before it grew in place: one mass array per
    level, children written from it, and Gamma pairs from gamma(f, 1.0)."""
    partition = chain[depth]
    pairs = [system.rule.level_pairs(level) for level in range(1, depth + 1)]
    tree_mass = 1.0 if not partition.has_atom else 1.0 - system.p0

    def draw(sub, k):
        out = np.empty((k, len(partition)))
        mass = np.full((k, 1), tree_mass)
        for level, (a, b) in enumerate(pairs, start=1):
            v = _old_beta_matrix(sub.child(level).generator(), a, b, k)
            children = (out[:, partition.has_atom:] if level == depth
                        else np.empty((k, 2 * mass.shape[1])))
            np.multiply(mass, v, out=children[:, 0::2])
            np.multiply(mass, 1.0 - v, out=children[:, 1::2])
            mass = children
        out[:, partition.has_atom:] = mass
        if partition.has_atom:
            out[:, 0] = system.p0
        return out

    return np.concatenate(run_chunked(stream, replicates, draw))


@pytest.mark.parametrize("rule", [
    HomogeneousRule("m**2"),
    CantorTrigRule(),
    DirichletMatchRule(LebesgueBase()),
    TableRule({"0": (math.inf, 1.0), "1": (0.5, math.inf), "01": (math.inf, math.inf)},
              default=(2.0, 0.5)),
    HomogeneousRule("0.0001"),  # tiny shapes: the Bernoulli fallback
], ids=["m2", "cantor_trig", "dirichlet_match", "table_pins", "tiny"])
@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed_left"])
def test_polya_draws_in_place_equal_the_level_loop(rule, closed):
    system = PolyaTreeSystem(rule, p0=0.25 if closed else 0.0)
    chain = dyadic_chain(Domain.unit(closed_left=closed), depth=8)
    for depth in range(9):
        got = sample_stack(system, chain, depth, RandomStream(8), 1000).values
        want = _level_loop_polya_rows(system, chain, depth, RandomStream(8), 1000)
        assert np.array_equal(got, want), depth
        assert np.array_equal(np.signbit(got), np.signbit(want)), depth


@pytest.mark.parametrize("base, underflows", [
    (LebesgueBase(1.0), False),
    (LebesgueBase(1e-5), True),  # most rows underflow
    (AtomicBase((0.3, 0.7), (1.0, 2.0)), False),  # 14 of 16 cells have nu = 0
    (AtomicBase((0.2, 0.9), (1e-3, 1e-3)), True),  # zero cells and dead rows
], ids=["lebesgue", "lebesgue-tiny", "atoms", "atoms-tiny"])
def test_dirichlet_draws_equal_the_always_uniform_draw(base, underflows):
    """One standard Gamma call over every cell, zero shapes included, gives
    the bits of drawing the positive cells alone, and leaves the stream
    where that draw left it."""
    system = DirichletSystem(base)
    new = sample_stack(system, CHAIN, 4, RandomStream(6), 8200, jobs=2)
    old = _old_dirichlet_rows(system, CHAIN[4], RandomStream(6), 8200)
    assert np.array_equal(new.values, old)
    # the first chunk's Gammas: with tiny weights some rows underflow entirely
    nu = system.concentrations(CHAIN[4])
    g = RandomStream(6).child(0).generator().gamma(nu, 1.0, size=(8192, len(nu)))
    assert (g.sum(axis=1) == 0.0).any() == underflows


@pytest.mark.parametrize("jobs, system", [
    (jobs, system) for jobs in (1, 2) for system in (
        DirichletSystem(LebesgueBase()), GaussianSystem(DiagonalCovariance(LebesgueBase())),
        PolyaTreeSystem(HomogeneousRule("m**2")), LeakageSystem(0.2, depth=6))
], ids=lambda v: None if isinstance(v, int) else type(v).__name__)
def test_sample_stack_is_built_once(system, jobs):
    """Every chunk is drawn into its rows of the one array the stack holds,
    so the traced peak stays near the stack itself (it was about 2.1x when
    the chunks were concatenated and the result copied again).  A Polya
    tree grows in its rows too and draws each level's Beta pair in blocks
    of rows: 1.13x at one job and 1.20x at two (1.38x and 1.55x when it held
    a chunk's last Beta pair, 1.69x with per-level mass arrays too).  A
    leakage system writes its mean into the rows (1.67x and 2.05x when each
    chunk was a tiled copy)."""
    assert _stack_peak_ratio(system, jobs) < 1.3


def _stack_peak_ratio(system, jobs):
    """The traced peak of sampling a depth-6 stack of 3 chunks, over the stack's size."""
    chain = system.chain() if isinstance(system, LeakageSystem) else CHAIN
    tracemalloc.start()
    try:
        stack = sample_stack(system, chain, 6, RandomStream(2), 3 * CHUNK_SIZE, jobs=jobs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / stack.values.nbytes


@pytest.mark.parametrize("jobs, system", [
    (jobs, system) for jobs in (1, 2) for system in (
        GaussianSystem(DiagonalCovariance(LebesgueBase())), LeakageSystem(0.2, depth=6))
], ids=lambda v: None if isinstance(v, int) else type(v).__name__)
def test_validating_a_stack_takes_no_value_sized_mask(system, jobs):
    """The kind check reads reductions only: 1.006x and 1.03x the stack
    (1.125x when it built the `isfinite` and `< 0` masks, an eighth each)."""
    assert _stack_peak_ratio(system, jobs) < 1.05


@pytest.mark.parametrize("system", [DirichletSystem(LebesgueBase()), LeakageSystem(0.2, depth=6)],
                         ids=lambda system: type(system).__name__)
def test_path_adds_one_array_of_running_sums(system):
    """The path's points are a slice of the running sums, and the -0.0
    fix-up is done in place, so the traced peak of sampling a stack and
    taking its paths stays near two stacks (three, with a masked copy)."""
    chain = dyadic_chain(depth=6) if isinstance(system, DirichletSystem) else system.chain()
    tracemalloc.start()
    try:
        stack = sample_stack(system, chain, 6, RandomStream(2), 3 * CHUNK_SIZE)
        t, b = path_from_histogram(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b.shape == (len(stack), len(t))
    assert peak < 2.5 * stack.values.nbytes


def test_a_splitting_tree_refuses_a_chain_that_is_not_binary():
    """A chain may skip a level; a splitting tree halves every cell per level."""
    skipping = PartitionChain((CHAIN[0], CHAIN[2]))
    with pytest.raises(ValidationError) as e:
        sample_stack(PolyaTreeSystem(HomogeneousRule("m")), skipping, 1, RandomStream(0), 3)
    assert (e.value.code, str(e.value)) == (
        "sampling/non-binary",
        "level 1 has 4 interval cells, expected 2; splitting trees need a binary chain")
