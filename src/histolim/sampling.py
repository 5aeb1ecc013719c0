"""Generative samplers for the histogram families.

Every sampler is a pure function of (system, partition or chain, stream):
the same ``RandomStream`` reproduces the same draws bit for bit, replicate
sweeps are carved into the fixed chunk grid of :mod:`histolim.streams` with
one substream per chunk, and the worker count never changes the output.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ValidationError
from .histograms import Histogram, HistogramStack
from .partitions import Partition, PartitionChain
from .streams import RandomStream, chunk_ranges, run_chunked
from .systems import (
    DirichletSystem,
    GaussianSystem,
    HistogramSystem,
    LeakageSystem,
    PolyaTreeSystem,
    sigma_factor,
    split_means,
)


#: a Polya level draws its Beta pair, and `diagnose` reduces a drawn chunk,
#: this many cells (1 MB of float64) at a time
_BLOCK_CELLS = 2 ** 17


def _gamma_shape(f: np.ndarray):
    """`f`, or its one value when all are equal: `standard_gamma` gives the
    same bits for a scalar shape, faster."""
    return float(f[0]) if (f == f[0]).all() else f


# ---------------------------------------------------------------------------
# Dirichlet

def _dirichlet_draw(system: DirichletSystem, chain: PartitionChain, depth: int):
    """Normalized Gamma vectors: Z_i ~ Gamma(nu_i, 1), rows Z / sum(Z).

    Cells with nu_i = 0 carry a point mass at zero, so they come out exactly
    0.0 in every row.  Should every Gamma draw of a row underflow to zero
    (possible when all nu_i are tiny), the row degenerates to a single unit
    atom placed by a categorical draw with weights nu — the weak limit of the
    Dirichlet as the concentrations shrink.
    """
    nu = system.concentrations(chain[depth])
    shape = _gamma_shape(nu)
    cum = np.cumsum(nu) / nu.sum()
    cum[-1] = 1.0

    def draw(sub: RandomStream, k: int, out: np.ndarray) -> np.ndarray:
        rng = sub.generator()
        # Gamma(nu, 1) is the standard Gamma; a zero shape gives 0.0 and
        # consumes no randomness, as if that cell were skipped
        g = rng.standard_gamma(shape, size=(k, len(nu)), out=out)
        total = g.sum(axis=1)
        dead = np.flatnonzero(total == 0.0)
        if len(dead):
            # drawn last from this chunk's own generator, so drawing the
            # uniforms only when needed leaves every other value unchanged
            u = rng.uniform(size=k)
            g[dead, np.searchsorted(cum, u[dead], side="right")] = 1.0
            total[dead] = 1.0
        g /= total[:, None]
        return g

    return draw


# ---------------------------------------------------------------------------
# Polya trees

def _split_level(rng: np.random.Generator, a: np.ndarray, b: np.ndarray,
                 mass: np.ndarray, right: np.ndarray) -> None:
    """Split column j of `mass` (k, n) into ``mass * v``, in place, and
    ``mass * (1 - v)``, into `right`, with v ~ Beta(a_j, b_j) from a Gamma
    pair; an infinite parameter pins v to its `split_means` value.

    The Gammas are drawn in row blocks of about `_BLOCK_CELLS`, all of
    Gamma(a) (parked in `right`, free until this level writes it) before
    all of Gamma(b), as when drawn whole.  Where both underflow, Beta(a, b)
    is within O(a + b) of a Bernoulli(a / (a + b)): the entry is split with
    v = 0, and a uniform below that mean, drawn last from this level's
    generator and only if some entry needs one, swaps its two children,
    which is exactly v = 1 (``mass * 0.0`` is 0.0, ``mass * 1.0`` is mass).
    """
    fa = np.where(np.isfinite(a), a, 1.0)
    fb = np.where(np.isfinite(b), b, 1.0)
    free = np.isfinite(a) & np.isfinite(b)
    mean = split_means(a, b)[:, 0]
    pinned = np.flatnonzero(~free)
    shape_a, shape_b = _gamma_shape(fa), _gamma_shape(fb)
    k, n = mass.shape
    step = max(1, _BLOCK_CELLS // n)
    scratch = np.empty((min(k, step), n))
    blocks = [slice(i, min(i + step, k)) for i in range(0, k, step)]
    for rows in blocks:
        right[rows] = rng.standard_gamma(shape_a, out=scratch[:rows.stop - rows.start])
    dead = {}
    for i, rows in enumerate(blocks):
        ga, left = right[rows], mass[rows]
        gb = rng.standard_gamma(shape_b, out=scratch[:rows.stop - rows.start])
        total = np.add(ga, gb, out=gb)
        zero = total == 0.0
        # where the total is 0 both Gammas are, and v keeps that 0
        v = np.divide(ga, total, out=total, where=~zero)
        v[:, pinned] = mean[pinned]
        np.multiply(np.subtract(1.0, v, out=ga), left, out=ga)
        np.multiply(left, v, out=left)
        zero &= free
        if zero.any():
            dead[i] = zero
    if dead:
        for i, rows in enumerate(blocks[:max(dead) + 1]):
            u = rng.uniform(size=mass[rows].shape)
            if i in dead:
                swap = dead[i] & (u < mean)
                left, child = mass[rows], right[rows]
                left[swap], child[swap] = child[swap], left[swap]


def _check_binary_chain(chain: PartitionChain, depth: int) -> None:
    for level in range(depth + 1):
        cells = len(chain[level]) - chain[level].has_atom
        if cells != 1 << level:
            raise ValidationError(
                "sampling/non-binary",
                f"level {level} has {cells} interval "
                f"cells, expected {1 << level}; splitting trees need a binary chain",
            )


def _polya_draw(system: PolyaTreeSystem, chain: PartitionChain, depth: int):
    """Top-down product of independent splitting draws, grown in place in
    the output rows: level l's masses sit every ``2**(depth - l)`` columns,
    and each level splits every parent into its left child, in place, and
    its right child, in the columns between (see `_split_level`).

    Level l consumes its own substream ``child(l)``, so a depth-(m-1) run
    replays exactly the first m-1 levels of a depth-m run with the same
    stream: projecting the finer stack reproduces the coarser one up to
    floating-point cancellation.
    """
    _check_binary_chain(chain, depth)
    partition = chain[depth]
    system.check_atom_cell(partition)
    pairs = [system.rule.level_pairs(level) for level in range(1, depth + 1)]
    tree_mass = 1.0 - system.p0

    def draw(sub: RandomStream, k: int, out: np.ndarray) -> np.ndarray:
        tree = out[:, partition.has_atom:]
        tree[:, 0] = tree_mass
        for level, (a, b) in enumerate(pairs, start=1):
            step = 1 << (depth - level)
            _split_level(sub.child(level).generator(), a, b,
                         tree[:, 0::2 * step], tree[:, step::2 * step])
        if partition.has_atom:
            out[:, 0] = system.p0
        return out

    return draw


# ---------------------------------------------------------------------------
# Gaussian

def _gaussian_draw(system: GaussianSystem, chain: PartitionChain, depth: int):
    """Rows centre + z F^T with z standard normal and F a clipped symmetric
    factor of the assembled covariance.  The factor keeps the exact rank, so
    a rank-one covariance yields rows that are scalar multiples of a fixed
    vector, not merely approximately so.
    """
    partition = chain[depth]
    centre = system.centre_histogram(partition).values
    scale = system.covariance.scales(partition)
    if scale is not None:
        # z @ diag(s).T elementwise: each entry is z_ik s_k plus exact zeros
        def draw(sub: RandomStream, k: int, out: np.ndarray) -> np.ndarray:
            z = sub.generator().standard_normal((k, len(scale)), out=out)
            z *= scale
            z += centre  # the same sum as centre + z * scale, in place
            return z
    else:
        factor = sigma_factor(system.covariance, partition)
        rank = factor.shape[1]

        def draw(sub: RandomStream, k: int, out: np.ndarray) -> np.ndarray:
            z = sub.generator().standard_normal((k, rank))
            return np.add(np.matmul(z, factor.T, out=out), centre, out=out)  # centre + z F^T
    return draw


def _leakage_draw(system: LeakageSystem, chain: PartitionChain, depth: int):
    values = system.mean(chain[depth]).values  # deterministic: every row is the mean

    def draw(sub: RandomStream, k: int, out: np.ndarray) -> np.ndarray:
        out[:] = values
        return out

    return draw


# ---------------------------------------------------------------------------
# family dispatch, chains, paths

_DRAW_KERNELS = {DirichletSystem: _dirichlet_draw, PolyaTreeSystem: _polya_draw,
                 GaussianSystem: _gaussian_draw, LeakageSystem: _leakage_draw}


def level_drawer(system: HistogramSystem, chain: PartitionChain, depth: int,
                 ) -> tuple[Partition, str, Callable[[RandomStream, int, np.ndarray], np.ndarray]]:
    """(partition, kind, draw) for one chain level of any family, where
    ``draw(substream, k, out)`` fills the caller's (k, len(partition))
    array `out` with k replicate rows and returns it; no kernel allocates
    rows of its own."""
    if not 0 <= depth <= chain.depth:
        raise ValidationError("sampling/depth",
                              f"depth {depth} outside chain levels 0..{chain.depth}")
    draw = _DRAW_KERNELS[type(system)](system, chain, depth)  # one per class of `FAMILIES`
    return chain[depth], system.kind, draw


def sample_stack(system: HistogramSystem, chain: PartitionChain, depth: int,
                 stream: RandomStream, replicates: int, *,
                 jobs: int = 1) -> HistogramStack:
    """Replicate sweep for any family at one level of a chain: each chunk
    is drawn into its rows of the one array the stack holds."""
    if replicates < 1:
        raise ValidationError("sampling/replicates",
                              f"need at least 1 replicate, got {replicates}")
    partition, kind, draw = level_drawer(system, chain, depth)
    values = np.empty((replicates, len(partition)))
    rows = {stream.child(j): values[a:b] for j, a, b in chunk_ranges(replicates)}
    run_chunked(stream, replicates, lambda sub, k: draw(sub, k, rows[sub]), jobs=jobs)
    return HistogramStack(partition, values, kind, owned=True)


def path_from_histogram(h: Histogram | HistogramStack):
    """Cumulative-sum skeleton (t, B(t)) at the cells' right endpoints.

    B starts at 0 before the first cell; atom cells and an infinite right
    end (only the last right endpoint can be +inf) contribute to the
    running sum but emit no point.  A histogram gives its list of (t, B(t))
    points; a stack gives the arrays (t, B) with one row of B per
    replicate, B a view of the running sums.

    `np.cumsum` adds left to right like a running float sum started at
    0.0; adding 0.0 turns a leading -0.0 into the 0.0 that sum gives.
    """
    rights = h.partition.edges()[1:]
    k = len(rights) - bool(np.isinf(rights[-1]))
    atom = h.partition.has_atom
    t, b = rights[:k], np.cumsum(h.values, axis=-1)[..., atom:atom + k]
    b += 0.0
    if isinstance(h, HistogramStack):
        return t, b
    return list(zip(t.tolist(), b.tolist()))
