"""The total-variation curve as the package computed it before it read each
level in one pass: the density's cell masses, a validated positive
`Histogram`, the flat reference of cell widths, the step density of the
masses against it, and a general two-density distance.

`histogram_density`, `lebesgue_reference`, `tv_distance_density` (with its
`reference` weighting and its choice of the partition to integrate over),
`cell_masses` and `tv_martingale_curve` below are copied unchanged, apart
from the name of `cell_masses`: the differential tests hold
`diagnostics.tv_martingale_curve` to their floats and errors.
"""

import math
from typing import Optional, Sequence

import numpy as np

from histolim.diagnostics import check_depths
from histolim.errors import ValidationError
from histolim.histograms import (
    POSITIVE,
    Density,
    Histogram,
    PiecewiseDensity,
    PolynomialDensity,
    _abs_polynomial_integral,
    _adaptive_simpson,
    _positions_in,
    _step_on_cell,
)
from histolim.partitions import Partition, PartitionChain


def histogram_density(p: Histogram, q: Histogram) -> PiecewiseDensity:
    """Cellwise density of p with respect to q (the step function p(A)/q(A)).

    Cells with q(A) = 0 must carry p(A) = 0 and get density 0; anything else
    would put mass where the reference has none.
    """
    if p.partition != q.partition:
        raise ValidationError("histogram/partition-mismatch",
                              "p and q must live on the same partition")
    if np.any(q.values < 0):
        raise ValidationError("histogram/negative-reference",
                              "reference histogram must be nonnegative")
    zero = q.values == 0
    if np.any(zero & (p.values != 0)):
        i = int(np.argmax(zero & (p.values != 0)))
        raise ValidationError(
            "density/zero-reference-cell",
            f"cell {p.partition.describe_cell(i)} has zero reference mass but p={p.values[i]}",
        )
    out = np.zeros_like(p.values)
    np.divide(p.values, q.values, out=out, where=~zero)
    return PiecewiseDensity(p.partition, out)


def lebesgue_reference(partition: Partition) -> Histogram:
    """Cell widths as a positive histogram (the flat reference)."""
    widths = partition.widths()
    if not np.all(np.isfinite(widths)):
        raise ValidationError("histogram/unbounded",
                              "flat reference needs bounded cells")
    return Histogram(partition, widths, POSITIVE)



def tv_distance_density(f: Density, g: Density, *,
                        partition: Partition | None = None,
                        reference: Histogram | None = None) -> float:
    """Total-variation distance (1/2) * integral |f - g| d(ref).

    The integral runs over the interval cells of the partition with the
    most cells among `partition` and the piecewise densities' own (the last
    of them on a tie).  The reference defaults to the flat measure on the
    cells (Lebesgue); a positive reference histogram reweights each cell
    uniformly.  When both densities are piecewise constant / polynomial on
    the cells the integral is exact; otherwise each cell falls back to
    adaptive Simpson.
    """
    for d in (f, g):
        if isinstance(d, PiecewiseDensity):
            if partition is None or len(d.partition) >= len(partition):
                partition = d.partition
    if partition is None:
        raise ValidationError("density/no-cells",
                              "need a partition when neither density is piecewise")
    if reference is not None and np.any(reference.values < 0):
        raise ValidationError("histogram/negative-reference",
                              "reference histogram must be nonnegative")
    pts = partition.cut_points()
    edges = partition.edges().tolist()
    steps = [_positions_in(d.partition, partition, pts) if isinstance(d, PiecewiseDensity)
             else None for d in (f, g)]
    ref_at = None if reference is None else _positions_in(reference.partition, partition, pts)
    total = 0.0
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        if not (-math.inf < a and b < math.inf):
            raise ValidationError("density/unbounded",
                                  "density distances need bounded cells")
        if b <= a:
            continue
        weight = 1.0
        if ref_at is not None:
            if ref_at[i] is None:
                raise ValidationError("density/partition-mismatch",
                                      "reference histogram does not cover the integration cells")
            weight = float(reference.values[ref_at[i]]) / (b - a)
            if weight == 0.0:
                continue
        fc, gc = (d if at is None else _step_on_cell(d, at[i]) for d, at in zip((f, g), steps))
        if isinstance(fc, PolynomialDensity) and isinstance(gc, PolynomialDensity):
            n = max(len(fc.coefficients), len(gc.coefficients))
            diff = tuple(
                (fc.coefficients[k] if k < len(fc.coefficients) else 0.0)
                - (gc.coefficients[k] if k < len(gc.coefficients) else 0.0)
                for k in range(n)
            )
            total += weight * _abs_polynomial_integral(PolynomialDensity(diff), a, b)
        else:
            total += weight * _adaptive_simpson(lambda x: abs(fc(x) - gc(x)), a, b)
    return 0.5 * total


def cell_masses(density: Density, partition: Partition) -> np.ndarray:
    """The density's mass on each bounded interval cell, read as
    `tv_distance_density` reads it: a polynomial exactly, a piecewise
    density by its value on the cell, any other callable by adaptive
    Simpson."""
    masses = np.zeros(len(partition))
    edges = partition.edges().tolist()
    steps = (_positions_in(density.partition, partition, partition.cut_points())
             if isinstance(density, PiecewiseDensity) else None)
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        if not (-math.inf < a and b < math.inf):
            continue
        i = k + partition.has_atom
        if isinstance(density, PolynomialDensity):
            masses[i] = density.integral(a, b)
        elif steps is not None:
            masses[i] = _step_on_cell(density, steps[k]).coefficients[0] * (b - a)
        else:
            masses[i] = _adaptive_simpson(density, a, b)
    return masses


def tv_martingale_curve(density: Density, chain: PartitionChain,
                        depths: Optional[Sequence[int]] = None,
                        ) -> tuple[tuple[int, float], ...]:
    """Total-variation distance between a fixed density and its per-level
    histogram approximations (cell averages against the flat reference).

    The distances decrease along refinements; a density putting mass on a
    zero-width or zero-reference cell raises the domination error from the
    underlying density helpers.
    """
    if depths is None:
        depths = range(1, chain.depth + 1)
    check_depths(depths, chain)
    out = []
    for m in depths:
        part = chain[m]
        masses = cell_masses(density, part)
        h = Histogram(part, masses, POSITIVE)
        flat = lebesgue_reference(part)
        step = histogram_density(h, flat)
        out.append((int(m), tv_distance_density(density, step, partition=part)))
    return tuple(out)
