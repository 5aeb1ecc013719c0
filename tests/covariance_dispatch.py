"""The covariance dispatch as the package kept it before each variant owned its
matrix, factor, variances and spectrum.

`assemble_sigma`, `sigma_factor`, the variances that `GaussianSystem.spread`
read, the per-level ``(diag, tau)`` of the `gaussian_conditions` loop and the
level range `_matrix_levels` below are copied unchanged, apart from their
names, and decide by the covariance class: the differential tests hold the
classes' own methods to the same bytes.
"""

import math

import numpy as np

from histolim.conditions import MATRIX_LEVEL_CAP, QUADRATURE_LEVEL_CAP
from histolim.errors import NumericError, ValidationError
from histolim.systems import (
    PSD_RELATIVE_TOL,
    ConstantCovariance,
    DiagonalCovariance,
    GreensCovariance,
    KernelCovariance,
    LebesgueBase,
    PointMassCovariance,
    _quadrature_matrix,
)


def oracle_assemble_sigma(spec, partition, *, spectrum=False):
    n = len(partition)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below as not finite
        if isinstance(spec, DiagonalCovariance):
            sigma = np.diag(spec.sigma2.cell_masses(partition))
        elif isinstance(spec, ConstantCovariance):
            w = LebesgueBase().cell_masses(partition)
            sigma = spec.c * np.outer(w, w)
        elif isinstance(spec, PointMassCovariance):
            sigma = np.zeros((n, n))
            rows = [partition.position_of(s) for s in spec.sites]
            for a, ia in enumerate(rows):
                for b, ib in enumerate(rows):
                    sigma[ia, ib] += spec.matrix[a, b]
        elif isinstance(spec, (KernelCovariance, GreensCovariance)):
            sigma = _quadrature_matrix(spec.kernel(), partition, spec.order)
        else:
            raise ValidationError("covariance/json", f"unknown covariance spec {spec!r}")
        sigma = 0.5 * (sigma + sigma.T)
    if not np.isfinite(sigma).all():  # eigvalsh would not converge
        raise NumericError("covariance/not-finite",
                           "assembled covariance has entries that are inf or nan")
    eigs = np.linalg.eigvalsh(sigma)
    top = max(float(eigs.max()), 0.0)
    if float(eigs.min()) < -PSD_RELATIVE_TOL * max(top, 1.0):
        raise NumericError(
            "covariance/not-psd",
            f"assembled covariance has eigenvalue {float(eigs.min()):.6e} "
            f"below -{PSD_RELATIVE_TOL:g} * {max(top, 1.0):.6e}",
        )
    return (sigma, eigs) if spectrum else sigma


def oracle_sigma_factor(spec, partition):
    if isinstance(spec, ConstantCovariance):
        w = LebesgueBase().cell_masses(partition)
        return math.sqrt(spec.c) * w[:, None]
    if isinstance(spec, DiagonalCovariance):
        return np.diag(np.sqrt(spec.sigma2.cell_masses(partition)))
    sigma = oracle_assemble_sigma(spec, partition)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    keep = eigvals > 0
    return eigvecs[:, keep] * np.sqrt(eigvals[keep])[None, :]


def oracle_variances(spec, partition):
    """The cell variances that `GaussianSystem.spread` read."""
    return (spec.variances(partition) if isinstance(spec, DiagonalCovariance)
            else np.diag(oracle_assemble_sigma(spec, partition)))


def oracle_level(spec, part):
    """``(diag, tau)`` of one level of the `gaussian_conditions` loop."""
    if isinstance(spec, DiagonalCovariance):  # no matrix: tau is the largest variance
        diag = spec.variances(part)
    else:
        sigma, eigs = oracle_assemble_sigma(spec, part, spectrum=True)
        diag = np.diag(sigma)
    if isinstance(spec, ConstantCovariance):
        w = LebesgueBase().cell_masses(part)
        tau = spec.c * float(w @ w)  # rank one: the single eigenvalue
    elif spec.is_diagonal:
        tau = float(diag.max())
    else:
        tau = float(eigs[-1])
    return diag, tau


def oracle_matrix_levels(system, chain, depth):
    quadrature = isinstance(system.covariance, (KernelCovariance, GreensCovariance))
    cap = QUADRATURE_LEVEL_CAP if quadrature else MATRIX_LEVEL_CAP
    return range(0, min(depth, cap, chain.depth) + 1)
