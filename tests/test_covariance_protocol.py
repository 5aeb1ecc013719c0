"""Each covariance variant owns its matrix, factor, variances and spectrum.

The dispatch on the covariance class that these replaced is kept in
`tests/covariance_dispatch.py`; over every variant, on open and closed
dyadic chains and on a bounded triangular chain, the methods must give the
same bytes, or the same error, as that dispatch.
"""

import ast
import inspect
import textwrap

import numpy as np
import pytest

from histolim import conditions, systems
from histolim.conditions import gaussian_conditions
from histolim.errors import HistolimError, NumericError, ValidationError
from histolim.partitions import Domain, dyadic_chain
from histolim.systems import (
    AtomicBase,
    ConstantCovariance,
    DiagonalCovariance,
    GaussianSystem,
    GreensCovariance,
    KernelCovariance,
    LeakageSystem,
    LebesgueBase,
    PointMassCovariance,
    assemble_sigma,
    sigma_factor,
)

from covariance_dispatch import (
    oracle_assemble_sigma,
    oracle_level,
    oracle_matrix_levels,
    oracle_sigma_factor,
    oracle_variances,
)

SPECS = {
    "diagonal-lebesgue": DiagonalCovariance(LebesgueBase(2.5)),
    "diagonal-atoms": DiagonalCovariance(AtomicBase((0.3, 0.7, 0.71), (1.0, 2.0, 0.5))),
    "diagonal-zero-atoms": DiagonalCovariance(AtomicBase((0.3, 0.7), (0.0, 0.0))),
    "diagonal-overflow": DiagonalCovariance(LebesgueBase(1.7e308)),  # refused with no matrix
    "constant": ConstantCovariance(0.7),
    "constant-overflow": ConstantCovariance(1e308),
    "point-mass-diagonal": PointMassCovariance((0.2, 0.7), [[1.0, 0.0], [0.0, 2.0]]),
    "point-mass-shared-cell": PointMassCovariance((0.6, 0.65, 0.2),
                                                  [[1.0, 0.5, 0.1], [0.5, 2.0, -0.3],
                                                   [0.1, -0.3, 1.5]]),
    "kernel-gaussian": KernelCovariance("gaussian", {"length": 0.2}),
    "kernel-exponential": KernelCovariance("exponential", {"length": 0.2, "scale": 1.5}),
    "greens-1": GreensCovariance(1),
    "greens-2": GreensCovariance(2),
    "greens-3": GreensCovariance(3),
}
CHAINS = {
    "dyadic-open": dyadic_chain(Domain.unit(), depth=6),
    "dyadic-closed": dyadic_chain(Domain.unit(closed_left=True), depth=6),
    "triangular-unit": LeakageSystem(0.2, 5, interior=True).chain(),
}


def levels(name, chain):
    top = 4 if name.startswith(("kernel", "greens")) else 6
    return [chain[m] for m in range(min(top, chain.depth) + 1)]


def outcome(compute):
    """What `compute()` gives, as bytes, or its error."""
    try:
        result = compute()
    except HistolimError as e:
        return type(e), e.code, str(e)
    parts = result if isinstance(result, tuple) else (result,)
    return [(np.asarray(p).dtype, np.shape(p), np.asarray(p).tobytes()) for p in parts]


@pytest.mark.parametrize("chain_name", CHAINS)
@pytest.mark.parametrize("name", SPECS)
def test_each_variant_gives_the_bytes_of_the_old_dispatch(name, chain_name):
    spec = SPECS[name]
    for part in levels(name, CHAINS[chain_name]):
        pairs = [
            (lambda: assemble_sigma(spec, part), lambda: oracle_assemble_sigma(spec, part)),
            (lambda: assemble_sigma(spec, part, spectrum=True),
             lambda: oracle_assemble_sigma(spec, part, spectrum=True)),
            (lambda: sigma_factor(spec, part), lambda: oracle_sigma_factor(spec, part)),
            (lambda: spec.variances(part), lambda: oracle_variances(spec, part)),
            (lambda: spec.spectrum(part), lambda: oracle_level(spec, part)),
        ]
        for new, old in pairs:
            assert outcome(new) == outcome(old), (name, chain_name, part.level)


def test_the_oracle_runs_into_every_outcome():
    """The cases hold finite matrices, rank-deficient factors and the
    overflow of c = 1e308, which stays `covariance/not-finite`."""
    chain = CHAINS["dyadic-open"]
    for compute in (assemble_sigma, lambda spec, part: spec.spectrum(part)):
        assert outcome(lambda: compute(SPECS["constant-overflow"], chain[0]))[1] == \
            "covariance/not-finite"
    assert sigma_factor(SPECS["constant"], chain[2]).shape == (4, 1)
    assert sigma_factor(SPECS["point-mass-shared-cell"], chain[1]).shape == (2, 2)
    assert sigma_factor(SPECS["point-mass-shared-cell"], chain[0]).shape == (1, 1)


@pytest.mark.parametrize("chain_name", CHAINS)
@pytest.mark.parametrize("name", SPECS)
def test_conditions_read_the_old_level_range(name, chain_name):
    system, chain = GaussianSystem(SPECS[name]), CHAINS[chain_name]
    for depth in (0, 3, 16):
        try:
            verdicts = gaussian_conditions(system, chain, depth=depth)
        except HistolimError:
            continue
        got = [m for m, _ in verdicts["trace"].evidence]
        assert got == list(oracle_matrix_levels(system, chain, depth))


@pytest.mark.filterwarnings("error")
def test_an_overflowing_diagonal_variance_is_refused_wherever_it_is_read():
    spec, part = SPECS["diagonal-overflow"], CHAINS["dyadic-open"][0]
    for read in (spec.variances, spec.spectrum, GaussianSystem(spec).reference):
        with pytest.raises(NumericError) as info:
            read(part)
        assert info.value.code == "covariance/not-finite"
    assert np.isfinite(sigma_factor(spec, part)).all()  # the draws read no variance


def test_a_gaussian_system_refuses_what_is_no_covariance():
    with pytest.raises(ValidationError) as info:
        GaussianSystem(LebesgueBase())
    assert info.value.code == "covariance/json"
    assert str(info.value) == "unknown covariance spec LebesgueBase(scale=1.0)"


@pytest.mark.parametrize("function", [systems.assemble_sigma, systems.sigma_factor,
                                      systems.GaussianSystem.spread,
                                      conditions.gaussian_conditions])
def test_the_covariance_readers_test_no_class(function):
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    calls = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert "isinstance" not in calls
