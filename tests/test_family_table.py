"""`check` and `diagnose` read one verdict table, with the old bytes.

The family dispatch used to live twice, once in the `check` command and
once in the phase report, and the Gaussian verdicts worked out the
covariance structure three times.  Those bodies are kept below as oracles:
over systems that cover every family and covariance structure, and over the
`check` flags, the command must print the same JSON or the same error line,
and `family_verdicts` must hand the phase report the same verdicts.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from histolim.cli import _load_system, _resolve_chain, main
from histolim.conditions import (
    EVALUATOR_TAGS,
    HOLDS,
    MATRIX_DEPTH,
    PRODUCT_DEPTH,
    SUFFICIENT_CONDITION_FAILS,
    UNDETERMINED,
    Verdict,
    dirichlet_condition,
    dirichlet_weak_condition,
    leakage_counterexample,
    polya_leakage_condition,
    polya_tight_condition,
    polya_weak_condition,
)
from histolim.diagnostics import family_verdicts
from histolim.errors import NumericError, ValidationError
from histolim.histograms import dump_json
from histolim.partitions import dyadic_chain, max_depth
from histolim.systems import (
    AtomicBase,
    ConstantCovariance,
    DiagonalCovariance,
    DirichletSystem,
    GaussianSystem,
    LeakageSystem,
    LebesgueBase,
    PointMassCovariance,
    PolyaTreeSystem,
    assemble_sigma,
)

from covariance_dispatch import oracle_matrix_levels


def text_of(export, *args) -> str:
    """The text an exporter passes to its `write` callable, joined."""
    pieces = []
    export(*args, pieces.append)
    return "".join(pieces)


ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# oracles: the Gaussian verdicts, the `check` body and the phase-report
# table as they were before the single table

def oracle_gaussian_conditions(system, chain, depth=MATRIX_DEPTH):
    spec = system.covariance
    diag_curve, spectral_curve, weak_curve, trace_curve = [], [], [], []
    for m in oracle_matrix_levels(system, chain, depth):
        part = chain[m]
        sigma = assemble_sigma(spec, part)
        diag = np.diag(sigma)
        diag_curve.append((m, float(diag.max())))
        weak_curve.append((m, float(np.sqrt(diag).sum())))
        trace_curve.append((m, float(diag.sum())))
        if isinstance(spec, ConstantCovariance):
            w = LebesgueBase().cell_masses(part)
            tau = spec.c * float(w @ w)
        elif spec.is_diagonal:
            tau = float(diag.max())
        else:
            tau = float(np.linalg.eigvalsh(sigma)[-1])
        spectral_curve.append((m, len(part) * tau))
    out = {}
    if spec.is_diagonal:
        out["diagonal"] = oracle_diagonal_verdict(spec, tuple(diag_curve))
    out["spectral"] = oracle_spectral_verdict(spec, tuple(spectral_curve))
    out["weak"] = oracle_gaussian_weak_verdict(spec, tuple(weak_curve))
    out["trace"] = Verdict("gaussian-trace", UNDETERMINED,
                           EVALUATOR_TAGS["gaussian-trace"],
                           "total variance per level, reported alongside the "
                           "spectral statistic; no sufficiency criterion is "
                           "attached to it",
                           tuple(trace_curve))
    return out


def oracle_diagonal_verdict(spec, evidence):
    name, anchor = "gaussian-diagonal", EVALUATOR_TAGS["gaussian-diagonal"]
    if isinstance(spec, DiagonalCovariance) and isinstance(spec.sigma2, LebesgueBase):
        return Verdict(name, HOLDS, anchor,
                       "the largest cell variance is scale * 2^-m on the "
                       "dyadic chain and vanishes",
                       evidence)
    if isinstance(spec, DiagonalCovariance) and isinstance(spec.sigma2, AtomicBase):
        top = max(spec.sigma2.weights, default=0.0)
        if top == 0.0:
            return Verdict(name, HOLDS, anchor,
                           "zero variance measure: every cell variance is 0",
                           evidence)
        return Verdict(name, SUFFICIENT_CONDITION_FAILS, anchor,
                       "the cell containing the largest variance atom keeps "
                       f"at least {top:g}, so the maximum cannot vanish",
                       evidence)
    if isinstance(spec, PointMassCovariance):
        top = float(np.diag(spec.matrix).max())
        if top == 0.0:
            return Verdict(name, HOLDS, anchor, "all site variances are zero",
                           evidence)
        return Verdict(name, SUFFICIENT_CONDITION_FAILS, anchor,
                       "with zero cross-terms the cell holding the largest "
                       f"site variance keeps at least {top:g}",
                       evidence)
    return Verdict(name, UNDETERMINED, anchor,
                   "no exact vanishing argument for this diagonal variant",
                   evidence)


def oracle_spectral_verdict(spec, evidence):
    name, anchor = "gaussian-spectral", EVALUATOR_TAGS["gaussian-spectral"]
    if isinstance(spec, ConstantCovariance):
        return Verdict(name, SUFFICIENT_CONDITION_FAILS, anchor,
                       "rank one: cell-count times the eigenvalue is "
                       "c |a| sum(w^2) >= c (sum w)^2 > 0, constant c on "
                       "dyadic chains",
                       evidence)
    if isinstance(spec, DiagonalCovariance) and isinstance(spec.sigma2, LebesgueBase):
        return Verdict(name, SUFFICIENT_CONDITION_FAILS, anchor,
                       "cell-count times the largest variance equals the "
                       "scale exactly at every dyadic level",
                       evidence)
    if isinstance(spec, DiagonalCovariance) and isinstance(spec.sigma2, AtomicBase):
        top = max(spec.sigma2.weights, default=0.0)
        if top == 0.0:
            return Verdict(name, HOLDS, anchor, "zero variance measure",
                           evidence)
        return Verdict(name, SUFFICIENT_CONDITION_FAILS, anchor,
                       "the top eigenvalue stays above the largest atom "
                       f"weight {top:g} while the cell count grows",
                       evidence)
    if isinstance(spec, PointMassCovariance):
        total = float(spec.matrix.sum())
        if not spec.matrix.any():
            return Verdict(name, HOLDS, anchor, "zero covariance", evidence)
        if total > 0:
            return Verdict(name, SUFFICIENT_CONDITION_FAILS, anchor,
                           "testing against the flat vector bounds cell-count "
                           f"times the eigenvalue below by the grand sum "
                           f"{total:g} > 0 at every level",
                           evidence)
        return Verdict(name, UNDETERMINED, anchor,
                       "cross-terms cancel the grand sum; no exact bound "
                       "either way", evidence)
    return Verdict(name, UNDETERMINED, anchor,
                   "no exact spectral argument for this covariance",
                   evidence)


def oracle_gaussian_weak_verdict(spec, evidence):
    name, anchor = "gaussian-weak", EVALUATOR_TAGS["gaussian-weak"]
    if isinstance(spec, ConstantCovariance):
        value = evidence[-1][1] if evidence else math.sqrt(spec.c)
        return Verdict(name, HOLDS, anchor,
                       "cell standard deviations are sqrt(c) times cell "
                       f"widths, so every level sums to the same {value:.6g}",
                       evidence)
    if isinstance(spec, DiagonalCovariance) and isinstance(spec.sigma2, LebesgueBase):
        return Verdict(name, SUFFICIENT_CONDITION_FAILS, anchor,
                       "the level sum is sqrt(scale) * 2^(m/2) on the dyadic "
                       "chain and diverges",
                       evidence)
    if isinstance(spec, DiagonalCovariance) and isinstance(spec.sigma2, AtomicBase):
        bound = float(sum(math.sqrt(w) for w in spec.sigma2.weights))
        return Verdict(name, HOLDS, anchor,
                       "square roots are subadditive over the atoms in each "
                       f"cell, so no level sum exceeds {bound:.6g}",
                       evidence)
    if isinstance(spec, PointMassCovariance):
        bound = float(sum(math.sqrt(v) for v in np.diag(spec.matrix)))
        return Verdict(name, HOLDS, anchor,
                       "each cell standard deviation is at most the sum of "
                       "its sites' standard deviations, so no level sum "
                       f"exceeds {bound:.6g}",
                       evidence)
    return Verdict(name, UNDETERMINED, anchor,
                   "no exact boundedness argument for this covariance",
                   evidence)


def oracle_check(system_path, chain_path, depth):
    system = _load_system(system_path)
    verdicts = {}
    if isinstance(system, DirichletSystem):
        chain = _resolve_chain(system, chain_path, 0)
        verdicts["dirichlet-existence"] = dirichlet_condition(system, chain.domain)
        verdicts["dirichlet-weak"] = dirichlet_weak_condition(
            system, chain.domain, depth=depth or PRODUCT_DEPTH)
    elif isinstance(system, PolyaTreeSystem):
        d = depth or PRODUCT_DEPTH
        verdicts["polya-tight"] = polya_tight_condition(system, depth=d)
        verdicts["polya-leakage"] = polya_leakage_condition(system, depth=d)
        verdicts["polya-weak"] = polya_weak_condition(system, depth=d)
    elif isinstance(system, GaussianSystem):
        d = depth or MATRIX_DEPTH
        chain = _resolve_chain(system, chain_path, min(d, max_depth()))
        for v in oracle_gaussian_conditions(system, chain, depth=d).values():
            verdicts[v.condition] = v
    elif isinstance(system, LeakageSystem):
        report = leakage_counterexample(system.delta, system.depth,
                                        interior=system.interior)
        verdicts[report.verdict.condition] = report.verdict
    else:
        raise ValidationError("cli/system",
                              f"no conditions for {type(system).__name__}")
    return {"conditions": {k: v.to_json() for k, v in verdicts.items()}}


def oracle_family_verdicts(system, chain):
    if isinstance(system, DirichletSystem):
        existence = dirichlet_condition(system, chain.domain)
        dominated = dirichlet_weak_condition(system, chain.domain)
        return ({"existence": existence, "dominated": dominated},
                existence, dominated, True)
    if isinstance(system, PolyaTreeSystem):
        tight = polya_tight_condition(system)
        leak = polya_leakage_condition(system)
        dominated = polya_weak_condition(system)
        return ({"tight": tight, "leakage": leak, "dominated": dominated},
                tight, dominated, system.completely_random)
    if isinstance(system, GaussianSystem):
        verdicts = oracle_gaussian_conditions(system, chain)
        return (verdicts, verdicts.get("diagonal"), verdicts["weak"],
                system.completely_random)
    if isinstance(system, LeakageSystem):
        tight = leakage_counterexample(system.delta, system.depth,
                                       interior=system.interior).verdict
        return ({"tight": tight}, tight, None, False)
    raise ValidationError("diagnostics/unsupported-family",
                          f"no phase clauses for {type(system).__name__}")


# ---------------------------------------------------------------------------
# the corpus

def _gaussian(covariance, centre="zero"):
    return {"family": "gaussian", "covariance": covariance, "centre": centre}


def _point_mass(matrix):
    return _gaussian({"variant": "point_mass", "sites": [0.3, 0.7], "matrix": matrix})


def _atomic_diagonal(weights):
    return _gaussian({"variant": "diagonal",
                      "sigma2": {"type": "atoms", "points": [0.25, 0.6],
                                 "weights": weights}})


SYSTEMS = {
    **{p.stem: json.loads(p.read_text())
       for p in sorted((ROOT / "perfbench" / "systems").glob("*.json"))},
    "constant": _gaussian({"variant": "constant", "c": 2.5}),
    "point_mass_positive": _point_mass([[2.0, 0.5], [0.5, 1.0]]),
    "point_mass_cancelling": _point_mass([[1.0, -1.0], [-1.0, 1.0]]),
    "point_mass_zero": _point_mass([[0.0, 0.0], [0.0, 0.0]]),
    "point_mass_diagonal": _point_mass([[1.0, 0.0], [0.0, 3.0]]),
    "atomic_diagonal": _atomic_diagonal([1.0, 0.5]),
    "atomic_diagonal_zero": _atomic_diagonal([0.0, 0.0]),
    "greens_1": _gaussian({"variant": "greens", "dimension": 1, "order": 3}),
    "greens_2": _gaussian({"variant": "greens", "dimension": 2, "order": 3}),
    "greens_not_psd": _gaussian({"variant": "greens", "dimension": 1,
                                 "affine": [0.0, 0.0, 0.0], "order": 3}),
    "kernel_with_centre": _gaussian(
        {"variant": "kernel", "name": "exponential", "params": {"length": 0.3},
         "order": 3},
        centre={"type": "lebesgue", "scale": 0.5}),
    "leakage": {"family": "leakage", "delta": 0.2, "depth": 8},
    "leakage_interior": {"family": "leakage", "delta": 0.3, "depth": 8,
                         "interior": True},
    "leakage_zero": {"family": "leakage", "delta": 0.0, "depth": 8},
    "leakage_interior_zero": {"family": "leakage", "delta": 0.0, "depth": 8,
                              "interior": True},
    "polya_table_default": {"family": "polya", "beta": {
        "rule": "table", "pairs": {"()": [1.0, 2.0], "0": [3.0, 1.0]},
        "default": [2.0, 2.0]}},
    "polya_table_partial": {"family": "polya", "beta": {
        "rule": "table", "pairs": {"()": [1.0, 2.0], "0": [3.0, 1.0],
                                   "1": [1.0, 1.0]}}},
    "polya_p0": {"family": "polya", "beta": {"rule": "homogeneous", "expr": "m"},
                 "p0": 0.25},
}

FLAGS = {
    "none": (),
    "depth3": ("--depth", "3"),
    "depth0": ("--depth", "0"),
    "beyond-max-depth": ("--depth", "40"),
    "chain2": ("--chain", "{chain}"),
    "missing-chain": ("--chain", "{missing}"),
    "chain2-depth2": ("--chain", "{chain}", "--depth", "2"),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("family-table")
    paths = {}
    for name, obj in SYSTEMS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    chain = root / "chain2.json"
    chain.write_text(json.dumps(dyadic_chain(depth=2).to_json()))
    return {"systems": {k: str(v) for k, v in paths.items()},
            "chain": str(chain), "missing": str(root / "no-such-chain.json")}


def _error_line(exc) -> str:
    return f"error[{exc.code}] {exc}\n"


@pytest.mark.parametrize("flags", FLAGS)
@pytest.mark.parametrize("name", SYSTEMS)
def test_check_matches_the_per_family_body(files, capsys, name, flags):
    argv = [a.format(chain=files["chain"], missing=files["missing"])
            for a in FLAGS[flags]]
    chain_path = argv[argv.index("--chain") + 1] if "--chain" in argv else None
    depth = int(argv[argv.index("--depth") + 1]) if "--depth" in argv else None
    system_path = files["systems"][name]
    try:
        text = text_of(dump_json, oracle_check(system_path, chain_path, depth))
        expected = (0, text, "")
    except ValidationError as e:
        expected = (1, "", _error_line(e))
    except NumericError as e:
        expected = (2, "", _error_line(e))
    code = main(["check", "--system", system_path, *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


@pytest.mark.parametrize("chain_depth", [8, 2])
@pytest.mark.parametrize("name", SYSTEMS)
def test_phase_report_verdicts_match_the_old_table(files, name, chain_depth):
    """`diagnose` resolves its chain to the top Monte-Carlo depth and hands
    it to `family_verdicts` for every level."""
    system = _load_system(files["systems"][name])
    chain_path = files["chain"] if chain_depth == 2 else None
    chain = _resolve_chain(system, chain_path, chain_depth)

    def run(table):
        try:
            return table(), None
        except (ValidationError, NumericError) as e:
            return None, (type(e), e.code, str(e))

    old, old_error = run(lambda: oracle_family_verdicts(system, chain))
    new, new_error = run(lambda: family_verdicts(system, lambda _: chain))
    assert new_error == old_error
    if old is not None:
        assert _table_json(*new, system.completely_random) == _table_json(*old)


def _table_json(verdicts, existence, dominated, completely_random) -> str:
    """The table as text (NaN-safe), key order included."""
    def as_json(v):
        return None if v is None else v.to_json()
    return json.dumps([[[k, as_json(v)] for k, v in verdicts.items()],
                       as_json(existence), as_json(dominated), completely_random])
