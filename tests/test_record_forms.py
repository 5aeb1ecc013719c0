"""Every result record and every spec writes its fields through one field
writer, with the bytes of the hand-written forms it replaced.

The old forms are kept in `tests/record_forms.py`; each record below, built
by the package's own evaluators or by hand at the edges (None curves, a
None extrapolation, an infinite standard error), and each spec of the
golden corpus and of the benchmark, also in its spelled-out `to_json` form,
must give the same ``json.dumps(..., sort_keys=True)`` bytes as that oracle.
"""

import ast
import inspect
import json
import math
from pathlib import Path

import pytest

from histolim import diagnostics
from histolim.conditions import Verdict, leakage_counterexample
from histolim.diagnostics import (
    CoherenceResult,
    CoherenceRun,
    CurvePoint,
    DiagnosticCurve,
    DominationResult,
    PhaseReport,
    atomicity_statistic,
    coherence_test,
    domination_statistic,
    family_verdicts,
    phase_report,
)
from histolim.partitions import chain_from_json_text, dyadic_chain
from histolim.systems import DirichletSystem, LeakageSystem, LebesgueBase, system_from_json

import record_forms

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "digests.json").read_text())["systems"]
#: the golden chain over the real line, which the corpus passes with its atoms off (0, 1]
ON_LINE = {"golden/dirichlet_atoms": chain_from_json_text(json.dumps(GOLDEN["triangular_inf"]))}


def _systems() -> dict:
    found = {f"perfbench/{p.stem}": json.loads(p.read_text())
             for p in sorted((ROOT / "perfbench" / "systems").glob("*.json"))}
    found.update((f"golden/{name}", obj) for name, obj in GOLDEN.items() if "family" in obj)
    for name, obj in list(found.items()):
        found[f"{name}/spelled"] = json.loads(json.dumps(system_from_json(obj).to_json()))
    return found


SYSTEMS = _systems()


def same_bytes(new: dict, old: dict) -> None:
    assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_every_spec_writes_the_old_form(name):
    spec = system_from_json(SYSTEMS[name])
    same_bytes(spec.to_json(), record_forms.spec_form(spec))


def _chain_at(system, name=""):
    if name in ON_LINE:
        return lambda level: ON_LINE[name]
    return lambda level: system.chain(level) or dyadic_chain(depth=level)


@pytest.mark.parametrize("name", sorted(n for n in SYSTEMS if not n.endswith("/spelled")))
def test_every_verdict_writes_the_old_form(name):
    system = system_from_json(SYSTEMS[name])
    verdicts = family_verdicts(system, _chain_at(system, name), 4)[0]
    for verdict in verdicts.values():
        same_bytes(verdict.to_json(), record_forms.verdict_form(verdict))


def test_verdicts_with_and_without_an_extrapolation():
    polya = system_from_json(SYSTEMS["golden/polya_cantor_trig"])
    written = [v.to_json() for v in family_verdicts(polya, _chain_at(polya), 8)[0].values()]
    assert any("extrapolation" in v for v in written)
    assert any("extrapolation" not in v for v in written)
    for verdict in (Verdict("x", "holds", "P", "why"),
                    Verdict("x", "undetermined", "P", "why", ((1, 0.5), (2, math.inf)),
                            {"method": "m", "ratio": 0.5, "terms": (1, 2)})):
        same_bytes(verdict.to_json(), record_forms.verdict_form(verdict))


@pytest.mark.parametrize("delta, depth, interior", [(0.2, 6, False), (0.0, 3, True)])
def test_a_leakage_report_writes_the_old_form(delta, depth, interior):
    report = leakage_counterexample(delta, depth, interior=interior)
    same_bytes(report.to_json(), record_forms.leakage_report_form(report))


def test_a_coherence_result_writes_the_old_form():
    result = coherence_test(DirichletSystem(LebesgueBase()), dyadic_chain(depth=3), (1, 2), 1000,
                            seed=1)
    same_bytes(result.to_json(), record_forms.coherence_result_form(result))
    for run in result.runs:
        same_bytes(run.to_json(), record_forms.coherence_run_form(run))
    by_hand = CoherenceResult((0, 1), 1000, 4.0, (CoherenceRun(3, False, math.inf, (), (0.5,)),),
                              False)
    same_bytes(by_hand.to_json(), record_forms.coherence_result_form(by_hand))


def test_curves_write_the_old_form():
    system, chain = DirichletSystem(LebesgueBase()), dyadic_chain(depth=3)
    atoms = atomicity_statistic(system, chain, (2, 3), 50, seed=2)
    domination = domination_statistic(system, chain, (2, 3), (1.0, 2.0), 50, seed=2)
    by_hand = DiagnosticCurve("c", (CurvePoint(1, None, 0.5, math.inf, 1),), ("a note",))
    for curve in (atoms, domination.means, domination.tails, by_hand):
        same_bytes(curve.to_json(), record_forms.diagnostic_curve_form(curve))
        for point in curve.points:
            same_bytes(point.to_json(), record_forms.curve_point_form(point))
    same_bytes(domination.to_json(), record_forms.domination_result_form(domination))
    by_hand = DominationResult(0.0, by_hand, DiagnosticCurve("d", ()))
    same_bytes(by_hand.to_json(), record_forms.domination_result_form(by_hand))


@pytest.mark.parametrize("system, replicates", [
    (DirichletSystem(LebesgueBase()), 50),  # every curve
    (DirichletSystem(LebesgueBase()), 1),  # no curves: too few replicates
    (LeakageSystem(0.2, 3), 50),  # no curves: no domination clause
], ids=["curves", "few-replicates", "leakage"])
def test_a_phase_report_writes_the_old_form(system, replicates):
    chain = system.chain() or dyadic_chain(depth=3)
    report = phase_report(system, chain, depths=(2, 3), replicates=replicates, seed=0)
    assert (report.atomicity_curve is None) == (replicates == 1 or system.chain() is not None)
    same_bytes(report.to_json(), record_forms.phase_report_form(report))


def test_a_phase_report_by_hand_writes_the_old_form():
    verdict = Verdict("x", "fails", "P", "why", ((1, 1.0),))
    report = PhaseReport({"family": "leakage", "depth": 3}, {"tight": verdict}, None,
                         DiagnosticCurve("c", ()), None, "inconclusive", "why",
                         {"completely_random": False, "atomic_corroborated": None})
    same_bytes(report.to_json(), record_forms.phase_report_form(report))


def test_diagnostics_defines_no_to_json():
    tree = ast.parse(inspect.getsource(diagnostics))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "to_json"] == []
