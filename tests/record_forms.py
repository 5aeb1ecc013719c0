"""The JSON forms of result records and specs as the package wrote them
before every record wrote its own fields.

Each result class had a hand-written `to_json`; the bodies below are those,
unchanged apart from reading the record as an argument, and a nested record
is written by its own oracle here.  `spec_form` is the old `Spec.to_json`
with its field writer, and the three spec classes whose form is not their
fields.  The differential tests hold the classes' own `to_json` to the same
bytes.
"""

from dataclasses import fields

import numpy as np

from histolim.systems import (
    _TAGS,
    DirichletMatchRule,
    GaussianSystem,
    PolyaTreeSystem,
    Spec,
)


def verdict_form(v) -> dict:
    out = {"condition": v.condition, "status": v.status,
           "evidence": [[int(d), float(x)] for d, x in v.evidence],
           "anchor": v.anchor, "argument": v.argument}
    if v.extrapolation is not None:
        out["extrapolation"] = v.extrapolation
    return out


def leakage_report_form(r) -> dict:
    return {
        "delta": r.delta,
        "depth": r.depth,
        "interior": r.interior,
        "windows": list(r.windows),
        "rows": [{"depth": d, "window": k, "outside_mass": v}
                 for d, k, v in r.rows],
        "verdict": verdict_form(r.verdict),
    }


def coherence_run_form(r) -> dict:
    return {"seed": r.seed, "passed": r.passed,
            "max_abs_z": r.max_abs_z,
            "first_moment_z": list(r.first_moment_z),
            "second_moment_z": list(r.second_moment_z)}


def coherence_result_form(r) -> dict:
    return {"levels": list(r.levels), "replicates": r.replicates,
            "threshold": r.threshold, "passed": r.passed,
            "runs": [coherence_run_form(x) for x in r.runs]}


def curve_point_form(p) -> dict:
    return {"depth": p.depth, "L": p.L, "mean": p.mean,
            "stderr": p.stderr, "n": p.n}


def diagnostic_curve_form(c) -> dict:
    return {"name": c.name, "points": [curve_point_form(p) for p in c.points],
            "notes": list(c.notes)}


def domination_result_form(r) -> dict:
    return {"delta": r.delta, "means": diagnostic_curve_form(r.means),
            "tails": diagnostic_curve_form(r.tails)}


def phase_report_form(r) -> dict:
    return {
        "family": r.family,
        "condition_verdicts": {k: verdict_form(v)
                               for k, v in r.condition_verdicts.items()},
        "atomicity_curve": None if r.atomicity_curve is None
        else diagnostic_curve_form(r.atomicity_curve),
        "domination_curve": None if r.domination_curve is None
        else diagnostic_curve_form(r.domination_curve),
        "domination_tail_curve": None if r.domination_tail_curve is None
        else diagnostic_curve_form(r.domination_tail_curve),
        "declared_phase": r.declared_phase,
        "rationale": r.rationale,
        "flags": dict(r.flags),
    }


def spec_form(spec) -> dict:
    if isinstance(spec, DirichletMatchRule):
        return {"rule": "dirichlet", "base": spec_form(spec.base)}
    if isinstance(spec, PolyaTreeSystem):
        out = {"family": "polya", "beta": spec_form(spec.rule)}
        if spec.p0:
            out["p0"] = spec.p0
        return out
    if isinstance(spec, GaussianSystem):
        centre = "zero" if spec.centre is None else spec_form(spec.centre)
        return {"family": "gaussian", "covariance": spec_form(spec.covariance), "centre": centre}
    tag, name = _TAGS[type(spec)]
    return {tag: name, **{f.name: _field_form(value) for f in fields(spec)
                          if f.init and (value := getattr(spec, f.name)) is not None}}


def _field_form(value):
    if isinstance(value, Spec):
        return spec_form(value)
    if isinstance(value, (tuple, np.ndarray)):
        return np.asarray(value).tolist()
    return {k: _field_form(v) for k, v in value.items()} if isinstance(value, dict) else value
