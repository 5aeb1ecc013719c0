"""Golden corpus of CLI outputs: fixed commands whose output bytes must
not change.

    PYTHONPATH=src python tests/golden/record.py

writes `digests.json` next to this file: the systems, the commands and the
sha256 of each command's output file.  `tests/test_golden.py` replays the
commands in-process through `histolim.cli.main` and compares digests.
Record only on a commit whose outputs are the reference.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from histolim import cli

DIGESTS = Path(__file__).resolve().parent / "digests.json"

SYSTEMS = {
    "polya_m2": {"family": "polya", "beta": {"rule": "homogeneous", "expr": "m**2"}},
    "polya_cantor_trig": {"family": "polya", "beta": {"rule": "cantor_trig"}},
    "polya_dirichlet_match": {"family": "polya",
                              "beta": {"rule": "dirichlet", "base": {"type": "lebesgue"}}},
    "polya_table_inf": {"family": "polya",
                        "beta": {"rule": "table",
                                 "pairs": {"()": [2.0, 1.0], "1": [0.5, 3.0]},
                                 "default": ["inf", 2.0]}},
    "dirichlet_lebesgue": {"family": "dirichlet", "base": {"type": "lebesgue"}},
    "gaussian_diagonal": {"family": "gaussian",
                          "covariance": {"variant": "diagonal",
                                         "sigma2": {"type": "lebesgue"}}},
    "leakage": {"family": "leakage", "delta": 0.2, "depth": 6},
    "leakage_interior": {"family": "leakage", "delta": 0.2, "depth": 6, "interior": True},
    "gaussian_constant": {"family": "gaussian", "covariance": {"variant": "constant", "c": 2.0}},
    "gaussian_point_mass": {"family": "gaussian",
                            "covariance": {"variant": "point_mass", "sites": [0.3, 0.7],
                                           "matrix": [[1.0, 0.5], [0.5, 1.0]]}},
    "gaussian_kernel": {"family": "gaussian",
                        "covariance": {"variant": "kernel", "name": "gaussian",
                                       "params": {"length": 0.2}}},
    "exponential_kernel": {"family": "gaussian",
                           "covariance": {"variant": "kernel", "name": "exponential",
                                          "params": {"length": 0.2}}},
    "greens_d1": {"family": "gaussian", "covariance": {"variant": "greens", "dimension": 1}},
    "greens_d2": {"family": "gaussian", "covariance": {"variant": "greens", "dimension": 2}},
    "greens_d3": {"family": "gaussian", "covariance": {"variant": "greens", "dimension": 3}},
    "dirichlet_atoms": {"family": "dirichlet",
                        "base": {"type": "atoms", "points": [0.25, -1.5, 3.0],
                                 "weights": [1.0, 2.0, 0.5]}},
    # not a system: a triangular chain over the real line, passed as --chain
    "triangular_inf": {"domain": {"left": "-inf", "right": "+inf", "closed_left": False},
                       "kind": "triangular",
                       "levels": [["-inf", "+inf"], ["-inf", "0.0", "+inf"],
                                  ["-inf", "-1.0", "0.0", "1.0", "+inf"],
                                  ["-inf", "-2.0", "-1.0", "-0.5", "0.0", "0.5", "1.0",
                                   "2.0", "+inf"]]},
}

#: the systems every subcommand runs on
CORE = ("polya_m2", "polya_cantor_trig", "polya_dirichlet_match", "polya_table_inf",
        "dirichlet_lebesgue", "gaussian_diagonal", "leakage")

#: the Gaussian variants outside CORE, with the depth of their commands:
#: integral covariances assemble a quadrature matrix per level, so they
#: stay shallow
GAUSSIANS = {"gaussian_constant": "6", "gaussian_point_mass": "6", "gaussian_kernel": "4",
             "exponential_kernel": "4", "greens_d1": "4", "greens_d2": "4", "greens_d3": "4"}

DEPTH, N = "6", "50"


def commands() -> list[list[str]]:
    """argv lists; `{name}` stands for the file of system `name`."""
    out = []
    for name in CORE:
        system = ["--system", "{%s}" % name]
        out += [
            ["check", *system, "--depth", DEPTH],
            ["mean", *system, "--depth", DEPTH],
            ["sample", *system, "--depth", DEPTH, "--replicates", N,
             "--seed", "0", "--jobs", "1"],
            ["path", *system, "--depth", DEPTH, "--replicates", N,
             "--seed", "0", "--jobs", "1"],
        ]
    out.append(["diagnose", "--system", "{polya_m2}", "--N", "1000",
                "--depths", "2,3", "--seed", "0", "--jobs", "1"])
    draws = ["--replicates", N, "--seed", "0", "--jobs", "1"]
    interior = ["--system", "{leakage_interior}", "--depth", DEPTH]
    out += [
        ["mean", *interior],
        ["mean", *interior, "--format", "json"],
        ["sample", *interior, *draws],
        ["path", *interior, *draws],
        ["mean", "--system", "{leakage}", "--depth", DEPTH, "--format", "json"],
    ]
    for name in ("polya_cantor_trig", "dirichlet_atoms"):
        on_line = ["--system", "{%s}" % name, "--chain", "{triangular_inf}", "--depth", "3"]
        out += [
            ["check", *on_line],
            ["mean", *on_line],
            ["mean", *on_line, "--format", "json"],
            ["sample", *on_line, *draws],
            ["path", *on_line, *draws],
        ]
    counter = ["counterexample", "--delta", "0.2", "--depth", DEPTH]
    out += [counter, [*counter, "--format", "json"], [*counter, "--interior", "--format", "json"]]
    small_diagnose = ["--N", "1000", "--depths", "2,3", "--seed", "0", "--jobs", "1"]
    for name, depth in GAUSSIANS.items():
        system = ["--system", "{%s}" % name]
        out += [
            ["check", *system, "--depth", depth],
            ["sample", *system, "--depth", depth, *draws],
            ["path", *system, "--depth", depth, *draws],
            ["diagnose", *system, *small_diagnose],
        ]
    for name in ("dirichlet_lebesgue", "gaussian_diagonal"):
        out.append(["diagnose", "--system", "{%s}" % name, *small_diagnose])
    return out


def run(argv: list[str], systems: dict, workdir: Path) -> tuple[int, str, str]:
    """Run one command in-process; returns (exit code, stderr, sha256 of
    the output file)."""
    paths = {}
    for name, obj in systems.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    target = workdir / "out"
    target.unlink(missing_ok=True)
    args = [a.format(**paths) for a in argv] + ["--out", str(target)]
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main(args)
    digest = hashlib.sha256(target.read_bytes()).hexdigest() if target.exists() else ""
    return code, err.getvalue(), digest


def main() -> int:
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands():
            code, err, digest = run(argv, SYSTEMS, Path(tmp))
            if code != 0 or err:
                print(f"{' '.join(argv)}: exit {code}: {err}", file=sys.stderr)
                return 1
            entries.append({"argv": argv, "sha256": digest})
    DIGESTS.write_text(json.dumps({"systems": SYSTEMS, "commands": entries},
                                  indent=1) + "\n")
    print(f"recorded {len(entries)} digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
