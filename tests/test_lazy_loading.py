"""Each subcommand loads only the modules it runs.

`sample`, `path` and `mean` export finite-level histograms; they never need
the condition evaluators, the phase diagnostics or a thread pool, so
importing `histolim.cli` and running them in a fresh interpreter must leave
`histolim.conditions`, `histolim.diagnostics` and `concurrent.futures`
unloaded.  The names those modules define must still resolve where they
did before: on the package, by `from histolim import *`, and in the help
(whose evaluator table `test_cli` checks).
"""

import json
import subprocess
import sys

from histolim.cli import main
from histolim.conditions import MATRIX_DEPTH, PRODUCT_DEPTH

UNLOADED = ("histolim.conditions", "histolim.diagnostics", "concurrent.futures")

FOOTPRINT = """
import contextlib, io, json, os, sys, tempfile
import histolim.cli as cli

def loaded():
    return sorted(name for name in {unloaded!r} if name in sys.modules)

steps = {{"import": loaded()}}
with tempfile.TemporaryDirectory() as tmp:
    system = os.path.join(tmp, "system.json")
    with open(system, "w") as f:
        json.dump({{"family": "polya", "beta": {{"rule": "homogeneous", "expr": "m**2"}}}}, f)
    level = ["--system", system, "--depth", "4"]
    for argv in (["sample", *level, "--replicates", "20", "--seed", "1"],
                 ["sample", *level, "--seed", "1", "--format", "json"],
                 ["path", *level, "--replicates", "20", "--seed", "1", "--jobs", "2"],
                 ["mean", *level], ["mean", *level, "--format", "json"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
        steps[" ".join(argv[:1] + argv[-2:])] = loaded()
print(json.dumps(steps))
""".format(unloaded=UNLOADED)


def _fresh(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exports_load_neither_conditions_nor_diagnostics():
    steps = json.loads(_fresh(FOOTPRINT))
    assert len(steps) == 6
    assert all(loaded == [] for loaded in steps.values()), steps


def test_public_names_resolve_lazily():
    script = ("import sys, histolim\n"
              "assert 'histolim.diagnostics' not in sys.modules\n"
              "from histolim.diagnostics import phase_report\n"
              "assert histolim.phase_report is phase_report\n"
              "names = {}\n"
              "exec('from histolim import *', names)\n"
              "assert sorted(set(names) - {'__builtins__'}) == histolim.__all__\n"
              "assert all(names[n] is getattr(histolim, n) for n in histolim.__all__)\n"
              "print(len(histolim.__all__))\n")
    assert _fresh(script).strip() == "58"


def test_unknown_names_are_attribute_errors():
    import histolim
    import histolim.cli as cli

    for module in (histolim, cli):
        assert not hasattr(module, "no_such_name")
    assert not hasattr(cli, "family_verdicts")  # not one of the names kept on `cli`
    assert cli.phase_report is histolim.phase_report


def test_check_help_names_the_default_depths(capsys):
    for _ in range(2):  # the help text is filled in once and stays filled
        assert main(["check", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert (f"Evaluation depth (default {PRODUCT_DEPTH} for product conditions, "
                f"{MATRIX_DEPTH} for covariance conditions).") in out
