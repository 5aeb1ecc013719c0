"""Each subcommand loads only the modules it runs.

`sample`, `path` and `mean` export finite-level histograms; they never need
the condition evaluators, the phase diagnostics or a thread pool, so
importing `histolim.cli` and running them in a fresh interpreter must leave
`histolim.conditions`, `histolim.diagnostics` and `concurrent.futures`
unloaded.  `orjson`, which spells the floats of `sample` and `path`, loads
in those two alone: not on import, nor in `check`, `diagnose` or `mean`.  The names those modules define must still resolve where they
did before: on the package, by `from histolim import *`, and in the help
(whose evaluator table `test_cli` checks).  `histolim.cli`, and it alone,
sets OpenBLAS's thread timeout before numpy loads.
"""

import json
import os
import subprocess
import sys

import pytest

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


def _fresh(script: str, *args: str, env=None) -> str:
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exports_load_neither_conditions_nor_diagnostics():
    steps = json.loads(_fresh(FOOTPRINT))
    assert len(steps) == 6
    assert all(loaded == [] for loaded in steps.values()), steps


ORJSON_STEPS = """
import contextlib, io, json, os, sys, tempfile
import histolim.cli as cli

steps = {"import": "orjson" in sys.modules}
with tempfile.TemporaryDirectory() as tmp:
    system = os.path.join(tmp, "system.json")
    with open(system, "w") as f:
        json.dump({"family": "polya", "beta": {"rule": "homogeneous", "expr": "m**2"}}, f)
    level = ["--system", system, "--depth", "4"]
    for argv in (["check", *level],
                 ["diagnose", "--system", system, "--N", "1000", "--depths", "2,3",
                  "--seed", "1", "--jobs", "1"],
                 ["mean", *level], ["mean", *level, "--format", "json"],
                 ["sample", *level, "--seed", "1"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
        steps[" ".join(argv[:1] + argv[-2:])] = "orjson" in sys.modules
print(json.dumps(steps))
"""


def test_only_sample_and_path_load_orjson():
    steps = json.loads(_fresh(ORJSON_STEPS))
    assert list(steps.values()) == [False] * 5 + [True], steps


OPENBLAS_STEPS = """
import json, os, sys

class Watch:
    \"\"\"Records the variable when numpy is first looked up.\"\"\"
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.meta_path.insert(0, Watch())
before = dict(os.environ)
for name in sys.argv[1:]:
    __import__(name)
after = dict(os.environ)
print(json.dumps({"at_numpy": Watch.seen,
                  "changed": sorted(k for k in before.keys() | after.keys()
                                    if before.get(k) != after.get(k))}))
"""


@pytest.mark.parametrize("modules, preset, expected", [
    (("histolim.cli",), None, {"at_numpy": ["20"], "changed": ["OPENBLAS_THREAD_TIMEOUT"]}),
    (("histolim.cli",), "7", {"at_numpy": ["7"], "changed": []}),
    (("histolim", "histolim.sampling"), None, {"at_numpy": [None], "changed": []}),
], ids=["cli-sets-it", "user-value-kept", "library-leaves-it"])
def test_only_the_cli_sets_the_openblas_timeout(modules, preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    assert json.loads(_fresh(OPENBLAS_STEPS, *modules, env=env)) == expected


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
