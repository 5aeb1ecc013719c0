"""The benchmark's span hooks still find what they wrap.

`perfbench/spans.py` replaces package functions by name (`sample_stack`,
`atomicity_statistic`, `run_chunked`, ...).  A renamed function would make
traced benchmark runs and `perfbench/selfcheck.py` fail, so install the
hooks in a fresh interpreter (the monkeypatching stays out of the pytest
process) and run small traced commands.  The `conditions.*` metrics come
from wrapping the evaluators where `cli` and `diagnostics` call them; if the
calls moved elsewhere those metrics would read 0 without any error, so a
traced `check` on one system per family must record every evaluator.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import io, contextlib, spans
import histolim.cli
tracer = spans.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = histolim.cli.main(["diagnose", "--system", f"{SYSTEMS}/polya_m2.json",
                              "--N", "1000", "--depths", "2,3", "--seed", "1",
                              "--jobs", "2"])
assert code == 0, code
assert any(s[1] == "diagnostics.phase_report" for s in tracer.spans)
before = len(tracer.spans)
for name in ("polya_m2", "dirichlet_lebesgue", "gaussian_diagonal"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = histolim.cli.main(["check", "--system", f"{SYSTEMS}/{name}.json"])
    assert code == 0, (name, code)
evaluators = [s[1] for s in tracer.spans[before:] if s[1].startswith("conditions.")]
assert len(evaluators) == 6, evaluators
"""


def test_benchmark_span_hooks_install():
    systems = ROOT / "perfbench" / "systems"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    result = subprocess.run(
        [sys.executable, "-c", f"SYSTEMS = {str(systems)!r}\n{SCRIPT}"],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
