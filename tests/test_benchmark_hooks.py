"""The benchmark's span hooks still find what they wrap.

`perfbench/spans.py` replaces package functions by name (`sample_stack`,
`atomicity_statistic`, `run_chunked`, ...).  A renamed function would make
traced benchmark runs and `perfbench/selfcheck.py` fail, so install the
hooks in a fresh interpreter (the monkeypatching stays out of the pytest
process) and run one small traced command.
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
    code = histolim.cli.main(["diagnose", "--system", SYSTEM, "--N", "1000",
                              "--depths", "2,3", "--seed", "1", "--jobs", "2"])
assert code == 0, code
assert any(s[1] == "diagnostics.phase_report" for s in tracer.spans)
"""


def test_benchmark_span_hooks_install():
    system = ROOT / "perfbench" / "systems" / "polya_m2.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    result = subprocess.run(
        [sys.executable, "-c", f"SYSTEM = {str(system)!r}\n{SCRIPT}"],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
