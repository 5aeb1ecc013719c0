"""The benchmark's span hooks still find what they wrap.

`perfbench/spans.py` replaces package functions by name (`sample_stack`,
`atomicity_statistic`, `run_chunked`, ...).  A renamed function would make
traced benchmark runs and `perfbench/selfcheck.py` fail, so install the
hooks in a fresh interpreter (the monkeypatching stays out of the pytest
process) and run small traced commands.  The `conditions.*` metrics come
from wrapping the evaluators where `cli` and `diagnostics` call them; if the
calls moved elsewhere those metrics would read 0 without any error, so a
traced `check` on one system per family must record every evaluator, and a
traced `diagnose` must record `histograms.truncation_values`.
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
# the excess of each block of rows goes through the wrapped module global
assert any(s[1] == "histograms.truncation_values" for s in tracer.spans)
before = len(tracer.spans)
for name in ("polya_m2", "dirichlet_lebesgue", "gaussian_diagonal"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = histolim.cli.main(["check", "--system", f"{SYSTEMS}/{name}.json"])
    assert code == 0, (name, code)
evaluators = [s[1] for s in tracer.spans[before:] if s[1].startswith("conditions.")]
assert len(evaluators) == 6, evaluators
"""


# The export metrics (`histograms.csv_s`, `histograms.json_s`,
# `sampling.path_s`) come from wrapping the exporters where `cli` calls
# them.  Each exporter must write its pieces inside that call: one that
# returned an iterator, consumed later, would leave its span empty.
EXPORT_SCRIPT = """
import collections.abc, io, contextlib, spans
import histolim.cli as cli
tracer = spans.install()
calls = []
for name in ("stack_to_csv", "histogram_to_csv", "dump_json", "path_from_histogram"):
    def checked(*args, _fn=getattr(cli, name), _name=name):
        pieces = []
        if _name != "path_from_histogram":
            write = args[-1]
            args = (*args[:-1], lambda piece: (pieces.append(piece), write(piece)))
        result = _fn(*args)
        calls.append((_name, isinstance(result, collections.abc.Iterator), len(pieces)))
        return result
    setattr(cli, name, checked)
level = ["--system", f"{SYSTEMS}/dirichlet_lebesgue.json", "--depth", "4"]
draws = [*level, "--replicates", "20", "--seed", "1", "--jobs", "1"]
for argv in (["sample", *draws], ["sample", *draws, "--format", "json"],
             ["path", *draws], ["mean", *level]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
names = {s[1] for s in tracer.spans}
for name in ("histograms.csv", "histograms.dump_json", "sampling.path_from_histogram"):
    assert name in names, (name, sorted(names))
assert [c[0] for c in calls] == ["stack_to_csv", "dump_json", "path_from_histogram",
                                 "histogram_to_csv"], calls
assert not any(iterator for _, iterator, _ in calls), calls
assert all(n > 0 for name, _, n in calls if name != "path_from_histogram"), calls
"""


def _run_traced(script: str) -> None:
    systems = ROOT / "perfbench" / "systems"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    result = subprocess.run(
        [sys.executable, "-c", f"SYSTEMS = {str(systems)!r}\n{script}"],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_benchmark_span_hooks_install():
    _run_traced(SCRIPT)


def test_export_spans_cover_the_writes():
    _run_traced(EXPORT_SCRIPT)
