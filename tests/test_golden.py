"""Golden corpus: fixed CLI commands keep their output bytes.

The digests in `golden/digests.json` were recorded by `golden/record.py`;
a refactor that changes any output byte fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from record import DIGESTS, run  # noqa: E402

CORPUS = json.loads(DIGESTS.read_text())


def _entry_id(entry) -> str:
    """The first three words, plus the --chain and --format options and the
    --interior flag that tell apart commands on one system."""
    argv = entry["argv"]
    options = [f"{flag} {value}" for flag, value in zip(argv[3:], argv[4:])
               if flag in ("--chain", "--format")]
    return " ".join(argv[:3] + ["--interior"] * ("--interior" in argv) + options)


@pytest.mark.parametrize("entry", CORPUS["commands"], ids=_entry_id)
def test_golden_output_bytes(entry, tmp_path):
    code, err, digest = run(entry["argv"], CORPUS["systems"], tmp_path)
    assert (code, err) == (0, "")
    assert digest == entry["sha256"]


REPLAY = """
import json, os, sys, tempfile
from pathlib import Path

assert "numpy" not in sys.modules
import histolim.cli  # first, as the console script does

assert os.environ["OPENBLAS_THREAD_TIMEOUT"] == "20"
sys.path.insert(0, sys.argv[1])
from record import DIGESTS, run

corpus = json.loads(DIGESTS.read_text())
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps([run(entry["argv"], corpus["systems"], Path(tmp))
                      for entry in corpus["commands"]]))
"""


def test_golden_output_bytes_in_a_fresh_interpreter():
    """In this process numpy loaded before `histolim.cli` could set
    OpenBLAS's thread timeout, so the setting is not in effect here; replay
    the corpus where `histolim.cli` is imported first, as on the command
    line."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    proc = subprocess.run([sys.executable, "-c", REPLAY, str(GOLDEN)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(CORPUS["commands"])
    differ = [" ".join(entry["argv"]) for entry, result in zip(CORPUS["commands"], results)
              if result != [0, "", entry["sha256"]]]
    assert not differ, differ
