"""Golden corpus: fixed CLI commands keep their output bytes.

The digests in `golden/digests.json` were recorded by `golden/record.py`;
a refactor that changes any output byte fails here.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from record import DIGESTS, run  # noqa: E402

CORPUS = json.loads(DIGESTS.read_text())


def _entry_id(entry) -> str:
    """The first three words, plus the --chain and --format options that
    tell apart commands on one system."""
    argv = entry["argv"]
    options = [f"{flag} {value}" for flag, value in zip(argv[3:], argv[4:])
               if flag in ("--chain", "--format")]
    return " ".join(argv[:3] + options)


@pytest.mark.parametrize("entry", CORPUS["commands"], ids=_entry_id)
def test_golden_output_bytes(entry, tmp_path):
    code, err, digest = run(entry["argv"], CORPUS["systems"], tmp_path)
    assert (code, err) == (0, "")
    assert digest == entry["sha256"]
