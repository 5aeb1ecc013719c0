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


@pytest.mark.parametrize("entry", CORPUS["commands"],
                         ids=lambda e: " ".join(e["argv"][:3]))
def test_golden_output_bytes(entry, tmp_path):
    code, err, digest = run(entry["argv"], CORPUS["systems"], tmp_path)
    assert (code, err) == (0, "")
    assert digest == entry["sha256"]
