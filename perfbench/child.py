"""Run one histolim CLI command in this fresh interpreter and report timings.

    python3 perfbench/child.py SIDECAR TRACE CLI-ARG...

Imports `histolim.cli` from the checkout's `src/`, calls
`histolim.cli.main(CLI-ARGS)` exactly as the `histolim` console script
does, and writes SIDECAR as JSON:

- ``imported``: CLOCK_MONOTONIC reading once `histolim.cli` is imported.
  CLOCK_MONOTONIC is system-wide, so the parent subtracts its own reading
  taken just before spawning to get the set-up time.
- ``main_s``: time inside `histolim.cli.main` (perf_counter).
- ``env``: package versions and the stream and depth settings in effect.
- ``spans``: with TRACE=1, the layer spans recorded by `spans.install`.

The exit code is the CLI's exit code.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import histolim.cli  # noqa: E402

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    from importlib.metadata import version

    import numpy
    import scipy
    import sympy

    from histolim.partitions import MAX_DEPTH_ENV, max_depth
    from histolim.streams import CHUNK_SIZE

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__, "click": version("click"),
            "CHUNK_SIZE": CHUNK_SIZE,
            "HISTOLIM_MAX_DEPTH": os.environ.get(MAX_DEPTH_ENV),
            "max_depth": max_depth()}


def main() -> int:
    sidecar, traced, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if traced:
        import spans
        tracer = spans.install()
    start = time.perf_counter()
    if tracer is None:
        rc = histolim.cli.main(args)
    else:
        with tracer.span("cli.main"):
            rc = histolim.cli.main(args)
    main_s = time.perf_counter() - start
    report = {"imported": IMPORTED, "main_s": main_s, "env": environment(),
              "spans": [] if tracer is None else tracer.spans}
    Path(sidecar).write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
