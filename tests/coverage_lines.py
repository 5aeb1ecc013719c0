"""List the executable lines of `src/histolim` that a pytest run never runs.

    PYTHONPATH=src python tests/coverage_lines.py [pytest arguments]

runs pytest in this process (by default on `tests/`, quietly) under a
standard-library `sys.settrace` tracer, also installed in every thread
through `threading.settrace`, and then prints each never-run line as
``path:line: source`` and a last line ``N of M executable src/ lines never
run``.  Its exit code is pytest's.  A line is executable when the compiler
gives it an instruction: the union of `co_lines()` over every code object
of the module, nested ones included.

No package is needed beyond pytest.  The file is not a test module, so the
test suite does not collect it, and it is no gate: it is a tool for finding
code that no test reaches.  Three limits:
- The tracer slows every traced line, and the suite 2-3x in all.  So the
  tests marked `wallclock`, which assert a wall-clock bound, run untraced,
  and the lines only they run count as never run.
- Code run only in a subprocess (the tests that start a fresh interpreter)
  is not traced, so it counts as never run unless an in-process test runs
  it too.
- A test that reaches the recursion limit can do so inside the tracer,
  which Python then drops.  The tracer is put back before the next test,
  but the lines that test runs after the drop count as never run.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "histolim"


def executable_lines(source: str, path: Path) -> set[int]:
    """Line numbers that carry an instruction in the module `source`."""
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    sources = {str(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    files = {name: executable_lines(text, Path(name)) for name, text in sources.items()}
    run: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename in run:
            run[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    class Retrace:
        """Puts the tracer back before each test: Python drops a trace
        function that raises, as it does when a test reaches the recursion
        limit.  A test marked `wallclock` asserts a wall-clock bound, which
        the tracer's cost would break, so it runs untraced."""

        @staticmethod
        def pytest_runtest_setup(item):
            tracer = None if item.get_closest_marker("wallclock") else call
            sys.settrace(tracer)
            threading.settrace(tracer)

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                           plugins=[Retrace()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name, lines in files.items():
        source = sources[name].splitlines()
        for line in sorted(lines - run[name]):
            print(f"{Path(name).relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    total = sum(len(lines) for lines in files.values())
    print(f"{missed} of {total} executable src/ lines never run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
