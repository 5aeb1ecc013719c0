"""Every third-party module the package imports, at the top of a module or
inside a function, is a declared runtime dependency, and the runtime needs
neither a computer algebra system nor a quadrature library: `sympy` and
`scipy` are test-only oracles."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def _distribution(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level module name -> the package files that import it."""
    found: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "histolim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in {name.split(".")[0] for name in names}:
                if top not in sys.stdlib_module_names and top != "histolim":
                    found.setdefault(top, set()).add(path.name)
    return found


def _project() -> dict:
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _assert_test_only(name: str) -> None:
    """No package file imports `name`, even lazily; it is no runtime
    dependency, and the `test` extra declares it."""
    project = _project()
    assert name not in _third_party_imports()
    assert name not in {_distribution(r) for r in project["dependencies"]}
    assert name in {_distribution(r) for r in project["optional-dependencies"]["test"]}


def test_runtime_imports_are_declared_and_exclude_sympy():
    declared = {_distribution(r) for r in _project()["dependencies"]}
    imports = _third_party_imports()
    assert {"numpy", "click", "orjson"} <= imports.keys()  # lazy imports are seen
    undeclared = {name: files for name, files in imports.items() if name not in declared}
    assert not undeclared
    _assert_test_only("sympy")


def test_runtime_excludes_scipy():
    assert {_distribution(r) for r in _project()["dependencies"]} == {"numpy", "click", "orjson"}
    _assert_test_only("scipy")


BARE_CALLABLE_CURVE = """
import math, sys
from histolim.diagnostics import tv_martingale_curve
from histolim.partitions import dyadic_chain

curve = tv_martingale_curve(lambda x: 1.0 + 0.5 * math.sin(7.0 * x), dyadic_chain(depth=4))
assert len(curve) == 4
print("scipy" in sys.modules)
"""


def test_bare_callable_curve_leaves_scipy_unloaded():
    """A bare callable's cell masses are integrated without `scipy`."""
    proc = subprocess.run([sys.executable, "-c", BARE_CALLABLE_CURVE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
