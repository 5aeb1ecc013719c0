"""Every third-party module the package imports, at the top of a module or
inside a function, is a declared runtime dependency, and the runtime needs
no computer algebra system: `sympy` is a test-only oracle."""

import ast
import re
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


def test_runtime_imports_are_declared_and_exclude_sympy():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {_distribution(r) for r in project["dependencies"]}
    imports = _third_party_imports()
    assert {"numpy", "click", "orjson"} <= imports.keys()  # lazy imports are seen
    undeclared = {name: files for name, files in imports.items() if name not in declared}
    assert not undeclared
    assert "sympy" not in declared and "sympy" not in imports
    assert "sympy" in {_distribution(r) for r in project["optional-dependencies"]["test"]}
