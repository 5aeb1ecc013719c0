"""Command line contract: exit codes, determinism, output hygiene."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomllib arrived in 3.11
    tomllib = None

from histolim.cli import main


@pytest.fixture
def systems(tmp_path):
    paths = {}
    for name, obj in {
        "polya_m": {"family": "polya",
                    "beta": {"rule": "homogeneous", "expr": "m"}},
        "dir_leb": {"family": "dirichlet", "base": {"type": "lebesgue"}},
        "gauss_bad": {"family": "gaussian",
                      "covariance": {"variant": "greens", "dimension": 1,
                                     "affine": [0.0, 0.0, 0.0]}},
        "leak": {"family": "leakage", "delta": 0.2, "depth": 8},
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    paths["broken"] = str(broken)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_polya_json(systems, capsys):
    code, out, err = run(capsys, "check", "--system", systems["polya_m"])
    assert code == 0, err
    conds = json.loads(out)["conditions"]
    assert set(conds) == {"polya-tight", "polya-leakage", "polya-weak"}
    assert conds["polya-tight"]["status"] == "holds"
    assert conds["polya-tight"]["anchor"] == "P-tight"


def test_missing_seed_is_an_error(systems, capsys):
    code, out, err = run(capsys, "sample", "--system", systems["polya_m"],
                         "--depth", "3")
    assert code == 1
    assert "seed" in err.lower()


def test_malformed_system_json_exits_one(systems, capsys):
    code, out, err = run(capsys, "check", "--system", systems["broken"])
    assert code == 1
    assert err.startswith("error[cli/system-json]")
    assert "\n" not in err.strip()  # single machine-parsable line


def test_numeric_failure_exits_two(systems, capsys):
    code, out, err = run(capsys, "sample", "--system", systems["gauss_bad"],
                         "--depth", "2", "--seed", "1")
    assert code == 2
    assert err.startswith("error[covariance/not-psd]")


@pytest.mark.parametrize("expr", ["1j", "(-m)**0.5", "0**(-1)", "10.0**400",
                                  "(3 + -1*m)^-1"])
def test_beta_expression_failures_exit_one(expr, tmp_path, capsys):
    """Complex, undefined and overflowing values, at construction or at a
    later level, end in one error line."""
    path = tmp_path / "polya.json"
    path.write_text(json.dumps(
        {"family": "polya", "beta": {"rule": "homogeneous", "expr": expr}}))
    code, out, err = run(capsys, "check", "--system", str(path))
    assert code == 1
    assert err.startswith("error[system/beta-expression]")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def _one_error_line(capsys, spec, tmp_path, *argv):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, *argv, "--system", str(path))
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return code, err


@pytest.mark.parametrize("spec", [
    {"family": "polya"},
    {"family": "gaussian"},
    {"family": "dirichlet"},
    {"family": "polya", "beta": {"rule": "homogeneous", "expr": "m"}, "p0": "x"},
    {"family": "leakage", "depth": "a"},
], ids=["polya-no-beta", "gaussian-no-covariance", "dirichlet-no-base",
        "p0-not-a-number", "leakage-depth-not-a-number"])
def test_malformed_system_file_is_one_error_line(spec, tmp_path, capsys):
    code, err = _one_error_line(capsys, spec, tmp_path, "check")
    assert code == 1
    assert err.startswith("error[system/json]")


def test_mean_without_atom_cell_names_the_atom(tmp_path, capsys):
    """p0 > 0 on a chain without the zero atom cell fails as `sample` does."""
    spec = {"family": "polya", "beta": {"rule": "homogeneous", "expr": "m"},
            "p0": 0.3}
    errors = [_one_error_line(capsys, spec, tmp_path, cmd, "--depth", "3",
                              *extra)
              for cmd, extra in (("mean", ()), ("sample", ("--seed", "1")))]
    expected = ("error[sampling/atom-mass] p0=0.3 needs a zero atom cell, "
                "absent at level 3\n")
    assert errors == [(1, expected), (1, expected)]


def test_counterexample_table(capsys):
    code, out, err = run(capsys, "counterexample", "--delta", "0.2",
                         "--depth", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "depth,window,outside_mass"
    masses = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert masses == {"0.0", "0.2"}  # exact decimals, never 0.1999...


def test_refuse_overwrite_without_force(systems, capsys, tmp_path):
    target = tmp_path / "out.csv"
    args = ("sample", "--system", systems["polya_m"], "--depth", "3",
            "--seed", "7", "--out", str(target))
    assert run(capsys, *args)[0] == 0
    code, out, err = run(capsys, *args)
    assert code == 1
    assert err.startswith("error[cli/exists]")
    assert run(capsys, *args, "--force")[0] == 0


def test_sample_bytes_equal_across_jobs(systems, capsys, tmp_path):
    outs = []
    for jobs in ("1", "4"):
        target = tmp_path / f"jobs{jobs}.csv"
        code, _, err = run(capsys, "sample", "--system", systems["dir_leb"],
                           "--depth", "5", "--replicates", "64", "--seed", "42",
                           "--jobs", jobs, "--out", str(target))
        assert code == 0, err
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_help_lists_evaluators_with_tags(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    for name, tag in (("polya-tight", "P-tight"),
                      ("gaussian-spectral", "P-Gauss"),
                      ("dirichlet-weak", "P-weak")):
        assert name in out and f"[{tag}]" in out


def test_mean_json(systems, capsys):
    code, out, err = run(capsys, "mean", "--system", systems["dir_leb"],
                         "--depth", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["values"] == pytest.approx([1 / 8] * 8)


def test_path_origin_and_terminal(systems, capsys):
    code, out, err = run(capsys, "path", "--system", systems["polya_m"],
                         "--depth", "4", "--seed", "5", "--replicates", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "replicate,t,value"
    assert lines[1] == "0,0.0,0.0"  # bounded domain: origin row
    last = lines[-1].split(",")
    assert last[0] == "1" and float(last[2]) == pytest.approx(1.0)


def test_diagnose_leakage(systems, capsys):
    code, out, err = run(capsys, "diagnose", "--system", systems["leak"],
                         "--seed", "3", "--N", "1000")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["declared_phase"] == "inconclusive"
    assert "no tight limit" in rep["rationale"]


def test_diagnose_non_centred_gaussian(tmp_path, capsys):
    """A centre shifts the domination reference to |centre| + spread rather
    than stopping the command."""
    system = tmp_path / "shifted.json"
    system.write_text(json.dumps(
        {"family": "gaussian",
         "covariance": {"variant": "diagonal", "sigma2": {"type": "lebesgue"}},
         "centre": {"type": "lebesgue", "scale": 0.5}}))
    code, out, err = run(capsys, "diagnose", "--system", str(system),
                         "--seed", "3", "--N", "1000", "--depths", "2,3")
    assert code == 0, err
    assert json.loads(out)["domination_curve"]["points"]


def test_diagnose_enforces_sample_floor(systems, capsys):
    code, out, err = run(capsys, "diagnose", "--system", systems["leak"],
                         "--seed", "3", "--N", "50")
    assert code == 1
    assert err.startswith("error[cli/samples]")


def test_depth_capacity_env(systems):
    env = dict(os.environ, HISTOLIM_MAX_DEPTH="6")
    proc = subprocess.run(
        [sys.executable, "-m", "histolim.cli", "sample",
         "--system", systems["polya_m"], "--depth", "9", "--seed", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error[partition/depth-capacity]")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_entry_point():
    """The declared `histolim` script, run as an installer's launcher runs it."""
    toml = tomllib or pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        target = toml.load(f)["project"]["scripts"]["histolim"]
    assert target == "histolim.cli:main"
    module, func = target.split(":")
    launcher = ("import sys\n"
                f"from {module} import {func}\n"
                "sys.argv[0] = 'histolim'\n"
                f"sys.exit({func}())\n")
    proc = subprocess.run([sys.executable, "-c", launcher, "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "counterexample" in proc.stdout


@pytest.mark.skipif(shutil.which("histolim") is None,
                    reason="histolim console script not installed")
def test_installed_console_script():
    proc = subprocess.run(["histolim", "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "counterexample" in proc.stdout


def test_power_tower_expression_fails_fast(tmp_path):
    """An exact integer power tower is refused before it is computed."""
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(
        {"family": "polya", "beta": {"rule": "homogeneous", "expr": "9**9**9"}}))
    proc = subprocess.run(
        [sys.executable, "-m", "histolim.cli", "check", "--system", str(path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error[system/beta-expression]")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_check_gaussian_at_max_depth(tmp_path, capsys, monkeypatch):
    """The documented depth cap is reachable: the chain is implicit."""
    monkeypatch.delenv("HISTOLIM_MAX_DEPTH", raising=False)
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(
        {"family": "gaussian",
         "covariance": {"variant": "diagonal", "sigma2": {"type": "lebesgue"}}}))
    code, out, err = run(capsys, "check", "--system", str(path), "--depth", "30")
    assert code == 0, err
    assert json.loads(out)["conditions"]["gaussian-diagonal"]["status"] == "holds"


def test_cli_import_leaves_sympy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, histolim.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("expr", [
    pytest.param("+".join(["1"] * 1100), id="sum-1100"),
    pytest.param("^".join(["m"] * 1100), id="power-1100"),
    pytest.param("-" * 5000 + "m", id="negation-5000"),
    pytest.param("(" * 1000 + "m" + ")" * 1000, id="parentheses-1000"),
])
def test_deep_beta_expressions_exit_one(expr, tmp_path):
    """Expressions nested beyond what the parser or the evaluator can
    recurse through end in one error line, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(
        {"family": "polya", "beta": {"rule": "homogeneous", "expr": expr}}))
    proc = subprocess.run(
        [sys.executable, "-m", "histolim.cli", "check", "--system", str(path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error[system/beta-expression]")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_nested_parentheses_within_parser_limits_evaluate(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(
        {"family": "polya",
         "beta": {"rule": "homogeneous", "expr": "(" * 150 + "m + 1" + ")" * 150}}))
    code, out, err = run(capsys, "check", "--system", str(path))
    assert code == 0, err


def _sample_args(systems, target):
    return ("sample", "--system", systems["polya_m"], "--depth", "3",
            "--seed", "7", "--replicates", "3", "--out", str(target))


def test_existing_output_is_left_untouched(systems, capsys, tmp_path):
    outdir = tmp_path / "out"
    outdir.mkdir()
    target = outdir / "draws.csv"
    target.write_text("keep\n")
    code, _, err = run(capsys, *_sample_args(systems, target))
    assert code == 1
    assert err.startswith("error[cli/exists]")
    assert target.read_text() == "keep\n"
    assert sorted(os.listdir(outdir)) == ["draws.csv"]


def test_new_output_gets_the_default_file_mode(systems, capsys, tmp_path):
    target = tmp_path / "draws.csv"
    assert run(capsys, *_sample_args(systems, target))[0] == 0
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask


class _FailingFile:
    """Stands in for the output file: writes half the text, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        self.f.write(text[:len(text) // 2])
        self.f.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failure", ["write", "replace"])
@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_no_partial_file(failure, existing, systems, capsys,
                                             tmp_path, monkeypatch):
    outdir = tmp_path / "out"
    outdir.mkdir()
    target = outdir / "draws.csv"
    if existing:
        target.write_text("keep\n")
    if failure == "write":
        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda fd, *a, **k: _FailingFile(fdopen(fd, *a, **k)))
    else:
        def refuse(src, dst):
            raise OSError(5, "Input/output error")
        monkeypatch.setattr(os, "replace", refuse)
    code, _, err = run(capsys, *_sample_args(systems, target), "--force")
    assert code == 1
    assert err.startswith("error[cli/write]")
    assert len(err.strip().splitlines()) == 1
    assert sorted(os.listdir(outdir)) == (["draws.csv"] if existing else [])
    if existing:
        assert target.read_text() == "keep\n"


def test_unwritable_output_directory_is_one_error_line(systems, capsys, tmp_path):
    code, _, err = run(capsys, *_sample_args(systems, tmp_path / "missing" / "draws.csv"))
    assert code == 1
    assert err.startswith("error[cli/write]")
    assert len(err.strip().splitlines()) == 1
