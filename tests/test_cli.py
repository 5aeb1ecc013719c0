"""Command line contract: exit codes, determinism, output hygiene."""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomllib arrived in 3.11
    tomllib = None

from histolim.cli import main
from histolim.conditions import EVALUATOR_TAGS
from histolim.partitions import Domain, dyadic_chain


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
                                  "(3 + -1*m)^-1", "True*m", "m+False", "m**True", True])
def test_beta_expression_failures_exit_one(expr, tmp_path, capsys):
    """Complex, undefined and overflowing values, at construction or at a
    later level, end in one error line; so do truth values, in the text or
    as a JSON `true`, which are no numbers of the grammar."""
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
    """One evaluator a line: the table is not re-wrapped into a paragraph."""
    code, out, err = run(capsys, "--help")
    assert code == 0
    lines = [line.strip() for line in out.splitlines()]
    for name, tag in EVALUATOR_TAGS.items():
        assert lines.count(f"{name}  [{tag}]") == 1


def test_no_arguments_is_one_usage_line(capsys):
    assert run(capsys) == (1, "", "error[cli/usage] Missing command.\n")


def test_dirichlet_weak_reads_atoms_on_the_chain_domain(tmp_path, capsys):
    """Atoms at 1.5 and 3.5 on (0, 4] fall in two cells of every level."""
    system, chain = tmp_path / "system.json", tmp_path / "chain.json"
    system.write_text(json.dumps({"family": "dirichlet", "base": {
        "type": "atoms", "points": [1.5, 3.5], "weights": [1, 1]}}))
    chain.write_text(json.dumps(dyadic_chain(Domain(Fraction(0), Fraction(4)), 3).to_json()))
    code, out, err = run(capsys, "check", "--system", str(system), "--chain", str(chain),
                         "--depth", "3")
    assert (code, err) == (0, "")
    weak = json.loads(out)["conditions"]["dirichlet-weak"]
    assert weak["evidence"] == [[m, 4 / 3] for m in (1, 2, 3)]


def test_dirichlet_weak_reads_the_levels_of_a_triangular_chain(tmp_path, capsys):
    """On the line, level 1 is (-inf, 0] and (0, inf): the atoms -1.5 | 0.25,
    3.0 fill two cells there, three below.  The chain has three levels, and
    the evidence stops with them at the default depth too."""
    system, chain = tmp_path / "system.json", tmp_path / "chain.json"
    system.write_text(json.dumps({"family": "dirichlet", "base": {
        "type": "atoms", "points": [0.25, -1.5, 3.0], "weights": [1.0, 2.0, 0.5]}}))
    chain.write_text(json.dumps({
        "domain": {"left": "-inf", "right": "+inf", "closed_left": False},
        "kind": "triangular",
        "levels": [["-inf", "+inf"], ["-inf", "0.0", "+inf"],
                   ["-inf", "-1.0", "0.0", "1.0", "+inf"],
                   ["-inf", "-2.0", "-1.0", "-0.5", "0.0", "0.5", "1.0", "2.0", "+inf"]]}))
    for depth in (["--depth", "3"], []):
        code, out, err = run(capsys, "check", "--system", str(system), "--chain", str(chain),
                             *depth)
        assert (code, err) == (0, "")
        weak = json.loads(out)["conditions"]["dirichlet-weak"]
        assert weak["evidence"] == [[1, 1.2222222222222223], [2, 1.4444444444444444],
                                    [3, 1.4444444444444444]]


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


@pytest.mark.parametrize("argv", [
    ("check",),
    ("sample", "--depth", "3", "--seed", "1"),
    ("diagnose", "--depths", "2,3", "--N", "1000", "--seed", "1", "--jobs", "1"),
], ids=lambda argv: argv[0])
def test_overflowing_point_mass_covariance_is_one_numeric_error(tmp_path, capsys, argv):
    """Two sites in one cell whose entries sum past the float range give an
    infinite covariance entry: one error line and exit 2, not the
    eigenvalue solver's traceback."""
    system = tmp_path / "point_mass.json"
    system.write_text(json.dumps({
        "family": "gaussian",
        "covariance": {"variant": "point_mass", "sites": [0.3, 0.31],
                       "matrix": [[1e308, 1e308], [1e308, 1e308]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], "--system", str(system), *argv[1:])
    assert code == 2
    assert err == "error[covariance/not-finite] assembled covariance has entries that are inf or nan\n"


def test_counterexample_checks_the_depth_cap_before_building_rows(monkeypatch, capsys):
    from histolim import systems as system_module

    built = []
    rows = system_module.leakage_rows
    monkeypatch.setattr(system_module, "leakage_rows",
                        lambda depth: built.append(depth) or rows(depth))
    monkeypatch.setenv("HISTOLIM_MAX_DEPTH", "3")
    code, out, err = run(capsys, "counterexample", "--delta", "0.2", "--depth", "12")
    assert (code, out, built) == (1, "", [])
    assert err == ("error[partition/depth-capacity] depth 12 exceeds the configured "
                   "maximum 3 (set HISTOLIM_MAX_DEPTH to raise it)\n")
    code, out, err = run(capsys, "counterexample", "--delta", "0.2", "--depth", "3")
    assert (code, built) == (0, [3])


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
         "import sys, histolim.cli; print('sympy' in sys.modules, 'scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def _run_loading(tmp_path, expr, *argv):
    """Run a CLI command on a homogeneous Polya system in a fresh
    interpreter; returns (whether it loaded sympy, its polya-weak verdict)."""
    system = tmp_path / "polya.json"
    system.write_text(json.dumps(
        {"family": "polya", "beta": {"rule": "homogeneous", "expr": expr}}))
    out = tmp_path / "out.json"
    script = ("import sys; from histolim.cli import main; "
              f"code = main({[*argv, '--system', str(system), '--out', str(out)]!r}); "
              "print(code, 'sympy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    code, loaded = proc.stdout.split()
    assert code == "0"
    report = json.loads(out.read_text())
    verdicts = report.get("conditions") or report["condition_verdicts"]
    weak = next(v for v in verdicts.values() if v["condition"] == "polya-weak")
    return loaded == "True", weak


@pytest.mark.parametrize("argv", [
    ("check",),
    ("diagnose", "--N", "1000", "--depths", "2,3", "--seed", "0"),
], ids=lambda argv: argv[0])
def test_homogeneous_polya_commands_leave_sympy_unloaded(argv, tmp_path):
    loaded, weak = _run_loading(tmp_path, "m**2", *argv)
    assert not loaded
    assert weak["status"] == "holds"
    assert "finite limit 0," in weak["argument"]


@pytest.mark.parametrize("expr, status", [
    ("1.000000001^m", "holds"),             # the binary float is above 1
    ("(1+m^-1)^m", "undetermined"),         # a sum raised to a power in m
    ("m^(0.3*m)", "holds"),
])
def test_weak_limits_are_decided_without_sympy(expr, status, tmp_path):
    loaded, weak = _run_loading(tmp_path, expr, "check")
    assert not loaded
    assert weak["status"] == status


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


def test_check_refuses_negative_depth(systems, capsys):
    code, out, err = run(capsys, "check", "--system", systems["polya_m"],
                         "--depth", "-1")
    assert (code, out) == (1, "")
    assert err == "error[cli/depth] --depth must be >= 0, got -1\n"


@pytest.mark.parametrize("depth", ["1", "0", "-1"])
def test_diagnose_refuses_depth_below_two(depth, systems, capsys):
    code, out, err = run(capsys, "diagnose", "--system", systems["polya_m"],
                         "--N", "1000", "--seed", "0", "--depth", depth)
    assert (code, out) == (1, "")
    assert err == f"error[cli/depth] --depth must be >= 2, got {depth}\n"


@pytest.mark.parametrize("case", [
    ("--depths", "2.7,3", "cli/number-list"),
    ("--depths", "3,2", "cli/depth"),
    ("--depths", "2,2", "cli/depth"),
    ("--depths", "-1,3", "cli/depth"),
    ("--depths", "2,3", "--depth", "5", "cli/usage"),
    ("--L-grid", "1,nan", "diagnostics/truncation-level"),
    ("--L-grid", "inf", "diagnostics/truncation-level"),
    ("--delta", "nan", "diagnostics/delta"),
    ("--delta", "-1", "diagnostics/delta"),
    ("--delta", "inf", "diagnostics/delta"),
], ids=lambda case: " ".join(case[:-1]))
def test_diagnose_refuses_malformed_curve_options(case, systems, capsys, tmp_path):
    """Depths that are not increasing integers, and an L or delta that is
    negative, NaN or infinite, are refused for every family, the leakage
    one (which draws no curves) included, before any file is written."""
    *args, expected = case
    for name in ("dir_leb", "leak"):
        out = tmp_path / f"{name}.report.json"
        code, stdout, err = run(capsys, "diagnose", "--system", systems[name],
                                "--N", "1000", "--seed", "0", "--out", str(out), *args)
        assert (code, stdout, out.exists()) == (1, "", False)
        assert err.startswith(f"error[{expected}] ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", [
    ("mean",), ("sample", "--seed", "0"), ("path", "--seed", "0"),
], ids=lambda command: command[0])
def test_negative_depth_with_chain_is_refused(command, systems, tmp_path, capsys):
    """A negative --depth would index a chain file, or a leakage system's
    own chain, from its end."""
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(
        {"domain": {"left": "0", "right": "1"}, "kind": "triangular",
         "levels": [["0", "1"], ["0", "0.5", "1"]]}))
    for source in (("--system", systems["polya_m"], "--chain", str(chain)),
                   ("--system", systems["leak"])):
        code, out, err = run(capsys, *command, *source, "--depth", "-1")
        assert (code, out) == (1, "")
        assert err == "error[cli/depth] --depth must be >= 0, got -1\n"


def _chain_error(capsys, tmp_path, chain_text):
    """Run `sample` on a chain file; returns (exit code, stderr)."""
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"family": "polya", "beta": {"rule": "cantor_trig"}}))
    chain = tmp_path / "chain.json"
    chain.write_text(chain_text)
    code, out, err = run(capsys, "sample", "--system", str(system), "--chain",
                         str(chain), "--depth", "0", "--seed", "0")
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return code, err


@pytest.mark.parametrize("obj, detail", [
    ({"kind": "dyadic", "levels": [["0", "1"]]}, "missing the 'domain' field"),
    ({"domain": {"left": "0", "right": "1"}, "kind": "dyadic"},
     "missing the 'levels' field"),
    ([{"left": "0", "right": "1"}], "a chain is a JSON object, got list"),
], ids=["dyadic-no-domain", "no-levels", "json-list"])
def test_malformed_chain_file_is_one_error_line(obj, detail, tmp_path, capsys):
    code, err = _chain_error(capsys, tmp_path, json.dumps(obj))
    assert code == 1
    assert err.startswith("error[chain/json]")
    assert detail in err


def test_unknown_chain_kind_is_one_error_line(tmp_path, capsys):
    chain = {"domain": {"left": "0", "right": "1"}, "kind": "dyadc",
             "levels": [["0", "1"], ["0", "1/2", "1"]]}
    code, err = _chain_error(capsys, tmp_path, json.dumps(chain))
    assert code == 1
    assert err.startswith("error[chain/json] unknown chain kind 'dyadc'")


@pytest.mark.parametrize("left", ["-1e999", "-" + "9" * 400, -math.inf],
                         ids=["float-overflow", "400-digit-integer", "json-infinity"])
def test_non_finite_chain_endpoint_is_one_error_line(left, tmp_path, capsys):
    """Only '+inf'/'-inf' name an unbounded end; anything else outside the
    float range is refused instead of overflowing later."""
    chain = {"domain": {"left": left, "right": "+inf"}, "kind": "triangular",
             "levels": [[left, "+inf"]]}
    code, err = _chain_error(capsys, tmp_path, json.dumps(chain))
    assert code == 1
    assert err.startswith("error[partition/endpoint]")


def test_closed_left_triangular_chain_is_refused(tmp_path, capsys):
    """A left-closed half-line has no atom cell in a nested-row chain."""
    chain = {"domain": {"left": "0", "right": "+inf", "closed_left": True},
             "kind": "triangular", "levels": [["0", "+inf"], ["0", "1.0", "+inf"]]}
    code, err = _chain_error(capsys, tmp_path, json.dumps(chain))
    assert code == 1
    assert err.startswith("error[partition/unsupported-domain]")


@pytest.mark.parametrize("covariance, err", [
    ('{"variant": "point_mass", "sites": [0.3], "matrix": [[1e999]]}',
     "error[covariance/point-mass] site matrix entries must be finite\n"),
    ('{"variant": "point_mass", "sites": [0.3], "matrix": [[NaN]]}',
     "error[covariance/point-mass] site matrix entries must be finite\n"),
    ('{"variant": "kernel", "name": "gaussian", "params": {"length": 0}}',
     "error[covariance/kernel] kernel length must be finite and positive, got 0\n"),
    ('{"variant": "kernel", "name": "exponential", "params": {"length": 0.0}}',
     "error[covariance/kernel] kernel length must be finite and positive, got 0.0\n"),
    ('{"variant": "kernel", "name": "exponential", "params": {"length": NaN}}',
     "error[covariance/kernel] kernel length must be finite and positive, got nan\n"),
    ('{"variant": "kernel", "name": "exponential", "params": {"length": -0.5}}',
     "error[covariance/kernel] kernel length must be finite and positive, got -0.5\n"),
    ('{"variant": "kernel", "name": "gaussian", "params": {"length": -0.5}}',
     "error[covariance/kernel] kernel length must be finite and positive, got -0.5\n"),
    ('{"variant": "kernel", "name": "gaussian", "params": {"scale": 1e999}}',
     "error[covariance/kernel] kernel scale must be finite, got inf\n"),
], ids=["point-mass-inf", "point-mass-nan", "gaussian-length-0",
        "exponential-length-0", "exponential-length-nan", "exponential-length-negative",
        "gaussian-length-negative", "gaussian-scale-inf"])
def test_malformed_covariance_is_one_validation_error(covariance, err, tmp_path, capsys):
    """Site-matrix entries that are not finite, a kernel length that is not
    finite and positive and a kernel scale that is not finite are refused
    when the system is read (exit 1), not at assembly (exit 2) or by a
    ZeroDivisionError traceback."""
    path = tmp_path / "system.json"
    path.write_text('{"family": "gaussian", "covariance": %s}' % covariance)
    assert run(capsys, "check", "--system", str(path)) == (1, "", err)


@pytest.mark.parametrize("params", [{"scale": 0}], ids=["zero-scale"])
def test_kernel_parameters_left_as_they_were_are_accepted(params, tmp_path, capsys):
    """A zero scale (the zero covariance) still runs."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"family": "gaussian", "covariance": {
        "variant": "kernel", "name": "gaussian", "params": params}}))
    code, out, err = run(capsys, "check", "--system", str(path), "--depth", "2")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv", [
    ("mean", "--depth", "3"),
    ("sample", "--depth", "3", "--seed", "0"),
    ("path", "--depth", "3", "--seed", "0"),
    ("check",),
    ("diagnose", "--depths", "2,3", "--N", "1000", "--seed", "0"),
], ids=lambda argv: argv[0])
def test_negative_diagonal_variance_is_one_error_line(argv, tmp_path, capsys):
    spec = {"family": "gaussian",
            "covariance": {"variant": "diagonal",
                           "sigma2": {"type": "lebesgue", "scale": -1}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _one_error_line(capsys, spec, tmp_path, *argv)
    assert code == 1
    assert err == "error[covariance/diagonal] variance measure must be >= 0, got scale -1.0\n"
