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

try:
    import resource
except ModuleNotFoundError:  # not on Windows
    resource = None

from histolim.cli import main
from histolim.conditions import CHECK_DEPTH_CAP, EVALUATOR_TAGS
from histolim.partitions import Domain, dyadic_chain

ROOT = Path(__file__).resolve().parents[1]


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


#: expressions whose parse overflows the parser's own stack (a MemoryError)
TOO_DEEP = ["m" + "^m" * 3000, "-" * 100000 + "m"]


@pytest.mark.parametrize("expr", ["1j", "(-m)**0.5", "0**(-1)", "10.0**400",
                                  "(3 + -1*m)^-1", "True*m", "m+False", "m**True", True,
                                  *(pytest.param(expr, id=f"too-deep-{i}")
                                    for i, expr in enumerate(TOO_DEEP))])
def test_beta_expression_failures_exit_one(expr, tmp_path, capsys):
    """Complex, undefined and overflowing values, at construction or at a
    later level, end in one error line; so do truth values, in the text or
    as a JSON `true`, which are no numbers of the grammar, and expressions
    too deep for the parser."""
    path = tmp_path / "polya.json"
    path.write_text(json.dumps(
        {"family": "polya", "beta": {"rule": "homogeneous", "expr": expr}}))
    code, out, err = run(capsys, "check", "--system", str(path))
    assert code == 1
    assert err.startswith("error[system/beta-expression]")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    if expr in TOO_DEEP:
        assert err == f"error[system/beta-expression] {expr!r} is nested too deeply to evaluate\n"


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


@pytest.mark.parametrize("argv", [
    ("sample", "--system", "dir_leb", "--depth", "3", "--seed", "7", "--replicates", "3"),
    ("sample", "--system", "dir_leb", "--depth", "3", "--seed", "7", "--format", "json"),
    ("path", "--system", "dir_leb", "--depth", "3", "--seed", "7", "--replicates", "3"),
    ("mean", "--system", "polya_m", "--depth", "3"),
    ("check", "--system", "polya_m", "--depth", "3"),
    ("diagnose", "--system", "polya_m", "--depths", "2,3", "--N", "1000", "--seed", "0"),
    ("diagnose", "--system", "polya_m", "--depths", "2,3", "--N", "1000", "--seed", "0",
     "--format", "csv"),
    ("counterexample", "--delta", "0.2", "--depth", "4"),
], ids=["sample-csv", "sample-json", "path", "mean", "check", "diagnose", "diagnose-csv",
        "counterexample"])
def test_an_existing_output_is_refused_before_any_work(argv, systems, capsys, tmp_path,
                                                       monkeypatch):
    import histolim.cli as cli
    import histolim.conditions as conditions

    argv = [systems.get(a, a) for a in argv]
    fresh, existing = tmp_path / "fresh.out", tmp_path / "existing.out"
    assert run(capsys, *argv, "--out", str(fresh)) == (0, "", "")
    existing.write_text("keep\n")
    with monkeypatch.context() as patch:
        def refuse(*args, **kwargs):
            raise AssertionError("work done for an output that is refused")
        for module, name in ((cli, "_resolve_chain"), (cli, "sample_stack"),
                             (cli, "phase_report"), (conditions, "leakage_counterexample")):
            patch.setattr(module, name, refuse)
        code, out, err = run(capsys, *argv, "--out", str(existing))
    assert (code, out) == (1, "")
    assert err == f"error[cli/exists] {existing} exists; pass --force to overwrite\n"
    assert existing.read_text() == "keep\n"
    assert run(capsys, *argv, "--out", str(existing), "--force") == (0, "", "")
    assert existing.read_bytes() == fresh.read_bytes()


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
    assert (code, built) == (0, [])  # the table reads three cells a level, never a row


#: runs the command with its address space capped at 2 GiB, so that a
#: regression fails with MemoryError instead of filling the machine, then
#: prints the exit code and the peak RSS of this process image in kB
PEAK_RSS = """
import re, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
from histolim.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(code, re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1), file=sys.stderr)
"""


@pytest.mark.skipif(resource is None or not Path("/proc/self/status").exists(),
                    reason="needs the resource module and /proc/self/status")
@pytest.mark.parametrize("argv", [
    ("counterexample", "--delta", "0.2", "--depth", "30"),
    ("counterexample", "--delta", "0.2", "--depth", "30", "--interior"),
    ("check", "--system", "{leakage}"),
    ("check", "--system", "{interior}"),
], ids=["counterexample", "counterexample-interior", "check", "check-interior"])
def test_a_depth_30_leakage_table_runs_in_little_memory(argv, tmp_path):
    """The table reads three cells a level; the chain's row at level 30
    would hold 2^30 - 1 cut points (8 GiB).  Each command runs in a fresh
    interpreter, which reports its own peak RSS: the high-water mark of its
    own image, where `ru_maxrss` would also count the image it was forked
    from."""
    paths = {}
    for name, interior in (("leakage", False), ("interior", True)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"family": "leakage", "delta": 0.2, "depth": 30,
                                           "interior": interior}))
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *(a.format(**paths) for a in argv)],
                          capture_output=True, text=True, timeout=60)
    code, peak_kb = map(int, proc.stderr.split())
    assert code == 0
    assert peak_kb < 50 * 1024


@pytest.mark.skipif(resource is None or not Path("/proc/self/status").exists(),
                    reason="needs the resource module and /proc/self/status")
def test_a_stack_past_the_address_space_is_one_capacity_error(systems, tmp_path):
    """A depth-22 stack of 1000 rows is 31.2 GiB: under the 2 GiB limit
    numpy cannot allocate it, and the MemoryError becomes one
    `error[capacity/memory]` line with exit 2, not a traceback.  The
    process never holds more than the depth-22 chain."""
    out = tmp_path / "X"
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, "sample", "--system",
                           systems["dir_leb"], "--depth", "22", "--replicates", "1000",
                           "--seed", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    line, status = proc.stderr.splitlines()
    code, peak_kb = map(int, status.split())
    assert (code, proc.stdout, line) == (
        2, "", "error[capacity/memory] Unable to allocate 31.2 GiB for an array "
               "with shape (1000, 4194304) and data type float64")
    assert peak_kb < 512 * 1024
    assert not out.exists()


def test_a_memory_error_without_a_message_gets_a_fixed_text(monkeypatch, capsys):
    import histolim.cli as cli_module

    def fail(**kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli_module.cli, "main", fail)
    assert run(capsys, "check") == (2, "", "error[capacity/memory] out of memory\n")


def test_a_leakage_chain_is_built_only_to_the_level_read(tmp_path, monkeypatch, capsys):
    from histolim import systems as system_module

    built = []
    rows = system_module.leakage_rows
    monkeypatch.setattr(system_module, "leakage_rows",
                        lambda depth: built.append(depth) or rows(depth))
    path = tmp_path / "leak.json"
    path.write_text(json.dumps({"family": "leakage", "delta": 0.2, "depth": 18}))
    full = system_module.LeakageSystem(0.2, 18).chain()
    built.clear()
    for depth in (0, 1, 5):
        code, out, err = run(capsys, "mean", "--system", str(path), "--depth", str(depth),
                             "--format", "json")
        expected = system_module.LeakageSystem(0.2, 18).mean(full[depth])
        assert (code, err, json.loads(out)["values"]) == (0, "", expected.values.tolist())
    assert built == [0, 1, 5]
    code, out, err = run(capsys, "mean", "--system", str(path), "--depth", "19")
    assert (code, out, built) == (1, "", [0, 1, 5, 18])
    assert err == "error[cli/depth] depth 19 exceeds the chain depth 18\n"
    monkeypatch.setenv("HISTOLIM_MAX_DEPTH", "12")  # the spec's own depth is refused
    code, out, err = run(capsys, "mean", "--system", str(path), "--depth", "1")
    assert (code, out, built) == (1, "", [0, 1, 5, 18])
    assert err == ("error[partition/depth-capacity] depth 18 exceeds the configured "
                   "maximum 12 (set HISTOLIM_MAX_DEPTH to raise it)\n")


def test_depth_capacity_env(systems):
    env = dict(os.environ, HISTOLIM_MAX_DEPTH="6")
    proc = subprocess.run(
        [sys.executable, "-m", "histolim.cli", "sample",
         "--system", systems["polya_m"], "--depth", "9", "--seed", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error[partition/depth-capacity]")


PYPROJECT = ROOT / "pyproject.toml"


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


def test_check_refuses_a_depth_past_the_cap(systems, capsys):
    """Past the cap the Dirichlet evidence overflowed at 1024, and a Cantor
    rule took minutes; the refusal comes before the system is read."""
    for depth in (CHECK_DEPTH_CAP + 1, 1024, 100000):
        code, out, err = run(capsys, "check", "--system", systems["broken"],
                             "--depth", str(depth))
        assert (code, out) == (1, "")
        assert err == f"error[cli/depth] --depth must be <= {CHECK_DEPTH_CAP}, got {depth}\n"


LARGEST_LEBESGUE = {"type": "lebesgue", "scale": sys.float_info.max}


@pytest.mark.parametrize("system", [
    *((path.stem, json.loads(path.read_text()))
      for path in sorted((ROOT / "perfbench" / "systems").glob("*.json"))),
    ("dirichlet_largest_total", {"family": "dirichlet", "base": LARGEST_LEBESGUE}),
    ("polya_matching_largest_total",
     {"family": "polya", "beta": {"rule": "dirichlet", "base": LARGEST_LEBESGUE}}),
], ids=lambda system: system[0])
def test_check_runs_at_the_depth_cap(system, capsys, tmp_path):
    """At the cap every statistic of the evidence is still a finite float,
    (total + 2^m)/(total + 1) for the largest total too (one level deeper it
    was written as the token Infinity)."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system[1]))
    code, out, err = run(capsys, "check", "--system", str(path), "--depth", str(CHECK_DEPTH_CAP))
    assert (code, err) == (0, "")
    conditions = json.loads(out, parse_constant=lambda token: pytest.fail(token))["conditions"]
    assert all(math.isfinite(v) for c in conditions.values() for _, v in c["evidence"])


def test_an_unreadable_system_file_is_one_error_line(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--system", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == (f"error[cli/system-file] cannot read {tmp_path}: "
                   f"[Errno 21] Is a directory: '{tmp_path}'\n")


#: a chain over the whole real line, with unbounded end cells
LINE_CHAIN = {"domain": {"left": "-inf", "right": "+inf", "closed_left": False},
              "kind": "triangular",
              "levels": [["-inf", "+inf"], ["-inf", "0.0", "+inf"],
                         ["-inf", "-1.0", "0.0", "1.0", "+inf"]]}
DIRICHLET_LEBESGUE = {"family": "dirichlet", "base": {"type": "lebesgue"}}
DEEP_EXPRESSION = "-" * 1000 + "m"  # parsed, then too deep for the recursive reader


def _polya(expr):
    return {"family": "polya", "beta": {"rule": "homogeneous", "expr": expr}}


def _gaussian(**covariance):
    return {"family": "gaussian", "covariance": covariance}


@pytest.mark.parametrize("system, argv, chain, line", [
    (_gaussian(variant="constant", c=0), ("check",), None,
     "error[covariance/constant] need c > 0, got 0.0"),
    (_gaussian(variant="constant", c=-2.5), ("check",), None,
     "error[covariance/constant] need c > 0, got -2.5"),
    (_gaussian(variant="greens", dimension=2, uv_cutoff=0.0), ("check",), None,
     "error[covariance/greens] cutoff must be > 0, got 0.0"),
    (_gaussian(variant="greens", dimension=3, uv_cutoff=-0.001), ("check",), None,
     "error[covariance/greens] cutoff must be > 0, got -0.001"),
    (_gaussian(variant="greens", dimension=4), ("check",), None,
     "error[covariance/greens] dimension must be 1, 2 or 3, got 4"),
    (_gaussian(variant="point_mass", sites=[0.3, 0.7], matrix=[[1.0, 0.5], [0.4, 1.0]]),
     ("check",), None, "error[covariance/point-mass] site matrix must be symmetric"),
    ({"family": "leakage", "delta": 0.2, "depth": 0}, ("check",), None,
     "error[system/depth] need depth >= 1, got 0"),
    (DIRICHLET_LEBESGUE, ("mean", "--depth", "2"), LINE_CHAIN,
     "error[base/unbounded] length measure needs bounded cells"),
    (DIRICHLET_LEBESGUE, ("check",), LINE_CHAIN,
     "error[base/unbounded] length measure needs a bounded domain"),
    ({"family": "dirichlet", "base": {"type": "atoms", "points": [0.25, -1.5],
                                      "weights": [1.0, 2.0]}},
     ("check",), None, "error[base/atoms] atom at -1.5 lies outside the domain"),
    ({"family": "dirichlet", "base": {"type": "lebesgue", "scale": -1}},
     ("mean", "--depth", "2"), None,
     "error[system/negative-base] base measure must be nonnegative"),
    (_gaussian(variant="kernel", name="exponential"), ("sample", "--depth", "1", "--seed", "0"),
     LINE_CHAIN, "error[covariance/unbounded] integral covariances need bounded cells"),
    (_polya("2^70000"), ("check",), None,
     "error[system/beta-expression] '2^70000' gives no real number at m=1: "
     "exact integer power exceeds 65536 bits"),
    (_polya("m +"), ("check",), None,
     "error[system/beta-expression] cannot parse 'm +': invalid syntax (<unknown>, line 1)"),
    (_polya(DEEP_EXPRESSION), ("check",), None,
     f"error[system/beta-expression] {DEEP_EXPRESSION!r} is nested too deeply to evaluate"),
    (_polya("m"), ("mean", "--depth", "1"),
     {"domain": {"left": "0", "right": "1"}, "kind": "dyadic",
      "levels": [["0", "1"], ["0", "1/3", "1"]]},
     "error[chain/reload] level 1 endpoints do not match an equal dyadic refinement"),
    (_polya("m"), ("mean", "--depth", "0"),
     {"domain": {"left": "1", "right": "0"}, "kind": "dyadic", "levels": [["1", "0"]]},
     "error[partition/domain] empty domain (1, 0]"),
    (_polya("m"), ("diagnose", "--N", "1000", "--seed", "0", "--format", "csv"), None,
     "error[cli/out] --format csv needs --out for the curve files"),
    (_gaussian(variant="kernel", name="gaussian", params={"length": 1e-300}), ("check",), None,
     "error[system/json] malformed gaussian system spec: (34, 'Numerical result out of range')"),
], ids=["constant-zero", "constant-negative", "greens-d2-zero-cutoff",
        "greens-d3-negative-cutoff", "greens-dimension-4", "point-mass-asymmetric",
        "leakage-depth-0", "lebesgue-unbounded-cells", "lebesgue-unbounded-domain",
        "atom-outside-domain", "negative-base",
        "kernel-unbounded-cells", "integer-power-too-large", "expression-syntax",
        "expression-too-deep", "dyadic-chain-file-off-grid", "dyadic-chain-file-empty-domain",
        "curve-files-without-out", "kernel-length-overflows"])
def test_a_refused_input_is_one_exact_error_line(system, argv, chain, line, capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    extra = ()
    if chain is not None:
        (tmp_path / "chain.json").write_text(json.dumps(chain))
        extra = ("--chain", str(tmp_path / "chain.json"))
    code, out, err = run(capsys, *argv, "--system", str(path), *extra)
    assert (code, out, err) == (1, "", line + "\n")


def test_a_negative_depth_maximum_is_refused(systems, capsys, monkeypatch):
    monkeypatch.setenv("HISTOLIM_MAX_DEPTH", "-1")
    code, out, err = run(capsys, "mean", "--system", systems["polya_m"], "--depth", "1")
    assert (code, out, err) == (1, "", "error[config/max-depth] HISTOLIM_MAX_DEPTH must be "
                                       ">= 0, got -1\n")


def test_an_interrupted_command_exits_one(systems, capsys, monkeypatch):
    """click turns an interrupt inside a command into Abort, after one
    empty line on standard error."""
    import histolim.cli as cli

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "sample_stack", interrupt)
    code, out, err = run(capsys, "sample", "--system", systems["polya_m"], "--depth", "2",
                         "--seed", "0")
    assert (code, out, err) == (1, "", "\n")


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


@pytest.mark.parametrize("left, right", [("5", "1"), ("1", "1")], ids=["inverted", "empty"])
@pytest.mark.parametrize("command", [
    ("mean",), ("sample", "--seed", "1"), ("path", "--seed", "1"),
], ids=lambda command: command[0])
def test_an_empty_triangular_chain_domain_is_refused(command, left, right, systems,
                                                      tmp_path, capsys):
    """As `dyadic_chain` refuses it, rather than one cell (5, 1] of mass 1."""
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"domain": {"left": left, "right": right},
                                 "kind": "triangular", "levels": [[left, right]]}))
    code, out, err = run(capsys, *command, "--system", systems["polya_m"],
                         "--chain", str(chain), "--depth", "0")
    assert (code, out, err) == (1, "", f"error[partition/domain] empty domain ({left}, {right}]\n")


@pytest.mark.parametrize("command", [
    ("mean",), ("sample", "--seed", "1"), ("path", "--seed", "1"),
], ids=lambda command: command[0])
def test_an_interior_cut_on_the_domain_end_is_refused(command, systems, tmp_path, capsys):
    """An interior cut lies strictly inside the domain: a cut on the right
    end would leave the empty cell (1, 1] holding mass."""
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"domain": {"left": "0", "right": "1"}, "kind": "triangular",
                                 "levels": [["0", "1"], ["0", "1", "1"]]}))
    code, out, err = run(capsys, *command, "--system", systems["polya_m"],
                         "--chain", str(chain), "--depth", "1")
    assert (code, out, err) == (
        1, "", "error[partition/domain] q[1][1]=1.0 lies outside the domain (0, 1]\n")


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
