"""Every system spec and every flag follows the error protocol.

The fuzzer takes the valid systems of the benchmark (`perfbench/systems`)
and of the golden corpus, each also in the fully spelled form its
`to_json` writes, changes one field, and runs one small command on it
through `histolim.cli.main`.  Each run must end with exit 0, or with
exactly one ``error[code]`` line and exit 1 or 2: no traceback, no second
line.  The JSON output of a run that exits 0 must be strict JSON, with no
``NaN`` or ``Infinity`` token.  A change that makes a numeric field a
non-number (a truth value, a string, null, a list or an object) or a
non-finite number, that makes a truth-value field anything but true or
false, that adds an entry to a list of numbers, that adds a key that nothing
reads to an object (a spec at any level, a kernel's parameters, a table's
pairs), or that leaves a kernel with a negative `scale` or `c`, must be
refused when the spec is read (exit 1).
The golden chain file is changed the same way and passed by ``--chain`` to
`mean`, `sample` and `check` on a fixed system; a change that breaks a
chain-file rule must be refused (exit 1).

Sizes stay at a few cells and at most 1000 replicates, so every example
runs in milliseconds; examples are derandomized and their count is
bounded, so the test is deterministic.
"""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from histolim.cli import main
from histolim.conditions import CHECK_DEPTH_CAP
from histolim.systems import system_from_json

ROOT = Path(__file__).resolve().parent.parent


GOLDEN = json.loads((ROOT / "tests" / "golden" / "digests.json").read_text())["systems"]


def _skeletons() -> dict:
    found = {f"perfbench/{p.stem}": json.loads(p.read_text())
             for p in sorted((ROOT / "perfbench" / "systems").glob("*.json"))}
    found.update((f"golden/{name}", obj) for name, obj in GOLDEN.items()
                 if "family" in obj)  # two entries are chains, not systems
    for name, obj in list(found.items()):
        spelled = json.loads(json.dumps(system_from_json(obj).to_json()))
        if spelled != obj:
            found[f"{name}/spelled"] = spelled
    return found


SKELETONS = _skeletons()


def _paths(node, path=()) -> list:
    """The path of every node below the root, depth first."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return []
    out = []
    for key, child in children:
        out.append(path + (key,))
        out.extend(_paths(child, path + (key,)))
    return out


PATHS = {name: _paths(obj) for name, obj in SKELETONS.items()}


def _nested(depth: int, leaf):
    for _ in range(depth):
        leaf = [leaf] if depth % 2 else {"a": leaf}
    return leaf


VALUES = (True, False, None, "x", "inf", "", "m", "zero", 0, 1, -1, 0.5, 2, 8, 100000,
          10 ** 30, 1e308, -1e308, math.nan, math.inf, -math.inf, [], {}, [1, 2, 3],
          [0.5, 0.5], {"type": "lebesgue"}, {"type": "unknown"}, {"rule": "cantor_trig"},
          {"variant": "constant", "c": 1.0}, {"variant": "unknown"}, _nested(40, 1.0),
          _nested(41, "x"))

ACTIONS = ("set", "delete", "append", "add")

#: the key that "add" puts in an object: no spec field, kernel parameter or
#: node label has this name
UNREAD = "unread"

DEPTH = st.sampled_from(["1", "2", "3", "-1", "x", "2.5"])
#: `check` also gets depths past its cap, which it refuses before any work
CHECK_DEPTH = st.sampled_from(["1", "2", "3", "-1", "x", "2.5", str(CHECK_DEPTH_CAP + 1),
                               "1024", "100000"])
JOBS = st.sampled_from(["1", "2", "4", "0", "-1", "x"])
FORMAT = st.sampled_from(["csv", "json", "xml"])


@st.composite
def commands(draw) -> tuple:
    """One subcommand with mutated flags, at sizes that run in milliseconds
    (`check` always gets a small --depth, or one past its cap: its defaults
    reach depth 40)."""
    sub = draw(st.sampled_from(["check", "mean", "sample", "path", "diagnose"]))
    if sub == "check":
        return ("check", "--depth", draw(CHECK_DEPTH))
    level = ("--depth", draw(st.one_of(DEPTH, st.just("0"))))
    if sub == "mean":
        return ("mean", *level, "--format", draw(FORMAT))
    if sub in ("sample", "path"):
        argv = (sub, *level, "--replicates", draw(st.sampled_from(["1", "3", "0", "x"])),
                "--seed", draw(st.sampled_from(["0", "7", "-1", "x"])),
                "--jobs", draw(JOBS))
        return argv + (("--format", draw(FORMAT)) if sub == "sample" else ())
    depths = draw(st.sampled_from([
        ("--depths", "2,3"), ("--depths", "1,2,3"), ("--depths", "3,2"), ("--depths", "-1,2"),
        ("--depths", "2.7,3"), ("--depths", ""), ("--depths", "x"), ("--depth", "3"),
        ("--depth", "1"), ("--depth", "x"), ("--depths", "2,3", "--depth", "3")]))
    return ("diagnose", *depths,
            "--N", draw(st.sampled_from(["1000", "999", "0", "x"])),
            "--seed", "0",
            "--L-grid", draw(st.sampled_from(["1,2", "0", "nan", "inf", "-1", "", "x"])),
            "--delta", draw(st.sampled_from(["0.1", "0", "nan", "inf", "-1", "x"])),
            "--jobs", draw(JOBS),
            "--format", draw(st.sampled_from(["json", "csv", "xml"])))


@st.composite
def cases(draw) -> tuple:
    """(skeleton, path, action, value, argv)"""
    name = draw(st.sampled_from(sorted(SKELETONS)))
    path = draw(st.sampled_from(PATHS[name]))
    return (name, path, draw(st.sampled_from(ACTIONS)), draw(st.sampled_from(VALUES)),
            draw(commands()))


def _mutated(skeleton, path: tuple, action: str, value) -> tuple[object, bool]:
    """(spec, must_refuse): the skeleton with one change, and whether that
    change breaks a numeric or a truth-value field, or adds a key that
    nothing reads, so that reading the spec must fail."""
    spec = json.loads(json.dumps(skeleton))
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    number = type(old) in (int, float)
    if action == "set":
        parent[key] = value
        finite = type(value) in (int, float) and (type(value) is int or math.isfinite(value))
        # "inf" and inf are the infinite splitting parameter of a table rule
        return spec, (number and not finite and value not in ("inf", math.inf)
                      or type(old) is bool and type(value) is not bool)
    if action == "delete" and isinstance(parent, dict):
        del parent[key]
        return spec, False
    if action == "add" and isinstance(parent, dict):
        parent[UNREAD] = value
        return spec, True
    if action == "append" and isinstance(old, list):
        old.append(value)
        numbers = bool(old[:-1]) and all(type(v) in (int, float) or v == "inf"
                                         for v in old[:-1])
        return spec, numbers and type(value) in (int, float)
    return spec, False


def _negative_kernel_weight(spec) -> bool:
    """Whether `spec` is a Gaussian system whose kernel has a negative `scale` or `c`."""
    covariance = spec.get("covariance") if isinstance(spec, dict) else None
    params = covariance.get("params") if isinstance(covariance, dict) else None
    return isinstance(params, dict) and any(
        type(params.get(key)) in (int, float) and params[key] < 0 for key in ("scale", "c"))


def _refuse_constant(token: str):
    raise AssertionError(f"invalid JSON token {token} in the output")


def run(spec, argv, chain_text: str | None = None) -> tuple[int, str]:
    """Run `argv` on the system `spec`, and on the chain file `chain_text` if
    given; a JSON output of a run that exits 0 must parse as strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        system, chain, out = (Path(tmp) / name for name in ("system.json", "chain.json", "out"))
        system.write_text(json.dumps(spec))
        if chain_text is not None:
            chain.write_text(chain_text)
            argv = (*argv, "--chain", str(chain))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([*argv, "--system", str(system), "--out", str(out), "--force"])
        if code == 0 and (argv[0] in ("check", "diagnose") or "json" in argv):
            json.loads(out.read_text(), parse_constant=_refuse_constant)
    return code, err.getvalue()


def assert_protocol(code: int, err: str) -> None:
    if code == 0:
        assert err == ""
        return
    assert code in (1, 2), (code, err)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error["), err


def assert_check_depth_refused(argv, code: int, err: str) -> None:
    """A `check --depth` past the cap is refused, whatever the system."""
    if argv[0] == "check" and argv[2].isdigit() and int(argv[2]) > CHECK_DEPTH_CAP:
        assert (code, err) == (1, f"error[cli/depth] --depth must be <= {CHECK_DEPTH_CAP}, "
                                  f"got {argv[2]}\n")


CHECK = ("check", "--depth", "3")
MEAN = ("mean", "--depth", "2", "--format", "csv")
DIAGNOSE = ("diagnose", "--depths", "2,3", "--N", "1000", "--seed", "0", "--L-grid", "1,2",
            "--delta", "0.1", "--jobs", "1", "--format", "json")
SAMPLE_JSON = ("sample", "--depth", "2", "--replicates", "3", "--seed", "0", "--jobs", "1",
               "--format", "json")


@settings(derandomize=True, database=None, max_examples=1000,
          deadline=timedelta(seconds=10), suppress_health_check=[HealthCheck.too_slow])
@given(cases())
# quadrature orders: a 74.5 GiB Gauss-Legendre table, and 0.5 cut to 0
@example(("golden/gaussian_kernel/spelled", ("covariance", "order"), "set", 100000, CHECK))
@example(("golden/gaussian_kernel/spelled", ("covariance", "order"), "set", 0.5, CHECK))
# shapes: a short affine correction, a negative matching base, a long table pair
@example(("golden/greens_d1/spelled", ("covariance", "affine"), "set", [1, 2], CHECK))
@example(("golden/polya_dirichlet_match/spelled", ("beta", "base", "scale"), "set", -1, CHECK))
@example(("golden/polya_table_inf", ("beta", "pairs", "()"), "append", 3, MEAN))
# a negative kernel weight: refused only by the eigenvalue check (exit 2)
@example(("golden/gaussian_kernel", ("covariance", "params"), "set", {"length": 0.2, "scale": -1},
          CHECK))
# a key that nothing reads, at every level: it was left unread
@example(("golden/polya_m2", ("beta",), "add", 0.3, MEAN))
@example(("golden/gaussian_kernel", ("covariance",), "add", "zero", CHECK))
@example(("golden/dirichlet_lebesgue", ("base", "type"), "add", 2.0, CHECK))
@example(("golden/polya_dirichlet_match", ("beta", "rule"), "add", {}, CHECK))
@example(("golden/gaussian_constant", ("covariance", "c"), "add", 1.0, CHECK))
@example(("golden/gaussian_kernel", ("covariance", "params", "length"), "add", 0.2, CHECK))
@example(("golden/polya_table_inf", ("beta", "pairs", "()"), "add", [1.0, 1.0], MEAN))
# a truth value given as text: "false" read as true
@example(("golden/leakage_interior", ("interior",), "set", "false", MEAN))
# truth values in numeric fields
@example(("golden/greens_d1", ("covariance", "dimension"), "set", True, CHECK))
@example(("golden/gaussian_constant", ("covariance", "c"), "set", True, CHECK))
@example(("golden/dirichlet_lebesgue/spelled", ("base", "scale"), "set", True, CHECK))
@example(("golden/gaussian_kernel", ("covariance", "params", "length"), "set", True, CHECK))
@example(("golden/gaussian_kernel/spelled", ("covariance", "order"), "set", True, CHECK))
@example(("golden/leakage", ("delta",), "set", False, CHECK))
@example(("golden/leakage", ("depth",), "set", True, CHECK))
@example(("golden/polya_table_inf", ("beta", "pairs", "()", 0), "set", True, MEAN))
@example(("golden/dirichlet_atoms", ("base", "points", 0), "set", False, CHECK))
@example(("golden/dirichlet_atoms", ("base", "weights", 1), "set", True, CHECK))
@example(("golden/gaussian_point_mass", ("covariance", "sites", 0), "set", False, CHECK))
@example(("golden/gaussian_point_mass", ("covariance", "matrix", 0, 0), "set", True, CHECK))
# finite variances whose draws square past the float range: stderr was Infinity
@example(("golden/gaussian_diagonal/spelled", ("covariance", "sigma2", "scale"), "set", 8e307,
          DIAGNOSE))
# an off-path over path-side weight past the float range: the log-sum was Infinity
@example(("golden/polya_table_inf", ("beta",), "set",
          {"rule": "table", "pairs": {"()": [1e-300, 1e300]}, "default": [1.0, 1.0]}, CHECK))
# an infinite splitting parameter, echoed with the system: it was the token Infinity
@example(("golden/polya_table_inf", ("beta", "default", 0), "set", "inf", SAMPLE_JSON))
@example(("golden/polya_table_inf", ("beta", "pairs", "()", 1), "set", math.inf, DIAGNOSE))
# check depths past the cap: 2.0 ** 1024 in the Dirichlet and mass-matching
# evidence raised OverflowError, and the Cantor rule ran for minutes
@example(("perfbench/dirichlet_lebesgue", ("base", "type"), "set", "lebesgue",
          ("check", "--depth", str(CHECK_DEPTH_CAP + 1))))
@example(("perfbench/dirichlet_lebesgue", ("base", "type"), "set", "lebesgue",
          ("check", "--depth", "1024")))
@example(("perfbench/polya_dirichlet_match", ("beta", "rule"), "set", "dirichlet",
          ("check", "--depth", "1024")))
@example(("perfbench/polya_cantor_trig", ("beta", "rule"), "set", "cantor_trig",
          ("check", "--depth", "100000")))
def test_every_input_follows_the_error_protocol(case):
    name, path, action, value, argv = case
    spec, must_refuse = _mutated(SKELETONS[name], path, action, value)
    code, err = run(spec, argv)
    assert_protocol(code, err)
    assert_check_depth_refused(argv, code, err)
    if must_refuse or _negative_kernel_weight(spec):
        assert code == 1, (spec, argv, err)


@pytest.mark.parametrize("name", sorted(n for n, obj in GOLDEN.items() if "family" in obj))
@pytest.mark.parametrize("argv", [SAMPLE_JSON, DIAGNOSE], ids=["sample-json", "diagnose"])
def test_json_outputs_of_the_golden_systems_are_strict(name, argv):
    """`sample` and `diagnose` echo the system; a table rule's infinite
    splitting parameter is the string "inf" there, as the rule reads it.
    The atoms off (0, 1] take the golden chain over the real line."""
    chain = json.dumps(GOLDEN["triangular_inf"]) if name == "dirichlet_atoms" else None
    assert run(GOLDEN[name], argv, chain) == (0, "")


# ---------------------------------------------------------------------------
# truth values are no numbers: each numeric field, given true or false

KERNEL = {"variant": "kernel", "name": "gaussian", "params": {"length": 0.2}}


def _gaussian(**covariance) -> dict:
    return {"family": "gaussian", "covariance": covariance}


NUMERIC_FIELDS = {
    "greens-dimension": lambda v: _gaussian(variant="greens", dimension=v),
    "greens-uv-cutoff": lambda v: _gaussian(variant="greens", dimension=2, uv_cutoff=v),
    "greens-affine": lambda v: _gaussian(variant="greens", dimension=1, affine=[0.0, v, -2.0]),
    "greens-order": lambda v: _gaussian(variant="greens", dimension=1, order=v),
    "constant-c": lambda v: _gaussian(variant="constant", c=v),
    "lebesgue-scale": lambda v: {"family": "dirichlet", "base": {"type": "lebesgue", "scale": v}},
    "kernel-length": lambda v: _gaussian(**{**KERNEL, "params": {"length": v}}),
    "kernel-scale": lambda v: _gaussian(**{**KERNEL, "params": {"length": 0.2, "scale": v}}),
    "kernel-order": lambda v: _gaussian(**KERNEL, order=v),
    "leakage-delta": lambda v: {"family": "leakage", "delta": v, "depth": 6},
    "leakage-depth": lambda v: {"family": "leakage", "delta": 0.2, "depth": v},
    "polya-p0": lambda v: {"family": "polya", "beta": {"rule": "cantor_trig"}, "p0": v},
    "table-pair": lambda v: {"family": "polya", "beta": {"rule": "table", "pairs": {"()": [v, 1.0]},
                                                         "default": [1.0, 1.0]}},
    "table-default": lambda v: {"family": "polya", "beta": {"rule": "table", "pairs": {},
                                                            "default": [1.0, v]}},
    "atom-point": lambda v: {"family": "dirichlet",
                             "base": {"type": "atoms", "points": [v], "weights": [1.0]}},
    "atom-weight": lambda v: {"family": "dirichlet",
                              "base": {"type": "atoms", "points": [0.5], "weights": [v]}},
    "point-mass-site": lambda v: _gaussian(variant="point_mass", sites=[v], matrix=[[1.0]]),
    "point-mass-matrix": lambda v: _gaussian(variant="point_mass", sites=[0.5], matrix=[[v]]),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
def test_truth_values_are_not_numbers(field, value):
    code, err = run(NUMERIC_FIELDS[field](value), CHECK)
    assert code == 1, err
    assert_protocol(code, err)
    assert repr(value) in err


# ---------------------------------------------------------------------------
# specs refused when they are read, with the class's own code

@pytest.mark.parametrize("spec, start", [
    (_gaussian(**KERNEL, order=0.5),
     "error[covariance/kernel] quadrature order must be an integer, got 0.5"),
    (_gaussian(**KERNEL, order=100000), "error[covariance/kernel] quadrature order must be"),
    (_gaussian(variant="greens", dimension=1, order=101), "error[covariance/greens] quadrature order"),
    (_gaussian(variant="greens", dimension=1, order=1.5), "error[covariance/greens] quadrature order"),
    (_gaussian(variant="greens", dimension=1, affine=[1, 2]), "error[covariance/greens] "),
    ({"family": "polya", "beta": {"rule": "dirichlet", "base": {"type": "lebesgue", "scale": -1}}},
     "error[system/beta] "),
    ({"family": "polya", "beta": {"rule": "table", "pairs": {"()": [1, 2, 3]}}},
     "error[system/beta] "),
    ({"family": "leakage", "delta": 0.2, "depth": 2, "interior": "false"},
     "error[system/json] interior must be true or false, got 'false'\n"),
    (_gaussian(**KERNEL) | {"centre": None},
     "error[base/json] unknown type None in None; have ['atoms', 'lebesgue']\n"),
    (_gaussian(**{**KERNEL, "params": {"length": 0.2, "scale": -1}}),
     "error[covariance/kernel] kernel scale must be >= 0, got -1\n"),
    (_gaussian(variant="kernel", name="constant", params={"c": -2}),
     "error[covariance/kernel] kernel c must be >= 0, got -2\n"),
], ids=["kernel-order-fraction", "kernel-order-huge", "greens-order-101", "greens-order-fraction",
        "greens-short-affine", "matching-negative-base", "table-long-pair", "leakage-interior-text",
        "null-centre", "kernel-negative-scale", "kernel-negative-c"])
@pytest.mark.parametrize("argv", [MEAN[:3], CHECK], ids=["mean", "check"])
def test_bad_specs_are_refused_when_read(spec, start, argv):
    code, err = run(spec, argv)
    assert code == 1
    assert_protocol(code, err)
    assert err.startswith(start), err


@pytest.mark.filterwarnings("error")  # numpy's overflow warning was printed too
@pytest.mark.parametrize("sigma2", [
    {"type": "lebesgue", "scale": 1.7e308},
    {"type": "atoms", "points": [0.25, 0.26], "weights": [1e308, 1e308]},  # one cell's sum
], ids=["lebesgue", "atoms"])
@pytest.mark.parametrize("argv", [("check", "--depth", "2"),
                                  ("diagnose", "--depths", "2,3", "--N", "1000", "--seed", "0")],
                         ids=["check", "diagnose"])
def test_an_overflowing_diagonal_variance_is_refused(sigma2, argv):
    """It was written into the evidence as the invalid JSON token Infinity."""
    code, err = run(_gaussian(variant="diagonal", sigma2=sigma2), argv)
    assert (code, err) == (2, "error[covariance/not-finite] assembled covariance has entries "
                              "that are inf or nan\n")


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings were printed too
def test_an_overflowing_curve_statistic_is_refused():
    """Finite variances whose draws square past the float range: the
    domination means' standard errors were written as the token Infinity."""
    spec = _gaussian(variant="diagonal", sigma2={"type": "lebesgue", "scale": 8e307})
    code, err = run(spec, ("diagnose", "--depths", "2,3", "--N", "1000", "--seed", "0"))
    assert (code, err) == (2, "error[diagnostics/not-finite] depth 2: sample mean "
                              "2.1388105130023972e+153, standard error inf\n")


def test_json_nested_past_the_recursion_limit_is_one_error_line(tmp_path, capsys):
    """Python's JSON decoder raises RecursionError, not a decode error, on a
    document nested deeper than the interpreter's recursion limit."""
    system = tmp_path / "system.json"
    system.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["check", "--depth", "3", "--system", str(system)])
    err = capsys.readouterr().err
    assert code == 1
    assert_protocol(code, err)
    assert err.startswith("error[cli/system-json]")


# ---------------------------------------------------------------------------
# chain files: the golden chain, changed as the systems are, passed by --chain

CHAIN = GOLDEN["triangular_inf"]
CHAIN_PATHS = _paths(CHAIN)
#: a system that reads the chain in `check` as well as in `mean` and `sample`
CHAIN_SYSTEM = GOLDEN["dirichlet_atoms"]
SAMPLE = ("sample", "--depth", "3", "--replicates", "3", "--seed", "0", "--jobs", "1")


def _breaks_a_chain_rule(path: tuple, action: str, value) -> bool:
    """Whether one change to the golden chain breaks a rule of chain files: a
    key added to an object (the chain or its domain), a level added or
    lengthened, the levels or a level made anything but an array, an end of
    the domain or of a level (level 0 is the ends alone) made another
    endpoint, `closed_left` made anything but false, or an endpoint made a
    truth value."""
    if action == "add":
        return len(path) == 1 or path[0] == "domain"
    if action == "append":
        return path[0] == "levels" and len(path) <= 2
    if action != "set":
        return False
    if path == ("domain", "closed_left"):
        return value is not False
    if path[0] == "levels" and len(path) <= 2 and not isinstance(value, list):
        return True
    old = CHAIN
    for key in path:
        old = old[key]
    endpoint = path[0] == "domain" or len(path) == 3
    ends = endpoint and (path[0] == "domain" or path[2] in (0, len(CHAIN["levels"][path[1]]) - 1))
    return (ends and not (old == "+inf" and value == "inf")
            or endpoint and isinstance(value, bool))


@settings(derandomize=True, database=None, max_examples=200,
          deadline=timedelta(seconds=10), suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CHAIN_PATHS), st.sampled_from(ACTIONS), st.sampled_from(VALUES),
       st.sampled_from([CHECK, MEAN, SAMPLE]))
# row ends and level 0 were never read, and truth values read as 0 and 1
@example(("levels", 0, 0), "set", True, MEAN)
@example(("levels", 0), "append", "inf", MEAN)
@example(("levels", 2, 0), "set", 8, SAMPLE)
@example(("levels", 1, 1), "set", False, CHECK)
@example(("domain", "closed_left"), "set", 0, MEAN)
# a key that nothing reads (a misspelt "kind" read as triangular), and a
# level given as a string, read one character at a time
@example(("kind",), "add", "dyadic", MEAN)
@example(("levels", 1), "set", "x", MEAN)
# a domain that is not an object: the message was an attribute error
@example(("domain",), "set", "abc", MEAN)
def test_every_chain_file_follows_the_error_protocol(path, action, value, argv):
    chain, _ = _mutated(CHAIN, path, action, value)
    code, err = run(CHAIN_SYSTEM, argv, json.dumps(chain))
    assert_protocol(code, err)
    if _breaks_a_chain_rule(path, action, value):
        assert code == 1, (chain, argv, err)


@pytest.mark.parametrize("chain_text, start", [
    ('{"domain": {"left": false, "right": true}, "levels": [["0", "1"]]}',
     "error[partition/endpoint] cannot parse endpoint False"),
    ('{"domain": {"left": "0", "right": "1", "closed_left": "no"}, "kind": "dyadic",'
     ' "levels": [["0", "1"]]}',
     "error[chain/json] closed_left must be true or false, got 'no'"),
    ('{"domain": {"left": 0, "right": 1}, "levels": [[5, 7], [3, 0.5, 9]]}',
     "error[chain/reload] level 0 must be the domain's ends 0.0, 1.0"),
    ('{"domain": {"left": 0, "right": 1}, "levels": [[0, 1], [3, 0.5, 9]]}',
     "error[chain/reload] level 1 must start and end at the domain's ends 0.0, 1.0"),
    ('{"domain": {"left": 0, "right": 1}, "levels": []}',
     "error[chain/empty] a chain needs at least level 0"),
    ('{"domain": {"left": "0", "right": "1"}, "knd": "dyadic", "levels": [["0", "1"]]}',
     "error[chain/json] unknown key 'knd' in a chain; it reads domain, kind, levels\n"),
    ('{"domain": {"left": "0", "right": "1", "closed": true}, "kind": "dyadic",'
     ' "levels": [["0", "1"]]}',
     "error[chain/json] unknown key 'closed' in a domain; it reads left, right, closed_left\n"),
    ('{"domain": {"left": "0", "right": "9"}, "kind": "triangular", "levels": ["09", "049"]}',
     "error[chain/json] levels must be an array of arrays of endpoints\n"),
    ('{"domain": {"left": "0", "right": "9"}, "kind": "triangular",'
     ' "levels": [{"0": 1, "9": 2}, {"0": 1, "4": 2, "9": 3}]}',
     "error[chain/json] levels must be an array of arrays of endpoints\n"),
    ('{"domain": {"left": "0", "right": "1"}, "kind": "dyadic", "levels": {"0": 1, "1": 2}}',
     "error[chain/json] levels must be an array of arrays of endpoints\n"),
    ('{"domain": ' + "[" * 100_000 + "]" * 100_000 + "}",
     "error[chain/json] invalid chain JSON: maximum recursion depth exceeded"),
    ('{"domain": "abc", "kind": "dyadic", "levels": [["0", "1"]]}',
     "error[chain/json] a domain is a JSON object, got str\n"),
], ids=["truth-value-ends", "closed-left-text", "row-ends", "level-1-ends", "no-levels",
        "misspelt-kind", "misspelt-closed-left", "string-rows", "object-rows", "object-levels",
        "nested-past-the-recursion-limit", "string-domain"])
def test_bad_chain_files_are_refused(chain_text, start):
    code, err = run(GOLDEN["dirichlet_lebesgue"], ("mean", "--depth", "0"), chain_text)
    assert code == 1
    assert_protocol(code, err)
    assert err.startswith(start), err
