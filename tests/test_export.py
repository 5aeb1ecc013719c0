"""Sample, mean and path exports against their straightforward forms.

Each oracle below is the plain per-value formulation of an exporter
(`csv.writer` over `repr(float(v))`, `json.dumps` over lists of floats, a
running float sum per point); the exporters must reproduce its bytes.
"""

import csv
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from histolim.cli import main
from histolim.errors import ValidationError
from histolim.histograms import (
    FLOAT_BLOCK,
    PROBABILITY,
    SIGNED,
    Histogram,
    HistogramStack,
    dump_json,
    float_rows,
    histogram_to_csv,
    stack_to_csv,
)
from histolim.partitions import Domain, dyadic_chain, format_endpoint
from histolim.sampling import path_from_histogram, sample_stack
from histolim.streams import RandomStream
from histolim.systems import LeakageSystem, system_from_json

from cell_walk import cells_of


def text_of(export, *args) -> str:
    """The text an exporter passes to its `write` callable, joined."""
    pieces = []
    export(*args, pieces.append)
    return "".join(pieces)


AWKWARD = [-0.0, 5e-324, 1e16, -1e16, 0.1, 1 / 3, 2.0**-1074 * 3, 1e-300, 0.0, 123456789.0]


# ---------------------------------------------------------------------------
# oracles

def oracle_stack_csv(stack):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample"] + [c.index.label() for c in cells_of(stack.partition)])
    for i in range(len(stack)):
        writer.writerow([i] + [repr(float(v)) for v in stack.values[i]])
    return buf.getvalue()


def oracle_histogram_csv(h):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["cell_left", "cell_right", "value"])
    for cell, v in zip(cells_of(h.partition), h.values):
        writer.writerow([format_endpoint(cell.left), format_endpoint(cell.right),
                         repr(float(v))])
    return buf.getvalue()


def oracle_path(h):
    points = []
    running = 0.0
    for cell, value in zip(cells_of(h.partition), h.values):
        running += float(value)
        if cell.is_atom:
            continue
        t = float(cell.right)
        if math.isfinite(t):
            points.append((t, running))
    return points


def oracle_path_text(stack, origin):
    lines = ["replicate,t,value"]
    for r in range(len(stack)):
        if origin is not None:
            lines.append(f"{r},{origin!r},0.0")
        lines.extend(f"{r},{t!r},{v!r}" for t, v in oracle_path(stack.histogram(r)))
    return "\n".join(lines) + "\n"


def oracle_sample_json(system, depth, seed, stack):
    return json.dumps({"system": system.to_json(), "depth": depth, "seed": seed,
                       "kind": stack.kind,
                       "cells": [c.index.label() for c in cells_of(stack.partition)],
                       "values": [[float(v) for v in row] for row in stack.values]},
                      indent=2, sort_keys=True)


def reprs(points):
    return [(repr(t), repr(v)) for t, v in points]


# ---------------------------------------------------------------------------
# partitions under test: open unit, closed-left with an atom cell, an odd
# rational domain, one-cell levels, and the leakage chain's infinite ends

CLOSED = dyadic_chain(Domain(Fraction(0), Fraction(1), True), 5)
ODD = dyadic_chain(Domain(Fraction(-3, 2), Fraction(5, 4), True), 4)
LEAKAGE = LeakageSystem(0.4, depth=5).chain()
PARTITIONS = {
    "unit-3": dyadic_chain(depth=3)[3],
    "unit-0": dyadic_chain(depth=0)[0],
    "atom-5": CLOSED[5],
    "atom-0": CLOSED[0],
    "odd-4": ODD[4],
    "leakage-4": LEAKAGE[4],
    "leakage-1": LEAKAGE[1],
    "leakage-0": LEAKAGE[0],
}


def awkward_stack(partition, rows=4, seed=0):
    """Signed stack mixing awkward doubles with ordinary ones; row 0 starts
    with -0.0 so the running sum's sign of zero is exercised."""
    rng = np.random.default_rng(seed)
    n = len(partition)
    values = rng.choice(np.array(AWKWARD), size=(rows, n)) * rng.choice([1.0, -1.0], size=(rows, n))
    values[0, :] = -0.0
    if n > 1:
        values[1, :2] = [-0.0, 5e-324]
    return HistogramStack(partition, values, SIGNED)


@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_stack_csv_matches_csv_writer(name):
    stack = awkward_stack(PARTITIONS[name])
    assert text_of(stack_to_csv, stack) == oracle_stack_csv(stack)


@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_histogram_csv_matches_csv_writer(name):
    stack = awkward_stack(PARTITIONS[name])
    for r in range(len(stack)):
        h = stack.histogram(r)
        assert text_of(histogram_to_csv, h) == oracle_histogram_csv(h)


@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_labels_match_cells(name):
    partition = PARTITIONS[name]
    assert partition.labels() == [c.index.label() for c in cells_of(partition)]


@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_path_matches_running_sum(name):
    stack = awkward_stack(PARTITIONS[name], rows=6)
    t, values = path_from_histogram(stack)
    for r in range(len(stack)):
        expect = reprs(oracle_path(stack.histogram(r)))
        assert reprs(path_from_histogram(stack.histogram(r))) == expect
        assert reprs(zip(t.tolist(), values[r].tolist())) == expect


def test_path_of_sampled_probabilities_matches_running_sum():
    """Long rows of ordinary draws: the vectorized sum rounds like the loop."""
    system = system_from_json({"family": "dirichlet", "base": {"type": "lebesgue"}})
    stack = sample_stack(system, dyadic_chain(depth=9), 9, RandomStream(4), 20)
    t, values = path_from_histogram(stack)
    for r in range(len(stack)):
        assert reprs(zip(t.tolist(), values[r].tolist())) == \
            reprs(oracle_path(stack.histogram(r)))


def test_leakage_path_skips_both_infinite_ends():
    h = Histogram(LEAKAGE[4], np.full(len(LEAKAGE[4]), 1 / len(LEAKAGE[4])), PROBABILITY)
    points = path_from_histogram(h)
    assert len(points) == len(LEAKAGE[4]) - 1
    assert path_from_histogram(Histogram(LEAKAGE[0], np.ones(1), PROBABILITY)) == []


@pytest.mark.parametrize("values", [
    np.array([[-0.0, 5e-324, 1e16], [math.nan, math.inf, -math.inf]]),
    np.array([[2e16, math.nan, 1e-7, -math.inf], [5e-05, math.inf, 0.25, -2e16]]),
    np.array([[0.5]]),
    np.empty((0, 3)),
    np.empty((2, 0)),
    np.array([[1.0, -2.5e-310, 1 / 3]] * 3),
    np.arange(6.0).reshape(2, 3).T / 7,
    (np.arange(6.0).reshape(2, 3) / 7).astype(np.float32),
])
def test_dump_json_arrays_match_json_dumps(values):
    payloads = [
        values,
        {"values": values, "kind": "signed", "cells": ["0", "1"], "seed": 3},
        {"outer": [1, {"deep": values, "a": [values, "x"]}], "z": None},
    ]
    for payload in payloads:
        expect = json.dumps(payload, indent=2, sort_keys=True,
                            default=lambda a: a.tolist())
        assert text_of(dump_json, payload) == expect


def test_dump_json_with_a_string_spelling_the_placeholder():
    """A string that spells the old token of the array placeholder is
    written as any other string."""
    values = np.array([[0.25, 0.75]])
    for text in ("\x00ndarray 0", "\x00ndarray 1"):
        payload = {"a": text, "values": values}
        assert text_of(dump_json, payload) == json.dumps(
            {"a": text, "values": values.tolist()}, indent=2, sort_keys=True)


def test_dump_json_small_payloads_unchanged():
    payload = {"conditions": {"x": {"status": "holds", "value": 0.1}}, "n": [1, 2.5]}
    assert text_of(dump_json, payload) == json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# float_rows against repr

def oracle_rows(values):
    return [",".join(map(repr, row.tolist())) for row in values]


def _neighbours(points, count: int):
    """`points` and their first `count` neighbours up and down (`nextafter`)."""
    out, up, down = [points], points, points
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _repr_corpus():
    """Doubles where orjson's layout and repr's differ, or could, with their
    negatives; then 2x10^5 random bit patterns over all exponents."""
    rng = np.random.default_rng(20240518)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    positional = np.concatenate([  # orjson writes [1e-5, 1e-4) as 0.0000ddd
        np.linspace(1e-5, 1e-4, 2001), rng.uniform(1e-5, 1e-4, 5000),
        rng.uniform(1e-6, 1e-5, 1000),
        [1e-5, np.nextafter(1e-5, 0.0), 9.999999999999999e-05, 1e-4, 1e-6]])
    pieces = [
        powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf),
        rng.integers(1, 2**52, size=5000, dtype=np.uint64).view(np.float64),  # subnormal
        [0.0, 5e-324], positional,
        160.0 + positional, 10.0 + positional, [160.00008999742772, 10.00001],
        1e16 + 2.0 * np.arange(-500, 501), [9999999999999998.0, 1e15, 1e17],
        *(2.0**e + np.arange(-300, 301) * 2.0 ** (e - 52) for e in range(53, 65)),
        rng.gamma(2.0**-10, size=10_000),
        # the edges of the magnitudes orjson lays out as repr does
        _neighbours(np.array([1e-10, 1e-9, 1e-5, 1e-4, 1e16]), 100)]
    special = np.concatenate([np.asarray(v, dtype=np.float64) for v in pieces])
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    return np.concatenate([special, -special, bits[np.isfinite(bits)]])


REPR_CORPUS = _repr_corpus()


def test_float_rows_spell_floats_as_repr():
    """Every float of the corpus, 1000 to a row: 32 rows to a block, and a
    last block that is not full."""
    values = REPR_CORPUS[:len(REPR_CORPUS) // 1000 * 1000].reshape(-1, 1000)
    assert len(values) % (FLOAT_BLOCK // 1000)
    assert list(float_rows(values)) == oracle_rows(values)


@pytest.mark.parametrize("columns", [1, 7, FLOAT_BLOCK + 3])
def test_float_rows_split_rows_and_blocks(columns):
    """Rows of one float (three blocks), of a few, and longer than a block."""
    values = REPR_CORPUS[:(2 * FLOAT_BLOCK + 5) // columns * columns].reshape(-1, columns)
    assert list(float_rows(values)) == oracle_rows(values)


@pytest.mark.parametrize("columns", [1, 3, FLOAT_BLOCK + 3])
def test_spelled_values_straddle_a_block_boundary(columns):
    """Values that orjson lays out otherwise, and NaN and the infinities for
    JSON, at the end of one `FLOAT_BLOCK` block and the start of the next."""
    rows = FLOAT_BLOCK // columns or 1  # per block
    values = np.full((2 * rows + 1, columns), 0.5)
    edge = rows * columns  # the first value of the second block
    values.flat[edge - 4:edge + 4] = [1e-7, 2e16, -5e-05, 1e-9, -1e16,
                                      9.999999999999999e-05, 3e-06, 1e300]
    assert list(float_rows(values)) == oracle_rows(values)
    values.flat[[edge - 5, edge - 1, edge, edge + 4]] = [math.inf, math.nan, -math.inf, math.nan]
    assert text_of(dump_json, values) == json.dumps(values.tolist(), indent=2)


def test_float_rows_of_dirichlet_cells():
    """Normalized Gamma(2^-10) rows, like depth-10 Dirichlet cells: half
    exact zeros, the rest down to subnormals."""
    draws = np.random.default_rng(7).gamma(2.0**-10, size=(45, 1024))
    draws /= draws.sum(axis=1, keepdims=True)
    assert list(float_rows(draws)) == oracle_rows(draws)


@pytest.mark.parametrize("values", [
    np.empty((0, 3)), np.empty((3, 0)), np.arange(12.0).reshape(3, 4).T,
    (np.arange(6.0).reshape(2, 3) / 7).astype(np.float32),
    np.array([[1e-5, 2.5]], dtype=">f8"),
], ids=["no-rows", "no-columns", "transposed", "float32", "big-endian"])
def test_float_rows_of_any_float_array(values):
    assert list(float_rows(values)) == oracle_rows(values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_rows_refuse_non_finite_values(bad):
    with pytest.raises(ValidationError, match="must be finite"):
        list(float_rows(np.array([[0.5, bad]])))


# ---------------------------------------------------------------------------
# the CLI's outputs, through --out and on stdout

SYSTEMS = {
    "polya_p0": ({"family": "polya", "beta": {"rule": "homogeneous", "expr": "m**2"},
                  "p0": 0.3}, CLOSED),
    "gaussian_odd": ({"family": "gaussian",
                      "covariance": {"variant": "diagonal", "sigma2": {"type": "lebesgue"}}},
                     ODD),
    "dirichlet": ({"family": "dirichlet", "base": {"type": "lebesgue", "scale": 0.01}}, None),
    "leakage": ({"family": "leakage", "delta": 0.2, "depth": 5}, None),
    # a table key: a string that spells the old token of dump_json's array
    # placeholder
    "polya_placeholder_key": ({"family": "polya",
                               "beta": {"rule": "table", "pairs": {"\x00ndarray 0": [1.0, 1.0]},
                                        "default": [2.0, 3.0]}}, None),
}


def _origin(chain):
    left = float(chain.domain.left)
    return left if math.isfinite(left) else None


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("depth", [0, 4])
def test_cli_exports_match_oracles(name, depth, tmp_path, capsys):
    obj, chain = SYSTEMS[name]
    system = system_from_json(obj)
    system_path = tmp_path / "system.json"
    system_path.write_text(json.dumps(obj))
    args = ["--system", str(system_path), "--depth", str(depth)]
    if chain is None:
        chain = system.chain() if isinstance(system, LeakageSystem) else dyadic_chain(depth=depth)
    else:
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps(chain.to_json()))
        args += ["--chain", str(chain_path)]
    stack = sample_stack(system, chain, depth, RandomStream(9), 5)
    expected = {
        "sample-csv": (["sample", *args, "--replicates", "5", "--seed", "9", "--jobs", "2"],
                       oracle_stack_csv(stack)),
        "sample-json": (["sample", *args, "--replicates", "5", "--seed", "9", "--jobs", "2",
                         "--format", "json"],
                        oracle_sample_json(system, depth, 9, stack) + "\n"),
        "path": (["path", *args, "--replicates", "5", "--seed", "9", "--jobs", "2"],
                 oracle_path_text(stack, _origin(chain))),
        "mean-csv": (["mean", *args], oracle_histogram_csv(system.mean(chain[depth]))),
    }
    for key, (argv, text) in expected.items():
        target = tmp_path / f"{key}.out"
        assert main(argv + ["--out", str(target)]) == 0, key
        assert target.read_text() == text, key
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == text, key


@pytest.mark.parametrize("obj", [
    {"family": "dirichlet", "base": {"type": "lebesgue"}},
    {"family": "gaussian", "covariance": {"variant": "diagonal", "sigma2": {"type": "lebesgue"}}},
], ids=["dirichlet", "gaussian"])
def test_depth_10_exports_match_the_repr_oracles(obj, tmp_path):
    """`sample` CSV and JSON and `path` at depth 10, N = 37: Dirichlet cells
    reach subnormals and exact zeros, Gaussian ones are signed."""
    system = system_from_json(obj)
    system_path = tmp_path / "system.json"
    system_path.write_text(json.dumps(obj))
    args = ["--system", str(system_path), "--depth", "10", "--replicates", "37",
            "--seed", "11", "--jobs", "1"]
    chain = dyadic_chain(depth=10)
    stack = sample_stack(system, chain, 10, RandomStream(11), 37)
    expected = {
        "sample-csv": (["sample", *args], oracle_stack_csv(stack)),
        "sample-json": (["sample", *args, "--format", "json"],
                        oracle_sample_json(system, 10, 11, stack) + "\n"),
        "path": (["path", *args], oracle_path_text(stack, _origin(chain))),
    }
    for key, (argv, text) in expected.items():
        target = tmp_path / f"{key}.out"
        assert main(argv + ["--out", str(target)]) == 0, key
        assert target.read_text() == text, key


# ---------------------------------------------------------------------------
# streamed writes

@pytest.mark.parametrize("command", [("sample", "--format", "csv"),
                                     ("sample", "--format", "json"), ("path",)],
                         ids=["sample-csv", "sample-json", "path"])
def test_export_peak_stays_below_the_output_size(command, tmp_path):
    """The text is written as it is formatted, so the traced peak (the
    stack and, for a path, its running sums) stays below the size of the
    file written; a whole-text buffer alone would be that size."""
    system_path, target = tmp_path / "system.json", tmp_path / "out.txt"
    system_path.write_text(json.dumps({"family": "dirichlet", "base": {"type": "lebesgue"}}))
    tracemalloc.start()
    try:
        code = main([*command, "--system", str(system_path), "--depth", "8",
                     "--replicates", "2000", "--seed", "5", "--jobs", "1",
                     "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < target.stat().st_size
