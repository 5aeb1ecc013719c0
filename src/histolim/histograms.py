"""Histograms on partitions: projection, total variation, truncation, densities.

A histogram assigns one float per cell of a partition.  Three kinds are
distinguished: `probability` (nonnegative, sums to one within 1e-12),
`positive` (nonnegative), and `signed` (anything finite).  Values are stored
in a read-only numpy array in the partition's cell order.

Projection onto a coarser partition (`project_values`) sums the run of
fine cells that each coarse cell covers, from the start positions that
`partitions.refine_map` gives; because it is a row-stochastic-transpose
operation it preserves kind.  Total variation of a signed histogram is the
absolute-value sum, and the truncated-excess statistic
sum_A max(p(A) - L q(A), 0) measures the mass of p that no multiple L of
the reference q can cover — the finite-depth probe behind the
dominated-mass condition.

Densities come in two flavours: `PiecewiseDensity` (a step function on the
cells of a partition) and `PolynomialDensity` (an exact polynomial in x).
The integrals `diagnostics.tv_martingale_curve` takes of them are exact for
a polynomial on a cell (its absolute value split at real roots) and by
adaptive Simpson quadrature (interval halving until successive estimates
agree within 1e-9) otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .errors import NumericError, ValidationError
from .partitions import Partition, format_endpoint

PROBABILITY = "probability"
POSITIVE = "positive"
SIGNED = "signed"
_KINDS = (PROBABILITY, POSITIVE, SIGNED)

PROBABILITY_SUM_TOL = 1e-12
SIMPSON_TOL = 1e-9


def _hold(obj, ndim: int, code: str = "histogram/shape", copy: bool = True) -> None:
    """Hold ``obj.values`` as read-only floats (copied if `copy`) of `ndim` axes, one value
    per cell of ``obj.partition`` on the last (else `code`), of ``obj.kind`` if it has one."""
    arr = np.array(obj.values, dtype=float) if copy else np.asarray(obj.values, dtype=float)
    arr.setflags(write=False)
    if arr.ndim != ndim:
        raise ValidationError("histogram/shape", f"expected {ndim}-d values, got shape {arr.shape}")
    if arr.shape[-1] != len(obj.partition):
        unit = "columns" if ndim == 2 else "values"
        raise ValidationError(code, f"{arr.shape[-1]} {unit} for {len(obj.partition)} cells")
    if hasattr(obj, "kind"):
        _check_kind(arr, obj.kind)
    object.__setattr__(obj, "values", arr)


def _check_kind(values: np.ndarray, kind: str) -> None:
    if kind not in _KINDS:
        raise ValidationError("histogram/kind", f"unknown kind {kind!r}")
    check_summary(kind, *value_summary(values, kind))


def value_summary(values: np.ndarray, kind: str) -> tuple[bool, float, float]:
    """(finite, low, off) of `values` from reductions alone: whether all
    are finite (a NaN or ±inf shows in the min or the max), the least
    entry (0.0 if none), and for `kind` probability the rows' worst
    |total - 1|, else 0.0.  `check_summary` judges them."""
    with np.errstate(all="ignore"):  # values that fail are judged, not warned about
        low, high = (values.min(), values.max()) if values.size else (0.0, 0.0)
        off = np.abs(values.sum(axis=-1) - 1.0).max(initial=0.0) if kind == PROBABILITY else 0.0
    return bool(np.isfinite(low) and np.isfinite(high)), float(low), float(off)


def check_summary(kind: str, finite: bool, low: float, off: float) -> None:
    """Raise what `_check_kind` raises for values of `kind` with the
    `value_summary` (finite, low, off): values summarised a piece at a
    time are judged as a whole."""
    if not finite:
        raise ValidationError("histogram/not-finite", "histogram values must be finite")
    if kind in (PROBABILITY, POSITIVE) and low < 0:
        raise ValidationError("histogram/negative", f"{kind} histogram has negative entry {low}")
    if kind == PROBABILITY and off > PROBABILITY_SUM_TOL:
        raise ValidationError(
            "histogram/total-mass",
            f"probability histogram total differs from 1 by {off:.3e} "
            f"(> {PROBABILITY_SUM_TOL})",
        )


@dataclass(frozen=True)
class Histogram:
    partition: Partition
    values: np.ndarray
    kind: str = SIGNED

    def __post_init__(self):
        _hold(self, 1)

    def total(self) -> float:
        return float(self.values.sum())

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class HistogramStack:
    """n histograms on one partition, stored as an (n, cells) array: a copy,
    unless ``owned=True`` hands over a fresh float64 array to hold as it is."""

    partition: Partition
    values: np.ndarray
    kind: str = SIGNED
    owned: InitVar[bool] = False

    def __post_init__(self, owned: bool):
        _hold(self, 2, copy=not owned)

    def __len__(self) -> int:
        return self.values.shape[0]

    def histogram(self, i: int) -> Histogram:
        return Histogram(self.partition, self.values[i], self.kind)


def project_values(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Cell values summed, along the last axis, into the coarse cells whose
    start positions among the fine cells are `starts` (a `refine_map`)."""
    return np.add.reduceat(values, starts, axis=-1)


def tv_norm(h: Union[Histogram, HistogramStack]) -> Union[float, np.ndarray]:
    """Total-variation norm: sum of absolute cell values."""
    out = np.abs(h.values).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def truncation_values(p: np.ndarray, q: np.ndarray, level: float) -> np.ndarray:
    excess = p - level * q
    return np.clip(excess, 0.0, None, out=excess).sum(axis=-1)


def truncation_statistic(p: Histogram, q: Histogram, level: float) -> float:
    """Excess of p over level * q:  sum_A max(p(A) - level * q(A), 0).

    Zero exactly when p <= level * q cellwise; non-increasing in `level` and
    non-decreasing under refinement of the common partition.
    """
    if p.partition != q.partition:
        raise ValidationError("histogram/partition-mismatch",
                              "p and q must live on the same partition")
    if np.any(q.values < 0):
        raise ValidationError("histogram/negative-reference",
                              "reference histogram must be nonnegative")
    if not 0 <= level < math.inf:
        raise ValidationError("histogram/truncation-level",
                              f"level must be finite and >= 0, got {level}")
    return float(truncation_values(p.values, q.values, level))


@dataclass(frozen=True)
class PiecewiseDensity:
    """Step function taking `values[i]` on cell i of `partition`."""

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        _hold(self, 1, "density/shape")

    def __call__(self, x) -> float:
        return float(self.values[self.partition.position_of(x)])


@dataclass(frozen=True)
class PolynomialDensity:
    """Exact polynomial c0 + c1 x + c2 x^2 + ... on a bounded domain."""

    coefficients: tuple[float, ...]

    def __call__(self, x):
        out = 0.0
        for c in reversed(self.coefficients):
            out = out * x + c
        return out

    def integral(self, a: float, b: float) -> float:
        anti = [0.0] + [c / (k + 1) for k, c in enumerate(self.coefficients)]
        lo = hi = 0.0
        for c in reversed(anti):
            lo = lo * a + c
            hi = hi * b + c
        return hi - lo


Density = Union[PiecewiseDensity, PolynomialDensity, Callable[[float], float]]


def _abs_polynomial_integral(poly: PolynomialDensity, a: float, b: float) -> float:
    """Exact integral of |poly| over [a, b]: split at real roots, then sign
    the piecewise antiderivative by a midpoint sample."""
    coef = np.array(poly.coefficients, dtype=float)
    pts = [a, b]
    if np.any(coef[1:] != 0.0):
        roots = np.polynomial.Polynomial(coef).roots()
        for r in roots:
            if abs(r.imag) < 1e-12 and a < r.real < b:
                pts.append(float(r.real))
    pts = sorted(set(pts))
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        piece = poly.integral(lo, hi)
        total += piece if poly(mid) >= 0 else -piece
    return total


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    def simpson(lo, hi):
        mid = 0.5 * (lo + hi)
        return (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi)), mid

    def recurse(lo, hi, whole, lo_mid, budget):
        mid = lo_mid
        left, lm = simpson(lo, mid)
        right, rm = simpson(mid, hi)
        if budget <= 0:
            raise NumericError("quadrature/no-convergence",
                               f"adaptive Simpson failed to converge on [{lo}, {hi}]")
        if abs(left + right - whole) < 15.0 * SIMPSON_TOL:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, left, lm, budget - 1)
                + recurse(mid, hi, right, rm, budget - 1))

    whole, mid = simpson(a, b)
    return recurse(a, b, whole, mid, 48)  # bisection budget


def _positions_in(other: Partition, partition: Partition, pts: list) -> list:
    """Position in `other` of each interval cell of `partition` (cut points
    `pts`), or None where `other` lacks that cell.  An interval cell is its
    level, its place among the interval cells and its two cut points, so
    `other` has it when all three agree, the cut points compared exactly."""
    n = len(pts) - 1
    if other.level != partition.level:
        return [None] * n
    theirs = pts if other is partition else other.cut_points()
    return [k + other.has_atom
            if k < len(theirs) - 1 and theirs[k] == pts[k] and theirs[k + 1] == pts[k + 1]
            else None
            for k in range(n)]


def _step_on_cell(f: PiecewiseDensity, pos: int | None) -> PolynomialDensity:
    """The constant a piecewise density takes on the cell at `pos`."""
    if pos is None:
        raise ValidationError("density/partition-mismatch",
                              "piecewise density does not align with the integration cells")
    return PolynomialDensity((float(f.values[pos]),))


# ---------------------------------------------------------------------------
# serialization

def histogram_to_json(h: Histogram) -> dict:
    return {
        "kind": h.kind,
        "domain": h.partition.domain.to_json(),
        "endpoints": [format_endpoint(e) for e in h.partition.cut_points()],
        "has_atom": h.partition.has_atom,
        "values": [float(v) for v in h.values],
    }


def histogram_to_csv(h: Histogram, write: Callable[[str], object]) -> None:
    """CSV rows (cell_left, cell_right, value), passed to `write`; floats
    via repr so that a read-back reproduces the exact doubles."""
    ends = [format_endpoint(e) for e in h.partition.cut_points()]
    lefts, rights = ends[:-1], ends[1:]
    if h.partition.has_atom:
        lefts.insert(0, ends[0])
        rights.insert(0, ends[0])
    rows = map(",".join, zip(lefts, rights, map(repr, h.values.tolist())))
    write("\n".join(["cell_left,cell_right,value", *rows, ""]))


#: floats formatted per `orjson.dumps` call, so that a block's text stays a
#: few MB however large the array
FLOAT_BLOCK = 1 << 15


def _finite_repr(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError("histogram/not-finite", "histogram values must be finite")
    return float.__repr__(x)


def float_rows(values: np.ndarray) -> Iterator[str]:
    """Each row of a 2-D float array as the comma-joined `float.__repr__`
    text of its values, which must be finite (`histogram/not-finite`).

    The digits come from orjson, about `FLOAT_BLOCK` floats at a time: like
    `repr`, it writes the shortest digits that read back to the same double,
    and of those the closest (Ryu).  It lays out 0 and the magnitudes in
    [1e-4, 1e16) or below 1e-9 as `repr` does, but writes ``1e16``, ``1e-7``
    and ``0.0000123`` where `repr` writes ``1e+16``, ``1e-07`` and
    ``1.23e-05``, and NaN and the infinities as null.  So every other value
    is spelled by `repr`, set to NaN, and spliced into orjson's text in
    place of its null."""
    import orjson

    rows = max(1, FLOAT_BLOCK // max(1, values.shape[1]))
    for lo in range(0, len(values), rows):
        block = np.ascontiguousarray(values[lo:lo + rows], dtype=np.float64)
        size = np.abs(block)
        other = ~(((1e-4 <= size) & (size < 1e16)) | (size < 1e-9))  # NaN too
        spelled = map(_finite_repr, block[other].tolist())
        pieces = orjson.dumps(np.where(other, np.nan, block),
                              option=orjson.OPT_SERIALIZE_NUMPY).decode().split("null")
        text = pieces[0] + "".join(map(str.__add__, spelled, pieces[1:]))
        yield from text[2:-2].split("],[")


def stack_to_csv(stack: HistogramStack, write: Callable[[str], object]) -> None:
    """Wide CSV, written a row at a time: one row per sample, one column per
    cell (by cell order), the floats spelled as `repr` spells them
    (`float_rows`)."""
    write(",".join(["sample", *stack.partition.labels()]) + "\n")
    for i, text in enumerate(float_rows(stack.values)):
        write(f"{i},{text}\n")


def _array_block(values: np.ndarray, write: Callable[[str], object]) -> None:
    """Write a 2-D float array of at least one row and one column a row at a
    time, as `json.dumps(values.tolist(), indent=2)` lays it out as a value
    of a top-level dict: the rows of `float_rows`, whose `repr` spelling is
    json's for a finite float."""
    lead = "[\n    ["
    for text in float_rows(values):
        write(lead + "\n      " + text.replace(",", ",\n      ") + "\n    ]")
        lead = ",\n    ["
    write("\n  ]")


def dump_json(obj, write: Callable[[str], object]) -> None:
    """Write `json.dumps(obj, indent=2, sort_keys=True)` and a newline, where
    obj may be a dict with 2-D float numpy arrays among its values, as
    `sample`'s is.  That dict is written item by item in sorted key order:
    an array a row at a time by `_array_block`, its values finite so that
    the text is strict JSON, and any other value as one `json.dumps`,
    re-indented (json escapes the newlines inside strings); the bytes are
    the same.  Any other payload is one `json.dumps`, which refuses an array
    below the top level."""
    if not (isinstance(obj, dict) and any(isinstance(v, np.ndarray) for v in obj.values())):
        write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        return
    lead = "{"
    for key, value in sorted(obj.items()):
        write(f"{lead}\n  {json.dumps(key)}: ")
        if isinstance(value, np.ndarray):
            _array_block(value, write)
        else:
            write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
        lead = ","
    write("\n}\n")
