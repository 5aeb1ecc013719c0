"""Histograms on partitions: projection, total variation, truncation, densities.

A histogram assigns one float per cell of a partition.  Three kinds are
distinguished: `probability` (nonnegative, sums to one within 1e-12),
`positive` (nonnegative), and `signed` (anything finite).  Values are stored
in a read-only numpy array in the partition's cell order.

Projection onto a coarser partition sums each group of child cells; because
it is a row-stochastic-transpose operation it preserves kind.  Total
variation of a signed histogram is the absolute-value sum, and the
truncated-excess statistic sum_A max(p(A) - L q(A), 0) measures the mass of
p that no multiple L of the reference q can cover — the finite-depth probe
behind the dominated-mass condition.

Densities come in two flavours: `PiecewiseDensity` (a step function of the
cell averages, i.e. the density of a histogram with respect to a reference
histogram) and `PolynomialDensity` (an exact polynomial in x).  The
total-variation distance (1/2) * integral |f - g| d(ref) is evaluated in
closed form whenever the integrand is piecewise polynomial — the absolute
value is split at real roots — and by adaptive Simpson quadrature (interval
halving until successive estimates agree within 1e-9) otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .errors import NumericError, ValidationError
from .partitions import Partition, RefinementMap, format_endpoint, refine_map

PROBABILITY = "probability"
POSITIVE = "positive"
SIGNED = "signed"
_KINDS = (PROBABILITY, POSITIVE, SIGNED)

PROBABILITY_SUM_TOL = 1e-12
SIMPSON_TOL = 1e-9


def _frozen_array(values, shape_len: int, copy: bool = True) -> np.ndarray:
    arr = np.array(values, dtype=float) if copy else np.asarray(values, dtype=float)
    if arr.ndim != shape_len:
        raise ValidationError("histogram/shape", f"expected {shape_len}-d values, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _check_kind(values: np.ndarray, kind: str) -> None:
    if kind not in _KINDS:
        raise ValidationError("histogram/kind", f"unknown kind {kind!r}")
    finite = bool(np.all(np.isfinite(values)))
    negative = finite and kind != SIGNED and bool(np.any(values < 0))
    low = float(values.min()) if negative else 0.0
    off = 0.0
    if kind == PROBABILITY and finite and not negative:
        totals = values.sum(axis=-1)
        off = float(np.abs(totals - 1.0).max()) if totals.size else 0.0
    check_summary(kind, finite, low, off)


def check_summary(kind: str, finite: bool, low: float, off: float) -> None:
    """Raise what `_check_kind` raises for values of `kind` that are all
    finite or not, whose least entry is `low` (where negative) and whose
    rows' worst |total - 1| is `off`: values checked a piece at a time are
    judged as a whole."""
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
        arr = _frozen_array(self.values, 1)
        if len(arr) != len(self.partition):
            raise ValidationError(
                "histogram/shape",
                f"{len(arr)} values for {len(self.partition)} cells",
            )
        _check_kind(arr, self.kind)
        object.__setattr__(self, "values", arr)

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
        arr = _frozen_array(self.values, 2, copy=not owned)
        if arr.shape[1] != len(self.partition):
            raise ValidationError(
                "histogram/shape",
                f"{arr.shape[1]} columns for {len(self.partition)} cells",
            )
        _check_kind(arr, self.kind)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    def histogram(self, i: int) -> Histogram:
        return Histogram(self.partition, self.values[i], self.kind)


def _resolve_map(source: Partition, target: Union[Partition, RefinementMap]) -> RefinementMap:
    if isinstance(target, RefinementMap):
        if target.fine != source:
            raise ValidationError("histogram/partition-mismatch",
                                  "refinement map does not match the histogram's partition")
        return target
    return refine_map(target, source)


def project(h: Union[Histogram, HistogramStack],
            target: Union[Partition, RefinementMap]) -> Union[Histogram, HistogramStack]:
    """Sum cell values into the containing cells of a coarser partition."""
    rmap = _resolve_map(h.partition, target)
    vals = project_values(h.values, rmap)
    if isinstance(h, HistogramStack):
        return HistogramStack(rmap.coarse, vals, h.kind)
    return Histogram(rmap.coarse, vals, h.kind)


def project_values(values: np.ndarray, rmap: RefinementMap) -> np.ndarray:
    """Array form of `project` along the last axis."""
    return np.add.reduceat(values, rmap.boundaries, axis=-1)


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
    if level < 0:
        raise ValidationError("histogram/truncation-level", f"level must be >= 0, got {level}")
    return float(truncation_values(p.values, q.values, level))


@dataclass(frozen=True)
class PiecewiseDensity:
    """Step function taking `values[i]` on cell i of `partition`."""

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, 1)
        if len(arr) != len(self.partition):
            raise ValidationError("density/shape",
                                  f"{len(arr)} values for {len(self.partition)} cells")
        object.__setattr__(self, "values", arr)

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


def histogram_density(p: Histogram, q: Histogram) -> PiecewiseDensity:
    """Cellwise density of p with respect to q (the step function p(A)/q(A)).

    Cells with q(A) = 0 must carry p(A) = 0 and get density 0; anything else
    would put mass where the reference has none.
    """
    if p.partition != q.partition:
        raise ValidationError("histogram/partition-mismatch",
                              "p and q must live on the same partition")
    if np.any(q.values < 0):
        raise ValidationError("histogram/negative-reference",
                              "reference histogram must be nonnegative")
    zero = q.values == 0
    if np.any(zero & (p.values != 0)):
        i = int(np.argmax(zero & (p.values != 0)))
        raise ValidationError(
            "density/zero-reference-cell",
            f"cell {p.partition.describe_cell(i)} has zero reference mass but p={p.values[i]}",
        )
    out = np.zeros_like(p.values)
    np.divide(p.values, q.values, out=out, where=~zero)
    return PiecewiseDensity(p.partition, out)


def lebesgue_reference(partition: Partition) -> Histogram:
    """Cell widths as a positive histogram (the flat reference)."""
    widths = partition.widths()
    if not np.all(np.isfinite(widths)):
        raise ValidationError("histogram/unbounded",
                              "flat reference needs bounded cells")
    return Histogram(partition, widths, POSITIVE)


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


def tv_distance_density(f: Density, g: Density, *,
                        partition: Partition | None = None,
                        reference: Histogram | None = None) -> float:
    """Total-variation distance (1/2) * integral |f - g| d(ref).

    The integral runs over the interval cells of the partition with the
    most cells among `partition` and the piecewise densities' own (the last
    of them on a tie).  The reference defaults to the flat measure on the
    cells (Lebesgue); a positive reference histogram reweights each cell
    uniformly.  When both densities are piecewise constant / polynomial on
    the cells the integral is exact; otherwise each cell falls back to
    adaptive Simpson.
    """
    for d in (f, g):
        if isinstance(d, PiecewiseDensity):
            if partition is None or len(d.partition) >= len(partition):
                partition = d.partition
    if partition is None:
        raise ValidationError("density/no-cells",
                              "need a partition when neither density is piecewise")
    if reference is not None and np.any(reference.values < 0):
        raise ValidationError("histogram/negative-reference",
                              "reference histogram must be nonnegative")
    pts = partition.cut_points()
    edges = partition.edges().tolist()
    steps = [_positions_in(d.partition, partition, pts) if isinstance(d, PiecewiseDensity)
             else None for d in (f, g)]
    ref_at = None if reference is None else _positions_in(reference.partition, partition, pts)
    total = 0.0
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        if not (-math.inf < a and b < math.inf):
            raise ValidationError("density/unbounded",
                                  "density distances need bounded cells")
        if b <= a:
            continue
        weight = 1.0
        if ref_at is not None:
            if ref_at[i] is None:
                raise ValidationError("density/partition-mismatch",
                                      "reference histogram does not cover the integration cells")
            weight = float(reference.values[ref_at[i]]) / (b - a)
            if weight == 0.0:
                continue
        fc, gc = (d if at is None else _step_on_cell(d, at[i]) for d, at in zip((f, g), steps))
        if isinstance(fc, PolynomialDensity) and isinstance(gc, PolynomialDensity):
            n = max(len(fc.coefficients), len(gc.coefficients))
            diff = tuple(
                (fc.coefficients[k] if k < len(fc.coefficients) else 0.0)
                - (gc.coefficients[k] if k < len(gc.coefficients) else 0.0)
                for k in range(n)
            )
            total += weight * _abs_polynomial_integral(PolynomialDensity(diff), a, b)
        else:
            total += weight * _adaptive_simpson(lambda x: abs(fc(x) - gc(x)), a, b)
    return 0.5 * total


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


def float_rows(values: np.ndarray,
               spell: Callable[[float], str] = _finite_repr) -> Iterator[str]:
    """Each row of a 2-D float array as the comma-joined `spell` text of its
    values, by default `float.__repr__` of finite values.

    The digits come from orjson, about `FLOAT_BLOCK` floats at a time: like
    `repr`, it writes the shortest digits that read back to the same double,
    and of those the closest (Ryu).  It lays out 0 and the magnitudes in
    [1e-4, 1e16) or below 1e-9 as `repr` does, but writes ``1e16``, ``1e-7``
    and ``0.0000123`` where `repr` writes ``1e+16``, ``1e-07`` and
    ``1.23e-05``, and NaN and the infinities as null.  So every other value
    is spelled by `spell`, set to NaN, and spliced into orjson's text in
    place of its null."""
    import orjson

    rows = max(1, FLOAT_BLOCK // max(1, values.shape[1]))
    for lo in range(0, len(values), rows):
        block = np.ascontiguousarray(values[lo:lo + rows], dtype=np.float64)
        size = np.abs(block)
        other = ~(((1e-4 <= size) & (size < 1e16)) | (size < 1e-9))  # NaN too
        spelled = map(spell, block[other].tolist())
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


def _array_block(values: np.ndarray, indent: str, write: Callable[[str], object]) -> None:
    """Write a 2-D float array a row at a time, as `json.dumps(values.tolist(),
    indent=2)` lays it out when its opening bracket is indented by `indent`:
    the rows of `float_rows`, each float spelled as `json` spells it (NaN and
    the infinities by name)."""
    row_pad, item_pad = indent + "  ", indent + "    "
    sep = ",\n" + item_pad
    lead = f"[\n{row_pad}"
    for text in float_rows(values, json.dumps):
        write(lead + (f"[\n{item_pad}{text.replace(',', sep)}\n{row_pad}]"
                      if values.shape[1] else "[]"))
        lead = f",\n{row_pad}"
    write(f"\n{indent}]" if len(values) else "[]")


def _holds_array(o) -> bool:
    if isinstance(o, (dict, list, tuple)):
        return any(map(_holds_array, o.values() if isinstance(o, dict) else o))
    return isinstance(o, np.ndarray) and o.ndim == 2 and o.dtype.kind == "f"


def dump_json(obj, write: Callable[[str], object]) -> None:
    """Write `json.dumps(obj, indent=2, sort_keys=True)`, where obj may also
    hold 2-D float numpy arrays (inside dicts and lists), as nested lists of
    floats, written a row at a time by `_array_block` rather than by json's
    pure-Python indenting encoder; the bytes are the same."""
    _dump_at(obj, "", write)


def _dump_at(o, indent: str, write: Callable[[str], object]) -> None:
    """`dump_json` of `o` at `indent`: a part that holds no array is one
    `json.dumps`, re-indented (json escapes the newlines inside strings),
    and a dict that holds one has string keys, as `sample`'s has."""
    if not _holds_array(o):
        write(json.dumps(o, indent=2, sort_keys=True).replace("\n", "\n" + indent))
    elif isinstance(o, np.ndarray):
        _array_block(o, indent, write)
    else:
        is_dict, inner = isinstance(o, dict), indent + "  "
        items = [(json.dumps(k) + ": ", v) for k, v in sorted(o.items())] if is_dict \
            else [("", v) for v in o]
        write("{" if is_dict else "[")
        for i, (key, value) in enumerate(items):
            write(("," if i else "") + "\n" + inner + key)
            _dump_at(value, inner, write)
        write("\n" + indent + ("}" if is_dict else "]"))
