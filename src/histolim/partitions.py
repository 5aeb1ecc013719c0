"""Refining interval partitions with binary cell addressing.

A partition splits a one-dimensional domain into finitely many half-open
cells (l, r] — plus, on a left-closed domain, the singleton cell {left} —
ordered left to right, and a cell is named by its position in that order
(the singleton first).  A chain is a sequence of partitions in which every
cell of level m+1 sits inside exactly one cell of level m, so an interval
cell, like a node of a splitting tree, is addressed by the integers
(level, pos): the root is (0, 0), and the two children of (m, pos) are
(m + 1, 2 pos) on the left and (m + 1, 2 pos + 1) on the right.  Its label
is pos as `level` binary digits, or '()' for the root.

An endpoint is a plain number: an exact `Fraction` (or int), a float, or
the IEEE -math.inf / math.inf of an unbounded end, so membership and order
are ordinary comparisons.  Its text form is 'p/q' or an integer when exact,
a finite decimal for a float, and '+inf' / '-inf'.

Two chain builders are provided:

* `dyadic_chain` — 2^m equal cells of a bounded rational interval, with
  exact `fractions.Fraction` endpoints so no depth accumulates rounding.
  A dyadic level's cut points are arithmetic on its domain and level;
* `triangular_chain` — nested rows of float cut points on an open-left
  domain, by default the real line (row n holds 2^n - 1 strictly
  increasing points, even positions repeating the previous row), with
  unbounded end cells on the real line.  Each level stores its row with
  the domain ends.  Only dyadic chains may be left-closed.

Either way a level is its domain, level and cut points, and there are no
cell objects: sizes, widths, edges, labels and lookups read positions off
the cut points.  A refinement of one level by a finer one is the start
position, among the fine cells, of each coarse cell (`refine_map`).

Depth is capped (default 30 levels, overridable via the HISTOLIM_MAX_DEPTH
environment variable) because cell counts grow as 2^m.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import ValidationError

DEFAULT_MAX_DEPTH = 30
MAX_DEPTH_ENV = "HISTOLIM_MAX_DEPTH"


def max_depth() -> int:
    """Deepest allowed chain level, from the environment or the default."""
    raw = os.environ.get(MAX_DEPTH_ENV)
    if raw is None:
        return DEFAULT_MAX_DEPTH
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError("config/max-depth", f"{MAX_DEPTH_ENV}={raw!r} is not an integer")
    if value < 0:
        raise ValidationError("config/max-depth", f"{MAX_DEPTH_ENV} must be >= 0, got {value}")
    return value


def check_depth_capacity(depth: int) -> None:
    """Refuse a chain of more than `max_depth()` levels below level 0."""
    cap = max_depth()
    if depth > cap:
        raise ValidationError(
            "partition/depth-capacity",
            f"depth {depth} exceeds the configured maximum {cap} (set {MAX_DEPTH_ENV} to raise it)",
        )


#: a cut point; +-math.inf marks an unbounded end.  Infinity tests compare
#: (-math.inf < e < math.inf) rather than convert, so a finite Fraction
#: never overflows a float.
Endpoint = Union[Fraction, float, int]

_INFINITIES = {"+inf": math.inf, "inf": math.inf, "-inf": -math.inf}


def format_endpoint(e: Endpoint) -> str:
    """Lossless text form: Fractions as 'p/q' or 'n', infinities as
    '+inf'/'-inf', other floats via repr."""
    if isinstance(e, (Fraction, int)):
        return str(e)
    if math.isinf(e):
        return "+inf" if e > 0 else "-inf"
    return repr(float(e))


def parse_endpoint(text) -> Endpoint:
    """Inverse of `format_endpoint`, also taking JSON numbers (as floats), but
    no truth values.  Only '+inf', 'inf' and '-inf' are infinite; every other
    endpoint must be a finite number in float range."""
    s = text if type(text) in (int, float) else str(text).strip()  # str(True) is no number
    if s in _INFINITIES:
        return _INFINITIES[s]
    try:
        exact = isinstance(s, str) and ("/" in s or not any(c in s for c in ".eE"))
        value = Fraction(s) if exact else float(s)
    except (ValueError, ZeroDivisionError):
        raise ValidationError("partition/endpoint", f"cannot parse endpoint {text!r}") from None
    except OverflowError:  # a JSON integer beyond float range
        value = math.inf
    # exact for a Fraction, and false for nan
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValidationError("partition/endpoint",
                              f"endpoint {text!r} is not a finite number in float range; "
                              "write an unbounded end as '+inf' or '-inf'")
    return value


def node_label(level: int, pos: int) -> str:
    """Label of interval cell or tree node (level, pos): pos as `level`
    binary digits, left-most split first, or '()' at level 0."""
    return format(pos, f"0{level}b") if level else "()"


@dataclass(frozen=True)
class Domain:
    """Interval descriptor.  `closed_left` marks whether the left endpoint
    itself belongs to the domain (and hence appears as a singleton cell)."""

    left: Endpoint
    right: Endpoint
    closed_left: bool = False

    @staticmethod
    def unit(closed_left: bool = False) -> "Domain":
        return Domain(Fraction(0), Fraction(1), closed_left)

    @staticmethod
    def real_line() -> "Domain":
        return Domain(-math.inf, math.inf, False)

    @property
    def bounded(self) -> bool:
        return -math.inf < self.left and self.right < math.inf

    def contains(self, x) -> bool:
        return (self.closed_left and x == self.left) or self.left < x <= self.right

    def describe(self) -> str:
        l, r = format_endpoint(self.left), format_endpoint(self.right)
        return f"[{l}, {r}]" if self.closed_left else f"({l}, {r}]"

    def to_json(self) -> dict:
        return {"left": format_endpoint(self.left), "right": format_endpoint(self.right),
                "closed_left": self.closed_left}

    @staticmethod
    def from_json(obj: dict) -> "Domain":
        closed_left = obj.get("closed_left", False)
        if not isinstance(closed_left, bool):
            raise ValidationError("chain/json",
                                  f"closed_left must be true or false, got {closed_left!r}")
        return Domain(parse_endpoint(obj["left"]), parse_endpoint(obj["right"]), closed_left)


@dataclass(frozen=True)
class Partition:
    """Ordered cells covering a domain exactly; immutable.

    A partition is its domain, its level and its cut points (domain ends
    included).  A dyadic level keeps its cut points as arithmetic on an
    exact `Fraction` grid (`cuts` is None); a triangular one stores them
    in `cuts`, and `kind` says which.  Cell `pos` (0-based, left to right)
    is the singleton {left} when `pos` is 0 on a left-closed domain, and
    otherwise the interval between the two cut points at `pos - has_atom`;
    sizes, widths, labels and lookups read the cut points.
    """

    domain: Domain
    level: int
    cuts: tuple[Endpoint, ...] | None = field(default=None, repr=False)

    @property
    def kind(self) -> str:
        return "dyadic" if self.cuts is None else "triangular"

    @cached_property
    def _grid(self) -> tuple[Fraction, Fraction]:
        """Left end and exact cell width of a dyadic level."""
        left = Fraction(self.domain.left)
        return left, (Fraction(self.domain.right) - left) / (1 << self.level)

    def cut(self, i: int) -> Endpoint:
        """Cut point i, counted from the domain's left end."""
        if self.cuts is not None:
            return self.cuts[i]
        left, step = self._grid
        return left + i * step

    @property
    def _intervals(self) -> int:
        return (1 << self.level) if self.cuts is None else len(self.cuts) - 1

    def __len__(self) -> int:
        return self._intervals + self.has_atom

    @property
    def has_atom(self) -> bool:
        return self.domain.closed_left

    def describe_cell(self, pos: int) -> str:
        """Text of cell `pos`: '{left}' for the singleton, '(l, r]' otherwise."""
        if self.has_atom and pos == 0:
            return f"{{{format_endpoint(self.cut(0))}}}"
        k = pos - self.has_atom
        return f"({format_endpoint(self.cut(k))}, {format_endpoint(self.cut(k + 1))}]"

    def widths(self) -> np.ndarray:
        if self.cuts is not None:
            pts = self.cuts
            return np.array([0.0] * self.has_atom + [float(r - l) for l, r in zip(pts, pts[1:])])
        out = np.full(len(self), float(self._grid[1]))
        out[:self.has_atom] = 0.0
        return out

    def cut_points(self) -> list[Endpoint]:
        """All endpoints left to right (domain ends included)."""
        if self.cuts is not None:
            return list(self.cuts)
        left, step = self._grid
        return [left + i * step for i in range((1 << self.level) + 1)]

    def edges(self) -> np.ndarray:
        """`cut_points` as floats, each the correctly rounded exact value."""
        return np.array([float(e) for e in self.cut_points()])

    def labels(self) -> list[str]:
        """Cell labels in cell order, read off the positions without
        building the cells."""
        atom = ["{left}"] if self.has_atom else []
        return atom + [node_label(self.level, pos) for pos in range(self._intervals)]

    def position_of(self, x) -> int:
        """Position of the cell containing x, right endpoints included; exact,
        as Python compares Fraction, int, float and ±inf exactly."""
        if not self.domain.contains(x):
            raise ValidationError(
                "partition/domain",
                f"x={x!r} is not in the domain {self.domain.describe()}",
            )
        if self.has_atom and x == self.domain.left:
            return 0
        if self.cuts is None:
            left, step = self._grid
            return self.has_atom + math.ceil((Fraction(x) - left) / step) - 1
        return self.has_atom + bisect.bisect_left(self.cuts, x, 1) - 1


def refine_map(coarse: Partition, fine: Partition) -> np.ndarray:
    """Start position in `fine` of each coarse cell, as an `np.intp` array:
    every coarse cell covers a run of fine cells, so the starts serve
    np.add.reduceat-style projection (`histograms.project_values`).

    Both partitions tile the same domain, so every interior coarse cut point
    must be a fine one, and the next coarse cell starts right after the fine
    cell ending there.  A cut point that is not raises a validation error
    naming the fine cell that straddles it, so broken inputs fail loudly
    instead of producing silently misaligned projections.
    """
    if coarse.domain != fine.domain:
        raise ValidationError("refinement/domain", "partitions live on different domains")
    if coarse.kind == fine.kind == "dyadic" and coarse.level <= fine.level:
        starts = np.arange(1 << coarse.level, dtype=np.intp) << (fine.level - coarse.level)
        if coarse.has_atom:
            starts = np.concatenate([np.zeros(1, dtype=np.intp), starts + 1])
        return starts
    starts = [0] * coarse.has_atom + [fine.has_atom]
    for cut in coarse.cut_points()[1:-1]:
        pos = fine.position_of(cut)
        if fine.cut(pos + 1 - fine.has_atom) != cut:
            raise ValidationError(
                "refinement/straddle",
                f"fine cell {fine.describe_cell(pos)} straddles the coarse boundary at {format_endpoint(cut)}",
            )
        starts.append(pos + 1)
    return np.array(starts, dtype=np.intp)


@dataclass(frozen=True)
class PartitionChain:
    """Partitions of one domain at levels 0..depth, each refining the last."""

    partitions: tuple[Partition, ...]

    def __post_init__(self):
        if not self.partitions:
            raise ValidationError("chain/empty", "a chain needs at least level 0")

    def __len__(self) -> int:
        return len(self.partitions)

    def __getitem__(self, level: int) -> Partition:
        return self.partitions[level]

    @property
    def depth(self) -> int:
        return len(self.partitions) - 1

    @property
    def domain(self) -> Domain:
        return self.partitions[0].domain

    @property
    def kind(self) -> str:
        return self.partitions[0].kind

    def refinement(self, coarse_level: int, fine_level: int) -> np.ndarray:
        if not 0 <= coarse_level <= fine_level <= self.depth:
            raise ValidationError(
                "chain/levels",
                f"need 0 <= coarse {coarse_level} <= fine {fine_level} <= depth {self.depth}",
            )
        return refine_map(self.partitions[coarse_level], self.partitions[fine_level])

    def to_json(self) -> dict:
        return {
            "domain": self.domain.to_json(),
            "kind": self.kind,
            "levels": [[format_endpoint(e) for e in p.cut_points()] for p in self.partitions],
        }

    @staticmethod
    def from_json(obj: dict) -> "PartitionChain":
        domain = Domain.from_json(obj["domain"])
        kind = obj.get("kind", "triangular")
        if kind not in ("dyadic", "triangular"):
            raise ValidationError("chain/json", f"unknown chain kind {kind!r}; "
                                  "expected 'dyadic' or 'triangular'")
        levels = [[parse_endpoint(e) for e in row] for row in obj["levels"]]
        if not levels:
            raise ValidationError("chain/empty", "a chain needs at least level 0")
        if kind == "dyadic":
            depth = len(levels) - 1
            chain = dyadic_chain(domain, depth)
            for lvl, row in enumerate(levels):
                expect = chain[lvl].cut_points()
                if len(row) != len(expect) or any(a != b for a, b in zip(row, expect)):
                    raise ValidationError(
                        "chain/reload",
                        f"level {lvl} endpoints do not match an equal dyadic refinement",
                    )
            return chain
        ends = [domain.left, domain.right]
        for lvl, row in enumerate(levels):  # level 0 is the ends alone
            if (row if lvl == 0 else row[:1] + row[-1:]) != ends:
                what = "start and end at" if lvl else "be"
                raise ValidationError("chain/reload", f"level {lvl} must {what} the domain's "
                                      f"ends {', '.join(map(format_endpoint, ends))}")
        rows = [[float(e) for e in row[1:-1]] for row in levels[1:]]
        return triangular_chain(rows, domain=domain)


def dyadic_chain(domain: Domain | None = None, depth: int = 0) -> PartitionChain:
    """Equal binary refinement of a bounded rational interval.

    Level m has 2^m interval cells with exact Fraction endpoints; a
    left-closed domain additionally carries the singleton {left} at every
    level (its mass is specified separately by the samplers).  Levels are
    implicit: building the chain is O(depth).
    """
    if domain is None:
        domain = Domain.unit()
    if not domain.bounded:
        raise ValidationError("partition/unbounded", "equal dyadic refinement needs a bounded domain")
    check_depth_capacity(depth)
    if depth < 0:
        raise ValidationError("partition/depth", f"depth must be >= 0, got {depth}")
    if Fraction(domain.right) <= Fraction(domain.left):
        raise ValidationError("partition/domain", f"empty domain {domain.describe()}")
    return PartitionChain(tuple(Partition(domain, m) for m in range(depth + 1)))


def triangular_chain(rows: Sequence[Sequence[float]], domain: Domain | None = None) -> PartitionChain:
    """Chain over the real line from nested rows of cut points.

    Row n (1-based) must hold 2^n - 1 strictly increasing floats strictly
    inside the domain, whose even positions repeat row n-1; the first
    violation is reported by its (row, position) pair, 1-based.  Strictness
    is exact, so duplicated cut points fail instead of creating empty cells.
    """
    if domain is None:
        domain = Domain.real_line()
    if domain.closed_left:
        raise ValidationError("partition/unsupported-domain",
                              "nested-row chains support open-left domains only")
    if not domain.left < domain.right:
        raise ValidationError("partition/domain", f"empty domain {domain.describe()}")
    check_depth_capacity(len(rows))
    # a cut lies strictly inside the domain; a float is inside an exact end
    # exactly when it is inside that end's float, except when it equals it,
    # and that one value is compared exactly
    left, right = float(domain.left), float(domain.right)
    parsed: list[list[float]] = []
    prev = None
    for n, row in enumerate(rows, start=1):
        row = [float(v) for v in row]
        if len(row) != (1 << n) - 1:
            raise ValidationError(
                "partition/row-length",
                f"row {n} has {len(row)} points, expected {(1 << n) - 1}",
            )
        q = np.array(row)
        finite = np.isfinite(q)
        inside = (left < q) & (q < right)
        for end in {left, right}:
            inside[q == end] = domain.left < end < domain.right
        bad = np.flatnonzero(~(finite & inside))
        if len(bad):
            m = int(bad[0]) + 1
            if not finite[m - 1]:
                raise ValidationError("partition/ordering", f"q[{n}][{m}]={row[m - 1]!r} is not finite")
            raise ValidationError(
                "partition/domain",
                f"q[{n}][{m}]={row[m - 1]!r} lies outside the domain {domain.describe()}",
            )
        bad = np.flatnonzero(~(q[:-1] < q[1:]))
        if len(bad):
            m = int(bad[0]) + 1
            raise ValidationError(
                "partition/ordering",
                f"row {n} is not strictly increasing at (n, m)=({n}, {m + 1}): "
                f"q[{n}][{m + 1}]={row[m]!r} <= q[{n}][{m}]={row[m - 1]!r}",
            )
        if prev is not None:
            bad = np.flatnonzero(q[1::2] != prev)
            if len(bad):
                m = int(bad[0]) + 1
                raise ValidationError(
                    "partition/nesting",
                    f"nesting violated at (n, m)=({n}, {2 * m}): "
                    f"q[{n}][{2 * m}]={row[2 * m - 1]!r} != q[{n - 1}][{m}]={parsed[-1][m - 1]!r}",
                )
        parsed.append(row)
        prev = q
    lo, hi = domain.left, domain.right
    return PartitionChain(tuple(Partition(domain, n, (lo, *row, hi))
                                for n, row in enumerate([[]] + parsed)))


def chain_from_json_text(text: str) -> PartitionChain:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValidationError("chain/json", f"invalid chain JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ValidationError("chain/json",
                              f"a chain is a JSON object, got {type(obj).__name__}")
    try:
        return PartitionChain.from_json(obj)
    except KeyError as e:
        raise ValidationError("chain/json",
                              f"chain JSON is missing the {e.args[0]!r} field") from None
    except (TypeError, AttributeError) as e:
        raise ValidationError("chain/json", f"malformed chain JSON: {e}") from None
