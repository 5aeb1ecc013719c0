"""Cell-object and bit-address reference forms for the tests.

A level of a partition is its domain, its level and its cut points, and the
package reads positions off them.  These oracles build the cells the way
every level used to be built, one `Cell` per position with exact
endpoints, and walk them: `Cell` below is the class the package kept
before it read positions, copied unchanged.

A cell or tree node is addressed by the integers (level, pos).  Before
that, it was addressed by a bit string: `CellIndex`, `dyadic_cell_bounds`
and `cantor_midpoint` below are the package's bit-address forms, copied
unchanged, and `oracle_pair` is every splitting rule's `pair` as it was
computed from a `CellIndex`.

A refinement is the start position, among the fine cells, of each coarse
cell.  `refine_map` once gave two levels of a dyadic chain, coarse at or
above fine, their starts by shifting positions instead of matching cut
points: `dyadic_refinement_starts` below is that branch, copied unchanged.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from histolim.errors import ValidationError
from histolim.partitions import Domain, Endpoint, format_endpoint
from histolim.systems import CantorTrigRule, DirichletMatchRule, HomogeneousRule, TableRule


@dataclass(frozen=True)
class CellIndex:
    """Binary refinement address.  Interval cells satisfy level == len(bits);
    the singleton cell of a left-closed domain keeps empty bits at every
    level and is marked with `atom=True`."""

    bits: tuple[int, ...]
    level: int
    atom: bool = False

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValidationError("partition/bits", f"bits must be 0/1, got {self.bits}")
        if self.atom and self.bits:
            raise ValidationError("partition/bits", "singleton cells carry no bits")
        if not self.atom and self.level != len(self.bits):
            raise ValidationError(
                "partition/bits",
                f"interval cell level {self.level} != len(bits) {len(self.bits)}",
            )

    @classmethod
    def at(cls, position: int, level: int) -> "CellIndex":
        """Address of interval cell `position` (0-based, left to right) of
        a binary level."""
        return cls(tuple((position >> (level - 1 - k)) & 1 for k in range(level)), level)

    @property
    def position(self) -> int:
        """Inverse of `at`: the interval cell's position in its level."""
        return sum(b << (self.level - 1 - k) for k, b in enumerate(self.bits))

    def label(self) -> str:
        if self.atom:
            return "{left}"
        return "".join(str(b) for b in self.bits) if self.bits else "()"


def dyadic_cell_bounds(bits: Sequence[int], domain: Domain | None = None) -> tuple[Fraction, Fraction]:
    """Exact endpoints of the dyadic cell addressed by a bit string."""
    if domain is None:
        domain = Domain.unit()
    left = Fraction(domain.left)
    h = (Fraction(domain.right) - left) / (1 << len(bits))
    i = CellIndex(tuple(bits), len(bits)).position
    return left + i * h, left + (i + 1) * h


def cantor_midpoint(bits: Sequence[int]) -> Fraction:
    """Exact mid-point of the middle-thirds interval addressed by `bits`.

    The empty address gives 1/2; extending by 0 or 1 descends into the left
    or right surviving third.  Along all-zeros the value is (1/2) 3^-m, and
    mirror symmetry gives x(all ones) = 1 - x(all zeros).
    """
    x = Fraction(0)
    for l, b in enumerate(bits, start=1):
        if b not in (0, 1):
            raise ValidationError("partition/bits", f"bits must be 0/1, got {bits!r}")
        if b:
            x += Fraction(2, 3**l)
    return x + Fraction(1, 2 * 3 ** len(bits))


def oracle_pair(rule, node: CellIndex) -> tuple[float, float]:
    """`rule.pair` of the node at bit address `node`, computed the way each
    rule computed it from the bits."""
    if isinstance(rule, HomogeneousRule):
        b = rule.level_parameter(node.level + 1)
        return (b, b)
    if isinstance(rule, TableRule):
        got = rule.pairs.get(node.label())
        if got is None:
            got = rule.default
        if got is None:
            raise ValidationError("system/beta",
                                  f"no splitting parameters for node '{node.label()}'")
        return got
    if isinstance(rule, CantorTrigRule):
        angle = 0.5 * math.pi * float(cantor_midpoint(node.bits))
        return (math.cos(angle), math.sin(angle))
    assert isinstance(rule, DirichletMatchRule)
    b0, b1 = (rule.base.mass_of_interval(*dyadic_cell_bounds(node.bits + (b,))) for b in (0, 1))
    if b0 <= 0 or b1 <= 0:
        raise ValidationError(
            "system/beta",
            f"base measure gives a zero-mass child at node '{node.label()}'; "
            "the matching tree needs strictly positive cell masses",
        )
    return (b0, b1)


@dataclass(frozen=True)
class Cell:
    """Half-open interval (left, right], or the singleton {left} when the
    index is an atom (then left == right)."""

    left: Endpoint
    right: Endpoint
    index: CellIndex

    @property
    def is_atom(self) -> bool:
        return self.index.atom

    @property
    def bounded(self) -> bool:
        return -math.inf < self.left and self.right < math.inf

    def width(self) -> float:
        return 0.0 if self.is_atom else float(self.right - self.left)

    def contains(self, x) -> bool:
        if self.is_atom:
            return x == self.left
        return self.left < x <= self.right

    def __repr__(self) -> str:
        if self.is_atom:
            return f"{{{format_endpoint(self.left)}}}"
        return f"({format_endpoint(self.left)}, {format_endpoint(self.right)}]"


def oracle_cells(domain, level, pts):
    """The cells a level with cut points `pts` had when every level was
    built cell by cell: the singleton of a left-closed domain, then
    (pts[k], pts[k + 1]] addressed by position."""
    atom = [Cell(pts[0], pts[0], CellIndex((), level, atom=True))] if domain.closed_left else []
    return tuple(atom + [Cell(pts[k], pts[k + 1], CellIndex.at(k, level))
                         for k in range(len(pts) - 1)])


def cells_of(partition):
    """`oracle_cells` of a partition, read off its cut points."""
    return oracle_cells(partition.domain, partition.level, partition.cut_points())


def cell_walk_boundaries(coarse_cells, fine_cells):
    """Refinement starts by walking both cell tuples side by side, the way
    `refine_map` matched every pair that was not dyadic into dyadic."""
    starts = []
    j = 0
    for big in coarse_cells:
        starts.append(j)
        if big.is_atom:
            if j >= len(fine_cells) or not fine_cells[j].is_atom or fine_cells[j].left != big.left:
                raise ValidationError(
                    "refinement/gap",
                    f"coarse singleton {big!r} has no matching fine singleton",
                )
            j += 1
            continue
        if j >= len(fine_cells) or fine_cells[j].left != big.left:
            got = fine_cells[j] if j < len(fine_cells) else None
            raise ValidationError(
                "refinement/gap",
                f"fine cells do not start coarse cell {big!r} (next fine cell: {got!r})",
            )
        while True:
            small = fine_cells[j]
            if small.right > big.right:
                raise ValidationError(
                    "refinement/straddle",
                    f"fine cell {small!r} straddles the coarse boundary at {format_endpoint(big.right)}",
                )
            j += 1
            if small.right == big.right:
                break
            if j >= len(fine_cells):
                raise ValidationError(
                    "refinement/gap",
                    f"fine cells stop before the end of coarse cell {big!r}",
                )
    if j != len(fine_cells):
        raise ValidationError("refinement/gap", "fine partition has cells beyond the coarse cover")
    return starts


def dyadic_refinement_starts(coarse, fine):
    """Refinement starts of dyadic level `coarse` among the cells of dyadic
    level `fine` >= `coarse.level`: every coarse cell spans 2^(fine - coarse)
    fine cells, after the singleton of a left-closed domain."""
    starts = np.arange(1 << coarse.level, dtype=np.intp) << (fine.level - coarse.level)
    if coarse.has_atom:
        starts = np.concatenate([np.zeros(1, dtype=np.intp), starts + 1])
    return starts
