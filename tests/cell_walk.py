"""Cell-object reference forms for the tests.

A level of a partition is its domain, its level and its cut points, and the
package reads positions off them.  These oracles build the cells the way
every level used to be built, one `Cell` per position with exact
endpoints, and walk them: `Cell` below is the class the package kept
before it read positions, copied unchanged.
"""

import math
from dataclasses import dataclass

from histolim.errors import ValidationError
from histolim.partitions import CellIndex, Endpoint, format_endpoint


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
