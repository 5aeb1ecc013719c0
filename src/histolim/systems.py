"""Model families for coherent random-histogram systems.

Three generative families are provided, each parametrized by closed-form
data so that cell means and second moments are computable exactly:

* `DirichletSystem` — a nonnegative base measure assigns a concentration
  to every cell; the histogram is a vector of independent Gamma draws
  normalized by their sum (a zero concentration forces an exact zero).
* `PolyaTreeSystem` — a binary mass-splitting tree: each node splits its
  mass between its two children by an independent Beta draw whose pair of
  parameters comes from a deterministic rule on node labels.  Infinite
  parameters short-circuit the draw to the point masses at 1, 0, or 1/2.
* `GaussianSystem` — a multivariate normal histogram with a closed-form
  centre per cell and a covariance assembled from one of five variants
  (diagonal, constant, point-mass, integral kernel, regularized
  distance kernel).

`LeakageSystem` is the deterministic counterexample family: it pins a
fixed fraction of mass in the two unbounded end cells of a triangular
partition chain at every depth, so the escaping mass can be tabulated
exactly against any candidate compact window.

Everything here is parameter handling, validation, and closed-form
moments; the actual draws live in `sampling`.
"""

from __future__ import annotations

import ast
import math
import numbers
import operator
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .errors import HistolimError, NumericError, ValidationError
from .histograms import Histogram, POSITIVE, PROBABILITY, SIGNED
from .partitions import (
    Domain,
    Partition,
    PartitionChain,
    check_depth_capacity,
    node_label,
    triangular_chain,
)

PSD_RELATIVE_TOL = 1e-10


def read_number(value, what: str, code: str, *, integer: bool = False):
    """`value` as a float, or an int when `integer`, refusing all but finite
    (and then whole) numbers: truth values are no numbers here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(code, f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(code, f"{what} must be finite, got {value!r}")
    if integer and value != int(value):
        raise ValidationError(code, f"{what} must be an integer, got {value!r}")
    return int(value) if integer else float(value)


def read_spec(obj, table: tuple):
    """`obj` read by the `from_json` of the class that its tag names, where
    `table` is (tag field, error code, {tag: class})."""
    tag, code, classes = table
    name = obj.get(tag) if isinstance(obj, dict) else None
    if not isinstance(name, str) or name not in classes:
        raise ValidationError(code, f"unknown {tag} {name!r} in {obj!r}; have {sorted(classes)}")
    return classes[name].from_json(obj)


class Record:
    """A dataclass whose JSON form is each init field by name, in its
    `_to_json` form; a record whose form differs overrides `to_json`."""

    def to_json(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self) if f.init}


class Spec(Record):
    """A record that a spec names by its tag.  Its JSON form is the tag, then
    its record form with the None fields left out, a nested spec read by the
    tag table in its field's metadata; classes whose form differs override
    `from_json` and `to_json`."""

    @classmethod
    def from_json(cls, obj: dict):
        """The fields that `obj` names, the others at their defaults
        (KeyError if there is none)."""
        args = {}
        for f in fields(cls):
            if f.init and (f.name in obj or f.default is f.default_factory is MISSING):
                table = f.metadata.get("table")
                args[f.name] = obj[f.name] if table is None else read_spec(obj[f.name], table)
        return cls(**args)

    def to_json(self) -> dict:
        tag, name = _TAGS[type(self)]
        return {tag: name, **{k: v for k, v in super().to_json().items() if v is not None}}


def _to_json(value):
    """A field's JSON form: a record's own, an array's `tolist()`, tuples and
    lists item by item, and a dict's values in their JSON forms."""
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return {k: _to_json(v) for k, v in value.items()} if isinstance(value, dict) else value


# ---------------------------------------------------------------------------
# base measures (used as Dirichlet concentrations, Gaussian centres and
# diagonal variance measures)

@dataclass(frozen=True)
class LebesgueBase(Spec):
    """scale * length, on bounded cells; atoms and unbounded cells get 0."""

    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "scale", read_number(self.scale, "scale", "base/scale"))

    def cell_masses(self, partition: Partition) -> np.ndarray:
        widths = partition.widths()
        if not np.all(np.isfinite(widths)):
            raise ValidationError("base/unbounded",
                                  "length measure needs bounded cells")
        return self.scale * widths

    def mass_of_interval(self, left: Fraction, right: Fraction) -> float:
        return self.scale * float(right - left)

    def total(self, domain: Domain) -> float:
        width = float(domain.right) - float(domain.left)
        if not math.isfinite(width):
            raise ValidationError("base/unbounded", "length measure needs a bounded domain")
        return self.scale * width


@dataclass(frozen=True)
class AtomicBase(Spec):
    """Finitely many weighted point masses."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(read_number(p, "atom points", "base/atoms")
                                                 for p in self.points))
        object.__setattr__(self, "weights", tuple(read_number(w, "atom weights", "base/atoms")
                                                  for w in self.weights))
        if len(self.points) != len(self.weights) or not self.points:
            raise ValidationError("base/atoms", "need equally many points and weights, at least one")
        if any(w < 0 for w in self.weights):
            raise ValidationError("base/atoms", "atom weights must be finite and >= 0")

    def cell_masses(self, partition: Partition) -> np.ndarray:
        out = np.zeros(len(partition))
        for x, w in zip(self.points, self.weights):
            out[partition.position_of(x)] += w
        return out

    def mass_of_interval(self, left: Fraction, right: Fraction) -> float:
        # compared exactly, and summed in order, as `cell_masses` places them
        return sum(w for x, w in zip(self.points, self.weights) if left < x <= right)

    def total(self, domain: Domain) -> float:
        for x in self.points:
            if not domain.contains(x):
                raise ValidationError("base/atoms", f"atom at {x} lies outside the domain")
        return float(sum(self.weights))


BaseMeasure = Union[LebesgueBase, AtomicBase]
BASE_MEASURES = ("type", "base/json", {"lebesgue": LebesgueBase, "atoms": AtomicBase})


class Family(Spec):
    """What a family may override; each defines `kind`, `completely_random` and `mean`."""

    def chain(self, depth: int | None = None) -> PartitionChain | None:
        """The family's own chain, reaching at least level `depth` where it
        can (None: all its levels); None lets a command build a dyadic one."""
        return None

    def reference(self, partition: Partition) -> Histogram:
        """The reference measure of the domination curves."""
        return self.mean(partition)


# ---------------------------------------------------------------------------
# Dirichlet systems

@dataclass(frozen=True)
class DirichletSystem(Family):
    base: BaseMeasure = field(metadata={"table": BASE_MEASURES})

    kind = PROBABILITY
    completely_random = True

    def concentrations(self, partition: Partition) -> np.ndarray:
        nu = self.base.cell_masses(partition)
        if np.any(nu < 0):
            raise ValidationError("system/negative-base", "base measure must be nonnegative")
        if nu.sum() <= 0:
            raise ValidationError("system/degenerate", "base measure has total mass zero")
        return nu

    def mean(self, partition: Partition) -> Histogram:
        nu = self.concentrations(partition)
        return Histogram(partition, nu / nu.sum(), PROBABILITY)


# ---------------------------------------------------------------------------
# Polya tree systems

def _check_beta_pair(pair, label: str) -> tuple[float, float]:
    what = f"splitting parameters at node '{label}'"
    pair = tuple(math.inf if b in ("inf", math.inf) else read_number(b, what, "system/beta")
                 for b in pair)
    if len(pair) != 2 or min(pair) <= 0:
        raise ValidationError("system/beta", f"{what} must be a pair in (0, inf], got {pair}")
    return pair


#: exact integer powers with more bits than this (far beyond the float
#: range) are refused instead of computed
POWER_BIT_LIMIT = 1 << 16


def _bounded_power(base, exponent):
    if (isinstance(base, int) and isinstance(exponent, int) and exponent > 0
            and (abs(base).bit_length() - 1) * exponent > POWER_BIT_LIMIT):
        raise OverflowError(f"exact integer power exceeds {POWER_BIT_LIMIT} bits")
    return base ** exponent


_BINOPS = {ast.Add: operator.add, ast.Mult: operator.mul, ast.Pow: _bounded_power}


def _level_function(node, expr: str) -> Callable[[int], object]:
    """The function of m that a node of `expr` computes."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op, left, right = (_BINOPS[type(node.op)], _level_function(node.left, expr),
                           _level_function(node.right, expr))
        return lambda m: op(left(m), right(m))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _level_function(node.operand, expr)
        return lambda m: -operand(m)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):  # not bool
        value = node.value
        return lambda m: value
    if isinstance(node, ast.Name) and node.id == "m":
        return lambda m: m
    raise ValidationError(
        "system/beta-expression",
        f"{expr!r}: only numbers, 'm', '+', '*', '^' and unary '-' are allowed",
    )


def _compile_level_expression(expr: str) -> Callable[[int], float]:
    """Compile an expression in the level variable m; allows numbers, m,
    +, *, ^ (power) and unary minus.  Operands are evaluated left to right
    with Python's own operators, except that an exact integer power beyond
    `POWER_BIT_LIMIT` bits fails instead of running for minutes."""
    source = expr.replace("^", "**")

    def too_deep() -> ValidationError:
        return ValidationError("system/beta-expression",
                               f"{expr!r} is nested too deeply to evaluate")

    try:
        compiled = _level_function(ast.parse(source, mode="eval").body, expr)
    except SyntaxError as exc:
        raise ValidationError("system/beta-expression", f"cannot parse {expr!r}: {exc}") from None
    except (RecursionError, MemoryError):  # the parser's or the compiler's stack overflows
        raise too_deep() from None

    def evaluate(m: int) -> float:
        try:
            # float() rejects complex results with a TypeError
            return float(compiled(m))
        except (ArithmeticError, TypeError) as exc:
            raise ValidationError("system/beta-expression",
                                  f"{expr!r} gives no real number at m={m}: {exc}") from None
        except RecursionError:
            raise too_deep() from None

    return evaluate


@dataclass(frozen=True)
class HomogeneousRule(Spec):
    """One parameter per level: both children of every level-(m-1) node
    split with the same Beta parameter, given by an expression in m."""

    expr: str
    _evaluate: Callable[[int], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "expr", str(self.expr))
        object.__setattr__(self, "_evaluate", _compile_level_expression(self.expr))
        self.level_parameter(1)  # fail fast on a bad expression

    completely_random = False

    def level_parameter(self, m: int) -> float:
        value = self._evaluate(m)
        if math.isnan(value) or value <= 0:
            raise ValidationError("system/beta",
                                  f"expression {self.expr!r} gives non-positive value {value} at m={m}")
        return value

    def pair(self, level: int, pos: int) -> tuple[float, float]:
        b = self.level_parameter(level + 1)
        return (b, b)

    def level_pairs(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        b = np.full(1 << (level - 1), self.level_parameter(level))
        return b, b.copy()


@dataclass(frozen=True)
class TableRule(Spec):
    """Explicit per-node splitting parameters, keyed by node label."""

    pairs: dict
    default: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "pairs", {str(label): _check_beta_pair(pair, str(label))
                                           for label, pair in dict(self.pairs).items()})
        if self.default is not None:
            object.__setattr__(self, "default", _check_beta_pair(self.default, "<default>"))

    completely_random = False

    def pair(self, level: int, pos: int) -> tuple[float, float]:
        label = node_label(level, pos)
        got = self.pairs.get(label, self.default)
        if got is None:
            raise ValidationError("system/beta",
                                  f"no splitting parameters for node '{label}'")
        return got

    def level_pairs(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        width = level - 1
        a = np.empty(1 << width)
        b = np.empty(1 << width)
        for i in range(1 << width):
            a[i], b[i] = self.pair(width, i)
        return a, b


@dataclass(frozen=True)
class CantorTrigRule(Spec):
    """Splitting parameters (cos, sin) of half-pi times the Cantor
    midpoint of the node label; both lie in (0, 1) and their squares
    sum to one."""

    completely_random = False

    def pair(self, level: int, pos: int) -> tuple[float, float]:
        # the midpoint is N / (2 * 3^level): N = 1 at the root, and 3N - 2 and
        # 3N + 2 at the children of N; an int / int division rounds correctly
        num = 1
        for k in reversed(range(level)):
            num = 3 * num + (2 if pos >> k & 1 else -2)
        angle = 0.5 * math.pi * (num / (2 * 3**level))
        return (math.cos(angle), math.sin(angle))

    def level_pairs(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        # the recurrence of `pair`, a level at a time.  N < 2^53, so the
        # float division is the correctly rounded one of `pair`.
        width = level - 1
        num = np.ones(1, dtype=np.int64)
        for _ in range(width):
            num = np.stack([3 * num - 2, 3 * num + 2], axis=1).reshape(-1)
        angles = (0.5 * math.pi * (num / (2 * 3**width))).tolist()
        # math.cos/math.sin, as in `pair`: numpy's may differ in the last bit
        return (np.array([math.cos(t) for t in angles]),
                np.array([math.sin(t) for t in angles]))


@dataclass(frozen=True)
class DirichletMatchRule(Spec):
    """Each node's children split with parameters equal to their base-measure
    masses, so that parent parameters are the sums of child parameters and the
    tree reproduces a Dirichlet system on dyadic cells."""

    base: BaseMeasure
    domain: Domain = field(default_factory=Domain.unit)

    completely_random = True

    def __post_init__(self):
        if not self.base.total(self.domain) > 0:
            raise ValidationError("system/beta", "the matching tree needs a base of positive mass")

    def pair(self, level: int, pos: int) -> tuple[float, float]:
        cut = Partition(self.domain, "dyadic", level + 1).cut
        b0 = self.base.mass_of_interval(cut(2 * pos), cut(2 * pos + 1))
        b1 = self.base.mass_of_interval(cut(2 * pos + 1), cut(2 * pos + 2))
        if b0 <= 0 or b1 <= 0:
            raise self._zero_mass(level, pos)
        return (b0, b1)

    def level_pairs(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        partition = Partition(self.domain, "dyadic", level)
        masses = self.base.cell_masses(partition)[partition.has_atom:]
        a, b = masses[0::2], masses[1::2]
        bad = np.flatnonzero((a <= 0) | (b <= 0))
        if len(bad):
            raise self._zero_mass(level - 1, int(bad[0]))
        return a, b

    @staticmethod
    def _zero_mass(level: int, pos: int) -> ValidationError:
        return ValidationError(
            "system/beta",
            f"base measure gives a zero-mass child at node '{node_label(level, pos)}'; "
            "the matching tree needs strictly positive cell masses",
        )

    @classmethod
    def from_json(cls, obj: dict) -> DirichletMatchRule:  # on the unit domain
        return cls(read_spec(obj["base"], BASE_MEASURES))

    def to_json(self) -> dict:
        return {"rule": "dirichlet", "base": self.base.to_json()}


#: Each rule gives `pair(level, pos)` for the tree node addressed like cell
#: (level, pos) of a dyadic level, and `level_pairs(level)`: the (a, b) arrays
#: of the 2^(level-1) parent nodes of `level`, left to right, equal to
#: `pair(level - 1, pos)` node by node and raising the error of the first
#: failing node in level order.
BetaRule = Union[HomogeneousRule, TableRule, CantorTrigRule, DirichletMatchRule]
BETA_RULES = ("rule", "system/beta-json", {"homogeneous": HomogeneousRule, "table": TableRule,
                                           "cantor_trig": CantorTrigRule, "dirichlet": DirichletMatchRule})


def pin_infinite_splits(a: np.ndarray, b: np.ndarray, left: np.ndarray,
                        right: np.ndarray) -> np.ndarray:
    """(n, 2) array of per-node (left, right) fractions, with the point
    masses of infinite parameters in place: (inf, inf) splits 1/2 : 1/2,
    (inf, b) 1 : 0 and (a, inf) 0 : 1."""
    inf_a, inf_b = np.isinf(a), np.isinf(b)
    left = np.where(inf_a, np.where(inf_b, 0.5, 1.0), np.where(inf_b, 0.0, left))
    right = np.where(inf_b, np.where(inf_a, 0.5, 1.0), np.where(inf_a, 0.0, right))
    return np.stack([left, right], axis=1)


def split_means(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Expected (left, right) fractions of the Beta split at every node, as
    an (n, 2) array, honouring the infinite-parameter point masses."""
    total = a + b
    with np.errstate(all="ignore"):  # infinite nodes are pinned below
        return pin_infinite_splits(a, b, a / total, b / total)


@dataclass(frozen=True)
class PolyaTreeSystem(Family):
    rule: BetaRule
    p0: float = 0.0  # mass pinned on the zero singleton for [0,1] domains

    kind = PROBABILITY

    def __post_init__(self):
        object.__setattr__(self, "p0", read_number(self.p0, "p0", "system/json"))
        if not (0.0 <= self.p0 < 1.0):
            raise ValidationError("system/p0", f"singleton mass must be in [0,1), got {self.p0}")

    @property
    def completely_random(self) -> bool:
        return self.rule.completely_random

    def check_atom_cell(self, partition: Partition, level: int) -> None:
        """A singleton mass p0 > 0 needs the zero atom cell in `partition`."""
        if self.p0 > 0.0 and not partition.has_atom:
            raise ValidationError(
                "sampling/atom-mass",
                f"p0={self.p0} needs a zero atom cell, absent at level {level}",
            )

    def mean(self, partition: Partition) -> Histogram:
        """Cell means level by level: each parent's mass times its expected
        split fractions, so a cell's mean is the product of the expected
        fractions along its address."""
        self.check_atom_cell(partition, partition.level)
        mass = np.ones(1)
        for level in range(1, partition.level + 1):
            splits = split_means(*self.rule.level_pairs(level))
            mass = (mass[:, None] * splits).reshape(-1)
        values = mass * (1.0 - self.p0)
        if partition.has_atom:
            values = np.concatenate([[self.p0], values])
        return Histogram(partition, values, PROBABILITY)

    @classmethod
    def from_json(cls, obj: dict) -> PolyaTreeSystem:
        return cls(read_spec(obj["beta"], BETA_RULES), obj.get("p0", 0.0))

    def to_json(self) -> dict:
        out = {"family": "polya", "beta": self.rule.to_json()}
        if self.p0:
            out["p0"] = self.p0
        return out


# ---------------------------------------------------------------------------
# Gaussian systems

class Covariance(Spec):
    """A covariance variant: each defines `cell_matrix(partition)`, the cell-pair
    matrix that `assemble_sigma` symmetrises and checks.  The other readings
    come from that checked matrix, unless a variant has them in closed form."""

    is_diagonal = False  # whether distinct cells never covary
    quadrature = False  # whether `cell_matrix` integrates a kernel per cell pair

    def variances(self, partition: Partition) -> np.ndarray:
        return np.diag(assemble_sigma(self, partition))

    def factor(self, partition: Partition) -> np.ndarray:
        """F with F F^T = Sigma, columns ordered by decreasing variance: `eigh`
        of the checked matrix, keeping its positive eigenvalues only."""
        eigvals, eigvecs = np.linalg.eigh(assemble_sigma(self, partition))
        order = np.argsort(eigvals)[::-1]
        eigvals = np.clip(eigvals[order], 0.0, None)
        keep = eigvals > 0
        return eigvecs[:, order][:, keep] * np.sqrt(eigvals[keep])[None, :]

    def scales(self, partition: Partition) -> np.ndarray | None:
        """The diagonal of `factor` when that is a square diagonal matrix, else None."""
        return None

    def spectrum(self, partition: Partition) -> tuple[np.ndarray, float]:
        """(cell variances, top eigenvalue), the latter from the checked matrix
        unless the variant is diagonal: then it is the largest variance."""
        if self.is_diagonal:
            diag = self.variances(partition)
            return diag, float(diag.max())
        sigma, eigs = assemble_sigma(self, partition, spectrum=True)
        return np.diag(sigma), float(eigs[-1])


@dataclass(frozen=True)
class DiagonalCovariance(Covariance):
    sigma2: BaseMeasure = field(metadata={"table": BASE_MEASURES})

    is_diagonal = True

    def __post_init__(self):
        if isinstance(self.sigma2, LebesgueBase) and self.sigma2.scale < 0:
            raise ValidationError("covariance/diagonal",
                                  f"variance measure must be >= 0, got scale {self.sigma2.scale}")

    def cell_matrix(self, partition: Partition) -> np.ndarray:
        return np.diag(self.sigma2.cell_masses(partition))

    def variances(self, partition: Partition) -> np.ndarray:
        """The diagonal of `assemble_sigma` without the matrix: its symmetrisation
        doubles and halves each mass, so a mass of 2**1023 or more is refused here too."""
        with np.errstate(over="ignore"):
            masses = self.sigma2.cell_masses(partition)
            return _finite(0.5 * (masses + masses))

    def scales(self, partition: Partition) -> np.ndarray:
        return np.sqrt(self.sigma2.cell_masses(partition))

    def factor(self, partition: Partition) -> np.ndarray:
        return np.diag(self.scales(partition))  # one column per cell


@dataclass(frozen=True)
class ConstantCovariance(Covariance):
    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", read_number(self.c, "c", "covariance/constant"))
        if not self.c > 0:
            raise ValidationError("covariance/constant", f"need c > 0, got {self.c}")

    def cell_matrix(self, partition: Partition) -> np.ndarray:
        w = LebesgueBase().cell_masses(partition)
        return self.c * np.outer(w, w)

    def factor(self, partition: Partition) -> np.ndarray:
        return math.sqrt(self.c) * LebesgueBase().cell_masses(partition)[:, None]  # one column

    def spectrum(self, partition: Partition) -> tuple[np.ndarray, float]:
        w = LebesgueBase().cell_masses(partition)  # rank one: the one eigenvalue is c |w|^2
        return self.variances(partition), self.c * float(w @ w)


@dataclass(frozen=True)
class PointMassCovariance(Covariance):
    sites: tuple[float, ...]
    matrix: np.ndarray

    def __post_init__(self):
        code = "covariance/point-mass"
        sites = tuple(read_number(s, "sites", code) for s in self.sites)
        mat = np.array(self.matrix, dtype=float)
        if not np.isfinite(mat).all():
            raise ValidationError(code, "site matrix entries must be finite")
        n = len(sites)
        if mat.shape != (n, n):
            raise ValidationError(code, f"matrix shape {mat.shape} does not fit {n} sites")
        for row in self.matrix:  # truth values and strings pass `np.array` as numbers
            tuple(read_number(entry, "site matrix entries", code) for entry in row)
        if not np.allclose(mat, mat.T, atol=1e-12):
            raise ValidationError(code, "site matrix must be symmetric")
        eigs = np.linalg.eigvalsh(mat)
        top = max(float(eigs.max()), 0.0)
        if eigs.min() < -PSD_RELATIVE_TOL * max(top, 1.0):
            raise ValidationError(code, f"site matrix has negative eigenvalue {eigs.min():.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "matrix", mat)

    @property
    def is_diagonal(self) -> bool:
        return not np.any(self.matrix - np.diag(np.diag(self.matrix)))

    def cell_matrix(self, partition: Partition) -> np.ndarray:
        sigma = np.zeros((len(partition), len(partition)))
        rows = [partition.position_of(s) for s in self.sites]
        np.add.at(sigma, np.ix_(rows, rows), self.matrix)  # site pairs in row order
        return sigma


_NAMED_KERNELS = {
    "constant": lambda p: (lambda x, y: p.get("c", 1.0)),
    "gaussian": lambda p: (lambda x, y: p.get("scale", 1.0)
                           * math.exp(-0.5 * ((x - y) / p.get("length", 1.0)) ** 2)),
    "exponential": lambda p: (lambda x, y: p.get("scale", 1.0)
                              * math.exp(-abs(x - y) / p.get("length", 1.0))),
}


#: the largest Gauss-Legendre order: numpy tests `leggauss` up to 100, and
#: an order-n rule takes the eigenvalues of an n x n matrix
MAX_QUADRATURE_ORDER = 100


def _quadrature_order(order, code: str) -> int:
    order = read_number(order, "quadrature order", code, integer=True)
    if not 1 <= order <= MAX_QUADRATURE_ORDER:
        raise ValidationError(code, f"quadrature order must be in 1..{MAX_QUADRATURE_ORDER}, "
                                    f"got {order}")
    return order


@dataclass(frozen=True)
class KernelCovariance(Covariance):
    name: str
    params: dict = field(default_factory=dict)
    order: int = 8

    quadrature = True

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        if not isinstance(self.name, str) or self.name not in _NAMED_KERNELS:
            raise ValidationError("covariance/kernel",
                                  f"unknown kernel {self.name!r}; have {sorted(_NAMED_KERNELS)}")
        object.__setattr__(self, "order", _quadrature_order(self.order, "covariance/kernel"))
        length = self.params.get("length", 1.0)
        if self.name != "constant" and isinstance(length, (int, float)) and not 0 < length < math.inf:
            raise ValidationError("covariance/kernel",
                                  f"kernel length must be finite and positive, got {length!r}")
        for key in ("c", "length", "scale"):  # kept as given, for `to_json`; a zero scale
            if key in self.params:           # is the zero covariance
                read_number(self.params[key], f"kernel {key}", "covariance/kernel")
        # every named kernel reads x - y (exactly -(y - x)) through a square or
        # `abs`, so it is symmetric; this call refuses, on load, a length so
        # short that the Gaussian kernel's square overflows at the gap 0.65
        self.kernel()(0.25, 0.9)

    def kernel(self) -> Callable[[float, float], float]:
        return _NAMED_KERNELS[self.name](self.params)

    def cell_matrix(self, partition: Partition) -> np.ndarray:
        return _quadrature_matrix(self.kernel(), partition, self.order)


@dataclass(frozen=True)
class GreensCovariance(Covariance):
    """Distance-based kernels per spatial dimension, regularized near the
    diagonal by a length cutoff; dimension one takes an affine-in-each-
    variable correction (c0 + c1*(x+y) + c2*x*y) added to -|x-y|."""

    dimension: int
    uv_cutoff: float = 1e-2
    affine: tuple[float, float, float] = (0.0, 1.0, -2.0)
    order: int = 8

    quadrature = True

    def __post_init__(self):
        code = "covariance/greens"
        object.__setattr__(self, "dimension",
                           read_number(self.dimension, "dimension", code, integer=True))
        object.__setattr__(self, "uv_cutoff", read_number(self.uv_cutoff, "cutoff", code))
        object.__setattr__(self, "affine",
                           tuple(read_number(a, "affine correction", code) for a in self.affine))
        object.__setattr__(self, "order", _quadrature_order(self.order, code))
        if self.dimension not in (1, 2, 3):
            raise ValidationError(code, f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.dimension >= 2 and not (self.uv_cutoff > 0):
            raise ValidationError(code, f"cutoff must be > 0, got {self.uv_cutoff}")
        if len(self.affine) != 3:
            raise ValidationError(code, f"affine correction needs 3 coefficients, got {self.affine}")

    def kernel(self) -> Callable[[float, float], float]:
        if self.dimension == 1:
            c0, c1, c2 = self.affine
            return lambda x, y: -abs(x - y) + c0 + c1 * (x + y) + c2 * x * y
        eps = self.uv_cutoff
        if self.dimension == 2:
            return lambda x, y: -math.log(abs(x - y) + eps)
        return lambda x, y: 1.0 / (abs(x - y) + eps)

    def cell_matrix(self, partition: Partition) -> np.ndarray:
        return _quadrature_matrix(self.kernel(), partition, self.order)


COVARIANCES = ("variant", "covariance/json", {
    "diagonal": DiagonalCovariance, "constant": ConstantCovariance,
    "point_mass": PointMassCovariance, "kernel": KernelCovariance, "greens": GreensCovariance})


def _quadrature_matrix(kernel: Callable[[float, float], float],
                       partition: Partition, order: int) -> np.ndarray:
    """Tensor Gauss-Legendre integral of the kernel over every cell pair.
    Atom cells contribute zero rows/columns (their product area is null)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = partition.edges()
    if not np.all(np.isfinite(edges)):
        raise ValidationError("covariance/unbounded",
                              "integral covariances need bounded cells")
    centers = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    # per-cell quadrature points (cells, order) and scaled weights
    pts = centers[:, None] + halves[:, None] * nodes[None, :]
    wts = halves[:, None] * weights[None, :]
    k = len(centers)
    kmat = np.empty((k, k))
    for i in range(k):
        # the kernel at every point pair of cell i and cells i..k-1, in one pass
        xs = np.tile(np.repeat(pts[i], order), k - i)
        ys = np.tile(pts[i:], (1, order)).reshape(-1)
        vals = np.fromiter(map(kernel, xs.tolist(), ys.tolist()), float,
                           len(xs)).reshape(k - i, order, order)
        for j in range(i, k):
            kmat[i, j] = kmat[j, i] = float(wts[i] @ vals[j - i] @ wts[j])
    if not partition.has_atom:
        return kmat
    out = np.zeros((len(partition), len(partition)))
    out[1:, 1:] = kmat
    return out


def _finite(sigma: np.ndarray) -> np.ndarray:
    """`sigma`, refused unless every entry is finite."""
    if not np.isfinite(sigma).all():
        raise NumericError("covariance/not-finite",
                           "assembled covariance has entries that are inf or nan")
    return sigma


def assemble_sigma(spec: Covariance, partition: Partition, *,
                   spectrum: bool = False):
    """Cell-pair covariance matrix of the given spec on the partition: its
    `cell_matrix`, symmetrised.

    The assembled matrix is validated: entries that are not finite, and
    eigenvalues below -1e-10 * (largest eigenvalue), raise a numeric error.
    With ``spectrum=True`` the result is ``(matrix, eigenvalues)``, the
    ascending spectrum that check computed.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused as not finite
        sigma = spec.cell_matrix(partition)
        sigma = _finite(0.5 * (sigma + sigma.T))  # else eigvalsh would not converge
    eigs = np.linalg.eigvalsh(sigma)
    top = max(float(eigs.max()), 0.0)
    if float(eigs.min()) < -PSD_RELATIVE_TOL * max(top, 1.0):
        raise NumericError(
            "covariance/not-psd",
            f"assembled covariance has eigenvalue {float(eigs.min()):.6e} "
            f"below -{PSD_RELATIVE_TOL:g} * {max(top, 1.0):.6e}",
        )
    return (sigma, eigs) if spectrum else sigma


def sigma_factor(spec: Covariance, partition: Partition) -> np.ndarray:
    """The spec's `factor`: rank-deficient variants have theirs in closed form
    (constant: one column; diagonal: one per cell), without numerical fuzz."""
    return spec.factor(partition)


@dataclass(frozen=True)
class GaussianSystem(Family):
    covariance: Covariance
    centre: BaseMeasure | None = None  # None = centred

    kind = SIGNED

    def __post_init__(self):
        if not isinstance(self.covariance, Covariance):
            raise ValidationError("covariance/json", f"unknown covariance spec {self.covariance!r}")

    @property
    def completely_random(self) -> bool:
        return self.covariance.is_diagonal

    @property
    def centred(self) -> bool:
        return self.centre is None

    def mean(self, partition: Partition) -> Histogram:
        return self.centre_histogram(partition)

    def centre_histogram(self, partition: Partition) -> Histogram:
        if self.centre is None:
            return Histogram(partition, np.zeros(len(partition)), SIGNED)
        return Histogram(partition, self.centre.cell_masses(partition), SIGNED)

    def spread(self, partition: Partition) -> np.ndarray:
        """Per-cell sqrt(2 Sigma_ii / pi), the expected absolute cell mass of
        the centred field."""
        return np.sqrt(2.0 * self.covariance.variances(partition) / math.pi)

    def q_alpha(self, partition: Partition) -> Histogram:
        """Expected absolute cell mass, the `spread`; centred only — with a
        nonzero centre the folded-normal mean has no such form."""
        if not self.centred:
            raise ValidationError("system/not-centred",
                                  "the absolute-mean reference is defined for centred systems")
        return Histogram(partition, self.spread(partition), POSITIVE)

    def reference(self, partition: Partition) -> Histogram:
        """`q_alpha`, plus |centre| when not centred."""
        if self.centred:
            return self.q_alpha(partition)
        centre = np.abs(self.centre_histogram(partition).values)
        return Histogram(partition, centre + self.spread(partition), POSITIVE)

    @classmethod
    def from_json(cls, obj: dict) -> GaussianSystem:
        centre = obj.get("centre", "zero")
        centre = None if centre == "zero" else read_spec(centre, BASE_MEASURES)
        return cls(read_spec(obj["covariance"], COVARIANCES), centre)

    def to_json(self) -> dict:
        centre = "zero" if self.centre is None else self.centre.to_json()
        return {"family": "gaussian", "covariance": self.covariance.to_json(), "centre": centre}


# ---------------------------------------------------------------------------
# the deterministic leakage counterexample

def leakage_rows(depth: int) -> list[list[float]]:
    """Nested cut-point rows: each level pushes the outer cuts one unit
    further out and bisects every interior gap, keeping the previous row at
    the even positions.  Every cut is a dyadic rational with far fewer than
    53 significant bits, so the float arithmetic is exact."""
    rows = [np.zeros(1)]
    for _ in range(2, depth + 1):
        prev = rows[-1]
        row = np.empty(2 * len(prev) + 1)
        row[1::2] = prev
        row[2:-1:2] = (prev[:-1] + prev[1:]) / 2
        row[0], row[-1] = prev[0] - 1.0, prev[-1] + 1.0
        rows.append(row)
    return [row.tolist() for row in rows]


@dataclass(frozen=True)
class LeakageSystem(Family):
    """Deterministic coherent system that pins mass delta/2 in each unbounded
    end cell of a triangular chain at every depth, and the rest in the
    interior cell with right endpoint 0."""

    delta: float = 0.2
    depth: int = 8
    interior: bool = False  # squash onto (0,1) through the arctan chart

    kind = PROBABILITY
    completely_random = False

    def __post_init__(self):
        object.__setattr__(self, "delta", read_number(self.delta, "delta", "system/json"))
        object.__setattr__(self, "depth", read_number(self.depth, "depth", "system/json", integer=True))
        object.__setattr__(self, "interior", bool(self.interior))
        if not (0.0 <= self.delta < 1.0):
            raise ValidationError("system/delta", f"escaping mass must be in [0,1), got {self.delta}")
        if self.depth < 1:
            raise ValidationError("system/depth", f"need depth >= 1, got {self.depth}")

    def chain(self, depth: int | None = None) -> PartitionChain:
        check_depth_capacity(self.depth)  # before a row of 2^depth - 1 cuts is built
        rows = leakage_rows(self.depth if depth is None else min(depth, self.depth))
        if self.interior:
            rows = [[0.5 + math.atan(q) / math.pi for q in row] for row in rows]
            return triangular_chain(rows, Domain.unit())
        return triangular_chain(rows)

    def mean(self, partition: Partition) -> Histogram:
        """The (deterministic) histogram: delta/2 in each end cell, 1-delta
        in the cell ending at the centre cut."""
        values = np.zeros(len(partition))
        if len(partition) == 1:
            values[0] = 1.0
            return Histogram(partition, values, PROBABILITY)
        values[0] = self.delta / 2.0
        values[-1] = self.delta / 2.0
        centre = 0.5 if self.interior else 0.0
        values[partition.position_of(centre)] += 1.0 - self.delta
        return Histogram(partition, values, PROBABILITY)

    def outside_masses(self, level: int, windows) -> list[float]:
        """Deterministic mass outside each closed window [-K, K] (after the
        chart, [1/2 - K', 1/2 + K']) at `level` >= 1 of the chain, from the
        three cells that carry mass: (-inf, -(n-1)] and [n-1, inf) with
        delta/2 each, and (-2^-(n-2), 0] with 1 - delta, the left end cell at
        n = 1.  Added in cell order, they give the floats a scan of all cells does."""
        for window in windows:
            if window < 0:
                raise ValidationError("system/window", f"window must be >= 0, got {window}")
        half = self.delta / 2.0
        if level == 1:
            cells = [(-math.inf, 0.0, half + (1.0 - self.delta)), (0.0, math.inf, half)]
        else:
            end = float(level - 1)
            cells = [(-math.inf, -end, half), (-(2.0 ** (2 - level)), 0.0, 1.0 - self.delta),
                     (end, math.inf, half)]
        if self.interior:  # the chart sends -inf and inf to the domain's ends 0 and 1
            cells = [(0.5 + math.atan(left) / math.pi, 0.5 + math.atan(right) / math.pi, value)
                     for left, right, value in cells]
        masses = []
        for window in windows:
            lo, hi = (0.5 - window, 0.5 + window) if self.interior else (-window, window)
            total = 0.0
            for left, right, value in cells:
                if right <= lo or left >= hi:
                    total += value
            masses.append(total)
        return masses


HistogramSystem = Union[DirichletSystem, PolyaTreeSystem, GaussianSystem, LeakageSystem]
FAMILIES = ("family", "system/json", {"dirichlet": DirichletSystem, "polya": PolyaTreeSystem,
                                      "gaussian": GaussianSystem, "leakage": LeakageSystem})
_TAGS = {cls: (tag, name) for tag, _, classes in (BASE_MEASURES, BETA_RULES, COVARIANCES, FAMILIES)
         for name, cls in classes.items()}


def system_from_json(obj) -> HistogramSystem:
    try:
        return read_spec(obj, FAMILIES)
    except HistolimError:
        raise
    except KeyError as e:
        raise ValidationError("system/json", f"{obj['family']} system spec is missing "
                                             f"the {e.args[0]!r} field") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError("system/json",
                              f"malformed {obj['family']} system spec: {e}") from None
