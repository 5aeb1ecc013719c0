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
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .errors import HistolimError, NumericError, ValidationError
from .histograms import Histogram, POSITIVE, PROBABILITY, SIGNED
from .partitions import (
    CellIndex,
    Domain,
    Partition,
    PartitionChain,
    cantor_midpoint,
    check_depth_capacity,
    dyadic_cell_bounds,
    endpoint_to_float,
    triangular_chain,
)

PSD_RELATIVE_TOL = 1e-10


# ---------------------------------------------------------------------------
# base measures (used as Dirichlet concentrations, Gaussian centres and
# diagonal variance measures)

@dataclass(frozen=True)
class LebesgueBase:
    """scale * length, on bounded cells; atoms and unbounded cells get 0."""

    scale: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.scale):
            raise ValidationError("base/scale", f"scale must be finite, got {self.scale}")

    def cell_masses(self, partition: Partition) -> np.ndarray:
        widths = partition.widths()
        if not np.all(np.isfinite(widths)):
            raise ValidationError("base/unbounded",
                                  "length measure needs bounded cells")
        return self.scale * widths

    def mass_of_interval(self, left: Fraction, right: Fraction) -> float:
        return self.scale * float(right - left)

    def interval_masses(self, partition: Partition) -> np.ndarray:
        """`mass_of_interval` of every interval cell, left to right."""
        return self.scale * partition.widths()[partition.has_atom:]

    def total(self, domain: Domain) -> float:
        width = endpoint_to_float(domain.right) - endpoint_to_float(domain.left)
        if not math.isfinite(width):
            raise ValidationError("base/unbounded", "length measure needs a bounded domain")
        return self.scale * width

    def to_json(self) -> dict:
        return {"type": "lebesgue", "scale": self.scale}


@dataclass(frozen=True)
class AtomicBase:
    """Finitely many weighted point masses."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.weights) or not self.points:
            raise ValidationError("base/atoms", "need equally many points and weights, at least one")
        if any(w < 0 or not math.isfinite(w) for w in self.weights):
            raise ValidationError("base/atoms", "atom weights must be finite and >= 0")
        object.__setattr__(self, "points", tuple(float(p) for p in self.points))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    def cell_masses(self, partition: Partition) -> np.ndarray:
        out = np.zeros(len(partition))
        for x, w in zip(self.points, self.weights):
            out[partition.position_of(x)] += w
        return out

    def mass_of_interval(self, left: Fraction, right: Fraction) -> float:
        lo, hi = float(left), float(right)
        return sum(w for x, w in zip(self.points, self.weights) if lo < x <= hi)

    def interval_masses(self, partition: Partition) -> np.ndarray:
        """`mass_of_interval` of every interval cell, left to right (the
        same float comparisons, summed in the same order)."""
        edges = partition.edges()
        lo, hi = edges[:-1], edges[1:]
        out = np.zeros(len(lo))
        for x, w in zip(self.points, self.weights):
            out[(lo < x) & (x <= hi)] += w
        return out

    def total(self, domain: Domain) -> float:
        for x in self.points:
            if not domain.contains(x):
                raise ValidationError("base/atoms", f"atom at {x} lies outside the domain")
        return float(sum(self.weights))

    def to_json(self) -> dict:
        return {"type": "atoms", "points": list(self.points), "weights": list(self.weights)}


BaseMeasure = Union[LebesgueBase, AtomicBase]


def base_measure_from_json(obj) -> BaseMeasure:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError("base/json", f"base measure needs a 'type' field: {obj!r}")
    kind = obj["type"]
    if kind == "lebesgue":
        return LebesgueBase(float(obj.get("scale", 1.0)))
    if kind == "atoms":
        return AtomicBase(tuple(obj["points"]), tuple(obj["weights"]))
    raise ValidationError("base/json", f"unknown base measure type {kind!r}")


# ---------------------------------------------------------------------------
# Dirichlet systems

@dataclass(frozen=True)
class DirichletSystem:
    base: BaseMeasure

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

    def to_json(self) -> dict:
        return {"family": "dirichlet", "base": self.base.to_json()}


# ---------------------------------------------------------------------------
# Polya tree systems

def _check_beta_pair(pair, label: str) -> tuple[float, float]:
    b0, b1 = float(pair[0]), float(pair[1])
    for b in (b0, b1):
        if math.isnan(b) or b <= 0:
            raise ValidationError("system/beta",
                                  f"splitting parameters at node '{label}' must be in (0, inf], got {pair}")
    return b0, b1


#: exact integer powers with more bits than this (far beyond the float
#: range) are refused instead of computed
POWER_BIT_LIMIT = 1 << 16


def _bounded_power(base, exponent):
    if (isinstance(base, int) and isinstance(exponent, int) and exponent > 0
            and (abs(base).bit_length() - 1) * exponent > POWER_BIT_LIMIT):
        raise OverflowError(f"exact integer power exceeds {POWER_BIT_LIMIT} bits")
    return base ** exponent


_BINOPS = {ast.Add: operator.add, ast.Mult: operator.mul, ast.Pow: _bounded_power}


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
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValidationError("system/beta-expression", f"cannot parse {expr!r}: {exc}") from None
    except RecursionError:
        raise too_deep() from None

    def build(node) -> Callable[[int], object]:
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op, left, right = _BINOPS[type(node.op)], build(node.left), build(node.right)
            return lambda m: op(left(m), right(m))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand = build(node.operand)
            return lambda m: -operand(m)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            value = node.value
            return lambda m: value
        if isinstance(node, ast.Name) and node.id == "m":
            return lambda m: m
        raise ValidationError(
            "system/beta-expression",
            f"{expr!r}: only numbers, 'm', '+', '*', '^' and unary '-' are allowed",
        )

    try:
        compiled = build(tree.body)
    except RecursionError:
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
class HomogeneousRule:
    """One parameter per level: both children of every level-(m-1) node
    split with the same Beta parameter, given by an expression in m."""

    expr: str
    _evaluate: Callable[[int], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_evaluate", _compile_level_expression(self.expr))
        self.level_parameter(1)  # fail fast on a bad expression

    kind = "homogeneous"
    completely_random = False

    def level_parameter(self, m: int) -> float:
        value = self._evaluate(m)
        if math.isnan(value) or value <= 0:
            raise ValidationError("system/beta",
                                  f"expression {self.expr!r} gives non-positive value {value} at m={m}")
        return value

    def pair(self, node: CellIndex) -> tuple[float, float]:
        b = self.level_parameter(node.level + 1)
        return (b, b)

    def level_pairs(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        b = np.full(1 << (level - 1), self.level_parameter(level))
        return b, b.copy()

    def to_json(self) -> dict:
        return {"rule": "homogeneous", "expr": self.expr}


@dataclass(frozen=True)
class TableRule:
    """Explicit per-node splitting parameters, keyed by node label."""

    pairs: dict
    default: tuple[float, float] | None = None

    def __post_init__(self):
        clean = {}
        for label, pair in self.pairs.items():
            clean[str(label)] = _check_beta_pair(pair, str(label))
        object.__setattr__(self, "pairs", clean)
        if self.default is not None:
            object.__setattr__(self, "default", _check_beta_pair(self.default, "<default>"))

    kind = "table"
    completely_random = False

    def pair(self, node: CellIndex) -> tuple[float, float]:
        got = self.pairs.get(node.label())
        if got is None:
            got = self.default
        if got is None:
            raise ValidationError("system/beta",
                                  f"no splitting parameters for node '{node.label()}'")
        return got

    def level_pairs(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        width = level - 1
        a = np.empty(1 << width)
        b = np.empty(1 << width)
        for i in range(1 << width):
            a[i], b[i] = self.pair(CellIndex.at(i, width))
        return a, b

    def to_json(self) -> dict:
        out = {"rule": "table", "pairs": {k: list(v) for k, v in self.pairs.items()}}
        if self.default is not None:
            out["default"] = list(self.default)
        return out


@dataclass(frozen=True)
class CantorTrigRule:
    """Splitting parameters (cos, sin) of half-pi times the Cantor
    midpoint of the node label; both lie in (0, 1) and their squares
    sum to one."""

    kind = "cantor_trig"
    completely_random = False

    def pair(self, node: CellIndex) -> tuple[float, float]:
        angle = 0.5 * math.pi * float(cantor_midpoint(node.bits))
        return (math.cos(angle), math.sin(angle))

    def level_pairs(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        # midpoints are N / (2 * 3^width): the root has N = 1 and the
        # children of N have 3N - 2 and 3N + 2.  N < 2^53, so the float
        # division rounds exactly like float(cantor_midpoint(...)).
        width = level - 1
        num = np.ones(1, dtype=np.int64)
        for _ in range(width):
            num = np.stack([3 * num - 2, 3 * num + 2], axis=1).reshape(-1)
        angles = (0.5 * math.pi * (num / (2 * 3**width))).tolist()
        # math.cos/math.sin, as in `pair`: numpy's may differ in the last bit
        return (np.array([math.cos(t) for t in angles]),
                np.array([math.sin(t) for t in angles]))

    def to_json(self) -> dict:
        return {"rule": "cantor_trig"}


@dataclass(frozen=True)
class DirichletMatchRule:
    """Each node's children split with parameters equal to their base-measure
    masses, so that parent parameters are the sums of child parameters and the
    tree reproduces a Dirichlet system on dyadic cells."""

    base: BaseMeasure
    domain: Domain = field(default_factory=Domain.unit)

    kind = "dirichlet"
    completely_random = True

    def _mass(self, bits: tuple[int, ...]) -> float:
        left, right = dyadic_cell_bounds(bits, self.domain)
        return self.base.mass_of_interval(left, right)

    def pair(self, node: CellIndex) -> tuple[float, float]:
        b0 = self._mass(node.bits + (0,))
        b1 = self._mass(node.bits + (1,))
        if b0 <= 0 or b1 <= 0:
            raise self._zero_mass(node)
        return (b0, b1)

    def level_pairs(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        masses = self.base.interval_masses(Partition(self.domain, "dyadic", level))
        a, b = masses[0::2], masses[1::2]
        bad = np.flatnonzero((a <= 0) | (b <= 0))
        if len(bad):
            raise self._zero_mass(CellIndex.at(int(bad[0]), level - 1))
        return a, b

    @staticmethod
    def _zero_mass(node: CellIndex) -> ValidationError:
        return ValidationError(
            "system/beta",
            f"base measure gives a zero-mass child at node '{node.label()}'; "
            "the matching tree needs strictly positive cell masses",
        )

    def to_json(self) -> dict:
        return {"rule": "dirichlet", "base": self.base.to_json()}


#: Each rule gives `pair(node)` for one node and `level_pairs(level)`: the
#: (a, b) arrays of the 2^(level-1) parent nodes of `level`, left to right,
#: equal to `pair` node by node and raising the error of the first failing
#: node in level order.
BetaRule = Union[HomogeneousRule, TableRule, CantorTrigRule, DirichletMatchRule]


def beta_rule_from_json(obj) -> BetaRule:
    if not isinstance(obj, dict) or "rule" not in obj:
        raise ValidationError("system/beta-json", f"beta rule needs a 'rule' field: {obj!r}")
    name = obj["rule"]
    if name == "homogeneous":
        return HomogeneousRule(str(obj["expr"]))
    if name == "table":
        pairs = {k: tuple(math.inf if v == "inf" else float(v) for v in pair)
                 for k, pair in obj["pairs"].items()}
        default = obj.get("default")
        if default is not None:
            default = tuple(math.inf if v == "inf" else float(v) for v in default)
        return TableRule(pairs, default)
    if name == "cantor_trig":
        return CantorTrigRule()
    if name == "dirichlet":
        return DirichletMatchRule(base_measure_from_json(obj["base"]))
    raise ValidationError("system/beta-json", f"unknown beta rule {name!r}")


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
class PolyaTreeSystem:
    rule: BetaRule
    p0: float = 0.0  # mass pinned on the zero singleton for [0,1] domains

    kind = PROBABILITY

    def __post_init__(self):
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

    def to_json(self) -> dict:
        out = {"family": "polya", "beta": self.rule.to_json()}
        if self.p0:
            out["p0"] = self.p0
        return out


# ---------------------------------------------------------------------------
# Gaussian systems

@dataclass(frozen=True)
class DiagonalCovariance:
    sigma2: BaseMeasure

    is_diagonal = True

    def __post_init__(self):
        if isinstance(self.sigma2, LebesgueBase) and self.sigma2.scale < 0:
            raise ValidationError("covariance/diagonal",
                                  f"variance measure must be >= 0, got scale {self.sigma2.scale}")

    def variances(self, partition: Partition) -> np.ndarray:
        """The cell variances, read off the variance measure without the
        matrix: the diagonal of `assemble_sigma`, whose symmetrisation
        doubles and halves each mass (so a mass of 2**1023 or more is inf
        there, and here)."""
        masses = self.sigma2.cell_masses(partition)
        return 0.5 * (masses + masses)

    def to_json(self) -> dict:
        return {"variant": "diagonal", "sigma2": self.sigma2.to_json()}


@dataclass(frozen=True)
class ConstantCovariance:
    c: float

    is_diagonal = False

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValidationError("covariance/constant", f"need c > 0, got {self.c}")

    def to_json(self) -> dict:
        return {"variant": "constant", "c": self.c}


@dataclass(frozen=True)
class PointMassCovariance:
    sites: tuple[float, ...]
    matrix: np.ndarray

    def __post_init__(self):
        sites = tuple(float(s) for s in self.sites)
        mat = np.array(self.matrix, dtype=float)
        if not np.isfinite(mat).all():
            raise ValidationError("covariance/point-mass", "site matrix entries must be finite")
        n = len(sites)
        if mat.shape != (n, n):
            raise ValidationError("covariance/point-mass",
                                  f"matrix shape {mat.shape} does not fit {n} sites")
        if not np.allclose(mat, mat.T, atol=1e-12):
            raise ValidationError("covariance/point-mass", "site matrix must be symmetric")
        eigs = np.linalg.eigvalsh(mat)
        top = max(float(eigs.max()), 0.0)
        if eigs.min() < -PSD_RELATIVE_TOL * max(top, 1.0):
            raise ValidationError("covariance/point-mass",
                                  f"site matrix has negative eigenvalue {eigs.min():.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "matrix", mat)

    @property
    def is_diagonal(self) -> bool:
        off = self.matrix - np.diag(np.diag(self.matrix))
        return bool(np.all(off == 0.0))

    def to_json(self) -> dict:
        return {"variant": "point_mass", "sites": list(self.sites),
                "matrix": self.matrix.tolist()}


_NAMED_KERNELS = {
    "constant": lambda p: (lambda x, y: p.get("c", 1.0)),
    "gaussian": lambda p: (lambda x, y: p.get("scale", 1.0)
                           * math.exp(-0.5 * ((x - y) / p.get("length", 1.0)) ** 2)),
    "exponential": lambda p: (lambda x, y: p.get("scale", 1.0)
                              * math.exp(-abs(x - y) / p.get("length", 1.0))),
}


@dataclass(frozen=True)
class KernelCovariance:
    name: str
    params: dict = field(default_factory=dict)
    order: int = 8

    is_diagonal = False

    def __post_init__(self):
        if self.name not in _NAMED_KERNELS:
            raise ValidationError("covariance/kernel",
                                  f"unknown kernel {self.name!r}; have {sorted(_NAMED_KERNELS)}")
        if self.order < 1:
            raise ValidationError("covariance/kernel", f"quadrature order must be >= 1, got {self.order}")
        if self.name != "constant":  # non-numbers fail when the kernel is first called
            length, scale = self.params.get("length", 1.0), self.params.get("scale", 1.0)
            if isinstance(length, (int, float)) and (length == 0 or not math.isfinite(length)):
                raise ValidationError("covariance/kernel",
                                      f"kernel length must be finite and nonzero, got {length!r}")
            if isinstance(scale, (int, float)) and not math.isfinite(scale):  # 0 is the zero covariance
                raise ValidationError("covariance/kernel", f"kernel scale must be finite, got {scale!r}")
        k = self.kernel()
        for x, y in ((0.1, 0.7), (0.25, 0.9), (0.4, 0.45)):
            if abs(k(x, y) - k(y, x)) > 1e-12:
                raise ValidationError("covariance/kernel", "kernel is not symmetric")

    def kernel(self) -> Callable[[float, float], float]:
        return _NAMED_KERNELS[self.name](self.params)

    def to_json(self) -> dict:
        return {"variant": "kernel", "name": self.name,
                "params": dict(self.params), "order": self.order}


@dataclass(frozen=True)
class GreensCovariance:
    """Distance-based kernels per spatial dimension, regularized near the
    diagonal by a length cutoff; dimension one takes an affine-in-each-
    variable correction (c0 + c1*(x+y) + c2*x*y) added to -|x-y|."""

    dimension: int
    uv_cutoff: float = 1e-2
    affine: tuple[float, float, float] = (0.0, 1.0, -2.0)
    order: int = 8

    is_diagonal = False

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValidationError("covariance/greens",
                                  f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.dimension >= 2 and not (self.uv_cutoff > 0):
            raise ValidationError("covariance/greens",
                                  f"cutoff must be > 0, got {self.uv_cutoff}")
        object.__setattr__(self, "affine", tuple(float(a) for a in self.affine))

    def kernel(self) -> Callable[[float, float], float]:
        if self.dimension == 1:
            c0, c1, c2 = self.affine
            return lambda x, y: -abs(x - y) + c0 + c1 * (x + y) + c2 * x * y
        if self.dimension == 2:
            eps = self.uv_cutoff
            return lambda x, y: -math.log(abs(x - y) + eps)
        eps = self.uv_cutoff
        return lambda x, y: 1.0 / (abs(x - y) + eps)

    def to_json(self) -> dict:
        return {"variant": "greens", "dimension": self.dimension,
                "uv_cutoff": self.uv_cutoff, "affine": list(self.affine),
                "order": self.order}


CovarianceSpec = Union[DiagonalCovariance, ConstantCovariance, PointMassCovariance,
                       KernelCovariance, GreensCovariance]


def covariance_from_json(obj) -> CovarianceSpec:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValidationError("covariance/json", f"covariance needs a 'variant' field: {obj!r}")
    variant = obj["variant"]
    if variant == "diagonal":
        return DiagonalCovariance(base_measure_from_json(obj["sigma2"]))
    if variant == "constant":
        return ConstantCovariance(float(obj["c"]))
    if variant == "point_mass":
        return PointMassCovariance(tuple(obj["sites"]), np.array(obj["matrix"], dtype=float))
    if variant == "kernel":
        return KernelCovariance(str(obj["name"]), dict(obj.get("params", {})),
                                int(obj.get("order", 8)))
    if variant == "greens":
        return GreensCovariance(int(obj["dimension"]),
                                float(obj.get("uv_cutoff", 1e-2)),
                                tuple(obj.get("affine", (0.0, 1.0, -2.0))),
                                int(obj.get("order", 8)))
    raise ValidationError("covariance/json", f"unknown covariance variant {variant!r}")


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
        for j in range(i, k):
            vals = np.array([[kernel(x, y) for y in pts[j]] for x in pts[i]])
            kmat[i, j] = kmat[j, i] = float(wts[i] @ vals @ wts[j])
    if not partition.has_atom:
        return kmat
    out = np.zeros((len(partition), len(partition)))
    out[1:, 1:] = kmat
    return out


def assemble_sigma(spec: CovarianceSpec, partition: Partition, *,
                   spectrum: bool = False):
    """Cell-pair covariance matrix of the given spec on the partition.

    The assembled matrix is validated: entries that are not finite, and
    eigenvalues below -1e-10 * (largest eigenvalue), raise a numeric error.
    With ``spectrum=True`` the result is ``(matrix, eigenvalues)``, the
    ascending spectrum that check computed.
    """
    n = len(partition)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below as not finite
        if isinstance(spec, DiagonalCovariance):
            sigma = np.diag(spec.sigma2.cell_masses(partition))
        elif isinstance(spec, ConstantCovariance):
            w = LebesgueBase().cell_masses(partition)
            sigma = spec.c * np.outer(w, w)
        elif isinstance(spec, PointMassCovariance):
            sigma = np.zeros((n, n))
            rows = [partition.position_of(s) for s in spec.sites]
            for a, ia in enumerate(rows):
                for b, ib in enumerate(rows):
                    sigma[ia, ib] += spec.matrix[a, b]
        elif isinstance(spec, (KernelCovariance, GreensCovariance)):
            sigma = _quadrature_matrix(spec.kernel(), partition, spec.order)
        else:
            raise ValidationError("covariance/json", f"unknown covariance spec {spec!r}")
        sigma = 0.5 * (sigma + sigma.T)
    if not np.isfinite(sigma).all():  # eigvalsh would not converge
        raise NumericError("covariance/not-finite",
                           "assembled covariance has entries that are inf or nan")
    eigs = np.linalg.eigvalsh(sigma)
    top = max(float(eigs.max()), 0.0)
    if float(eigs.min()) < -PSD_RELATIVE_TOL * max(top, 1.0):
        raise NumericError(
            "covariance/not-psd",
            f"assembled covariance has eigenvalue {float(eigs.min()):.6e} "
            f"below -{PSD_RELATIVE_TOL:g} * {max(top, 1.0):.6e}",
        )
    return (sigma, eigs) if spectrum else sigma


def sigma_factor(spec: CovarianceSpec, partition: Partition) -> np.ndarray:
    """Matrix F with F F^T = Sigma, columns ordered by decreasing variance.

    Rank-deficient variants get their exact closed-form factors (constant:
    a single column; diagonal: one column per cell), so degenerate laws are
    sampled without numerical fuzz.
    """
    if isinstance(spec, ConstantCovariance):
        w = LebesgueBase().cell_masses(partition)
        return math.sqrt(spec.c) * w[:, None]
    if isinstance(spec, DiagonalCovariance):
        return np.diag(np.sqrt(spec.sigma2.cell_masses(partition)))
    sigma = assemble_sigma(spec, partition)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    keep = eigvals > 0
    return eigvecs[:, keep] * np.sqrt(eigvals[keep])[None, :]


@dataclass(frozen=True)
class GaussianSystem:
    covariance: CovarianceSpec
    centre: BaseMeasure | None = None  # None = centred

    kind = SIGNED

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
        spec = self.covariance
        diag = (spec.variances(partition) if isinstance(spec, DiagonalCovariance)
                else np.diag(assemble_sigma(spec, partition)))
        return np.sqrt(2.0 * diag / math.pi)

    def q_alpha(self, partition: Partition) -> Histogram:
        """Expected absolute cell mass, the `spread`; centred only — with a
        nonzero centre the folded-normal mean has no such form."""
        if not self.centred:
            raise ValidationError("system/not-centred",
                                  "the absolute-mean reference is defined for centred systems")
        return Histogram(partition, self.spread(partition), POSITIVE)

    def to_json(self) -> dict:
        return {
            "family": "gaussian",
            "covariance": self.covariance.to_json(),
            "centre": "zero" if self.centre is None else self.centre.to_json(),
        }


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
class LeakageSystem:
    """Deterministic coherent system that pins mass delta/2 in each unbounded
    end cell of a triangular chain at every depth, and the rest in the
    interior cell with right endpoint 0."""

    delta: float
    depth: int
    interior: bool = False  # squash onto (0,1) through the arctan chart

    kind = PROBABILITY
    completely_random = False

    def __post_init__(self):
        if not (0.0 <= self.delta < 1.0):
            raise ValidationError("system/delta", f"escaping mass must be in [0,1), got {self.delta}")
        if self.depth < 1:
            raise ValidationError("system/depth", f"need depth >= 1, got {self.depth}")

    def chain(self) -> PartitionChain:
        check_depth_capacity(self.depth)  # before a row of 2^depth - 1 cuts is built
        rows = leakage_rows(self.depth)
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

    def outside_masses(self, partition: Partition, windows) -> list[float]:
        """Deterministic mass outside each closed window [-K, K] (after the
        chart, [1/2 - K', 1/2 + K']), with the level's mean and edges read
        once for all the windows."""
        for window in windows:
            if window < 0:
                raise ValidationError("system/window", f"window must be >= 0, got {window}")
        values = self.mean(partition).values.tolist()
        edges = partition.edges().tolist()
        masses = []
        for window in windows:
            lo, hi = (0.5 - window, 0.5 + window) if self.interior else (-window, window)
            total = 0.0
            for left, right, value in zip(edges, edges[1:], values):
                if right <= lo or left >= hi:
                    total += value
            masses.append(total)
        return masses

    def to_json(self) -> dict:
        return {"family": "leakage", "delta": self.delta, "depth": self.depth,
                "interior": self.interior}


HistogramSystem = Union[DirichletSystem, PolyaTreeSystem, GaussianSystem, LeakageSystem]


def system_from_json(obj) -> HistogramSystem:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValidationError("system/json", "system spec needs a 'family' field")
    family = obj["family"]
    try:
        return _family_from_json(family, obj)
    except HistolimError:
        raise
    except KeyError as e:
        raise ValidationError("system/json",
                              f"{family} system spec is missing the {e.args[0]!r} field") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError("system/json", f"malformed {family} system spec: {e}") from None


def _family_from_json(family, obj: dict) -> HistogramSystem:
    if family == "dirichlet":
        return DirichletSystem(base_measure_from_json(obj["base"]))
    if family == "polya":
        return PolyaTreeSystem(beta_rule_from_json(obj["beta"]), float(obj.get("p0", 0.0)))
    if family == "gaussian":
        centre = obj.get("centre", "zero")
        centre_measure = None if centre == "zero" else base_measure_from_json(centre)
        return GaussianSystem(covariance_from_json(obj["covariance"]), centre_measure)
    if family == "leakage":
        return LeakageSystem(float(obj.get("delta", 0.2)), int(obj.get("depth", 8)),
                             bool(obj.get("interior", False)))
    raise ValidationError("system/json", f"unknown family {family!r}")
