"""Finite-depth evaluators for existence and domination conditions.

Each evaluator computes a per-depth statistic trace and attaches a verdict.
The discipline throughout: ``holds`` and ``fails`` are only ever returned on
the strength of an exact argument (a closed form, a telescoping identity, a
certified geometric tail), never from the floating-point trend alone.  When
no such argument applies the status is ``undetermined``, optionally with a
tail extrapolation that is clearly labelled as an estimate.  Sufficient
conditions whose statistic provably diverges report
``sufficient_condition_fails`` — the limit object may still exist.
"""

from __future__ import annotations

import ast
import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ValidationError
from .partitions import CellIndex, Domain, PartitionChain
from .systems import (
    AtomicBase,
    CantorTrigRule,
    ConstantCovariance,
    DiagonalCovariance,
    DirichletMatchRule,
    DirichletSystem,
    GaussianSystem,
    GreensCovariance,
    HomogeneousRule,
    KernelCovariance,
    LeakageSystem,
    LebesgueBase,
    PointMassCovariance,
    POWER_BIT_LIMIT,
    PolyaTreeSystem,
    TableRule,
    _BINOPS,
    assemble_sigma,
    pin_infinite_splits,
)

HOLDS = "holds"
FAILS = "fails"
SUFFICIENT_CONDITION_FAILS = "sufficient_condition_fails"
UNDETERMINED = "undetermined"

#: default evaluation depth for scalar product conditions (cost O(depth))
PRODUCT_DEPTH = 40
#: default and hard caps for conditions that assemble covariance matrices
MATRIX_DEPTH = 16
MATRIX_LEVEL_CAP = 10
QUADRATURE_LEVEL_CAP = 6
#: cap for level sums that enumerate all 2^m cells
ENUMERATION_LEVEL_CAP = 14

#: evaluator name -> condition tag, used by the CLI help text
EVALUATOR_TAGS = {
    "polya-tight": "P-tight",
    "polya-leakage": "P-tight'",
    "polya-weak": "P-weak",
    "dirichlet-existence": "P-tight",
    "dirichlet-weak": "P-weak",
    "gaussian-diagonal": "P-Gauss",
    "gaussian-spectral": "P-Gauss",
    "gaussian-weak": "P-weak-signed",
    "gaussian-trace": "P-Gauss",
    "leakage-tightness": "P-tight",
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of one condition evaluation.

    ``evidence`` is the per-depth statistic trace; ``argument`` states the
    exact reasoning behind a terminal status, or the reason none applies.
    """

    condition: str
    status: str
    anchor: str
    argument: str
    evidence: tuple[tuple[int, float], ...] = ()
    extrapolation: Optional[dict] = None

    def __post_init__(self):
        if self.status not in (HOLDS, FAILS, SUFFICIENT_CONDITION_FAILS, UNDETERMINED):
            raise ValidationError("verdict/status", f"unknown status {self.status!r}")

    def to_json(self) -> dict:
        out = {
            "condition": self.condition,
            "status": self.status,
            "evidence": [[int(d), float(v)] for d, v in self.evidence],
            "anchor": self.anchor,
            "argument": self.argument,
        }
        if self.extrapolation is not None:
            out["extrapolation"] = self.extrapolation
        return out


# ---------------------------------------------------------------------------
# splitting-tree product conditions

def _directional_terms(system: PolyaTreeSystem, bit: int,
                       depth: int) -> tuple[list[float], bool, int]:
    """Log-sum terms of the splitting product along the constant-bit path
    from the root: log(1 + b_other/b_path) per level.

    Returns (terms, hit_zero_factor, evaluated_depth): a +inf term means the
    path-side weight is infinite, so the complementary factor is exactly
    zero and the product vanishes at that depth.  Evaluation stops early if
    the rule is undefined deeper (partial table without default).
    """
    terms: list[float] = []
    for m in range(depth):
        node = CellIndex((bit,) * m, m)
        try:
            b0, b1 = system.rule.pair(node)
        except ValidationError:
            return terms, False, m
        path, other = (b0, b1) if bit == 0 else (b1, b0)
        if math.isinf(other) and math.isfinite(path):
            return terms, True, m + 1
        if math.isinf(path):
            terms.append(0.0)
        else:
            terms.append(math.log1p(other / path))
    return terms, False, depth


def _cumulative_evidence(terms: list[float]) -> tuple[tuple[int, float], ...]:
    return tuple((m + 1, float(s)) for m, s in enumerate(np.cumsum(terms)))


def _table_zero_path_horizon(rule: TableRule, bit: int) -> int:
    """First depth beyond which the constant-bit path only sees the default."""
    horizon = 0
    mark = str(bit)
    for label in rule.pairs:
        if label == "()":
            horizon = max(horizon, 1)
        elif set(label) <= {mark}:
            horizon = max(horizon, len(label) + 1)
    return horizon


def _directional_product_verdict(system: PolyaTreeSystem, bit: int, depth: int,
                                 name: str, anchor: str) -> Verdict:
    """Shared analysis for the two directed product conditions.

    The condition asks that the product of path-side splitting fractions
    vanish; equivalently that the cumulative log-sum S_M diverge.  The
    evidence lists S_M per depth.
    """
    terms, hit_zero, upto = _directional_terms(system, bit, depth)
    evidence = _cumulative_evidence(terms)
    rule = system.rule
    side = "zeroward" if bit == 0 else "oneward"

    if hit_zero:
        return Verdict(name, HOLDS, anchor,
                       f"an infinite off-path weight at depth {upto} makes the "
                       "splitting factor exactly zero, so the product vanishes",
                       evidence)

    if isinstance(rule, HomogeneousRule):
        return Verdict(name, HOLDS, anchor,
                       "homogeneous splits are symmetric: every factor is "
                       "exactly 1/2, so the product halves at each level and "
                       "vanishes along every path",
                       evidence)

    if isinstance(rule, DirichletMatchRule):
        # factors telescope to base-mass(depth-M cell) / base-mass(start cell);
        # half-open cells shrink to a one-point intersection on this side
        if bit == 0:
            return Verdict(name, HOLDS, anchor,
                           "weights are cell masses, so the product telescopes "
                           "to the mass of a shrinking half-open cell with "
                           "empty intersection; any finite base sends it to 0",
                           evidence)
        point = float(rule.domain.right)  # approached by the all-ones cells
        atom = _point_mass(rule.base, point)
        if atom == 0.0:
            return Verdict(name, HOLDS, anchor,
                           "weights are cell masses: the product telescopes to "
                           f"the base mass of the single point {point}, which "
                           "carries no atom",
                           evidence)
        return Verdict(name, FAILS, anchor,
                       f"the telescoped product converges to the atom mass "
                       f"{atom} at {point}, a positive limit",
                       evidence)

    if isinstance(rule, CantorTrigRule):
        # from the root the midpoint coordinate tends to 0 (zeroward) or 1
        return _cantor_tail_verdict(terms, name, anchor, evidence)

    if isinstance(rule, TableRule):
        if rule.default is not None:
            horizon = _table_zero_path_horizon(rule, bit)
            d0, d1 = rule.default
            path_d, other_d = (d0, d1) if bit == 0 else (d1, d0)
            if math.isinf(other_d) and math.isfinite(path_d):
                return Verdict(name, HOLDS, anchor,
                               f"beyond table depth {horizon} the default pair "
                               "pins a zero factor, so the product vanishes",
                               evidence)
            if math.isinf(path_d):
                tail_sum = float(sum(terms[:horizon]))
                return Verdict(name, FAILS, anchor,
                               f"beyond table depth {horizon} the default "
                               "path-side weight is infinite: factors are "
                               "exactly 1 and the product freezes at the "
                               f"positive value exp(-{tail_sum:.6g})",
                               evidence)
            step = math.log1p(other_d / path_d)
            return Verdict(name, HOLDS, anchor,
                           f"beyond table depth {horizon} every term equals "
                           f"log(1+{other_d}/{path_d}) = {step:.6g} > 0, so "
                           "the sum diverges",
                           evidence)
        return Verdict(name, UNDETERMINED, anchor,
                       f"table rule without default is undefined beyond depth "
                       f"{upto} on the {side} path; no exact tail argument",
                       evidence)

    return Verdict(name, UNDETERMINED, anchor,
                   "no exact tail argument is registered for this rule; "
                   "statistic trace only",
                   evidence, extrapolation=_observed_tail(terms))


def _cantor_tail_verdict(terms, name, anchor, evidence) -> Verdict:
    """Certified convergent tail for the cos/sin rule on a boundary path.

    Along this path the term at depth m is log(1+t_m) <= t_m with
    t_m = tan of an angle that shrinks by a factor 3 per level; tan is convex
    on [0, pi/2), so tan(theta/3) <= tan(theta)/3 and the t_m are dominated
    by a geometric series of ratio 1/3.  Hence the log-sum converges and the
    product has a strictly positive limit.
    """
    tans = [math.expm1(t) for t in terms]
    # guard the analytic ratio bound only on terms large enough for the
    # cosine near pi/2 to carry relative precision
    k = 0
    while k < len(tans) and tans[k] > 1e-9:
        k += 1
    ratios = [tans[i + 1] / tans[i] for i in range(k - 1)]
    worst = max(ratios) if ratios else 1.0
    if worst > 1.0 / 3.0 + 1e-6:
        # the convexity bound failed numerically -- do not certify
        return Verdict(name, UNDETERMINED, anchor,
                       "geometric domination of the tangent terms could not "
                       "be confirmed numerically",
                       evidence, extrapolation=_observed_tail(terms))
    tail = tans[k - 1] / 2.0  # sum_{j>=1} t (1/3)^j = t / 2
    total = float(sum(terms[:k])) + tail
    return Verdict(name, FAILS, anchor,
                   "tangent terms shrink by at least 1/3 per level (convexity "
                   "of tan), so the log-sum converges; the product stays above "
                   f"exp(-{total:.12g}) > 0",
                   evidence,
                   extrapolation={"method": "certified-geometric-tail",
                                  "ratio_bound": 1.0 / 3.0,
                                  "tail_bound": tail,
                                  "product_floor": math.exp(-total)})


def _observed_tail(terms) -> Optional[dict]:
    """Descriptive (never certifying) tail estimate from observed ratios."""
    positive = [t for t in terms if t > 0]
    if len(positive) < 11:
        return None
    ratios = [positive[i + 1] / positive[i] for i in range(len(positive) - 11,
                                                           len(positive) - 1)]
    r = max(ratios)
    if r >= 0.9:
        return None
    return {"method": "observed-ratio", "ratio": r,
            "tail_estimate": positive[-1] * r / (1.0 - r)}


def _point_mass(base, x: float) -> float:
    if isinstance(base, AtomicBase):
        return float(sum(w for p, w in zip(base.points, base.weights) if p == x))
    return 0.0


def polya_tight_condition(system: PolyaTreeSystem,
                          depth: int = PRODUCT_DEPTH) -> Verdict:
    """Does the zeroward splitting product from the root vanish?

    The existence criterion requires this below every cell; the verdict
    reports the root, and the argument says when the underlying reasoning
    in fact covers every cell (homogeneous and mass-matching rules do).
    """
    return _directional_product_verdict(system, 0, depth,
                                        "polya-tight", EVALUATOR_TAGS["polya-tight"])


def polya_leakage_condition(system: PolyaTreeSystem,
                            depth: int = PRODUCT_DEPTH) -> Verdict:
    """Oneward counterpart of the tight product: does mass escape toward the
    right boundary (or +infinity on unbounded domains)?"""
    return _directional_product_verdict(system, 1, depth, "polya-leakage",
                                        EVALUATOR_TAGS["polya-leakage"])


# ---------------------------------------------------------------------------
# splitting-tree domination condition

def _split_weak_factors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-child factors of the second-moment-over-mean recursion, as an
    (n, 2) array over the nodes of a level.

    For a finite split the child factor is
    (b_sibling/(b0+b1+1) + b_child) / (b0+b1); degenerate infinite weights
    pin the split, and a zero-mean child contributes factor 0.
    """
    s = a + b
    with np.errstate(all="ignore"):  # infinite nodes are pinned below
        return pin_infinite_splits(a, b, (b / (s + 1.0) + a) / s, (a / (s + 1.0) + b) / s)


def _weak_level_sums(system: PolyaTreeSystem, depth: int) -> list[tuple[int, float]]:
    """Level sums of second moment over mean across all 2^m cells."""
    ratios = np.array([1.0])
    out: list[tuple[int, float]] = []
    for m in range(1, depth + 1):
        try:
            a, b = system.rule.level_pairs(m)
        except ValidationError:
            return out
        ratios = (ratios[:, None] * _split_weak_factors(a, b)).reshape(-1)
        out.append((m, float(ratios.sum())))
    return out


def polya_weak_condition(system: PolyaTreeSystem,
                         depth: int = PRODUCT_DEPTH) -> Verdict:
    """Is the domination statistic sup_m (level sum of E P(A)^2 / mean(A))
    finite?

    Homogeneous rules admit the closed form (1 + 1/(2 b_m + 1))^m, analysed
    symbolically through the exponent m/(2 b_m + 1).  Mass-matching rules
    reduce to (total + 2^m)/(total + 1), which always diverges.  Other rules
    are enumerated cell by cell, so their trace is capped at depth 14 and
    left undetermined.
    """
    name, anchor = "polya-weak", EVALUATOR_TAGS["polya-weak"]
    rule = system.rule

    if isinstance(rule, HomogeneousRule):
        evidence = []
        for m in range(1, depth + 1):
            beta = rule.level_parameter(m)
            evidence.append((m, (1.0 + 1.0 / (2.0 * beta + 1.0)) ** m))
        evidence = tuple(evidence)
        growth = _homogeneous_exponent_limit(rule.expr)
        if growth is None:
            return Verdict(name, UNDETERMINED, anchor,
                           "the exponent m/(2 b_m + 1) has no symbolic limit; "
                           "statistic trace only", evidence)
        limit = growth
        if math.isinf(limit):
            # log of the statistic is m log(1+x_m) >= x_m m / 2 with
            # x_m = 1/(2 b_m + 1) < 1, so divergence of the exponent is enough
            return Verdict(name, SUFFICIENT_CONDITION_FAILS, anchor,
                           "the exponent m/(2 b_m + 1) diverges and bounds "
                           "half the log-statistic from below, so the "
                           "sufficient condition cannot hold",
                           evidence)
        return Verdict(name, HOLDS, anchor,
                       "the exponent m/(2 b_m + 1) is continuous with finite "
                       f"limit {limit:.6g}, so the statistic stays bounded by "
                       "its exponential",
                       evidence)

    if isinstance(rule, DirichletMatchRule):
        total = rule.base.total(rule.domain)
        evidence = tuple((m, (total + 2.0 ** m) / (total + 1.0))
                         for m in range(1, depth + 1))
        return Verdict(name, SUFFICIENT_CONDITION_FAILS, anchor,
                       "mass-matching weights give level sums "
                       "(total + 2^m)/(total + 1), which grow without bound "
                       "when every cell keeps positive mass",
                       evidence)

    evidence = tuple(_weak_level_sums(system, min(depth, ENUMERATION_LEVEL_CAP)))

    if isinstance(rule, TableRule) and rule.default is not None:
        d0, d1 = rule.default
        horizon = max((len(l) for l in rule.pairs if l != "()"), default=0) + 1
        if math.isinf(d0) or math.isinf(d1):
            return Verdict(name, HOLDS, anchor,
                           f"beyond table depth {horizon} the default split is "
                           "deterministic, so each level multiplies the sum "
                           "by exactly 1 and the supremum is attained among "
                           "the computed depths",
                           evidence)
        s = d0 + d1
        return Verdict(name, SUFFICIENT_CONDITION_FAILS, anchor,
                       f"beyond table depth {horizon} every level multiplies "
                       f"the sum by 1 + 1/({s}+1) > 1, and the sum never "
                       "drops below 1, so it diverges geometrically",
                       evidence)

    return Verdict(name, UNDETERMINED, anchor,
                   "no closed form for this rule; enumerated level sums "
                   f"up to depth {min(depth, ENUMERATION_LEVEL_CAP)} only",
                   evidence)


def _homogeneous_exponent_limit(expr: str) -> Optional[float]:
    """Limit of m/(2 f(m) + 1) for the level-parameter expression, or None
    when it cannot be settled: exact from the leading term of f where f has
    one, through sympy otherwise."""
    limit = _leading_term_limit(expr)
    return _sympy_exponent_limit(expr) if limit is None else limit


def _sympy_exponent_limit(expr: str) -> Optional[float]:
    import sympy  # slow to import and large, so only this fallback loads it

    m = sympy.symbols("m", positive=True)
    try:
        f = sympy.sympify(expr.replace("^", "**"), locals={"m": m})
        limit = sympy.limit(m / (2 * f + 1), m, sympy.oo)
    except Exception:
        return None
    if limit.is_infinite:
        return math.inf
    if limit.is_real:
        return float(limit)
    return None


# ---------------------------------------------------------------------------
# Exact leading terms of beta expressions
#
# A beta expression in the grammar of `systems._compile_level_expression`
# is usually a finite sum of terms c * b^m * m^p with rational c, b > 0 and
# p, held here as a dict {(b, p): c} without zero coefficients.  Its
# dominant term, largest in (b, p), decides the limit of m/(2 f + 1).
#
# The numbers are read as sympy reads them: m-free subexpressions are
# folded in floats, and `limit` then takes each float as a nearby simple
# number (`nsimplify`).  A float of at most six significant digits is its
# own decimal there; longer ones may move by up to about 1e-7, so they go
# to sympy, as do like terms with fractional coefficients or powers, which
# sympy adds in rounded floats before it reads them.

class _Outside(Exception):
    """The expression leaves the form, or sympy could read it differently."""


_CONSTANT, _M = (1, 0), (1, 1)
#: bound on the terms of a form, and on a sum's integer power
_MAX_TERMS = 64


def _fold(node):
    """An m-free subexpression, evaluated as the system evaluates it."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_fold(node.left), _fold(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_fold(node.operand)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    raise _Outside


def _number(node) -> Fraction:
    """An m-free subexpression, read as sympy reads its folded value."""
    value = _fold(node)
    if type(value) is int:
        return Fraction(value)
    if not (type(value) is float and sys.float_info.min <= abs(value) < math.inf):
        raise _Outside  # complex, or beyond sympy's unbounded float exponents
    decimal = Decimal(repr(value))
    if len(decimal.normalize().as_tuple().digits) > 6:
        raise _Outside
    return Fraction(decimal)


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator), x.denominator).bit_length()


def _power(x: Fraction, n: Fraction) -> Fraction:
    if x == 1:
        return x
    if n.denominator > 1 or abs(n) * _bits(x) > POWER_BIT_LIMIT:
        raise _Outside
    return x ** int(n)


def _collect(pairs) -> dict:
    out: dict = {}
    for key, c in pairs:
        if max(_bits(key[0]), _bits(c)) > POWER_BIT_LIMIT:
            raise _Outside
        if key in out:
            if not all(x.denominator == 1 and abs(x) < 2 ** 53 for x in (c, out[key])):
                raise _Outside  # sympy adds these as rounded floats
            c += out[key]
        out[key] = c
    if len(out) > _MAX_TERMS:
        raise _Outside
    return {key: c for key, c in out.items() if c}


def _mul(f: dict, g: dict) -> dict:
    def times(p1, p2):
        if p1.denominator > 1 and p2.denominator > 1:
            raise _Outside  # sympy adds these as rounded floats
        return p1 + p2
    return _collect(((b1 * b2, times(p1, p2)), c1 * c2)
                    for (b1, p1), c1 in f.items() for (b2, p2), c2 in g.items())


def _normal_form(node) -> dict:
    if not any(isinstance(n, ast.Name) for n in ast.walk(node)):
        return _collect([(_CONSTANT, _number(node))])
    if isinstance(node, ast.Name) and node.id == "m":
        return {_M: Fraction(1)}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return {key: -c for key, c in _normal_form(node.operand).items()}
    if not isinstance(node, ast.BinOp):
        raise _Outside
    if isinstance(node.op, ast.Add):
        return _collect([*_normal_form(node.left).items(),
                         *_normal_form(node.right).items()])
    if isinstance(node.op, ast.Mult):
        return _mul(_normal_form(node.left), _normal_form(node.right))
    if not isinstance(node.op, ast.Pow):
        raise _Outside
    exponent = _normal_form(node.right)
    if exponent.keys() <= {_CONSTANT}:
        base, n = _normal_form(node.left), exponent.get(_CONSTANT, Fraction(0))
        if len(base) == 1:
            ((b, p), c), = base.items()
            return _collect([((_power(b, n), p * n), _power(c, n))])
        if not (n.denominator == 1 and 0 <= n <= _MAX_TERMS):
            raise _Outside
        out = {_CONSTANT: Fraction(1)}
        for _ in range(int(n)):
            out = _mul(out, base)
        return out
    # const^(k m + j) = const^j * (const^k)^m
    a = _number(node.left)
    if a <= 0 or not exponent.keys() <= {_CONSTANT, _M}:
        raise _Outside
    k, j = exponent[_M], exponent.get(_CONSTANT, Fraction(0))
    return _collect([((_power(a, k), 0), _power(a, j))])


def _leading_term_limit(expr: str) -> Optional[float]:
    """Exact limit of m/(2 f + 1), or None when f leaves the form."""
    try:
        f = _normal_form(ast.parse(expr.replace("^", "**"), mode="eval").body)
        key = b, p = max(f, default=_CONSTANT)
        c = f.get(key, Fraction(0))
        if b > 1 or (b == 1 and p > 1):
            return 0.0
        if key == _M:
            return float(1 / (2 * c))
        if key == _CONSTANT and 2 * c + 1 == 0:
            return None  # 2f + 1 loses its leading term
        return math.inf
    except (_Outside, ArithmeticError, RecursionError, SyntaxError, TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Dirichlet conditions

def dirichlet_condition(system: DirichletSystem,
                        domain: Optional[Domain] = None) -> Verdict:
    """Existence for normalized-Gamma systems is unconditional: any finite
    positive base measure yields a coherent limit, completely random up to
    normalization.  Records the base total as evidence."""
    if domain is None:
        domain = Domain.unit()
    total = system.base.total(domain)
    if total <= 0:
        raise ValidationError("system/degenerate",
                              "base measure must have positive total mass")
    kind = "purely atomic" if isinstance(system.base, AtomicBase) else "continuous"
    return Verdict("dirichlet-existence", HOLDS,
                   EVALUATOR_TAGS["dirichlet-existence"],
                   f"finite positive base (total {total:g}, {kind}); the "
                   "normalized-Gamma limit always exists and lands in an "
                   "atomic phase",
                   ((0, float(total)),))


def _atomic_cell_count(base: AtomicBase, level: int) -> int:
    cells = set()
    for x in base.points:
        if x <= 0.0:
            cells.add(-1)  # the boundary atom cell
        else:
            cells.add(min((1 << level) - 1, math.ceil(x * (1 << level)) - 1))
    return len(cells)


def dirichlet_weak_condition(system: DirichletSystem,
                             domain: Optional[Domain] = None,
                             depth: int = PRODUCT_DEPTH) -> Verdict:
    """Domination statistic sum over cells of (nu(A)+1)/(nu(X)+1), counting
    only cells of positive base mass.

    Purely atomic bases keep the statistic bounded by
    (total + #atoms)/(total + 1) at every depth; a continuous base puts
    positive mass in all 2^m cells, and the statistic diverges.  Both
    directions are exact — domination holds if and only if the base is
    purely atomic.
    """
    if domain is None:
        domain = Domain.unit()
    name, anchor = "dirichlet-weak", EVALUATOR_TAGS["dirichlet-weak"]
    total = system.base.total(domain)
    if isinstance(system.base, AtomicBase):
        evidence = tuple(
            (m, (total + _atomic_cell_count(system.base, m)) / (total + 1.0))
            for m in range(1, depth + 1))
        bound = (total + len(system.base.points)) / (total + 1.0)
        return Verdict(name, HOLDS, anchor,
                       f"purely atomic base: at most {len(system.base.points)} "
                       "cells ever carry mass, so the statistic never exceeds "
                       f"{bound:.6g}",
                       evidence)
    evidence = tuple((m, (total + 2.0 ** m) / (total + 1.0))
                     for m in range(1, depth + 1))
    return Verdict(name, FAILS, anchor,
                   "continuous base: every cell keeps positive mass, the "
                   "statistic equals (total + 2^m)/(total + 1) and diverges; "
                   "domination holds exactly when the base is purely atomic",
                   evidence)


# ---------------------------------------------------------------------------
# Gaussian conditions

def _matrix_levels(system: GaussianSystem, chain: PartitionChain,
                   depth: int) -> range:
    cap = MATRIX_LEVEL_CAP
    if isinstance(system.covariance, (KernelCovariance, GreensCovariance)):
        cap = QUADRATURE_LEVEL_CAP
    return range(0, min(depth, cap, chain.depth) + 1)


#: statistic -> the argument of its undetermined verdict, when the
#: covariance structure settles nothing (``trace`` is never settled)
_UNSETTLED = {
    "diagonal": "no exact vanishing argument for this diagonal variant",
    "spectral": "no exact spectral argument for this covariance",
    "weak": "no exact boundedness argument for this covariance",
    "trace": "total variance per level, reported alongside the spectral "
             "statistic; no sufficiency criterion is attached to it",
}


def gaussian_conditions(system: GaussianSystem, chain: PartitionChain,
                        depth: int = MATRIX_DEPTH) -> dict[str, Verdict]:
    """Evaluate the three spectral/domination statistics level by level.

    Returns verdicts keyed ``diagonal`` (only for diagonal covariances: does
    the largest cell variance vanish?), ``spectral`` (does cell-count times
    the top eigenvalue vanish?), ``weak`` (is the summed cell standard
    deviation bounded?), and ``trace`` (informational only: total variance
    per level, no criterion attached).  Matrix assembly is capped at level
    10 (6 for quadrature kernels).
    """
    spec = system.covariance
    curves: dict[str, list[tuple[int, float]]] = {key: [] for key in _UNSETTLED}

    for m in _matrix_levels(system, chain, depth):
        part = chain[m]
        if isinstance(spec, DiagonalCovariance):  # no matrix: tau is the largest variance
            diag = spec.variances(part)
        else:
            sigma, eigs = assemble_sigma(spec, part, spectrum=True)
            diag = np.diag(sigma)
        curves["diagonal"].append((m, float(diag.max())))
        curves["weak"].append((m, float(np.sqrt(diag).sum())))
        curves["trace"].append((m, float(diag.sum())))
        if isinstance(spec, ConstantCovariance):
            w = LebesgueBase().cell_masses(part)
            tau = spec.c * float(w @ w)  # rank one: the single eigenvalue
        elif spec.is_diagonal:
            tau = float(diag.max())
        else:
            tau = float(eigs[-1])
        curves["spectral"].append((m, len(part) * tau))

    settled = _settled_statistics(spec, curves["weak"])
    out = {}
    for key, unsettled in _UNSETTLED.items():
        if key == "diagonal" and not spec.is_diagonal:
            continue
        name = f"gaussian-{key}"
        status, argument = settled.get(key, (UNDETERMINED, unsettled))
        out[key] = Verdict(name, status, EVALUATOR_TAGS[name], argument,
                           tuple(curves[key]))
    return out


def _settled_statistics(spec, weak_curve) -> dict[str, tuple[str, str]]:
    """Classify the covariance once (constant, Lebesgue diagonal, atomic
    diagonal, point mass, other) and give ``(status, argument)`` for each
    statistic its structure settles exactly."""
    if isinstance(spec, ConstantCovariance):
        value = weak_curve[-1][1] if weak_curve else math.sqrt(spec.c)
        return {
            "spectral": (SUFFICIENT_CONDITION_FAILS,
                         "rank one: cell-count times the eigenvalue is "
                         "c |a| sum(w^2) >= c (sum w)^2 > 0, constant c on "
                         "dyadic chains"),
            "weak": (HOLDS, "cell standard deviations are sqrt(c) times cell "
                            f"widths, so every level sums to the same {value:.6g}"),
        }
    if isinstance(spec, DiagonalCovariance) and isinstance(spec.sigma2, LebesgueBase):
        return {
            "diagonal": (HOLDS, "the largest cell variance is scale * 2^-m on the "
                                "dyadic chain and vanishes"),
            "spectral": (SUFFICIENT_CONDITION_FAILS,
                         "cell-count times the largest variance equals the "
                         "scale exactly at every dyadic level"),
            "weak": (SUFFICIENT_CONDITION_FAILS,
                     "the level sum is sqrt(scale) * 2^(m/2) on the dyadic "
                     "chain and diverges"),
        }
    if isinstance(spec, DiagonalCovariance) and isinstance(spec.sigma2, AtomicBase):
        top = max(spec.sigma2.weights, default=0.0)
        bound = float(sum(math.sqrt(w) for w in spec.sigma2.weights))
        weak = (HOLDS, "square roots are subadditive over the atoms in each "
                       f"cell, so no level sum exceeds {bound:.6g}")
        if top == 0.0:
            return {"diagonal": (HOLDS, "zero variance measure: every cell variance is 0"),
                    "spectral": (HOLDS, "zero variance measure"),
                    "weak": weak}
        return {
            "diagonal": (SUFFICIENT_CONDITION_FAILS,
                         "the cell containing the largest variance atom keeps "
                         f"at least {top:g}, so the maximum cannot vanish"),
            "spectral": (SUFFICIENT_CONDITION_FAILS,
                         "the top eigenvalue stays above the largest atom "
                         f"weight {top:g} while the cell count grows"),
            "weak": weak,
        }
    if isinstance(spec, PointMassCovariance):
        top = float(np.diag(spec.matrix).max())
        total = float(spec.matrix.sum())
        if not spec.matrix.any():
            spectral = (HOLDS, "zero covariance")
        elif total > 0:
            spectral = (SUFFICIENT_CONDITION_FAILS,
                        "testing against the flat vector bounds cell-count "
                        f"times the eigenvalue below by the grand sum "
                        f"{total:g} > 0 at every level")
        else:
            spectral = (UNDETERMINED, "cross-terms cancel the grand sum; no exact "
                                      "bound either way")
        bound = float(sum(math.sqrt(v) for v in np.diag(spec.matrix)))
        return {
            "diagonal": (HOLDS, "all site variances are zero") if top == 0.0 else
                        (SUFFICIENT_CONDITION_FAILS,
                         "with zero cross-terms the cell holding the largest "
                         f"site variance keeps at least {top:g}"),
            "spectral": spectral,
            "weak": (HOLDS, "each cell standard deviation is at most the sum of "
                            "its sites' standard deviations, so no level sum "
                            f"exceeds {bound:.6g}"),
        }
    return {}


# ---------------------------------------------------------------------------
# the deterministic leakage table

@dataclass(frozen=True)
class LeakageReport:
    """Outside-mass table of the escaping-mass construction, with its
    tightness verdict."""

    delta: float
    depth: int
    interior: bool
    windows: tuple[float, ...]
    rows: tuple[tuple[int, float, float], ...] = field(repr=False)
    verdict: Verdict = field(repr=False)

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "depth": self.depth,
            "interior": self.interior,
            "windows": list(self.windows),
            "rows": [{"depth": d, "window": k, "outside_mass": v}
                     for d, k, v in self.rows],
            "verdict": self.verdict.to_json(),
        }


def leakage_counterexample(delta: float, depth: int,
                           interior: bool = False) -> LeakageReport:
    """Tabulate the deterministic mass outside candidate windows.

    For every window the outside mass equals delta once the outer cuts have
    moved past it, so no single compact window ever captures all but an
    arbitrarily small fraction — the tightness property fails whenever
    delta > 0, by construction rather than by numerics.
    """
    system = LeakageSystem(delta, depth, interior=interior)
    windows = (0.1, 0.2, 0.3, 0.45) if interior else (1.0, 2.0, 4.0, 8.0)
    chain = system.chain()
    masses = [system.outside_masses(chain[n], windows) for n in range(1, depth + 1)]
    rows = tuple((n, k, mass) for n, level in enumerate(masses, start=1)
                 for k, mass in zip(windows, level))
    widest = windows.index(max(windows))
    evidence = tuple((n, level[widest]) for n, level in enumerate(masses, start=1))
    name, anchor = "leakage-tightness", EVALUATOR_TAGS["leakage-tightness"]
    if delta == 0.0:
        verdict = Verdict(name, HOLDS, anchor,
                          "no escaping mass: the whole unit mass sits at the "
                          "centre cell at every depth",
                          evidence)
    else:
        boundary = ("the boundary points" if interior else "infinity")
        verdict = Verdict(name, FAILS, anchor,
                          f"a fixed fraction {delta:g} of the mass is pinned "
                          f"in the outermost cells and migrates toward "
                          f"{boundary}: beyond every window the outside mass "
                          f"returns to {delta:g} at all sufficiently large "
                          "depths, so no tight limit exists",
                          evidence)
    return LeakageReport(delta, depth, interior, windows, rows, verdict)
