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
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ValidationError
from .partitions import Domain, Partition, PartitionChain, check_depth_capacity, dyadic_chain
from .systems import (
    AtomicBase,
    CantorTrigRule,
    ConstantCovariance,
    DiagonalCovariance,
    DirichletMatchRule,
    DirichletSystem,
    GaussianSystem,
    HomogeneousRule,
    LeakageSystem,
    LebesgueBase,
    PointMassCovariance,
    POWER_BIT_LIMIT,
    PolyaTreeSystem,
    Record,
    TableRule,
    _level_function,
    assemble_sigma,  # noqa: F401 -- perfbench/spans.py wraps it by name here
    pin_infinite_splits,
)

HOLDS = "holds"
FAILS = "fails"
SUFFICIENT_CONDITION_FAILS = "sufficient_condition_fails"
UNDETERMINED = "undetermined"

#: default evaluation depth for scalar product conditions (cost O(depth))
PRODUCT_DEPTH = 40
#: the deepest `check`: to m = 969 the evidence (total + 2^m)/(total + 1)
#: is finite for every finite total (2^970 is half the last place of the
#: largest float), and `check` on each benchmark system takes under 1 s
CHECK_DEPTH_CAP = 969
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
class Verdict(Record):
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
        """The record form, evidence read as (int, float) pairs, without a None extrapolation."""
        out = {**super().to_json(), "evidence": [[int(d), float(v)] for d, v in self.evidence]}
        if self.extrapolation is None:
            del out["extrapolation"]
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
        try:
            b0, b1 = system.rule.pair(m, ((1 << m) - 1) * bit)
        except ValidationError:
            return terms, False, m
        path, other = (b0, b1) if bit == 0 else (b1, b0)
        if math.isinf(other) and math.isfinite(path):
            return terms, True, m + 1
        terms.append(0.0 if math.isinf(path) else math.log1p(other / path))
    return terms, False, depth


def _directional_product_verdict(system: PolyaTreeSystem, bit: int, depth: int,
                                 name: str, anchor: str) -> Verdict:
    """Shared analysis for the two directed product conditions.

    The condition asks that the product of path-side splitting fractions
    vanish; equivalently that the cumulative log-sum S_M diverge.  The
    evidence lists S_M per depth.
    """
    terms, hit_zero, upto = _directional_terms(system, bit, depth)
    evidence = tuple((m + 1, float(s)) for m, s in enumerate(np.cumsum(terms)))
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

    # a table rule, the last of the closed `BETA_RULES`
    if rule.default is None:
        return Verdict(name, UNDETERMINED, anchor,
                       f"table rule without default is undefined beyond depth "
                       f"{upto} on the {side} path; no exact tail argument",
                       evidence)
    # the first depth beyond which the path only sees the default
    horizon = max((1 if label == "()" else len(label) + 1 for label in rule.pairs
                   if label == "()" or set(label) <= {str(bit)}), default=0)
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
    k = next((i for i, t in enumerate(tans) if not t > 1e-9), len(tans))
    ratios = [tans[i + 1] / tans[i] for i in range(k - 1)]
    if not ratios or max(ratios) > 1.0 / 3.0 + 1e-6:
        # no ratio (depth <= 1), or the convexity bound failed numerically
        return Verdict(name, UNDETERMINED, anchor,
                       "geometric domination of the tangent terms could not "
                       "be confirmed numerically",
                       evidence)
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

def _weak_level_sums(system: PolyaTreeSystem, depth: int) -> list[tuple[int, float]]:
    """Level sums of second moment over mean across all 2^m cells.

    Each node's children multiply its ratio by their factors: for a finite
    split (b_sibling/(b0+b1+1) + b_child) / (b0+b1); infinite weights pin
    the split, and a zero-mean child contributes factor 0.
    """
    ratios = np.array([1.0])
    out: list[tuple[int, float]] = []
    for m in range(1, depth + 1):
        try:
            a, b = system.rule.level_pairs(m)
        except ValidationError:
            return out
        s = a + b
        with np.errstate(all="ignore"):  # infinite nodes are pinned below
            factors = pin_infinite_splits(a, b, (b / (s + 1.0) + a) / s, (a / (s + 1.0) + b) / s)
        ratios = (ratios[:, None] * factors).reshape(-1)
        out.append((m, float(ratios.sum())))
    return out


def polya_weak_condition(system: PolyaTreeSystem,
                         depth: int = PRODUCT_DEPTH) -> Verdict:
    """Is the domination statistic sup_m (level sum of E P(A)^2 / mean(A))
    finite?

    Homogeneous rules admit the closed form (1 + 1/(2 b_m + 1))^m, decided
    by the exact limit of its exponent m/(2 b_m + 1) (`_leading_term_limit`).
    Mass-matching rules reduce to (total + 2^m)/(total + 1), which always
    diverges.  Other rules are enumerated cell by cell, so their trace is
    capped at depth 14 and left undetermined.
    """
    name, anchor = "polya-weak", EVALUATOR_TAGS["polya-weak"]
    rule = system.rule

    if isinstance(rule, HomogeneousRule):
        evidence = tuple((m, (1.0 + 1.0 / (2.0 * rule.level_parameter(m) + 1.0)) ** m)
                         for m in range(1, depth + 1))
        limit = _leading_term_limit(rule.expr)
        if limit is None:
            return Verdict(name, UNDETERMINED, anchor,
                           "the limit of the exponent m/(2 b_m + 1) is not decided "
                           "exactly for this expression; statistic trace only", evidence)
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


# ---------------------------------------------------------------------------
# Exact growth of beta expressions
#
# The dominant term of 2 f + 1 gives the limit of m/(2 f + 1).  A term
# q exp(A m^2 + Q m log m + B m + P log m + C) is held as {(A, Q, B, P, C):
# q}: q, Q, P rational, and A, B, C logs of products of a^r (r, a > 0
# rational) as sorted (r, a) tuples, one per r, a != 1, integer powers taken
# into r = 1 (`_log`), and for C into q.  (A, Q, B, P) order terms by growth.
# A form is such a dict and an error key: it leaves out O(that term), so it
# keeps only terms that outgrow it.  m-free subexpressions are folded as the
# system folds them and read as the exact binary values of the results.

class _Outside(Exception):
    """The form cannot hold the expression, or cannot order two growths."""


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator), x.denominator).bit_length()


def _power(x: Fraction, n: Fraction) -> Fraction:
    if x == 1:
        return x
    if n.denominator > 1 or abs(n) * _bits(x) > POWER_BIT_LIMIT:
        raise _Outside
    return x ** int(n)


def _log(pairs) -> tuple:
    out: dict = {}
    for r, a in pairs:
        if r.denominator == 1:
            r, a = Fraction(1), _power(a, r)
        out[r] = out.get(r, 1) * a
    if any(_bits(a) > POWER_BIT_LIMIT for a in out.values()):
        raise _Outside
    return tuple(sorted((r, a) for r, a in out.items() if r and a != 1))


def _cmp(k1, k2) -> int:
    """Order of growth of two keys."""
    for x, y in zip(k1[:4], k2[:4]):
        if x == y:
            continue
        if not isinstance(x, tuple):
            return 1 if x > y else -1
        x = _log([*x, *((r, 1 / a) for r, a in y)])  # the log of x/y
        if len(x) == 1:
            (r, a), = x
            return 1 if (r > 0) == (a > 1) else -1
        n = math.lcm(*(r.denominator for r, _ in x))
        value = math.prod(_power(a, r * n) for r, a in x)
        if value == 1:
            raise _Outside  # one growth spelled two ways
        return 1 if value > 1 else -1
    return 0


_ORDER = functools.cmp_to_key(_cmp)
_ONE, _M = ((), 0, (), 0, ()), ((), 0, (), 1, ())
#: bound on the terms of a form, and on a sum's exactly expanded power
_MAX_TERMS = 64


def _times(*keys) -> tuple:
    """The key of a product of terms."""
    return tuple(_log([p for x in xs for p in x]) if isinstance(xs[0], tuple) else sum(xs)
                 for xs in zip(*keys))


def _raise(key, n: Fraction, q: Fraction = Fraction(1)) -> tuple:
    """(q times the term)^n as a (key, coefficient) pair."""
    *key, C = key
    return (tuple(_log((r * n, a) for r, a in x) if isinstance(x, tuple) else x * n
                  for x in (*key, (*C, (1, abs(q))))),
            _power(Fraction(1 if q > 0 else -1), n))


def _top(*keys):
    return max(filter(None, keys), key=_ORDER, default=None)


def _lead(terms) -> tuple:
    """The key of the dominant term, which must exist and be alone in its
    growth."""
    lead = _top(*terms)
    if lead is None or sum(_cmp(k, lead) == 0 for k in terms) > 1:
        raise _Outside
    return lead


def _collect(pairs, err=None) -> tuple:
    """The form of the sum of (key, q) terms and O(err); beyond
    `_MAX_TERMS` terms the largest one left out becomes the error key."""
    out: dict = {}
    for (*key, C), q in pairs:
        key = (*key, tuple(p for p in C if p[0] != 1))
        out[key] = out.get(key, 0) + q * dict(C).get(1, 1)
    terms = {k: q for k, q in out.items() if q and (err is None or _cmp(k, err) > 0)}
    if len(terms) > _MAX_TERMS:
        ranked = sorted(terms, key=_ORDER, reverse=True)
        err, terms = ranked[_MAX_TERMS], {k: terms[k] for k in ranked[:_MAX_TERMS]}
    if any(_bits(q) > POWER_BIT_LIMIT for q in terms.values()):
        raise _Outside
    return terms, err


def _add(f, g) -> tuple:
    return _collect([*f[0].items(), *g[0].items()], _top(f[1], g[1]))


def _mul(f, g) -> tuple:
    bounds = ((e, _top(*other[0], other[1])) for e, other in ((f[1], g), (g[1], f)))
    return _collect(((_times(k1, k2), q1 * q2)
                     for k1, q1 in f[0].items() for k2, q2 in g[0].items()),
                    _top(*(_times(e, lead) for e, lead in bounds if e and lead)))


def _power_form(base, exponent) -> tuple:
    (terms, err), (g, g_err) = base, exponent
    if len(terms) == 1 and err is None and g_err is None:  # the product of (q T)^(r m^p)
        ((key, q), ), out, sign = terms.items(), _ONE, Fraction(1)
        for (A, Q, B, p, C), r in g.items():
            if A or Q or B or C or p not in (0, 1, 2) or (p and q < 0):
                raise _Outside
            term, s = _raise(key, r, q)
            for _ in range(int(p)):  # exp(m log T)
                if term[0] or term[1]:
                    raise _Outside
                term = (*term[2:], 0, ())
            out, sign = _times(out, term), sign * s
        return _collect([(out, sign)])
    if g_err is not None or not g.keys() <= {_ONE}:
        raise _Outside
    n = g.get(_ONE, Fraction(0))
    if n.denominator == 1 and 0 <= n <= _MAX_TERMS:
        out = ({_ONE: Fraction(1)}, None)
        for bit in format(int(n), "b"):
            out = _mul(out, out)
            if bit == "1":
                out = _mul(out, base)
        return out
    # lead^n + n lead^(n-1) rest + O(lead^(n-2) rest^2)
    lead = _lead(terms)
    rest = ({k: q for k, q in terms.items() if k != lead}, err)
    key, q = _raise(lead, n - 1, terms[lead])
    first = _mul(({key: n * q}, None), rest)
    lost = _times(_raise(lead, n - 2)[0], *[_top(*rest[0], err)] * 2)
    return _collect([_raise(lead, n, terms[lead]), *first[0].items()],
                    _top(first[1], lost))


def _normal_form(node) -> tuple:
    if not any(isinstance(n, ast.Name) for n in ast.walk(node)):  # folded as the system folds it
        return _collect([(_ONE, Fraction(_level_function(node, "")(0)))])
    if isinstance(node, ast.Name) and node.id == "m":
        return {_M: Fraction(1)}, None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _mul(({_ONE: Fraction(-1)}, None), _normal_form(node.operand))
    # else a `_BINOPS` node: `_level_function` accepted the tree
    op = {ast.Add: _add, ast.Mult: _mul, ast.Pow: _power_form}[type(node.op)]
    return op(_normal_form(node.left), _normal_form(node.right))


def _leading_term_limit(expr: str) -> Optional[float]:
    """Exact limit of m/(2 f + 1), or None when the form cannot decide it;
    `expr` is one that `HomogeneousRule` accepts.
    A finite limit 1/(q e^C) is the float nearest its exact value when C is
    empty, and is computed in floats otherwise."""
    try:
        terms, err = _normal_form(ast.parse(expr.replace("^", "**"), mode="eval").body)
        terms, _ = _add(({k: 2 * q for k, q in terms.items()}, err),
                        ({_ONE: Fraction(1)}, None))
        key = _lead(terms)  # none if 2 f + 1 vanishes, or is lost in the error
        order = _cmp(key, _M)
        if order:
            return 0.0 if order > 0 else math.inf
        return float(1 / terms[key]) / math.exp(
            sum(r * (math.log(a.numerator) - math.log(a.denominator)) for r, a in key[4]))
    except (_Outside, ArithmeticError, RecursionError, SyntaxError, TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Dirichlet conditions

def dirichlet_condition(system: DirichletSystem,
                        domain: Optional[Domain] = None) -> Verdict:
    """Existence for normalized-Gamma systems is unconditional: any finite
    positive base measure yields a coherent limit, completely random up to
    normalization.  Records the base total as evidence."""
    total = system.base.total(Domain.unit() if domain is None else domain)
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


def _chain_levels(chain: PartitionChain, depth: int):
    """(m, level m) for m = 1..depth: a dyadic chain goes on halving past its
    last level, any other chain stops there."""
    for m in range(1, depth + 1):
        if m <= chain.depth:
            yield m, chain[m]
        elif chain.kind == "dyadic":
            yield m, Partition(chain.domain, "dyadic", m)
        else:
            return


def dirichlet_weak_condition(system: DirichletSystem,
                             domain: Optional[Domain] = None,
                             depth: int = PRODUCT_DEPTH,
                             chain: Optional[PartitionChain] = None) -> Verdict:
    """Domination statistic sum over cells of (nu(A)+1)/(nu(X)+1), counting
    only cells of positive base mass.

    Purely atomic bases keep the statistic bounded by (total + #atoms of
    positive weight)/(total + 1) at every depth; a continuous base puts
    positive mass in all 2^m cells, and the statistic diverges.  Both
    directions are exact — domination holds if and only if the base is
    purely atomic.

    The evidence runs over the levels of `chain` up to `depth`; at each, the
    atomic count is of the cells where `cell_masses` puts the atoms of
    positive weight.  The chain defaults to the dyadic chain of `domain`
    (the unit interval when None); given, it also gives the domain.
    """
    if chain is None:
        chain = dyadic_chain(Domain.unit() if domain is None else domain)
    name, anchor = "dirichlet-weak", EVALUATOR_TAGS["dirichlet-weak"]
    total = system.base.total(chain.domain)
    if isinstance(system.base, AtomicBase):
        points = [x for x, w in zip(system.base.points, system.base.weights) if w > 0]
        evidence = tuple(
            (m, (total + len({level.position_of(x) for x in points})) / (total + 1.0))
            for m, level in _chain_levels(chain, depth))
        bound = (total + len(points)) / (total + 1.0)
        return Verdict(name, HOLDS, anchor,
                       f"purely atomic base: at most {len(points)} "
                       "cells ever carry mass, so the statistic never exceeds "
                       f"{bound:.6g}",
                       evidence)
    evidence = tuple((m, (total + 2.0 ** m) / (total + 1.0))
                     for m, _ in _chain_levels(chain, depth))
    return Verdict(name, FAILS, anchor,
                   "continuous base: every cell keeps positive mass, the "
                   "statistic equals (total + 2^m)/(total + 1) and diverges; "
                   "domination holds exactly when the base is purely atomic",
                   evidence)


# ---------------------------------------------------------------------------
# Gaussian conditions

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
    cap = QUADRATURE_LEVEL_CAP if spec.quadrature else MATRIX_LEVEL_CAP
    for m in range(min(depth, cap, chain.depth) + 1):
        part = chain[m]
        diag, tau = spec.spectrum(part)
        curves["diagonal"].append((m, float(diag.max())))
        curves["weak"].append((m, float(np.sqrt(diag).sum())))
        curves["trace"].append((m, float(diag.sum())))
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
class LeakageReport(Record):
    """Outside-mass table of the escaping-mass construction, with its
    tightness verdict."""

    delta: float
    depth: int
    interior: bool
    windows: tuple[float, ...]
    rows: tuple[tuple[int, float, float], ...] = field(repr=False)
    verdict: Verdict = field(repr=False)

    def to_json(self) -> dict:
        """The record form, each row a depth/window/outside_mass object."""
        return {**super().to_json(), "rows": [{"depth": d, "window": k, "outside_mass": v}
                                              for d, k, v in self.rows]}


def leakage_counterexample(delta: float, depth: int,
                           interior: bool = False) -> LeakageReport:
    """Tabulate the deterministic mass outside candidate windows.

    For every window the outside mass equals delta once the outer cuts have
    moved past it, so no single compact window ever captures all but an
    arbitrarily small fraction — the tightness property fails whenever
    delta > 0, by construction rather than by numerics.
    """
    system = LeakageSystem(delta, depth, interior=interior)
    check_depth_capacity(depth)  # refused beyond the maximum, as the system's chain is
    windows = (0.1, 0.2, 0.3, 0.45) if interior else (1.0, 2.0, 4.0, 8.0)
    masses = [system.outside_masses(n, windows) for n in range(1, depth + 1)]
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
