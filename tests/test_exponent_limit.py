"""The exact limit of m/(2 b_m + 1) for homogeneous Polya rules, checked
class by class and against sympy's limit as a test-only oracle."""

import ast
import math
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from histolim import conditions
from histolim.conditions import HOLDS, SUFFICIENT_CONDITION_FAILS, polya_weak_condition
from histolim.errors import ValidationError
from histolim.systems import _BINOPS, HomogeneousRule, PolyaTreeSystem


@pytest.mark.parametrize("expr, limit", [
    ("m^2", 0.0),                 # b = 1, p > 1
    ("2^(m+1)*m^-3", 0.0),        # b > 1 beats any power of m
    ("2*m+1", 0.25),              # b = 1, p = 1: 1/(2c)
    ("0.3*m", 1 / 0.6),
    ("m^0.5", math.inf),          # b = 1, p < 1
    ("0.5^m", math.inf),          # b < 1
    ("m + -1*m + 3", math.inf),   # the m terms cancel exactly
])
def test_leading_term_limit_by_class(expr, limit):
    got = conditions._leading_term_limit(expr)
    assert got == pytest.approx(limit, rel=1e-15)
    assert math.copysign(1.0, got) == 1.0  # never -0.0


@pytest.mark.parametrize("expr, limit", [
    ("(m+1)^0.5", math.inf),                 # m^0.5 (1 + m^-1/2 + ...)
    ("(m^2+1)^0.5", 0.5),                    # m + m^-1/2 + O(m^-3)
    ("(m+m^2)^0.5 + -1*m", math.inf),        # the leads cancel: 1/2 + O(m^-1)
    ("m^m", 0.0),                            # m log m beats m
    ("2^(m^2)", 0.0),                        # m^2 beats m log m
    ("m^(0.3*m)", 0.0),
    ("(2^m)^m", 0.0),                        # 2^(m^2)
    ("(m+1)^100", 0.0),                      # beyond 64: lead and first order
    ("(m + 1)^64", 0.0),                     # 65 terms: the last becomes O(1)
    ("(m + 1)^2 + -1*m^2 + -2*m", math.inf),  # exact expansion cancels to 1
    ("0.1*m + 0.2*m", 1.6666666666666665),   # exact binary 0.1 + 0.2 > 0.3
    ("0.1*3*m + -0.3*m + 1", 2.0 ** 53),     # 0.1*3 folds to 0.3 + 2^-54
    ("m^0.5*m^0.5", 0.5),
    ("-0.5 + m^-1", math.inf),               # 2 f + 1 = 2/m
    ("1.000000001^m", 0.0),                  # the binary float is above 1
    ("1.0000001^m", 0.0),
    ("(1.1*1.1)^m", 0.0),                    # folds to 1.2100000000000002
    ("2^(0.5*m)", 0.0),                      # b = 2^(1/2) > 1
    ("2^m*3^m + -1*6^m", math.inf),          # one base, so the terms cancel
    ("m^(-1*m)", math.inf),
    ("(4*m^2 + 1)^0.5", 0.25),               # 2 m + m^-1/4 + O(m^-3)
    ("2^(0.3*m + 1.75)", 0.0),               # the factor 2^1.75 is irrational
    ("2^(0.5*m + 0.5)*0.5^(0.5*m)*m", 0.3535533905932738),  # 1/(2 sqrt 2)
    ("-((m^0 + m^0)^-2)", math.inf),         # f = -1/4 stays exact
])
def test_exponent_limit_decided_exactly(expr, limit):
    assert conditions._leading_term_limit(expr) == limit
    assert _sympy_limit(expr) == limit


@pytest.mark.parametrize("expr", [
    "(-2)^m",           # negative base of b^m
    "(1+m^-1)^m",       # a sum raised to a power in m
])
def test_leading_term_limit_leaves_the_rest_to_sympy(expr):
    assert conditions._leading_term_limit(expr) is None


@pytest.mark.parametrize("expr", [
    "m^(m^2)",          # m^2 log m is beyond the growth classes
    "-0.5",             # 2 f + 1 vanishes
    "(m^4+m^3)^0.5 + -1*m^2 + -0.5*m",  # cancels down to the error O(1)
    "4^(0.5*m) + -1*2^m",  # one growth spelled two ways
    "(m + -1*m)^0.5",   # a power of 0 that is not an integer power
])
def test_exponent_limit_undetermined(expr):
    assert conditions._leading_term_limit(expr) is None


@pytest.mark.parametrize("expr, limit", [
    ("(1.6 + -0.6)^m", math.inf),  # 1.6 + -0.6 is 1.0 in floats: b = 1
    ("m^(1.6 + -0.6)", 0.5),
    ("m + m^(0.1+0.9)", 0.25),
])
def test_constants_fold_in_floats_as_the_system_folds_them(expr, limit):
    assert conditions._leading_term_limit(expr) == limit
    assert _sympy_limit(expr) == limit


def test_bases_of_two_powers_compare_at_a_common_power():
    """2^m against 3^(m/2): at the common power 2 the ratio is 2^2/3 > 1."""
    assert conditions._leading_term_limit("2^m + 3^(0.5*m)") == 0.0
    assert conditions._leading_term_limit("3^(0.5*m) + 2^m") == 0.0


def test_a_base_past_the_bit_limit_is_left_undecided():
    """Each power alone is within `POWER_BIT_LIMIT` bits, their product is not."""
    assert conditions._leading_term_limit("(2^40000)^m*(3^30000)^m") is None


def test_huge_coefficients_fall_back_quickly():
    start = time.perf_counter()
    assert conditions._leading_term_limit("(1.1^600*0.9^600*m + 1)^256") == 0.0
    assert conditions._leading_term_limit("(2^60000*m + 1)^64") is None
    assert conditions._leading_term_limit("(m + m^0.5 + m^0.25 + m^0.125 + 1)^64") == 0.0
    assert time.perf_counter() - start < 1.0


def test_exact_path_decides_where_sympy_gives_up():
    # sympy.limit raises NotImplementedError here; b = 121/1000 < 1
    expr = "10^(2 + -1*m)*(1.1^(2*m + -1) + m)"
    assert _sympy_limit(expr) is None
    assert conditions._leading_term_limit(expr) == math.inf


def test_fallback_expression_still_gets_the_sympy_limit():
    # sympy finds the limit of (1+m^-1)^m, which the exact procedure leaves
    # undetermined; where the exact procedure decides, it agrees with sympy
    assert _sympy_limit("(1+m^-1)^m") == math.inf
    assert conditions._leading_term_limit("(1+m^-1)^m") is None
    assert _sympy_limit("m^0.5*m^0.5") == 0.5
    assert conditions._leading_term_limit("m^0.5*m^0.5") == 0.5


# --- differential test against sympy ----------------------------------------

def _fold(node):
    """An m-free subexpression, evaluated with the system's operators."""
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_fold(node.left), _fold(node.right))
    if isinstance(node, ast.UnaryOp):
        return -_fold(node.operand)
    return node.value


def _sympy_limit(expr):
    """sympy.limit of m/(2 f + 1), with each m-free subexpression folded as
    the system folds it and handed over as the exact binary Rational of the
    result; None where sympy raises or finds no real limit."""
    import sympy

    m = sympy.Symbol("m", positive=True)

    def build(node):
        if not any(isinstance(n, ast.Name) for n in ast.walk(node)):
            x = Fraction(_fold(node))
            return sympy.Rational(x.numerator, x.denominator)
        if isinstance(node, ast.Name):
            return m
        if isinstance(node, ast.UnaryOp):
            return -build(node.operand)
        op = {ast.Add: sympy.Add, ast.Mult: sympy.Mul, ast.Pow: sympy.Pow}[type(node.op)]
        return op(build(node.left), build(node.right))

    try:
        f = build(ast.parse(expr.replace("^", "**"), mode="eval").body)
        limit = sympy.limit(m / (2 * f + 1), m, sympy.oo)
    except Exception:
        return None
    if limit.is_infinite:
        return math.inf
    return float(limit) if limit.is_real else None


_FLOATS = st.sampled_from(["0.5", "0.25", "1.5", "2.5", "0.1", "0.3", "1.0",
                           "1.6", "-0.6", "0.7", "1.1", "0.9", "1.25", "0.8",
                           "1.0000001", "0.9999999", "1e-3"])
# float arithmetic that the system folds before the result is read:
# 1.6 + -0.6 is 1.0, 0.1 + 0.2 is 0.30000000000000004
_FLOAT_FOLDS = st.tuples(_FLOATS, st.sampled_from([" + ", "*"]), _FLOATS).map(
    lambda t: f"({''.join(t)})")
_NUMBERS = st.one_of(st.sampled_from(["0", "1", "2", "3"]), _FLOATS, _FLOAT_FOLDS)
_EXPONENTS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "-1", "-2", "0.5", "1.5", "2.0", "m",
                     "(m + 1)", "(2*m + -1)", "(0.5*m)", "(m^2)"]),
    _FLOAT_FOLDS,
    st.tuples(_NUMBERS, _NUMBERS).map(lambda t: f"({t[0]}*m + {t[1]})"),
)


def _grow(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda t: f"({t[0]} + {t[1]})"),
        pairs.map(lambda t: f"{t[0]}*{t[1]}"),
        children.map(lambda e: f"-({e})"),
        pairs.map(lambda t: f"({t[0]} + -1*{t[0]} + {t[1]})"),  # cancels
        st.tuples(children, _EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(_NUMBERS, _EXPONENTS).map(lambda t: f"{t[0]}^{t[1]}"),
    )


_EXPRESSIONS = st.recursive(st.one_of(st.just("m"), _NUMBERS), _grow, max_leaves=6)


def _text(limit):
    return None if limit is None else format(limit, ".6g")


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(_EXPRESSIONS)
def test_leading_term_limit_agrees_with_sympy(expr):
    """Wherever the exact procedure decides, sympy prints the same limit of
    the same function, and the verdict states it."""
    exact = conditions._leading_term_limit(expr)
    if exact is None:
        return
    oracle = _sympy_limit(expr)
    if oracle is None:
        return  # sympy raised: see test_exact_path_decides_where_sympy_gives_up
    assert _text(exact) == _text(oracle), expr
    try:
        verdict = polya_weak_condition(PolyaTreeSystem(HomogeneousRule(expr)), depth=3)
    except ValidationError:
        return  # b_m <= 0 at some m <= 3: no verdict to compare
    if math.isinf(oracle):
        assert verdict.status == SUFFICIENT_CONDITION_FAILS
    else:
        assert verdict.status == HOLDS
        assert f"finite limit {_text(oracle)}," in verdict.argument
