"""The exact leading-term limit of m/(2 b_m + 1) for homogeneous Polya
rules, checked class by class and against the sympy limit it replaces."""

import math
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from histolim import conditions
from histolim.conditions import polya_weak_condition
from histolim.errors import ValidationError
from histolim.systems import HomogeneousRule, PolyaTreeSystem


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


@pytest.mark.parametrize("expr", [
    "(-2)^m",       # negative base of b^m
    "2^(0.5*m)",    # irrational b
    "(1+m^-1)^m",   # a sum raised to a power in m
    "m^m",
    "-0.5 + m^-1",  # the dominant constant cancels in 2f + 1
    "0.1*3*m + -0.3*m + 1",  # float cancellation: sympy keeps 5.55e-17*m
    "1.0000001^m",  # seven digits: sympy may read the float as 1
    "(1.1*1.1)^m",  # folds to 1.2100000000000002
    "m^0.5*m^0.5",  # fractional powers that sympy adds as floats
    "(m + 1)^64",   # binomial coefficients beyond 2^53
])
def test_leading_term_limit_leaves_the_rest_to_sympy(expr):
    assert conditions._leading_term_limit(expr) is None


@pytest.mark.parametrize("expr, limit", [
    ("(1.6 + -0.6)^m", math.inf),  # 1.6 + -0.6 is 1.0 in floats: b = 1
    ("m^(1.6 + -0.6)", 0.5),
    ("m + m^(0.1+0.9)", 0.25),
])
def test_constants_fold_in_floats_as_the_system_folds_them(expr, limit):
    assert conditions._leading_term_limit(expr) == limit
    assert conditions._sympy_exponent_limit(expr) == limit


def test_huge_coefficients_fall_back_quickly():
    start = time.perf_counter()
    assert conditions._leading_term_limit("(1.1^600*0.9^600*m + 1)^256") is None
    assert conditions._leading_term_limit("(2^60000*m + 1)^64") is None
    assert time.perf_counter() - start < 1.0


def test_exact_path_decides_where_sympy_gives_up():
    # sympy.limit raises "Not sure of sign of -log(10)/(-2*log(10) +
    # 2*log(11)) + 2", so the verdict was undetermined; b = 121/1000 < 1
    expr = "10^(2 + -1*m)*(1.1^(2*m + -1) + m)"
    assert conditions._sympy_exponent_limit(expr) is None
    assert conditions._leading_term_limit(expr) == math.inf


def test_fallback_expression_still_gets_the_sympy_limit():
    assert conditions._homogeneous_exponent_limit("(1+m^-1)^m") == math.inf
    assert conditions._homogeneous_exponent_limit("m^0.5*m^0.5") == 0.5


# --- differential test against sympy ----------------------------------------

_FLOATS = st.sampled_from(["0.5", "0.25", "1.5", "2.5", "0.1", "0.3", "1.0",
                           "1.6", "-0.6", "0.7", "1.1", "0.9", "1.25", "0.8",
                           "1.0000001", "0.9999999", "1e-3"])
# float arithmetic that the system and sympy fold before reading the result:
# 1.6 + -0.6 is 1.0, 0.1 + 0.2 is 0.30000000000000004
_FLOAT_FOLDS = st.tuples(_FLOATS, st.sampled_from([" + ", "*"]), _FLOATS).map(
    lambda t: f"({''.join(t)})")
_NUMBERS = st.one_of(st.sampled_from(["0", "1", "2", "3"]), _FLOATS, _FLOAT_FOLDS)
_EXPONENTS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "-1", "-2", "0.5", "1.5", "2.0", "m",
                     "(m + 1)", "(2*m + -1)", "(0.5*m)"]),
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
    """Wherever the exact path decides, sympy prints the same limit, and
    the verdict has the same status and argument."""
    fast = conditions._leading_term_limit(expr)
    if fast is None:
        return
    oracle = conditions._sympy_exponent_limit(expr)
    if oracle is None:
        return  # sympy raised: see test_exact_path_decides_where_sympy_gives_up
    assert _text(fast) == _text(oracle), expr
    try:
        system = PolyaTreeSystem(HomogeneousRule(expr))
        verdict = polya_weak_condition(system, depth=3)
    except ValidationError:
        return  # b_m <= 0 at some m <= 3: no verdict to compare
    with mock.patch.object(conditions, "_leading_term_limit", return_value=None):
        oracle = polya_weak_condition(system, depth=3)
    assert (verdict.status, verdict.argument) == (oracle.status, oracle.argument)
