"""Tests for the exact polynomial layer.

Ring axioms and substitution laws are property-based; a handful of concrete
expansions are cross-checked against sympy, which plays no role in the
package itself.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg import polyring
from confalg.errors import (
    ConfalgError,
    DuplicateBinding,
    ExponentOverflow,
    ParseError,
    TermOverflow,
)
from confalg.polyring import (
    EXP_MAX,
    Poly,
    decimal_to_int,
    int_to_decimal,
    lam,
    parse_poly,
    var_sort_key,
)

D = Poly.var("D")
L1 = Poly.var("L1")
L2 = Poly.var("L2")
T = Poly.var("t")


# -- strategies ------------------------------------------------------------

VARS = ["D", "L1", "L2", "L3", "t", "q"]

scalars = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


@st.composite
def monomials(draw) -> tuple:
    names = draw(st.lists(st.sampled_from(VARS), unique=True, max_size=3))
    pairs = [(name, draw(st.integers(min_value=1, max_value=3))) for name in names]
    return tuple(sorted(pairs, key=lambda p: var_sort_key(p[0])))


@st.composite
def polys(draw) -> Poly:
    terms = draw(st.dictionaries(monomials(), scalars, max_size=4))
    return Poly(terms)


# Wider inputs for the packed kernel: exponents up to 12, a lambda variable
# beyond the preassigned L1..L4, auxiliary variables, and mixed denominators.
WIDE_VARS = ["D", "L1", "L2", "L4", "L7", "t", "q"]

wide_scalars = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def wide_monomials(draw, max_exp: int = 12) -> tuple:
    names = draw(st.lists(st.sampled_from(WIDE_VARS), unique=True, max_size=3))
    pairs = [(name, draw(st.integers(min_value=1, max_value=max_exp))) for name in names]
    return tuple(sorted(pairs, key=lambda p: var_sort_key(p[0])))


@st.composite
def wide_polys(draw, max_exp: int = 12, max_terms: int = 4) -> Poly:
    terms = draw(st.dictionaries(wide_monomials(max_exp), wide_scalars, max_size=max_terms))
    return Poly(terms)


# -- ring axioms -----------------------------------------------------------


@settings(max_examples=100)
@given(polys(), polys(), polys())
def test_ring_axioms(p: Poly, q: Poly, r: Poly) -> None:
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero() == p
    assert p * Poly.one() == p
    assert p - p == Poly.zero()
    assert p * Poly.zero() == Poly.zero()


@settings(max_examples=100)
@given(polys())
def test_coefficients_stay_reduced_and_nonzero(p: Poly) -> None:
    square = p * p
    for mono, coeff in square.items():
        assert coeff != 0
        assert isinstance(coeff, Fraction)
        # Fraction guarantees lowest terms; assert the invariant anyway.
        from math import gcd

        assert gcd(abs(coeff.numerator), coeff.denominator) == 1
        assert coeff.denominator > 0
        assert all(exp > 0 for _, exp in mono)


@settings(max_examples=100)
@given(polys(), st.sampled_from(VARS))
def test_substitute_identity(p: Poly, name: str) -> None:
    assert p.substitute(name, Poly.var(name)) == p


@settings(max_examples=100)
@given(polys(), polys(), st.sampled_from(VARS), polys())
def test_substitute_is_ring_hom(p: Poly, q: Poly, name: str, image: Poly) -> None:
    lhs = (p * q).substitute(name, image)
    rhs = p.substitute(name, image) * q.substitute(name, image)
    assert lhs == rhs
    assert (p + q).substitute(name, image) == p.substitute(name, image) + q.substitute(
        name, image
    )


@settings(max_examples=60)
@given(polys())
def test_str_round_trip(p: Poly) -> None:
    assert parse_poly(str(p)) == p


# -- simultaneity of substitute_many ----------------------------------------


def test_substitute_many_is_simultaneous() -> None:
    p = L1 * L2
    result = p.substitute_many([("L1", L1 + L2), ("L2", Poly.var("L3"))])
    assert result == (L1 + L2) * Poly.var("L3")


def test_substitute_many_rejects_duplicates() -> None:
    with pytest.raises(DuplicateBinding):
        (D + L1).substitute_many([("D", L1), ("D", L2)])


def test_substitute_examples() -> None:
    assert (D + L1).substitute("D", -L1) == Poly.zero()
    assert (D ** 2).substitute("D", D + L1) == D ** 2 + 2 * D * L1 + L1 ** 2
    assert L2.substitute("D", Poly.const(7)) == L2
    assert (D + L1).substitute_many([("D", -L1 - D)]) == -D
    assert (L1 ** 2).substitute_many([("L1", L1 + L2)]) == L1 ** 2 + 2 * L1 * L2 + L2 ** 2


def test_arith_examples() -> None:
    assert (D + 1) + (-D) == Poly.one()
    assert D * L1 == Poly({(("D", 1), ("L1", 1)): Fraction(1)})
    assert (D + L1) * (D - L1) - D ** 2 == -(L1 ** 2)


# -- sympy cross-checks ------------------------------------------------------


def _to_sympy(p: Poly) -> sympy.Expr:
    expr = sympy.Integer(0)
    for mono, coeff in p.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for name, exp in mono:
            term *= sympy.Symbol(name) ** exp
        expr += term
    return expr


@settings(max_examples=40)
@given(polys(), polys())
def test_mul_matches_sympy(p: Poly, q: Poly) -> None:
    ours = _to_sympy(p * q)
    theirs = sympy.expand(_to_sympy(p) * _to_sympy(q))
    assert sympy.simplify(ours - theirs) == 0


@settings(max_examples=40)
@given(polys(), polys())
def test_substitution_matches_sympy(p: Poly, image: Poly) -> None:
    ours = _to_sympy(p.substitute("D", image))
    theirs = sympy.expand(_to_sympy(p).subs(sympy.Symbol("D"), _to_sympy(image)))
    assert sympy.simplify(ours - theirs) == 0


# -- parsing ------------------------------------------------------------------


def test_parse_poly_forms() -> None:
    assert parse_poly("(2*D + 3*L1)^2") == (2 * D + 3 * L1) ** 2
    assert parse_poly("1/2*D - L1") == Fraction(1, 2) * D - L1
    assert parse_poly("-D^2") == -(D ** 2)
    assert parse_poly("t*q") == T * Poly.var("q")
    assert parse_poly("0") == Poly.zero()


def test_parse_poly_errors() -> None:
    with pytest.raises(ParseError):
        parse_poly("D^")
    with pytest.raises(ParseError):
        parse_poly("2 +")
    with pytest.raises(ParseError):
        parse_poly("(D")
    with pytest.raises(ParseError):
        parse_poly("D @ L1")


def test_parse_poly_limits_nesting() -> None:
    with pytest.raises(ParseError, match="nesting deeper than 100 levels"):
        parse_poly("(" * 2000 + "D" + ")" * 2000)
    with pytest.raises(ParseError, match="nesting deeper than 100 levels"):
        parse_poly("-" * 5000 + "D")
    assert parse_poly("(" * 50 + "D" + ")" * 50) == D
    assert parse_poly("-" * 50 + "D") == D


def test_parse_poly_locates_an_exponent_overflow() -> None:
    with pytest.raises(ExponentOverflow, match=r"exceeds the cap 32767 \(line 1, column 5\)$"):
        parse_poly("1 + D^40000")
    # a product that overflows names its right-hand factor
    with pytest.raises(ExponentOverflow, match=r"of D exceeds .* \(line 1, column 20\)$"):
        parse_poly("2*D^30000 + D^3000*D^30000")


def test_term_cap_bounds_products_and_substitutions(monkeypatch) -> None:
    assert issubclass(TermOverflow, ConfalgError)
    assert polyring.MAX_TERMS >= 100 * 2014  # the largest intermediate the benchmarks meet
    monkeypatch.setattr(polyring, "MAX_TERMS", 50)
    x = D + L1 + L2
    assert len(list((x**8).items())) == 45
    with pytest.raises(TermOverflow):
        x**9  # 55 terms
    # the powers x^1 .. x^4 hold 34 terms and the result 15
    assert len(list((D**4).substitute("D", x).items())) == 15
    with pytest.raises(TermOverflow):
        (D**5).substitute("D", x)  # the powers alone hold 55 terms
    wide = sum((T**k * D for k in range(30)), Poly.zero())
    with pytest.raises(TermOverflow):
        wide.substitute("D", D + 1)  # 60 terms in the result


def test_lambda_names() -> None:
    assert lam(1) == "L1"
    assert lam(12) == "L12"
    with pytest.raises(ValueError):
        lam(0)
    assert var_sort_key("D") < var_sort_key("L1") < var_sort_key("L2") < var_sort_key("t")


# -- the packed kernel ---------------------------------------------------------


def _assert_canonical(p: Poly) -> None:
    """Integer numerators over one positive denominator, with no common factor."""
    from math import gcd

    nums, den = p._nums, p._den
    assert isinstance(den, int) and den > 0
    assert all(isinstance(c, int) and c != 0 for c in nums.values())
    assert gcd(den, *nums.values()) == 1


@settings(max_examples=100)
@given(wide_polys(), wide_polys(), st.sampled_from(WIDE_VARS), wide_polys(max_exp=2, max_terms=2))
def test_results_are_canonical(p: Poly, q: Poly, name: str, image: Poly) -> None:
    for r in (p, q, p + q, p - q, p * q, -p, p * Fraction(6, 5), 3 * p, p ** 2,
              p.substitute(name, image), Poly.const(Fraction(3, 4)) - p):
        _assert_canonical(r)


def test_equal_polynomials_built_differently_hash_equal() -> None:
    pairs = [
        (Poly.const(Fraction(1, 2)) * 2, Poly.one()),
        (Poly.const(Fraction(1, 3)) + Fraction(2, 3), Poly.one()),
        (Fraction(1, 2) * D + Fraction(1, 2) * D, D),
        (
            Poly({(("D", 1), ("L1", 2)): Fraction(3, 4), (("t", 1),): Fraction(-1, 6)}),
            Fraction(3, 4) * D * L1 ** 2 - Fraction(1, 6) * T,
        ),
        (Poly({(("L1", 1), ("D", 1)): 2}), 2 * D * L1),
        (Poly({(("D", 1), ("D", 2)): 1}), D ** 3),
        ((D + Fraction(1, 3)) * (D - Fraction(1, 3)) - D ** 2, Poly.const(Fraction(-1, 9))),
        ((D + L1).substitute("L1", -D), Poly.zero()),
        (Poly({(): 0, (("D", 1),): 0}), Poly.zero()),
    ]
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)
        _assert_canonical(left)


@settings(max_examples=100)
@given(wide_polys())
def test_items_and_constructor_round_trip(p: Poly) -> None:
    items = list(p.items())
    for mono, coeff in items:
        assert isinstance(coeff, Fraction) and coeff != 0
        assert list(mono) == sorted(mono, key=lambda pair: var_sort_key(pair[0]))
        assert all(exp > 0 for _, exp in mono)
    rebuilt = Poly(dict(items))
    assert rebuilt == p
    assert hash(rebuilt) == hash(p)
    assert p.constant_term() == dict(items).get((), 0)


@settings(max_examples=50, deadline=None)
@given(wide_polys(), wide_polys())
def test_wide_sum_and_product_match_sympy(p: Poly, q: Poly) -> None:
    sp_p, sp_q = _to_sympy(p), _to_sympy(q)
    assert sympy.expand(_to_sympy(p + q) - (sp_p + sp_q)) == 0
    assert sympy.expand(_to_sympy(p - q) - (sp_p - sp_q)) == 0
    assert sympy.expand(_to_sympy(p * q) - sp_p * sp_q) == 0


@settings(max_examples=40, deadline=None)
@given(
    wide_polys(max_terms=3),
    st.lists(st.sampled_from(WIDE_VARS), unique=True, min_size=1, max_size=2),
    st.lists(wide_polys(max_exp=2, max_terms=2), min_size=2, max_size=2),
)
def test_wide_substitute_many_matches_sympy(p: Poly, names: list, images: list) -> None:
    ours = p.substitute_many(list(zip(names, images)))
    theirs = _to_sympy(p).subs(
        {sympy.Symbol(n): _to_sympy(im) for n, im in zip(names, images)}, simultaneous=True
    )
    assert sympy.expand(_to_sympy(ours) - theirs) == 0


def test_exponents_up_to_the_cap_are_exact() -> None:
    top = Poly.var("D", EXP_MAX)
    assert Poly.var("D", EXP_MAX // 2) * Poly.var("D", EXP_MAX - EXP_MAX // 2) == top
    # full neighbouring fields do not disturb each other
    full = top * Poly.var("L1", EXP_MAX) * Poly.var("t", EXP_MAX)
    assert list(full.items()) == [((("D", EXP_MAX), ("L1", EXP_MAX), ("t", EXP_MAX)), 1)]
    assert full.degree_in("L1") == EXP_MAX
    assert Poly.var("L1", 1) ** EXP_MAX == Poly.var("L1", EXP_MAX)
    assert str(parse_poly(f"D^{EXP_MAX}")) == f"D^{EXP_MAX}"


def test_exponent_overflow_raises() -> None:
    assert issubclass(ExponentOverflow, ConfalgError)
    half = Poly.var("L1", EXP_MAX // 2 + 1)
    cases = [
        lambda: Poly.var("D", EXP_MAX + 1),
        lambda: Poly.var("q", 3000000000),
        lambda: Poly({(("D", EXP_MAX + 1),): 1}),
        lambda: Poly({(("t", EXP_MAX), ("t", 1)): 1}),
        lambda: half * half,
        lambda: (half + D) * (half - 1),
        lambda: Poly.var("D", EXP_MAX) * D,
        lambda: (D + 1) ** (EXP_MAX + 1),
        lambda: half ** 2,
        lambda: (3 * T * half) ** 2,
        lambda: Poly.const(2) ** (EXP_MAX + 1),
        lambda: (D ** 2 + L1) ** (EXP_MAX // 2 + 1),
        lambda: (D ** 2).substitute("D", half),
        lambda: parse_poly(f"L4^{EXP_MAX + 1}"),
        lambda: parse_poly(f"t^{EXP_MAX} * (t + 1)"),
        lambda: parse_poly("D^" + "9" * 5000),
        lambda: Poly.var("D", 10**5000),
    ]
    for case in cases:
        with pytest.raises(ExponentOverflow):
            case()


def test_decimal_helpers_handle_numbers_past_the_interpreter_limit() -> None:
    # 4300 digits is the interpreter's default limit on int/str conversions
    for value in (0, 7, 10**639, 10**640, 10**1500 + 7, 10**5000 - 1, 3**20000):
        text = int_to_decimal(value)
        assert decimal_to_int(text) == value
        assert int_to_decimal(-value) == ("-" + text if value else "0")
    assert decimal_to_int("9" * 5000) == 10**5000 - 1
    assert int_to_decimal(10**5000) == "1" + "0" * 5000
    assert int_to_decimal(10**1500 + 7) == "1" + "0" * 1499 + "7"
    assert len(int_to_decimal(3**20000)) == 9543


def test_str_round_trips_a_coefficient_of_5000_digits() -> None:
    big = 10**4999 + 123456789
    p = big * D * L1 - Fraction(1, big + 2) * T + big
    text = str(p)
    assert "1" + "0" * 4990 + "123456789*D*L1" in text
    assert parse_poly(text) == p
