"""Tests for the exact polynomial layer.

Ring axioms and substitution laws are property-based; a handful of concrete
expansions are cross-checked against sympy, which plays no role in the
package itself.
"""

from __future__ import annotations

import copy
import math
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confalg import polyring
from confalg.confcore import FreeModule, ModuleMap
from confalg.errors import (
    ConfalgError,
    DuplicateBinding,
    ExponentOverflow,
    ParseError,
    PreconditionFailed,
    TermOverflow,
)
from confalg.polyring import (
    EXP_MAX,
    Poly,
    Substitution,
    decimal_to_int,
    int_to_decimal,
    lam,
    parse_poly,
    sum_of_products,
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


def test_a_power_above_its_simplex_bound_stays_within_its_degree_box() -> None:
    # a 4-term base to the 400th power: C(403, 3) = 10,827,401 bounds its terms
    # by the simplex, above MAX_TERMS, but its one variable spans 0 .. 1200
    assert math.comb(403, 3) > polyring.MAX_TERMS
    power = parse_poly("(1 + L1 + L1^2 + L1^3)^400")
    assert len(list(power.items())) == 1201


def test_a_power_past_its_term_bound_is_refused_before_any_product(monkeypatch) -> None:
    base = D + L1 + 1
    # the simplex C(n+2, 2) is below the box (n+1)^2
    assert polyring._power_terms_bound(base._nums, 1500) == math.comb(1502, 2) == 1_127_251
    assert polyring._power_terms_bound(base._nums, 1400) == math.comb(1402, 2) == 982_101
    products, mul_nums = [], polyring._mul_nums

    def counted(a, b):
        products.append(None)
        return mul_nums(a, b)

    monkeypatch.setattr(polyring, "_mul_nums", counted)
    with pytest.raises(TermOverflow):
        base**1500
    assert products == []
    # a power at its bound is formed: (D + L1 + 1)^2 has C(4, 2) = 6 terms
    monkeypatch.setattr(polyring, "MAX_TERMS", 6)
    assert len(list((base**2).items())) == 6
    with pytest.raises(TermOverflow):
        base**3  # C(5, 2) = 10
    assert len(products) == 1


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


# -- compiled substitutions ------------------------------------------------------------


def _weight_sum(names) -> Poly:
    return sum((Poly.var(name) for name in names), Poly.zero())


@st.composite
def weight_bindings(draw) -> list:
    """Rebindings of the weight variables as table sums make them, plus a scalar image.

    A swap ``L1 ↦ L2, L2 ↦ L1`` or a relabel chain ``L_k ↦ L_(k+s)``; ``D ↦ D +
    L1 + … + Lm`` or ``D ↦ −ΣL``; and a zero, integer or ``p/q`` image of ``t``.
    """
    bindings = []
    relabel = draw(st.sampled_from(["none", "swap", "chain"]))
    if relabel == "swap":
        bindings += [("L1", L2), ("L2", L1)]
    elif relabel == "chain":
        shift, count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        bindings += [(lam(k), Poly.var(lam(k + shift))) for k in range(1, count + 1)]
    sums = [lam(k) for k in range(1, draw(st.integers(1, 3)) + 1)]
    image = draw(st.sampled_from(["none", "plus", "minus"]))
    if image == "plus":
        bindings.append(("D", D + _weight_sum(sums)))
    elif image == "minus":
        bindings.append(("D", -_weight_sum(sums)))
    scalar = draw(st.sampled_from([None, 0, 3, -2, Fraction(2, 3), Fraction(-5, 2)]))
    if scalar is not None:
        bindings.append(("t", scalar))
    draw(st.randoms()).shuffle(bindings)
    return bindings


@settings(max_examples=60, deadline=None)
@given(weight_bindings(), st.lists(polys(), min_size=1, max_size=4))
def test_one_compiled_substitution_serves_many_polynomials(bindings: list, ps: list) -> None:
    # the polynomials by rising degree in D and t, then falling: the power tables grow,
    # then serve calls whose largest exponent is below what they hold
    ps.sort(key=lambda p: p.degree_in("D") + p.degree_in("t"))
    ps += ps[::-1] + [Poly.zero(), Poly.const(Fraction(3, 4))]
    sub = Substitution(bindings)
    images = {sympy.Symbol(name): _to_sympy(polyring.as_poly(image)) for name, image in bindings}
    for p in ps:
        ours = p.substitute_many(sub)
        _assert_canonical(ours)
        assert ours == p.substitute_many(bindings)
        theirs = _to_sympy(p).subs(images, simultaneous=True)
        assert sympy.expand(_to_sympy(ours) - theirs) == 0


def test_compiled_substitution_keeps_the_error_contract(monkeypatch) -> None:
    # L2^40000 is formed twice and cancels; it overflows all the same, as a move
    cancelling = L1**20000 * L2**20000 - L1**30000 * L2**10000
    relabel = Substitution([("L1", L2)])
    assert (L1**30000).substitute_many(relabel) == L2**30000
    _, _, moves, tables = relabel._plan  # a relabel is a move and keeps no powers
    assert len(moves) == 1 and not tables
    for run in (lambda: cancelling.substitute("L1", L2),
                lambda: cancelling.substitute_many(relabel)):
        with pytest.raises(ExponentOverflow, match="^exponent 40000 of L2 exceeds"):
            run()
    # a move into a field that another move fills, and a power that overflows and cancels
    L3 = Poly.var("L3")
    merging = (L1 * L2 * L3) ** 30000
    with pytest.raises(ExponentOverflow, match="^exponent 60000 of L3 exceeds"):
        merging.substitute_many([("L1", L3), ("L2", L3)])
    shifted = L1**EXP_MAX * D - L1 ** (EXP_MAX - 1) * D**2
    with pytest.raises(ExponentOverflow, match=f"^exponent {EXP_MAX + 1} of L1 exceeds"):
        shifted.substitute("D", D + L1)
    # bindings are checked on the first polynomial with a variable; pairs at once
    duplicate = Substitution([("D", L1), ("D", L2)])
    assert Poly.const(3).substitute_many(duplicate) == 3
    with pytest.raises(DuplicateBinding):
        D.substitute_many(duplicate)
    with pytest.raises(DuplicateBinding):
        Poly.const(3).substitute_many([("D", L1), ("D", L2)])
    # the term cap counts the powers up to each call's own top exponent, however many
    # the shared table holds: D^5 needs 55 terms of powers, D^4 needs 34 and 15 more
    monkeypatch.setattr(polyring, "MAX_TERMS", 50)
    x = D + L1 + L2
    shared = Substitution([("D", x)])
    for sub in (shared, [("D", x)]):
        with pytest.raises(TermOverflow):
            (D**5).substitute_many(sub)
        assert (D**4).substitute_many(sub) == x**4
        with pytest.raises(TermOverflow):
            (D**5).substitute_many(sub)


def test_a_trimmed_table_keeps_a_bounded_number_of_powers(monkeypatch) -> None:
    monkeypatch.setattr(polyring, "_KEPT_TERMS", 20)
    x = D + L1 + L2
    shared = Substitution([("D", x)])
    shared._trim()  # not compiled yet: nothing to trim
    assert (D**5).substitute_many(shared) == x**5
    held = shared._plan[3][0][3]
    assert len(held) == 6  # x^0 .. x^5: 55 terms
    shared._trim()
    # x^0 .. x^3 hold 19 terms; the lists a call may still be reading stay whole
    assert len(shared._plan[3][0][3]) == 4 and len(held) == 6
    assert (D**5 + D * L1).substitute_many(shared) == x**5 + x * L1


def test_powers_already_built_are_read_without_the_lock(monkeypatch) -> None:
    class Refused:
        def __enter__(self):
            raise AssertionError("the lock was taken")

        def __exit__(self, *exc):
            return False

    x = D + L1 + L2
    shared = Substitution([("D", x)])
    assert (D**3).substitute_many(shared) == x**3
    monkeypatch.setattr(polyring, "_GROWING", Refused())
    assert (D**3 + D * L1).substitute_many(shared) == x**3 + x * L1
    with pytest.raises(AssertionError, match="the lock was taken"):
        (D**4).substitute_many(shared)  # a power not yet built is grown under the lock


# -- sums of products: the cells of a table sum ------------------------------------------

# constant factors: integers and p/q over different denominators
cell_constants = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=12)
).map(Poly.const)
cell_factors = st.one_of(cell_constants, wide_polys(max_exp=3, max_terms=3))
#: factors of 2 to 7 terms with p/q coefficients, below the packing rule's size
small_factors = st.dictionaries(
    wide_monomials(3), wide_scalars.filter(bool), min_size=2, max_size=7
).map(Poly)
cell_scales = st.one_of(
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-7, 3)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool),
)


@st.composite
def dense_factors(draw, lo: int = 0, with_d: bool = True) -> Poly:
    """``s·D^lo·(D + a·L1 + b)^n·(e + L2)^m``, or else ``(e − L2)^n`` without ``D``.

    The rows of each are runs along ``D`` from ``D^lo`` (``D^0`` without
    ``D``), the shape that shares packed rows; ``a``, ``b``, ``e`` and ``s``
    are nonzero integers or ``p/q``.
    """
    e = draw(cell_constants.filter(bool))
    if not with_d:
        return (e - L2) ** draw(st.integers(8, 10))
    a, b, s = draw(cell_scales), draw(cell_constants.filter(bool)), draw(cell_scales)
    n, m = draw(st.integers(5, 8)), draw(st.integers(0, 2))
    return s * Poly.var("D", lo) * (D + a * L1 + b) ** n * (e + L2) ** m


@st.composite
def cell_pairs(draw) -> tuple:
    """Triples ``(c, v, k)``, and whether they share packed rows.

    Some lists end with the negated triples, so that they sum to zero.  Small
    cells hold one to six pairs of sparse and constant factors, or else two
    to four products of factors of 2 to 7 terms and perhaps such pairs.
    Dense cells hold two or three
    products of :func:`dense_factors`, the first two dense in ``D`` and a later
    one perhaps of ``(e − L2)^n``, and perhaps constant pairs.  The lowest
    ``D`` exponents of each product's factors add up to one ``lo``, split
    among them at random, and the products share packed rows; or else one
    product starts from another ``lo``, and none do.
    """
    dense = draw(st.booleans())
    if not dense:
        sparse = st.tuples(cell_factors, cell_factors)
        small = st.tuples(
            st.lists(st.tuples(small_factors, small_factors), min_size=2, max_size=4),
            st.lists(sparse, max_size=4),
        ).map(lambda lists: lists[0] + lists[1])
        pairs = draw(st.one_of(st.lists(sparse, min_size=1, max_size=6), small))
    else:
        lo = draw(st.integers(0, 3))
        shares = draw(st.booleans())
        pairs = []
        for k in range(draw(st.integers(2, 3))):
            with_d = k < 2 or draw(st.booleans())
            here = lo + (k == 1 and not shares)  # one product from another exponent
            first = draw(st.integers(0, here)) if with_d else 0
            pairs.append(
                (draw(dense_factors(first, with_d)), draw(dense_factors(here - first)))
            )
        pairs += draw(st.lists(st.tuples(cell_constants, cell_factors), max_size=2))
        dense = shares
    pairs = [pair + (draw(cell_scales),) for pair in pairs]
    if draw(st.booleans()):
        cancel = [(-c, v, k) for c, v, k in pairs]
        draw(st.randoms()).shuffle(cancel)
        pairs += cancel
    return pairs, dense


def _sequential_sum(triples: list) -> Poly:
    """``Σ c·v·k``, one product and one addition at a time."""
    total = Poly.zero()
    for c, v, k in triples:
        total = total + c * v * k
    return total


@settings(max_examples=200, deadline=None)
@given(cell_pairs())
def test_sum_of_products_is_the_sequential_sum(cell: tuple) -> None:
    triples, dense = cell
    with pytest.MonkeyPatch.context() as patch:
        calls = _packed_calls(patch)
        got = sum_of_products(triples)
    assert any(len(pairs) > 1 for pairs in calls) == dense
    assert got == _sequential_sum(triples)
    _assert_canonical(got)


def _packed_calls(monkeypatch) -> list:
    """The pair list of each call of :func:`polyring._packed_sum`, recorded as it runs.

    A list of two or more pairs is a cell's products sharing packed rows.
    """
    calls = []
    real = polyring._packed_sum
    monkeypatch.setattr(polyring, "_packed_sum", lambda pairs: calls.append(pairs) or real(pairs))
    return calls


def _counted_products(monkeypatch) -> list:
    """The operand pairs that reach ``Poly.__mul__``, recorded as it runs."""
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append((a, b)) or mul(a, b))
    return products


def _degree_cell(n: int, c) -> list:
    """The associator cell of ``u·u = (D+L+c)^n u``: ``p(−L1−L2, L1)·p(D, L1+L2) − p(D+L1, L2)·p(D, L1)``."""
    def p(x, weight):
        return (x + weight + c) ** n

    return [(p(-L1 - L2, L1), p(D, L1 + L2), 1), (-p(D + L1, L2), p(D, L1), 1)]


def _formed(triples: list) -> int:
    """The monomials that the pairs of terms of the cell's products form, cancelled or not."""
    products = [(c, v) for c, v, _ in triples if not c.is_constant()]
    return len({m1 + m2 for c, v in products for m1 in c._nums for m2 in v._nums})


def test_the_shared_row_path_is_exercised(monkeypatch) -> None:
    calls = _packed_calls(monkeypatch)
    decoded = []
    decode = polyring._decode
    monkeypatch.setattr(polyring, "_decode", lambda *args: decoded.append(args[3]) or decode(*args))
    cell = _degree_cell(9, Fraction(-3, 2))
    (c1, v1, _), (c2, v2, _) = cell
    small = [(D + L1, D - L1, 1), (D * L2 + 1, L1 - 3, 1)]  # 4 pairs of terms each
    gapped = [(c, v.substitute("D", D**2), 1) for c, v, _ in cell]  # rows with gaps along D
    flat = ((L1 + L2 + 3) ** 4, (L1 - L2 + 1) ** 4, 1)  # rows of one term: a pair of rows per term
    moved = [(D * c1, v1, 1), (c2, D * v2, 1)]  # both products from D^1, split differently
    apart = [cell[0], (Poly.var("D", 30000) * c2, v2, 1)]  # the second from D^30000
    cases = [
        (cell, True),
        (cell + [(Poly.const(3), D + L2, 1), (Poly.const(2), Poly.const(Fraction(1, 5)), 2)], True),
        ([(c, v, Fraction(-4, 7)) for c, v, _ in cell], True),
        (moved, True),
        (cell + [flat], True),  # the rule counts the cell, not each product
        (cell[:1], False),  # a lone product is one Poly product
        (cell[:1] + small[:1], False),  # a pair below the size rule
        (gapped, False),
        (apart, False),  # shared, every row would span 30,000 slots
        ([flat, (flat[1], flat[0], 1)], False),
        (small, False),
    ]
    for triples, expect_shared in cases:
        del calls[:], decoded[:]
        got = sum_of_products(triples)
        assert any(len(pairs) > 1 for pairs in calls) == expect_shared
        if expect_shared:  # the rows decode no slot that no pair of terms forms
            assert sum(decoded) <= _formed(triples)
        assert got == _sequential_sum(triples)
        _assert_canonical(got)


def test_a_degree_cell_shares_its_rows(monkeypatch) -> None:
    # n = 9, c = 3: (3 − L2)^9 has 10 rows of one term and (D+L1+L2+3)^9 220 terms in 55
    # rows; (D+L1+3)^9 has 55 terms in 10 rows.  Each pair takes 10·55 row products into
    # one accumulator, whose 190 rows of 1,330 slots, the monomials the pairs of terms
    # form, are decoded once into 1,325 terms; the two products alone would hold 682
    # and 1,165 terms.
    cell = _degree_cell(9, 3)
    assert [(len(c), len(v)) for c, v, _ in cell] == [(10, 220), (220, 55)]
    calls = _packed_calls(monkeypatch)
    decoded = []
    decode = polyring._decode
    monkeypatch.setattr(polyring, "_decode", lambda *args: decoded.append(args[3]) or decode(*args))
    products = _counted_products(monkeypatch)
    got = sum_of_products(cell)
    monkeypatch.undo()
    (pairs,) = calls
    assert len(pairs) == 2 and not products  # the traced product layer sees neither
    assert [len(rows_a[1]) * len(rows_b[1]) for _, _, rows_a, rows_b, _ in pairs] == [550, 550]
    assert len(decoded) == 190 and sum(decoded) == _formed(cell) == 1330
    assert len(got) == 1325
    assert got == _sequential_sum(cell)


def _outcome(run) -> tuple:
    """``run()``'s value, or the type and message of the confalg error it raised."""
    try:
        return ("value", run())
    except ConfalgError as exc:
        return (type(exc).__name__, str(exc))


def test_shared_rows_raise_where_each_product_would(monkeypatch) -> None:
    # each overflowing product meets the cap in one variable, and cancels in its cell
    high = Poly.var("D", EXP_MAX - 20) * (D + L1 + 1) ** 8  # D^(EXP_MAX-20) .. D^(EXP_MAX-12)
    dense = Poly.var("D", 10) * (D + L2 + 2) ** 8  # D^10 .. D^18
    base = (D + L1 - 2) ** 7 * (L2 + 1)
    tall = Poly.var("L2", EXP_MAX - 3) * (D + L1 + 3) ** 8
    short, lift = Poly.var("L2", EXP_MAX - 3) * (D + L1 + 3), L2**4 - D * L1 + Fraction(1, 2)
    mixed = [(short, lift, 1), (high, dense, 1), (-short, lift, 1), (-high, dense, 1)]
    cells = [
        [(high, dense, 1), (-high, dense, 1)],  # the sum is zero; the product passes the cap
        [(base, dense, 1), (dense, tall, 1), (-dense, tall, 1)],  # the second passes it in L2
        [(base, dense, 1), (dense, base, 1), (Poly.const(2), base, 1)],
        # no shared rows: short·lift (3 × 3 terms) goes term by term, past the cap in
        # L2, and high·dense packs alone, after it or before it
        mixed,
        [mixed[1], mixed[0], mixed[3], mixed[2]],
    ]
    expected = [
        ("ExponentOverflow", f"exponent {EXP_MAX + 6} of D exceeds the cap {EXP_MAX}"),
        ("ExponentOverflow", f"exponent {EXP_MAX + 5} of L2 exceeds the cap {EXP_MAX}"),
        ("ExponentOverflow", f"exponent {EXP_MAX + 1} of L2 exceeds the cap {EXP_MAX}"),
        ("ExponentOverflow", f"exponent {EXP_MAX + 6} of D exceeds the cap {EXP_MAX}"),
    ]
    for cell in cells[:3]:  # the products of each of these cells pack together
        products = [(c._nums, v._nums) for c, v, _ in cell if not c.is_constant()]
        assert polyring._packing([sorted(pair, key=len, reverse=True) + [1] for pair in products])

    def each_product(cell):
        return lambda: _sequential_sum(cell)

    # the reference: each product in turn, term by term, as a cell of products was formed
    with monkeypatch.context() as patch:
        patch.setattr(polyring, "_PACK_MIN_TERMS", 10**9)
        patch.setattr(polyring, "_SHARED_SHARE", 10**9)
        reference = [_outcome(each_product(cell)) for cell in cells]
    assert reference[:2] + reference[3:] == expected
    calls = _packed_calls(monkeypatch)
    assert [_outcome(lambda: sum_of_products(cell)) for cell in cells] == reference
    # three cells share rows; the fourth raises at short·lift before high·dense is
    # formed, which in the last reaches _packed_sum alone
    assert [len(pairs) for pairs in calls] == [2, 3, 2, 1]
    assert calls[-1][0][:2] == (high._nums, dense._nums)
    # the term cap: each pair counts the monomials of its own product, before its
    # exponents are checked, so a cell raises at the first pair past the cap.  In the
    # second cell the first pair forms 712 and the second, which also passes the
    # exponent cap, 729; short·lift forms 9 and high·dense 729
    assert [_formed(cells[1][:1]), _formed(cells[1][1:])] == [712, 729]
    assert [_formed(mixed[:1]), _formed(mixed[1:2])] == [9, 729]
    for cap, first in ((711, "TermOverflow"), (728, "TermOverflow"), (729, "ExponentOverflow")):
        monkeypatch.setattr(polyring, "MAX_TERMS", cap)
        ours = [_outcome(lambda: sum_of_products(cell)) for cell in cells]
        with monkeypatch.context() as patch:
            patch.setattr(polyring, "_PACK_MIN_TERMS", 10**9)
            patch.setattr(polyring, "_SHARED_SHARE", 10**9)
            assert ours == [_outcome(each_product(cell)) for cell in cells]
        assert ours[1][0] == first
        assert [kind for kind, _ in ours[3:]] == ["ExponentOverflow", first]


def test_sum_of_products_multiplies_only_large_factors(monkeypatch) -> None:
    half, p, q = Poly.const(Fraction(1, 2)), D + L1, D * L1 - Fraction(2, 3)
    assert sum_of_products([(Poly.one(), p, 1)]) is p  # a lone unit factor shares the value
    assert sum_of_products([(q, Poly.one(), 1)]) is q
    assert sum_of_products([(half, p, 1)]) == p * half
    third, two, three = Poly.const(Fraction(1, 3)), Poly.const(2), Poly.const(3)
    assert sum_of_products([(two, half, 1), (third, three, 1)]) == 2
    assert sum_of_products([(three, two, 1), (Poly.const(-6), Poly.one(), 1)]).is_zero()
    # constant factors scale numerators, and a cell's products of small factors
    # multiply into its accumulator: no Poly product at all
    # 10, 8 and 8 terms: big has 4 rows along D, dense one, wide 8
    big, dense, wide = (D + L1 + 1) ** 3, (D + 2) ** 7, (L2 - Fraction(1, 3)) ** 7
    cells = [
        [(Poly.const(-1), p, 1), (p, q, 1), (half, q, 1), (three, Poly.const(5), 1)],
        [(p, q, 1)],  # a lone triple is its product
        [(big, dense, Fraction(2, 5)), (p, q, 1)],  # packed alone, into the cell's map
        [(big, wide, Fraction(2, 5)), (p, q, 1)],  # 8 terms or more, but it does not pack
    ]
    products = _counted_products(monkeypatch)
    calls = _packed_calls(monkeypatch)
    totals = []
    for cell in cells:
        del products[:], calls[:]
        totals.append((sum_of_products(cell), list(products), [
            [pair[:2] for pair in pairs] for pairs in calls
        ]))
    monkeypatch.undo()
    assert [found for _, found, _ in totals] == [[], [(p, q)], [], []]
    assert [packed for _, _, packed in totals] == [[], [], [[(big._nums, dense._nums)]], []]
    expected = [
        -p + p * q + half * q + 15,
        p * q,
        big * dense * Fraction(2, 5) + p * q,
        big * wide * Fraction(2, 5) + p * q,
    ]
    for (total, _, _), want in zip(totals, expected):
        assert total == want
        _assert_canonical(total)


def test_accumulated_products_raise_where_each_product_would(monkeypatch) -> None:
    # the cells' products all have factors of fewer than 8 terms, so each multiplies
    # into the accumulator; each overflowing product cancels in its cell
    tall = Poly.var("L2", EXP_MAX - 3) * (D + L1 + 3)  # 3 terms, L2^(EXP_MAX-3)
    lift = L2**4 - D * L1 + Fraction(1, 2)  # 3 terms, L2^4
    base = (D + L1 - 2) ** 2 * (L2 + 1)  # 12 terms, times a 2-term factor
    cells = [
        [(tall, lift, 1), (-tall, lift, 1)],  # the sum is zero; the product passes the cap
        [(base, L2 + D, 1), (lift, tall, 2), (tall, -lift, 2)],  # the second passes it in L2
        [(base, D - L1, Fraction(1, 3)), (D + 1, base, 1), (Poly.const(2), base, 1)],
    ]
    expected = [
        ("ExponentOverflow", f"exponent {EXP_MAX + 1} of L2 exceeds the cap {EXP_MAX}"),
        ("ExponentOverflow", f"exponent {EXP_MAX + 1} of L2 exceeds the cap {EXP_MAX}"),
    ]

    def each_product(cell):
        return lambda: _sequential_sum(cell)

    reference = [_outcome(each_product(cell)) for cell in cells]
    assert reference[:2] == expected and reference[2][0] == "value"
    products = _counted_products(monkeypatch)
    assert [_outcome(lambda: sum_of_products(cell)) for cell in cells] == reference
    assert not products  # every product was accumulated
    # the term cap: a product counts the monomials that its pairs of terms form where
    # those pairs pass the cap, and before its exponents are checked, both as it adds
    # them into an empty map and apart from the terms that the map holds.  The first
    # cell's products, which pass the exponent cap, form 9 monomials from 9 pairs of
    # terms; in the second cell the first product forms 21 from 24, and the second 9
    # from 9; the third cell's products form 18 each from 24
    assert [_formed(cells[0][:1]), _formed(cells[1][:1]), _formed(cells[1][1:2])] == [9, 21, 9]
    for cap, outcomes in (
        (8, ["TermOverflow"] * 3),
        (20, ["ExponentOverflow", "TermOverflow", "value"]),
        (21, ["ExponentOverflow", "ExponentOverflow", "value"]),
    ):
        monkeypatch.setattr(polyring, "MAX_TERMS", cap)
        ours = [_outcome(lambda: sum_of_products(cell)) for cell in cells]
        assert ours == [_outcome(each_product(cell)) for cell in cells]
        assert [kind for kind, _ in ours] == outcomes


def test_lambda_names() -> None:
    assert lam(1) == "L1"
    assert lam(12) == "L12"
    with pytest.raises(PreconditionFailed):
        lam(0)
    assert var_sort_key("D") < var_sort_key("L1") < var_sort_key("L2") < var_sort_key("t")


#: the refusals of a negative index or exponent, and the text each gives
NEGATIVE_ARGUMENTS = {
    "lam": (lambda: lam(0), "lambda index must be >= 1, got 0"),
    "var": (lambda: Poly.var("D", -1), "negative exponent"),
    "constructor": (lambda: Poly({(("D", -1),): 1}), "negative exponent"),
    "poly-pow": (lambda: Poly.var("D") ** -1, "negative exponent"),
    "map-power": (lambda: ModuleMap.identity(FreeModule(("e",))).power(-1), "negative power"),
}


@pytest.mark.parametrize("case", NEGATIVE_ARGUMENTS)
def test_a_negative_index_or_exponent_is_a_failed_precondition(case) -> None:
    call, message = NEGATIVE_ARGUMENTS[case]
    with pytest.raises(PreconditionFailed) as caught:
        call()
    assert type(caught.value) is PreconditionFailed
    assert str(caught.value) == message


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


def test_decimal_helpers_round_trip_300000_digits() -> None:
    # far past the interpreter's limit; the helpers split such numbers in halves
    text = "7" + "0123456789" * 29_999 + "123456789"
    assert len(text) == 300_000
    value = decimal_to_int(text)
    assert value % 10**9 == 123456789 and value // 10**299_999 == 7
    assert int_to_decimal(value) == text
    assert int_to_decimal(-value) == "-" + text
    assert decimal_to_int(int_to_decimal(value - 1)) == value - 1


# -- the packed product ----------------------------------------------------------------
#
# polyring._packing sends a product through packed rows when its smaller operand has at
# least _PACK_MIN_TERMS terms, each operand's rows along D are runs without gaps from
# its lowest D exponent, and its pairs of rows are few; other products go term by term.
# Both routes must agree with sympy and stop at the same term count.

# numerators from ±1 to far beyond a machine word, over small or large denominators
big_scalars = st.builds(
    Fraction,
    st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30)),
    st.one_of(st.integers(1, 6), st.integers(1, 10**12)),
)
REST_VARS = ["L1", "L2", "t", "q"]


@st.composite
def d_runs(draw, max_rows: int = 4, max_run: int = 10) -> Poly:
    """Rows ``rest · Σ c_e D^e`` whose ``D`` exponents form runs.

    Most of them start every row at one exponent and leave no gaps, the shape
    that packs; the others start each row anywhere and may step by 2 or 40.
    """
    aligned = draw(st.sampled_from([True, True, True, False]))
    lo = draw(st.integers(0, 4))
    terms = {}
    for _ in range(draw(st.integers(1, max_rows))):
        names = draw(st.lists(st.sampled_from(REST_VARS), unique=True, max_size=2))
        rest = tuple((name, draw(st.integers(1, 3))) for name in names)
        start = lo if aligned else draw(st.integers(0, 4))
        step = 1 if aligned else draw(st.sampled_from([1, 2, 40]))
        for e in range(start, start + step * draw(st.integers(1, max_run)), step):
            terms[(("D", e),) + rest if e else rest] = draw(big_scalars.filter(bool))
    return Poly(terms)


def _sympy_poly(p: Poly) -> dict:
    gens = sympy.symbols("D L1 L2 t q")
    names = [str(g) for g in gens]
    data = {}
    for mono, coeff in p.items():
        exps = dict(mono)
        data[tuple(exps.get(n, 0) for n in names)] = sympy.Rational(
            coeff.numerator, coeff.denominator
        )
    if not data:
        return sympy.Poly(0, *gens, domain="QQ")
    return sympy.Poly.from_dict(data, *gens, domain="QQ")


def _rows_along_d(p: Poly) -> list:
    """The ``D`` exponents of ``p``, one list per monomial free of ``D``."""
    rows = {}
    for mono, _ in p.items():
        rest = tuple(pair for pair in mono if pair[0] != "D")
        rows.setdefault(rest, []).append(dict(mono).get("D", 0))
    return list(rows.values())


def _takes_packed_path(p: Poly, q: Poly) -> bool:
    def runs_from_one_exponent(rows):
        lo = min(map(min, rows))
        return all(min(row) == lo and max(row) == lo + len(row) - 1 for row in rows)

    (a, rows_a), (b, rows_b) = sorted(((p, _rows_along_d(p)), (q, _rows_along_d(q))),
                                      key=lambda pair: len(pair[0]._nums))
    return (
        len(a._nums) >= polyring._PACK_MIN_TERMS
        and runs_from_one_exponent(rows_a)
        and runs_from_one_exponent(rows_b)
        and polyring._PACK_SHARE * len(rows_a) * len(rows_b) <= len(a._nums) * len(b._nums)
    )


@settings(max_examples=60, deadline=None)
@given(d_runs(), d_runs())
def test_packed_and_termwise_products_match_sympy(p: Poly, q: Poly) -> None:
    product = p * q
    _assert_canonical(product)
    assert _sympy_poly(product) == _sympy_poly(p) * _sympy_poly(q)
    # (p+q)(p-q) = p^2 - q^2 makes terms cancel inside the product
    assert (p + q) * (p - q) == p * p - q * q


@settings(max_examples=40, deadline=None)
@given(d_runs(), d_runs())
def test_both_product_paths_stop_at_the_same_term_count(p: Poly, q: Poly) -> None:
    assume(len(p._nums) > 1 and len(q._nums) > 1)  # one-term products are never capped
    # the term-by-term loop forms every sum of a monomial of p and one of q
    formed = len({m1 + m2 for m1 in p._nums for m2 in q._nums})
    products = []
    with pytest.MonkeyPatch.context() as patch:
        # first the path that the shape selects, then always term by term
        for min_terms in (polyring._PACK_MIN_TERMS, 10**9):
            patch.setattr(polyring, "_PACK_MIN_TERMS", min_terms)
            patch.setattr(polyring, "MAX_TERMS", formed)
            products.append(p * q)
            patch.setattr(polyring, "MAX_TERMS", formed - 1)
            with pytest.raises(TermOverflow):
                p * q
    assert products[0] == products[1]


def test_product_paths_are_both_exercised(monkeypatch) -> None:
    packed = []
    real = polyring._packed_sum
    monkeypatch.setattr(polyring, "_packed_sum", lambda *args: packed.append(1) or real(*args))
    dense = (D + L1 + 3) ** 6 * (D - Fraction(2, 3) * L2 + 1) ** 3
    sparse = (L1 + L2 + T + 2) ** 3
    cases = [(dense, True), (sparse, False), (D + L1, False), (dense + sparse, True)]
    for q, expect_packed in cases:
        assert _takes_packed_path(dense, q) == expect_packed
        del packed[:]
        product = dense * q
        assert bool(packed) == expect_packed
        assert _sympy_poly(product) == _sympy_poly(dense) * _sympy_poly(q)


def test_long_packed_rows_decode_like_the_term_loop(monkeypatch) -> None:
    # one row of 402 slots with numerators of hundreds of bits and both signs, and
    # rows of up to 81 slots beside short ones; each decoder must match the term loop
    cases = [
        ((D + 1) ** 200, (D - 3) ** 201),
        ((D + L1 - 1) ** 40, (D - 2 * L1 + Fraction(1, 3)) ** 40),
    ]
    for p, q in cases:
        assert _takes_packed_path(p, q)
        products = []
        for split, min_terms in ((polyring._DECODE_SPLIT, None), (1, None), (10**9, None),
                                 (polyring._DECODE_SPLIT, 10**9)):
            with monkeypatch.context() as patch:
                patch.setattr(polyring, "_DECODE_SPLIT", split)
                if min_terms is not None:  # the term-by-term loop
                    patch.setattr(polyring, "_PACK_MIN_TERMS", min_terms)
                products.append(p * q)
        assert all(product == products[-1] for product in products)
        assert len(products[0]._nums) > 2 * polyring._DECODE_SPLIT


def test_rows_apart_along_d_go_term_by_term(monkeypatch) -> None:
    monkeypatch.setattr(polyring, "_packed_sum", None)  # calling it fails
    # 17 rows of three terms 8,000 apart in D: packed, a pair of rows would take
    # 32,001 slots for 5 terms
    spread = 1 + Poly.var("D", 8000) + Poly.var("D", 16000)
    powers = sum((L1**k for k in range(17)), Poly.zero())
    gapped = spread * powers
    # 8 rows without gaps, each from its own exponent D^(1000k)
    steps = sum(((L1 * Poly.var("D", 1000)) ** k for k in range(8)), Poly.zero())
    offset = (D + 1) ** 9 * steps
    for p, left, right, terms in (
        (gapped, spread**2, powers**2, 5 * 33),
        (offset, (D + 1) ** 18, steps**2, 19 * 15),
    ):
        assert len(p._nums) > 50 and not _takes_packed_path(p, p)
        square = p * p  # with the term cap as it is
        assert len(square._nums) == terms
        assert square == left * right


def test_a_long_row_packs_by_halves_like_the_sequential_loop() -> None:
    # 1,600 slots of both signs and up to 131 bits from D^7, listed out of order
    lo, bits, count = 7, 140, 1600
    row = [(lo + k, (-1) ** (k % 3) * (k**5 + 1) * 3 ** (k % 50)) for k in range(count)]
    row.sort(key=lambda pair: pair[0] * 7919 % count)
    sequential = 0
    for e, c in row:
        sequential += c << bits * (e - lo)
    assert count > 2 * polyring._PACK_SPLIT
    assert polyring._pack_row(row, lo, bits) == sequential
    out = {}
    polyring._decode(sequential, lo, bits, count, out)
    assert out == dict(row)


def test_packed_product_at_the_slot_bound() -> None:
    # one row of n equal numerators: the middle coefficient of the square is n·c²,
    # the bound the slot width is computed from
    for n in (8, 9, 16, 33):
        for c in (1, 2**31 - 1, 2**64, 3**40):
            row = sum((c * Poly.var("D", e) for e in range(n)), Poly.zero())
            square = {k: c * c * min(k + 1, 2 * n - 1 - k) for k in range(2 * n - 1)}
            for left, right, sign in ((row, row, 1), (row, -row, -1), (-row, -row, 1)):
                got = {dict(mono).get("D", 0): coeff for mono, coeff in (left * right).items()}
                assert got == {k: sign * v for k, v in square.items()}


def test_packed_product_against_the_exponent_cap(monkeypatch) -> None:
    # D exponents EXP_MAX - 11 .. EXP_MAX times 0 .. 11: the product reaches the guard bit
    def run(top):
        return sum((Poly.var("D", top - k) * (L1 + k) for k in range(12)), Poly.zero())

    high, fits = run(EXP_MAX), run(EXP_MAX - 11)
    low = sum(((k + 1) * Poly.var("D", k) * (L2 - k - 1) for k in range(12)), Poly.zero())
    assert _takes_packed_path(high, low) and _takes_packed_path(fits, low)
    with pytest.raises(ExponentOverflow) as packed:
        high * low
    assert str(packed.value) == f"exponent {EXP_MAX + 11} of D exceeds the cap {EXP_MAX}"
    # exponents may reach the cap itself
    product = fits * low
    assert product.degree_in("D") == EXP_MAX
    monkeypatch.setattr(polyring, "_PACK_MIN_TERMS", 10**9)
    with pytest.raises(ExponentOverflow) as termwise:
        high * low
    assert str(termwise.value) == str(packed.value)
    assert fits * low == product


def test_packed_product_term_cap(monkeypatch) -> None:
    x = (D + 1) ** 9 * (L1 + 2) ** 4  # 5 rows of 10 terms
    assert _takes_packed_path(x, x)
    # x^2 has 9 rows of 19 terms, each formed in full
    monkeypatch.setattr(polyring, "MAX_TERMS", 9 * 19)
    assert len(list((x * x).items())) == 9 * 19
    monkeypatch.setattr(polyring, "MAX_TERMS", 9 * 19 - 1)
    with pytest.raises(TermOverflow):
        x * x
    # rows of 10 and 3 terms: the row of L1 in a*b is formed by runs of 10+10-1 and
    # 3+3-1 slots, whichever comes first, so the product holds 12 + 19 + 12 terms
    a = (D + 1) ** 9 + L1 * (D + 2) ** 2
    b = (D + 3) ** 2 + L1 * (D + 5) ** 9
    assert _takes_packed_path(a, b)
    for left, right in ((a, b), (b, a)):
        monkeypatch.setattr(polyring, "MAX_TERMS", 43)
        assert len(list((left * right).items())) == 43
        monkeypatch.setattr(polyring, "MAX_TERMS", 42)
        with pytest.raises(TermOverflow):
            left * right
    # the term-by-term path stops at the same count
    monkeypatch.setattr(polyring, "_PACK_MIN_TERMS", 10**9)
    with pytest.raises(TermOverflow):
        a * b
    monkeypatch.setattr(polyring, "MAX_TERMS", 43)
    assert a * b == b * a


# -- the textual order -------------------------------------------------------------------

# two auxiliary names interned here in the reverse of their name order
ORDER_VARS = ["D", "L1", "L2", "L5", "zq9", "aq9"]
Poly.var("zq9"), Poly.var("aq9")

order_scalars = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-7, 3)]),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6),
)


@st.composite
def order_polys(draw) -> Poly:
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        names = draw(st.lists(st.sampled_from(ORDER_VARS), unique=True, max_size=4))
        terms[tuple((name, draw(st.integers(1, 4))) for name in names)] = draw(order_scalars)
    return Poly(terms)


def _reference_order(p: Poly) -> list:
    names = sorted({name for mono, _ in p.items() for name, _ in mono}, key=var_sort_key)

    def key(mono):
        exps = dict(mono)
        vector = [exps.get(name, 0) for name in names]
        return (sum(vector), vector)

    return sorted((mono for mono, _ in p.items()), key=key, reverse=True)


@settings(max_examples=150, deadline=None)
@given(order_polys())
def test_str_orders_terms_and_round_trips(p: Poly) -> None:
    text = str(p)
    assert parse_poly(text) == p
    if not p:
        assert text == "0"
        return
    # terms are joined by " + " and " - "; every other sign is a leading "-"
    bodies = re.split(r" [+-] ", text)
    monos = [next(iter(parse_poly(body).items()))[0] for body in bodies]
    assert monos == _reference_order(p)
    coeffs = dict(p.items())
    for body, mono in zip(bodies, monos):
        body = body.removeprefix("-")
        assert body == "1" or not body.startswith("1*")  # a unit coefficient is left out
        assert ("/" in body) == (coeffs[mono].denominator != 1)


# -- the display memo --------------------------------------------------------------


def _reference_text(p: Poly) -> str:
    """``str(p)`` as specified, built from ``p.items()``.

    Terms come in :func:`_reference_order`.  A term is its coefficient's
    magnitude in lowest terms, ``n`` or ``p/q``, then ``name`` or ``name^e``
    per variable, joined by ``*``; a magnitude of 1 is left out unless the
    term is constant.  The first term carries a leading ``-`` if negative,
    and every later one is preceded by `` + `` or `` - ``.
    """
    if not p:
        return "0"
    coeffs = dict(p.items())
    text = ""
    for mono in _reference_order(p):
        coeff = coeffs[mono]
        factors = [name if exp == 1 else f"{name}^{exp}" for name, exp in mono]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        body = "*".join(factors)
        if not text:
            text = body if coeff > 0 else "-" + body
        else:
            text += f" + {body}" if coeff > 0 else f" - {body}"
    return text


def _fresh_fields() -> polyring._Fields:
    """A copy of the variable fields with an empty display memo, to patch in for a test."""
    fields = copy.deepcopy(polyring._FIELDS)
    fields.memo = (fields.order, {}, {})
    fields.coeffs = ({}, 0)
    return fields


# the aux names include two interned above in the reverse of their name order
MEMO_VARS = ["D", "L1", "L2", "L3", "L4", "t", "q", "zq9", "aq9"]

memo_scalars = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    # numerators past the size where str() hands over to int_to_decimal
    st.builds(
        lambda n, q, sign: Fraction(sign * (polyring._CHUNK_BASE + n), q),
        st.integers(0, 10**6),
        st.integers(1, 1000),
        st.sampled_from([1, -1]),
    ),
)


@st.composite
def memo_polys(draw) -> Poly:
    terms = {}
    for _ in range(draw(st.integers(0, 10))):
        names = draw(st.lists(st.sampled_from(MEMO_VARS), unique=True, max_size=4))
        terms[tuple((name, draw(st.integers(1, 5))) for name in names)] = draw(memo_scalars)
    return Poly(terms)


@settings(max_examples=150, deadline=None)
@given(memo_polys(), memo_polys())
def test_str_equals_a_reference_rendering_through_the_memo(p: Poly, q: Poly) -> None:
    with pytest.MonkeyPatch.context() as patch:
        fields = _fresh_fields()
        patch.setattr(polyring, "_FIELDS", fields)
        assert str(p) == str(p) == _reference_text(p)  # filling the memo, then reading it
        # a new field that sorts before the other aux names moves them within a rank
        fields.intern("a0")
        assert str(p + q) == _reference_text(p + q)
        assert str(p) == _reference_text(p)
        # every numerator rendered is held, with its sign and text, under its denominator,
        # unless a numerator or the denominator is too long for str(): then none is
        base = polyring._CHUNK_BASE
        for r in (p, p + q):
            if r._den < base and all(-base < x < base for x in r._nums.values()):
                assert set(r._nums.values()) <= set(fields.coeffs[0].get(r._den, {}))
        memo = fields.coeffs[0]
        assert all(d < base and all(-base < x < base for x in texts) for d, texts in memo.items())
        assert fields.coeffs[1] == sum(map(len, memo.values()))
        before = fields.coeffs[1]
        patch.setattr(polyring, "_MEMO_MAX", 3)
        for r in (q, p * q, p - q):
            assert str(r) == _reference_text(r)
            # a fill past the cap starts the memo over
            assert fields.coeffs[1] == sum(map(len, fields.coeffs[0].values())) <= max(before, 3)


def test_the_display_memo_stays_within_its_cap(monkeypatch) -> None:
    fields = _fresh_fields()
    monkeypatch.setattr(polyring, "_FIELDS", fields)
    monkeypatch.setattr(polyring, "_MEMO_MAX", 12)
    small = (D + L1 + 1) ** 2  # 6 monomials
    wide = (D + L1 + L2 + T + 1) ** 3  # 35, more than the cap
    medium = (D + L2 + 2) ** 3  # 10, of which 7 are not in small
    assert str(small) == _reference_text(small)
    assert len(fields.memo[1]) == 6
    # past the cap on its own: rendered through maps of its own, the memo kept
    assert str(wide) == _reference_text(wide)
    assert len(fields.memo[1]) == len(fields.memo[2]) == 6
    # past the cap with what the memo holds: the memo starts over with its monomials
    assert str(medium) == _reference_text(medium)
    assert len(fields.memo[1]) == len(fields.memo[2]) == 10
    assert str(small) == _reference_text(small)


def test_the_coefficient_memo_stays_within_its_cap(monkeypatch) -> None:
    fields = _fresh_fields()
    monkeypatch.setattr(polyring, "_FIELDS", fields)
    monkeypatch.setattr(polyring, "_MEMO_MAX", 12)

    def held():
        memo, count = fields.coeffs
        assert count == sum(map(len, memo.values()))
        return {den: sorted(texts) for den, texts in memo.items()}

    def ramp(ks, den=1):
        return sum((Fraction(k, den) * Poly.var("D", abs(k)) for k in ks), Poly.zero())

    few, thirds = ramp(range(1, 6)), ramp(range(-5, 0), 3)  # numerators 1..5, then -5..-1 over 3
    many, more = ramp(range(1, 14)), ramp(range(6, 10))
    assert str(few) == _reference_text(few) and str(thirds) == _reference_text(thirds)
    assert held() == {1: [1, 2, 3, 4, 5], 3: [-5, -4, -3, -2, -1]}
    # past the cap on its own: rendered through a map of its own, the memo kept
    assert str(many) == _reference_text(many)
    assert held() == {1: [1, 2, 3, 4, 5], 3: [-5, -4, -3, -2, -1]}
    # past the cap with what the memo holds: the memo starts over with its numerators
    assert str(more) == _reference_text(more)
    assert held() == {1: [6, 7, 8, 9]}
    assert str(thirds) == _reference_text(thirds)
    assert held() == {1: [6, 7, 8, 9], 3: [-5, -4, -3, -2, -1]}
    # numerators and a denominator past the size where str() hands over to int_to_decimal
    # are rendered without the memo, and so are the other numerators beside them
    big = (Fraction(polyring._CHUNK_BASE + 1) * D - 7) * Fraction(1, 10**700 + 3)
    long = ramp([20, 21]) + polyring._CHUNK_BASE * L1
    for p in (big, long):
        assert str(p) == _reference_text(p)
        assert held() == {1: [6, 7, 8, 9], 3: [-5, -4, -3, -2, -1]}
