"""Tests for modules, structure tables, axiom checkers, and extensions.

Concrete values are frozen from an independent brute-force expansion; the
structural laws (sesquilinearity, commutator brackets, extension
isomorphisms) are exercised on seeded random inputs as well.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg.confcore import (
    Circ,
    Composite,
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    MultiTable,
    Swap,
    Verdict,
    block,
    check_associative,
    check_bimodule,
    check_lie,
    check_lie_rep,
    commutator_lie,
    cur,
    direct_sum,
    eval_multilinear,
    matching_pair,
    rep_from_bimodule,
    semidirect,
    sum_memo,
    table_sum,
    twisted_extension,
    extension_iso,
)
from confalg.cohomology import Cochain
from confalg.errors import (
    ArityMismatch,
    ExponentOverflow,
    InvalidEntry,
    ModuleMismatch,
    NotAssociative,
    NotBimodule,
    NotCocycle,
    NotSkewSymmetric,
    ShapeMismatch,
)
from confalg.operators import ModuleMap
from confalg import confcore, polyring
from confalg.polyring import EXP_MAX, Poly, Substitution

import _oracle
import helpers
from helpers import (
    ADJ,
    AM,
    D,
    DUAL,
    IDENT,
    L1,
    L2,
    NADJ,
    NILP,
    NILP_DER,
    NM,
    a,
    b,
    u,
    v,
)


# -- evaluation engine --------------------------------------------------------


def test_eval_frozen_examples() -> None:
    assert DUAL.mul(u, v, L1) == v
    assert DUAL.mul(D * u, u, L1) == -L1 * u
    assert DUAL.mul(u, D * u, L1) == (D + L1) * u


def test_eval_substitutes_table_weights() -> None:
    table = MultiTable((NM, NM), NM, {(0, 0): L1 * b})
    assert eval_multilinear(table, (a, a), (L2,)) == L2 * b
    assert eval_multilinear(table, (a, a), (D,)) == D * b
    # a weight variable inside an argument stays literal
    assert eval_multilinear(table, (L1 * a, a), (L2,)) == L1 * L2 * b
    assert eval_multilinear(table, (a, L2 * a), (L1 + L2,)) == (L1 + L2) * L2 * b


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_sesquilinearity_binary(seed: int) -> None:
    rng = random.Random(seed)
    table = helpers.rand_table(rng, AM)
    x = helpers.rand_elem(rng, AM)
    y = helpers.rand_elem(rng, AM)
    base = eval_multilinear(table, (x, y), (L1,))
    assert eval_multilinear(table, (D * x, y), (L1,)) == -L1 * base
    assert eval_multilinear(table, (x, D * y), (L1,)) == (D + L1) * base


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_sesquilinearity_ternary(seed: int) -> None:
    rng = random.Random(seed)
    entries = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                val = helpers.rand_elem(rng, NM, names=("D", "L1", "L2"))
                if not val.is_zero():
                    entries[(i, j, k)] = val
    table = MultiTable((NM, NM, NM), NM, entries)
    args = tuple(helpers.rand_elem(rng, NM) for _ in range(3))
    base = eval_multilinear(table, args, (L1, L2))
    shifted = (D * args[0], args[1], args[2])
    assert eval_multilinear(table, shifted, (L1, L2)) == -L1 * base
    shifted = (args[0], D * args[1], args[2])
    assert eval_multilinear(table, shifted, (L1, L2)) == -L2 * base
    shifted = (args[0], args[1], D * args[2])
    assert eval_multilinear(table, shifted, (L1, L2)) == (D + L1 + L2) * base


def test_eval_weight_may_contain_output_d() -> None:
    # weights of the form -L1-D realize the "opposite" evaluations: the D
    # inside the weight is the output derivative and passes through verbatim.
    assert DUAL.mul(D * u, u, -L1 - D) == (L1 + D) * u
    assert DUAL.mul(u, D * u, -L1 - D) == -L1 * u


def test_eval_shape_errors() -> None:
    with pytest.raises(ArityMismatch):
        eval_multilinear(DUAL.table, (u,), ())
    with pytest.raises(ArityMismatch):
        eval_multilinear(DUAL.table, (u, v), (L1, L2))
    with pytest.raises(ModuleMismatch):
        eval_multilinear(DUAL.table, (u, a), (L1,))
    # a zero argument is no excuse to skip the checks
    with pytest.raises(ModuleMismatch):
        eval_multilinear(DUAL.table, (u, NM.zero()), (L1,))
    with pytest.raises(ModuleMismatch):
        eval_multilinear(DUAL.table, (NM.zero(), AM.zero()), (L1,))
    with pytest.raises(ArityMismatch):
        eval_multilinear(DUAL.table, (AM.zero(), v), (L1, L2))
    with pytest.raises(ArityMismatch):
        eval_multilinear(DUAL.table, (AM.zero(),), ())


def test_table_entries_reject_foreign_weights() -> None:
    with pytest.raises(InvalidEntry):
        MultiTable((AM, AM), AM, {(0, 0): L2 * u})


# -- repeated evaluation -------------------------------------------------------

# Each call builds its weight afresh, except the first, which is one shared
# object; repeated calls and a freshly built table must agree either way.
WEIGHTS = (
    lambda: L1,
    lambda: Poly.var("L1"),
    lambda: Poly.var("L2"),
    lambda: -Poly.var("L1") - Poly.var("D"),
    lambda: Poly.var("L1") + Poly.var("L2"),
    lambda: 2 * Poly.var("L1") + 3,
    lambda: Poly.var("D"),
)


def _cold(table: MultiTable) -> MultiTable:
    return MultiTable(table.in_modules, table.out_module, dict(table.entries))


def _rand_arg(rng: random.Random, module: FreeModule):
    """A basis element, the same with a freshly built ``1``, a multiple of one,
    zero, or an element with constant or ``D`` coefficients."""
    kind = rng.randrange(6)
    i = rng.randrange(module.rank)
    if kind == 0:
        return module.basis_elem(i)
    if kind == 1:
        return module.elem(tuple(Poly({(): 1}) if j == i else 0 for j in range(module.rank)))
    if kind == 2:
        return rng.choice((2, -1, Fraction(1, 2), D, D + 1)) * module.basis_elem(i)
    if kind == 3:
        return module.zero()
    return helpers.rand_elem(rng, module, names=() if kind == 4 else ("D",))


def _sym_fn(table: MultiTable):
    """The oracle's evaluator of ``table``: a closure over sympy vectors and weights."""
    return _oracle.cochain_fn(
        table.arity, table.in_modules[0].rank, table.out_module.rank, helpers.sym_table(table)
    )


def _oracle_value(table: MultiTable, args, weights):
    """The oracle's value of ``table`` on module elements at the given weights."""
    return _sym_fn(table)([helpers.sym_vec(x) for x in args], [helpers.sym(w) for w in weights])


def _assert_oracle_elem(elem, expected) -> None:
    assert all(sp.expand(helpers.sym(c) - e) == 0 for c, e in zip(elem.coeffs, expected))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.lists(st.integers(0, len(WEIGHTS) - 1), min_size=1, max_size=12))
def test_cached_binary_evaluation_matches_a_cold_table_and_the_oracle(seed, order) -> None:
    rng = random.Random(seed)
    table = helpers.rand_table(rng, AM)
    sym_table = helpers.sym_table(table)
    for k in order:
        x, y, w = _rand_arg(rng, AM), _rand_arg(rng, AM), WEIGHTS[k]()
        first = eval_multilinear(table, (x, y), (w,))
        got = eval_multilinear(table, (x, y), (w,))
        assert got == first
        assert got == eval_multilinear(_cold(table), (x, y), (w,))
        expected = _oracle.ev2(
            sym_table, AM.rank, helpers.sym_vec(x), helpers.sym_vec(y), helpers.sym(w)
        )
        assert all(sp.expand(helpers.sym(c) - e) == 0 for c, e in zip(got.coeffs, expected))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 10**9),
    st.lists(st.tuples(*[st.integers(0, len(WEIGHTS) - 1)] * 2), min_size=1, max_size=10),
)
def test_cached_ternary_evaluation_matches_a_cold_table(seed, order) -> None:
    rng = random.Random(seed)
    entries = {}
    for idx in itertools.product(range(NM.rank), repeat=3):
        value = helpers.rand_elem(rng, NM, names=("D", "L1", "L2"))
        if not value.is_zero():
            entries[idx] = value
    table = MultiTable((NM, NM, NM), NM, entries)
    for j, k in order:
        args = tuple(_rand_arg(rng, NM) for _ in range(3))
        weights = (WEIGHTS[j](), WEIGHTS[k]())
        first = eval_multilinear(table, args, weights)
        assert eval_multilinear(table, args, weights) == first
        assert first == eval_multilinear(_cold(table), args, weights)
        _assert_oracle_elem(first, _oracle_value(table, args, weights))


# -- weight variables inside arguments -------------------------------------------

# An argument's own λ variables are constants of the evaluation: only the
# table's formal weights are bound to the actual weights.  Nested products rely
# on this, as the inner product's weight stays in the outer product's argument.


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**9))
def test_nested_products_match_the_oracle(seed: int) -> None:
    rng = random.Random(seed)
    alg = ConfAlgebra(AM, helpers.rand_table(rng, AM), "associative")
    x, y, z = (helpers.rand_elem(rng, AM) for _ in range(3))
    sx, sy, sz = map(helpers.sym_vec, (x, y, z))
    sym_table, l1, l2 = helpers.sym_table(alg.table), _oracle.L[1], _oracle.L[2]

    def ev2(p, q, w):
        return _oracle.ev2(sym_table, AM.rank, p, q, w)

    _assert_oracle_elem(alg.mul(x, alg.mul(y, z, L2), L1), ev2(sx, ev2(sy, sz, l2), l1))
    _assert_oracle_elem(alg.mul(alg.mul(x, y, L1), z, L1 + L2), ev2(ev2(sx, sy, l1), sz, l1 + l2))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9), st.tuples(*[st.integers(0, len(WEIGHTS) - 1)] * 2))
def test_ternary_cochain_evaluation_on_weighted_arguments_matches_the_oracle(seed, ks) -> None:
    rng = random.Random(seed)
    entries = {}
    for idx in itertools.product(range(NM.rank), repeat=3):
        value = helpers.rand_elem(rng, NM, names=("D", "L1", "L2"))
        if not value.is_zero():
            entries[idx] = value
    phi = Cochain.from_entries(3, NM, NM, entries)
    args = tuple(helpers.rand_elem(rng, NM, names=("D", "L1")) for _ in range(3))
    weights = tuple(WEIGHTS[k]() for k in ks)
    _assert_oracle_elem(phi.eval(args, weights), _oracle_value(phi.table, args, weights))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, len(WEIGHTS) - 1))
def test_maps_and_actions_on_weighted_arguments_match_the_oracle(seed: int, k: int) -> None:
    rng = random.Random(seed)
    T = helpers.rand_map(rng, AM)
    bim = ConfBimodule(DUAL, AM, helpers.rand_table(rng, AM), helpers.rand_table(rng, AM))
    x, y = (helpers.rand_elem(rng, AM, names=("D", "L1", "t")) for _ in range(2))
    sx, sy, w = helpers.sym_vec(x), helpers.sym_vec(y), WEIGHTS[k]()
    matrix = [helpers.sym_vec(T.table.entry((j,))) for j in range(AM.rank)]
    _assert_oracle_elem(T.apply(x), _oracle.apply_mat(matrix, AM.rank, sx))
    expected = _oracle.ev2(helpers.sym_table(bim.left), AM.rank, sx, sy, helpers.sym(w))
    _assert_oracle_elem(bim.act_left(x, y, w), expected)


def test_basis_products_and_zero_arguments_evaluate_to_entries_and_zero() -> None:
    table = _cold(DUAL.table)
    first = eval_multilinear(table, (u, v), (L1,))
    assert first == v
    assert eval_multilinear(table, (u, v), (Poly.var("L1"),)) == first
    assert eval_multilinear(table, (AM.zero(), D * v), (L1,)) == AM.zero()


def test_table_entries_are_read_only() -> None:
    source = {(0, 0): u}
    table = MultiTable((AM, AM), AM, source)
    with pytest.raises(TypeError):
        table.entries[(0, 1)] = v
    with pytest.raises(TypeError):
        del table.entries[(0, 0)]
    source[(0, 1)] = v
    assert dict(table.entries) == {(0, 0): u}


def test_adding_tables_of_different_shapes_is_a_shape_error() -> None:
    with pytest.raises(ShapeMismatch):
        DUAL.table + NILP.table
    with pytest.raises(ShapeMismatch):
        DUAL.table - MultiTable((AM,), AM, {})


# -- table expressions ---------------------------------------------------------

MODULES = (FreeModule(("p",)), FreeModule(("q1", "q2")), FreeModule(("r1", "r2", "r3")))


def _random_table(rng: random.Random, in_modules, out_module) -> MultiTable:
    names = ["D"] + [f"L{k}" for k in range(1, len(in_modules))]
    entries = {}
    for idx in itertools.product(*(range(m.rank) for m in in_modules)):
        if rng.random() < 0.6:
            coeffs = []
            for _ in range(out_module.rank):
                c = Poly.zero()
                for _ in range(rng.randint(0, 2)):
                    term = Poly.const(rng.choice((-2, -1, 1, 3)))
                    for name in names:
                        term = term * Poly.var(name, rng.randint(0, 1))
                    c = c + term
                coeffs.append(c)
            entries[idx] = out_module.elem(coeffs)
    return MultiTable(in_modules, out_module, entries)


def _tabulated(ins, out, value) -> tuple:
    """``(ins, out, values)``: ``value`` on every basis tuple of ``ins``, zeros kept."""
    weights = [_oracle.L[k] for k in range(1, len(ins))]
    values = {}
    for idx in itertools.product(*(range(m.rank) for m in ins)):
        args = [_oracle.basisv(m.rank, i) for i, m in zip(idx, ins)]
        values[idx] = value(args, weights)
    return tuple(ins), out, values


def _nested(f: MultiTable, i: int, g: MultiTable) -> tuple:
    """``f ∘_i g`` tabulated by the oracle: ``g`` and then ``f`` on every basis tuple."""
    m, n = f.arity, g.arity
    f_fn, g_fn = _sym_fn(f), _sym_fn(g)

    def value(args, weights):
        inner = g_fn(args[i - 1 : i + n - 1], weights[i - 1 : i + n - 2])
        if i < m:
            merged = sum(weights[i - 1 : i + n - 1])
            f_weights = weights[: i - 1] + [merged] + weights[i + n - 1 :]
        else:
            f_weights = weights[: m - 1]
        return f_fn(args[: i - 1] + [inner] + args[i + n - 1 :], f_weights)

    return _tabulated(f.in_modules[: i - 1] + g.in_modules + f.in_modules[i:], f.out_module, value)


def _swapped(f: MultiTable, p: int, q: int) -> tuple:
    """``f`` with slots ``p < q`` exchanged, tabulated by the oracle at exchanged weights."""
    fn = _sym_fn(f)

    def value(args, weights):
        args, weights = list(args), list(weights)
        args[p - 1], args[q - 1] = args[q - 1], args[p - 1]
        if q < f.arity:
            weights[p - 1], weights[q - 1] = weights[q - 1], weights[p - 1]
        else:  # the last slot's argument has the weight −D − ΣL
            weights[p - 1] = -_oracle.D - sum(weights)
        return fn(args, weights)

    ins = list(f.in_modules)
    ins[p - 1], ins[q - 1] = ins[q - 1], ins[p - 1]
    return _tabulated(ins, f.out_module, value)


def _assert_tabulated(table: MultiTable, expected: tuple) -> None:
    """``table`` has the shape and, on every basis tuple, the values of an oracle tabulation."""
    ins, out, values = expected
    assert (table.in_modules, table.out_module) == (ins, out)
    nonzero = {idx: vec for idx, vec in values.items() if not _oracle.veq0(vec)}
    helpers.assert_oracle_table(table, nonzero)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_partial_composition_matches_nested_evaluation(m: int, n: int, data) -> None:
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    f_ins = tuple(data.draw(st.sampled_from(MODULES)) for _ in range(m))
    f = _random_table(rng, f_ins, data.draw(st.sampled_from(MODULES)))
    for i in range(1, m + 1):
        g_ins = tuple(data.draw(st.sampled_from(MODULES)) for _ in range(n))
        g = _random_table(rng, g_ins, f_ins[i - 1])
        _assert_tabulated(table_sum([(1, Circ(f, i, g))]), _nested(f, i, g))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.data())
def test_slot_swap_matches_evaluation_at_swapped_weights(m: int, data) -> None:
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    ins = tuple(data.draw(st.sampled_from(MODULES)) for _ in range(m))
    f = _random_table(rng, ins, data.draw(st.sampled_from(MODULES)))
    for p, q in itertools.combinations(range(1, m + 1), 2):
        _assert_tabulated(table_sum([(1, Swap(f, p, q))]), _swapped(f, p, q))


def test_table_sum_accumulates_signed_terms_of_one_shape() -> None:
    rng = random.Random(7)
    f = _random_table(rng, (AM, AM), AM)
    g = _random_table(rng, (AM, AM), AM)
    h = _random_table(rng, (AM, AM, AM), AM)
    q = Poly.var("q")
    total = table_sum([(1, Circ(f, 1, g)), (-2, Circ(g, 2, f)), (q, Swap(h, 1, 3)), (0, h)])
    (ins, out, fg), (_, _, gf), (_, _, hh) = _nested(f, 1, g), _nested(g, 2, f), _swapped(h, 1, 3)
    sq = sp.Symbol("q")
    values = {
        idx: tuple(x - 2 * y + sq * z for x, y, z in zip(fg[idx], gf[idx], hh[idx])) for idx in fg
    }
    _assert_tabulated(total, (ins, out, values))
    assert table_sum([(1, f), (-1, f)]).is_zero()
    with pytest.raises(ShapeMismatch):
        table_sum([(1, f), (1, Circ(f, 1, g))])
    with pytest.raises(ModuleMismatch):
        table_sum([(1, Circ(f, 1, _random_table(rng, (AM,), NM)))])
    with pytest.raises(ArityMismatch):
        table_sum([(1, Swap(f, 1, 3))])
    with pytest.raises(ArityMismatch):
        table_sum([])


def test_a_sum_memo_computes_each_sum_once_and_ends_with_its_block() -> None:
    rng = random.Random(8)
    f, g = _random_table(rng, (AM, AM), AM), _random_table(rng, (AM, AM), AM)
    terms = [(1, Circ(f, 1, g)), (-2, Circ(g, 2, f))]
    assert table_sum(terms) is not table_sum(terms)  # outside a memo: today's path
    with sum_memo():
        first = table_sum(terms)
        assert first == table_sum([(1, Circ(f, 1, g)), (-2, Circ(g, 2, f))])
        # coefficients compare by value, operands and slots by identity
        assert table_sum([(Poly.one(), Circ(f, 1, g)), (Fraction(-2), Circ(g, 2, f))]) is first
        assert table_sum(iter(terms)) is first
        assert table_sum([(1, Circ(f, 1, g)), (2, Circ(g, 2, f))]) is not first
        assert table_sum([(1, Circ(f, 2, g)), (-2, Circ(g, 2, f))]) is not first
        twin = MultiTable((AM, AM), AM, g.entries)
        assert table_sum([(1, Circ(f, 1, twin)), (-2, Circ(twin, 2, f))]) is not first
        assert table_sum([(1, Swap(f, 1, 2))]) is not table_sum([(1, f)])
        # a constant is keyed by its value, as an int, a Fraction or a Poly
        two = table_sum([(2, f)])
        assert table_sum([(Fraction(2), f)]) is two
        assert table_sum([(Poly.const(2), f)]) is two
        half = table_sum([(Fraction(1, 2), f)])
        assert table_sum([(Poly.const(Fraction(1, 2)), f)]) is half
        # a non-constant coefficient by its polynomial, however often it is built
        shift, again = D + 1, D + 1
        assert shift is not again
        assert table_sum([(again, f)]) is table_sum([(shift, f)])
        assert table_sum([(2 * D, f)]) is not two
        assert table_sum([(2, f)]) is two
        with sum_memo():  # a nested block reuses the open memo
            assert table_sum(terms) is first
        memo = confcore._SUMS.get()
        held = dict(memo.sums)
        for _ in range(2):
            with pytest.raises(ArityMismatch):
                table_sum([(1, Swap(f, 1, 3))])
        assert memo.sums == held  # a sum that raises stores nothing
        stored = [entry for _, table in memo.sums.values() for entry in table.entries.values()]
        assert memo.held == sum(len(c) for entry in stored for _, c in entry.support())
    assert confcore._SUMS.get() is None
    assert table_sum(terms) is not first


def test_the_sum_memo_counts_its_hits_and_misses() -> None:
    rng = random.Random(8)
    f, g = _random_table(rng, (AM, AM), AM), _random_table(rng, (AM, AM), AM)
    with sum_memo():
        memo = confcore._SUMS.get()
        assert (memo.hits, memo.misses) == (0, 0)
        for _ in range(3):
            table_sum([(1, Circ(f, 1, g))])
        table_sum([(1, f)])
        with pytest.raises(ArityMismatch):
            table_sum([(1, Swap(f, 1, 3))])
        assert (memo.hits, memo.misses) == (2, 3)


def _assert_supports_stored(table: MultiTable) -> None:
    for entry in table.entries.values():
        assert list(entry.support()) == [(i, c) for i, c in enumerate(entry.coeffs) if c]
        assert not entry.is_zero()
        assert entry.is_zero() == (not any(entry.coeffs))


def test_table_sum_entries_carry_their_supports() -> None:
    rng = random.Random(36)
    for _ in range(10):
        ins = (rng.choice(MODULES), rng.choice(MODULES))
        out = rng.choice(MODULES)
        f, g = _random_table(rng, ins, out), _random_table(rng, ins, out)
        inner = _random_table(rng, (rng.choice(MODULES),) * 2, ins[0])
        three = _random_table(rng, ins + ins[:1], out)
        c = rng.choice((1, -2, Fraction(1, 3), D + 1, Poly.var("q")))
        for terms in (
            [(1, f), (c, g)],
            [(c, Circ(f, 1, inner)), (-1, Circ(f, 1, inner))],
            [(1, Swap(three, 1, 3)), (c, Swap(three, 1, 3)), (c, three)],
            [(1, Circ(f, 2, _random_table(rng, (rng.choice(MODULES),), ins[1])))],
        ):
            _assert_supports_stored(table_sum(terms))
        # cells that cancel leave no entry
        assert table_sum([(1, f), (-1, f)]).entries == {}
        assert table_sum([(1, Circ(f, 1, inner)), (-1, Circ(f, 1, inner))]).entries == {}
    # a commutative table less its swap: the constant entries cancel, and of the two
    # entries that carry L1 one output coefficient is left
    r = MODULES[2]
    entries = {}
    for i, j in itertools.combinations_with_replacement(range(r.rank), 2):
        entries[i, j] = entries[j, i] = r.elem([rng.choice((-1, 0, 2)) for _ in range(r.rank)])
    entries[0, 1] = entries[0, 1] + r.elem([0, L1, 0])
    f = MultiTable((r, r), r, entries)
    diff = table_sum([(1, f), (-1, Swap(f, 1, 2))])
    assert diff.entries == {(0, 1): r.elem([0, L1, 0]), (1, 0): r.elem([0, D + L1, 0])}
    _assert_supports_stored(diff)


def test_a_rebinding_past_the_exponent_cap_raises_the_same_error_each_time() -> None:
    e = FreeModule(("e",))

    def table(idx, value):
        return MultiTable((e,) * len(idx), e, {idx: e.elem([value])})

    one = table((0, 0), 1)
    cases = [
        # D -> -(L1 + L2) in a leading slot: (L1 + L2)^2 * L1^EXP_MAX
        ([(1, Circ(one, 1, table((0, 0), D**2 * L1**EXP_MAX)))], "L1", EXP_MAX + 2),
        # the last slot swapped: L1 -> -D - L1
        ([(-1, Swap(table((0, 0), D**EXP_MAX * L1), 1, 2))], "D", EXP_MAX + 1),
        # D -> D + L1 in the last slot, then the product with f's value
        ([(1, Circ(table((0, 0), L1**EXP_MAX), 2, table((0,), D**2)))], "L1", EXP_MAX + 2),
    ]
    for terms, name, exp in cases:
        for _ in range(2):  # the second time the layout's rebinding is compiled already
            with pytest.raises(ExponentOverflow) as caught:
                table_sum(terms)
            assert str(caught.value) == f"exponent {exp} of {name} exceeds the cap {EXP_MAX}"


def test_table_sums_compile_each_slot_layout_once(monkeypatch) -> None:
    f = Cochain(helpers.rand_table(random.Random(5), AM))
    compiled = []
    compile_ = Substitution._compile

    def counted(self):
        compiled.append(self)
        return compile_(self)

    monkeypatch.setattr(Substitution, "_compile", counted)
    confcore._circ_bindings.cache_clear()
    confcore._swap_binding.cache_clear()
    dd = confcore.hochschild_d(confcore.hochschild_d(f, DUAL, ADJ), DUAL, ADJ)
    assert dd.is_zero()
    # d of the arity-2 cochain composes at the layouts (i, m, n) = (2, 2, 2) and
    # (1, 2, 2); d of the arity-3 result at (2, 2, 3), (1, 3, 2), (2, 3, 2),
    # (3, 3, 2) and (1, 2, 3).  Seven of their rebindings meet a variable (those of
    # the constant structure tables never do), and each is compiled once
    assert confcore._circ_bindings.cache_info().currsize == 7
    assert len(compiled) == len({id(s) for s in compiled}) == 7
    compiled.clear()
    assert confcore.hochschild_d(confcore.hochschild_d(f, DUAL, ADJ), DUAL, ADJ) == dd
    assert compiled == []


def test_a_slot_layout_keeps_a_bounded_table_of_powers() -> None:
    e = FreeModule(("e",))
    one = MultiTable((e, e), e, {(0, 0): e.elem([1])})
    high = MultiTable((e, e), e, {(0, 0): e.elem([D**200])})
    confcore._circ_bindings.cache_clear()
    for _ in range(2):  # the first sum's trim starts the memo, and the second fills it
        assert table_sum([(1, Circ(one, 1, high))]).entry((0, 0, 0)) == e.elem([(L1 + L2) ** 200])
    # the powers of D -> -(L1 + L2) up to 200 hold 20,300 terms; the layout keeps fewer
    _, g_bind = confcore._circ_bindings(1, 2, 2)
    (table,) = g_bind._plan[3]
    assert 0 < table[5][-1] <= polyring._KEPT_TERMS < 20_300
    # its memo holds the image of D^200, 201 terms, within the same budget
    memo_terms = sum(len(image) for _, image in g_bind._memo.values())
    assert 201 <= g_bind._held == memo_terms <= polyring._KEPT_TERMS

def test_threads_sharing_a_slot_layout_get_exact_sums() -> None:
    # every thread composes at one layout, so all share its rebinding and grow the
    # powers of its image D -> -(L1 + L2) at once, on a short switch interval
    e = FreeModule(("e",))
    one = MultiTable((e, e), e, {(0, 0): e.elem([1])})
    inners = [MultiTable((e, e), e, {(0, 0): e.elem([D**k + L1])}) for k in range(1, 25)]
    confcore._circ_bindings.cache_clear()
    expected = [table_sum([(1, Circ(one, 1, g))]) for g in inners]
    results, interval = {}, sys.getswitchinterval()

    def work(n: int) -> None:
        results[n] = [table_sum([(1, Circ(one, 1, g))]) for g in inners]

    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            confcore._circ_bindings.cache_clear()
            threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(results) == 6 and all(got == expected for got in results.values())
            results.clear()
    finally:
        sys.setswitchinterval(interval)

def test_an_element_computes_its_support_once(monkeypatch) -> None:
    elem, zero = AM.elem([D + 1, 0]), AM.elem([0, 0])
    tests = []
    truth = Poly.__bool__

    def counted(self):
        tests.append(self)
        return truth(self)

    monkeypatch.setattr(Poly, "__bool__", counted)
    for _ in range(2):
        assert not elem.is_zero() and zero.is_zero()
        assert list(elem.support()) == [(0, D + 1)] and list(zero.support()) == []
        assert (str(elem), str(zero)) == ("(D + 1)*u", "0")
        assert len(tests) == 4  # one test per coefficient, on first use

# -- associativity ------------------------------------------------------------


def test_composite_agree_and_hold_rule() -> None:
    ok = Verdict("ok", True, ())
    bad = Verdict("bad", False, ((("u",), u),))
    flags = Composite("flags", {"p": True, "q": True, "r": None}, agree=("p", "q", "r"))
    assert flags.holds and flags.consistent and flags.r is None
    assert flags.summary() == "p=True q=True r=None consistent=True"
    assert flags.witnesses == ()
    both_false = Composite("flags", {"p": False, "q": False, "extra": True}, agree=("p", "q"))
    assert both_false.holds  # equivalent clauses agree on a failure
    split = Composite("flags", {"p": True, "q": False}, agree=("p", "q"))
    assert not split.holds
    assert split.witnesses == ((("flags",), "p=True q=False consistent=False"),)
    must_hold = Composite("flags", {"p": True, "q": True, "extra": False}, agree=("p", "q"))
    assert not must_hold.consistent
    clauses = Composite("all", {"first_part": ok, "second": bad}, labels={"second": "2nd"})
    assert clauses.first_part is ok and not clauses.holds
    assert clauses.summary() == "first-part: ok: holds; 2nd: bad: fails at (u): residual u"
    with pytest.raises(AttributeError):
        clauses.missing


def test_dual_and_nilp_are_associative() -> None:
    assert check_associative(DUAL).holds
    assert check_associative(NILP).holds


def test_mutated_product_fails_with_witness() -> None:
    mutated = ConfAlgebra.associative(
        AM, {(0, 0): v, (0, 1): v, (1, 0): v}
    )
    verdict = check_associative(mutated)
    assert not verdict.holds
    assert verdict.witnesses[0][0] == ("u", "u", "v")


def test_rank_one_degree_mismatch_fails() -> None:
    em = FreeModule(("e",))
    alg = ConfAlgebra.associative(em, {(0, 0): (D + 2 * L1) * em.basis_elem(0)})
    assert not check_associative(alg).holds


def test_check_associative_rejects_lie_flavor() -> None:
    from confalg.errors import PreconditionFailed

    abelian = ConfAlgebra.lie(AM, {})
    with pytest.raises(PreconditionFailed):
        check_associative(abelian)


# -- Lie axioms ---------------------------------------------------------------


def test_commutators_of_commutative_algebras_are_abelian() -> None:
    for alg in (DUAL, NILP):
        lie = commutator_lie(alg)
        assert lie.flavor == "lie"
        assert not lie.table.entries
        assert check_lie(lie).holds


def test_zero_bracket_is_lie() -> None:
    assert check_lie(ConfAlgebra.lie(AM, {})).holds


def test_non_skew_bracket_rejected_at_construction() -> None:
    em = FreeModule(("e",))
    with pytest.raises(NotSkewSymmetric):
        ConfAlgebra.lie(em, {(0, 0): em.basis_elem(0)})


def test_non_skew_bracket_reported_by_checker() -> None:
    em = FreeModule(("e",))
    alg = ConfAlgebra.lie(em, {(0, 0): em.basis_elem(0)}, check_skew=False)
    verdict = check_lie(alg)
    assert not verdict.holds
    assert verdict.witnesses[0][0][0] == "skew"


def test_commutator_of_semidirect_passes_lie_checks() -> None:
    ext = semidirect(DUAL, ADJ)
    lie = commutator_lie(ext)
    assert check_lie(lie).holds


def test_commutator_requires_associativity() -> None:
    mutated = ConfAlgebra.associative(AM, {(0, 0): v, (0, 1): v, (1, 0): v})
    with pytest.raises(NotAssociative):
        commutator_lie(mutated)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_commutators_of_random_semidirect_towers(seed: int) -> None:
    rng = random.Random(seed)
    alg = rng.choice((DUAL, NILP))
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            bim = ConfBimodule.adjoint(alg)
        else:
            extra = FreeModule(tuple(f"w{i}" for i in range(rng.randint(1, 2))))
            bim = ConfBimodule.build(alg, extra, {}, {})
        alg = semidirect(alg, bim)
    assert check_associative(alg).holds
    assert check_lie(commutator_lie(alg)).holds


# -- bimodules ----------------------------------------------------------------


def test_adjoint_bimodules_hold() -> None:
    assert check_bimodule(DUAL, ADJ).holds
    assert check_bimodule(NILP, NADJ).holds


def test_the_adjoint_bimodule_and_its_representation_reuse_the_algebra_tables() -> None:
    # upper-triangular 2x2 matrices: a bracket with nonzero entries
    alg = cur(
        ("p", "n", "q"),
        {("p", "p"): (1, 0, 0), ("p", "n"): (0, 1, 0), ("n", "q"): (0, 1, 0), ("q", "q"): (0, 0, 1)},
    )
    adjoint = ConfBimodule.adjoint(alg)
    assert adjoint.left is adjoint.right is alg.table
    with sum_memo():
        lie = commutator_lie(alg)
        assert lie.table.entries
        assert commutator_lie(alg).table is lie.table
        assert rep_from_bimodule(alg, adjoint).action is lie.table


def test_zero_actions_form_a_bimodule() -> None:
    wm = FreeModule(("w",))
    assert check_bimodule(DUAL, ConfBimodule.build(DUAL, wm, {}, {})).holds


def test_bad_left_action_fails() -> None:
    wm = FreeModule(("m",))
    m = wm.basis_elem(0)
    bad = ConfBimodule.build(DUAL, wm, {(0, 0): m, (1, 0): m}, {})
    verdict = check_bimodule(DUAL, bad)
    assert not verdict.holds
    assert verdict.witnesses[0][0][0] == "left-module"


def test_lie_representation_from_bimodule() -> None:
    for alg, bim in ((DUAL, ADJ), (NILP, NADJ)):
        rep = rep_from_bimodule(alg, bim)
        assert not rep.action.entries  # commutative algebras act trivially
        assert check_lie_rep(rep).holds
    ext = semidirect(DUAL, ADJ)
    rep = rep_from_bimodule(ext, ConfBimodule.adjoint(ext))
    assert check_lie_rep(rep).holds


def test_bimodule_preconditions_raise_exactly() -> None:
    # a twin of DUAL on the same module, with another product: ADJ is not over it
    twin = ConfAlgebra.associative(AM, {(0, 0): u})
    helpers.assert_raises_exactly(
        ModuleMismatch, "bimodule was built over a different algebra", check_bimodule, twin, ADJ
    )
    wm = FreeModule(("m",))
    m = wm.basis_elem(0)
    bad = ConfBimodule.build(DUAL, wm, {(0, 0): m, (1, 0): m}, {})
    helpers.assert_raises_exactly(
        NotBimodule,
        "bimodule: fails at (left-module, v, v, m): residual -1*m",
        rep_from_bimodule,
        DUAL,
        bad,
    )


# -- semidirect product --------------------------------------------------------


def frozen(module: FreeModule, vec) -> tuple:
    return module.elem(vec)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_a_block_reads_back_out_with_negative_shifts(seed: int) -> None:
    rng = random.Random(seed)
    table = _random_table(rng, (AM, NM), NM)
    big = direct_sum(AM, NM)
    placed = block(table, (big, big), big, (0, 2), 2)
    assert all(i < 2 <= j and not any(e.coeffs[:2]) for (i, j), e in placed.entries.items())
    assert block(placed, (AM, NM), NM, (0, -2), -2) == table
    # every other block of the placed table is empty
    assert block(placed, (NM, NM), NM, (-2, -2), -2).is_zero()
    assert block(placed, (AM, NM), AM, (0, -2), 0).is_zero()


def test_a_block_needs_one_module_and_one_shift_per_slot() -> None:
    with pytest.raises(ArityMismatch):
        block(DUAL.table, (AM,), AM, (0,), 0)
    with pytest.raises(ArityMismatch):
        block(DUAL.table, (AM, AM), AM, (0,), 0)


def test_semidirect_frozen_table() -> None:
    ext = semidirect(DUAL, ADJ)
    big = ext.module
    assert big.basis == ("a_u", "a_v", "m_u", "m_v")
    expected = {
        (0, 0): (1, 0, 0, 0),
        (0, 1): (0, 1, 0, 0),
        (0, 2): (0, 0, 1, 0),
        (0, 3): (0, 0, 0, 1),
        (1, 0): (0, 1, 0, 0),
        (1, 2): (0, 0, 0, 1),
        (2, 0): (0, 0, 1, 0),
        (2, 1): (0, 0, 0, 1),
        (3, 0): (0, 0, 0, 1),
    }
    assert ext.table.entries == {
        key: big.elem(vec) for key, vec in expected.items()
    }
    assert check_associative(ext).holds


def test_semidirect_module_part_is_a_square_zero_ideal() -> None:
    ext = semidirect(DUAL, ADJ)
    for i in (2, 3):
        for j in (2, 3):
            assert ext.entry(i, j).is_zero()


def test_semidirect_validates_the_bimodule() -> None:
    wm = FreeModule(("m",))
    m = wm.basis_elem(0)
    bad = ConfBimodule.build(DUAL, wm, {(0, 0): m, (1, 0): m}, {})
    with pytest.raises(NotBimodule):
        semidirect(DUAL, bad)
    # the unvalidated candidate table fails associativity: the biconditional
    # between the bimodule axioms and the semidirect associativity.
    candidate = semidirect(DUAL, bad, validate=False)
    assert not check_associative(candidate).holds


def test_extensions_refuse_a_bimodule_over_another_algebra() -> None:
    # NADJ is a bimodule over NILP; unvalidated, its actions would mix with DUAL's product
    with pytest.raises(ModuleMismatch, match="bimodule was built over a different algebra"):
        semidirect(DUAL, NADJ, validate=False)
    from confalg.cohomology import Cochain

    phi = Cochain.zero(2, AM, NM)
    with pytest.raises(ModuleMismatch, match="bimodule was built over a different algebra"):
        twisted_extension(DUAL, NADJ, phi, validate=False)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_semidirect_associative_iff_bimodule(seed: int) -> None:
    rng = random.Random(seed)
    wm = FreeModule(("m",))
    left = {}
    right = {}
    for i in range(2):
        if rng.random() < 0.7:
            val = helpers.rand_elem(rng, wm, names=("D", "L1"))
            if not val.is_zero():
                left[(i, 0)] = val
        if rng.random() < 0.7:
            val = helpers.rand_elem(rng, wm, names=("D", "L1"))
            if not val.is_zero():
                right[(0, i)] = val
    bim = ConfBimodule.build(DUAL, wm, left, right)
    candidate = semidirect(DUAL, bim, validate=False)
    assert check_bimodule(DUAL, bim).holds == check_associative(candidate).holds


# -- twisted extensions ---------------------------------------------------------


def test_zero_twist_reproduces_semidirect() -> None:
    zero_phi = helpers.nilp_cocycle().scale(0)
    assert twisted_extension(NILP, NADJ, zero_phi).table == semidirect(NILP, NADJ).table


def test_twisted_extension_frozen_table() -> None:
    ext = twisted_extension(NILP, NADJ, helpers.nilp_cocycle())
    big = ext.module
    expected = {
        (0, 0): big.elem((0, 1, 0, L1)),
        (0, 2): big.elem((0, 0, 0, 1)),
        (2, 0): big.elem((0, 0, 0, 1)),
    }
    assert ext.table.entries == expected
    assert check_associative(ext).holds


def test_twisting_by_minus_product_is_associative() -> None:
    ext = twisted_extension(DUAL, ADJ, helpers.neg_mult())
    assert check_associative(ext).holds


def test_twisted_extension_rejects_non_cocycles() -> None:
    from confalg.cohomology import Cochain

    junk = Cochain.from_entries(2, NM, NM, {(0, 1): L1 * b})
    with pytest.raises(NotCocycle):
        twisted_extension(NILP, NADJ, junk)


def test_twisted_extension_rejects_misshapen_twists() -> None:
    helpers.assert_raises_exactly(
        ArityMismatch,
        "the twist must map <a, b> × <a, b> into <a, b>, not <a, b> into <a, b>",
        twisted_extension,
        NILP,
        NADJ,
        Cochain.zero(1, NM, NM),
    )
    helpers.assert_raises_exactly(
        ShapeMismatch,
        "the twist must map <a, b> × <a, b> into <a, b>, not <a, b> × <a, b> into <u, v>",
        twisted_extension,
        NILP,
        NADJ,
        Cochain.zero(2, NM, AM),
    )


def test_twisted_commutator_bracket_value() -> None:
    ext = twisted_extension(NILP, NADJ, helpers.nilp_cocycle())
    lie = commutator_lie(ext)
    assert check_lie(lie).holds
    big = ext.module
    assert lie.table.entries == {(0, 0): big.elem((0, 0, 0, D + 2 * L1))}


# -- extension isomorphisms ------------------------------------------------------


def test_extension_iso_trivial_section() -> None:
    h = ModuleMap.zero(NM, NM)
    iso = extension_iso(NILP, NADJ, helpers.nilp_cocycle(), h)
    assert iso.verdict.holds
    assert iso.psi.matrix == ModuleMap.identity(iso.psi.source).matrix


def test_identity_section_untwists_minus_product() -> None:
    from confalg.cohomology import Cochain, hochschild_d, multiplication_cochain

    iso = extension_iso(DUAL, ADJ, helpers.neg_mult(), IDENT)
    assert iso.verdict.holds
    # the coboundary of the identity is the product itself, so φ + 𝐝h = 0
    dh = hochschild_d(Cochain.from_module_map(IDENT), DUAL, ADJ)
    assert dh == multiplication_cochain(DUAL)


def test_extension_iso_on_nilpotent_cocycle() -> None:
    from confalg.cohomology import Cochain, hochschild_d

    h = ModuleMap.from_images(NM, NM, {"a": b, "b": NM.zero()})
    iso = extension_iso(NILP, NADJ, helpers.nilp_cocycle(), h)
    assert iso.verdict.holds
    # this section has zero coboundary, so it relates the twist to itself
    assert hochschild_d(Cochain.from_module_map(h), NILP, NADJ).is_zero()
    # psi and its inverse really are mutually inverse
    assert iso.psi.compose(iso.psi_inv).matrix == ModuleMap.identity(iso.psi.source).matrix


def test_extension_iso_preconditions_raise_exactly() -> None:
    h = ModuleMap.zero(NM, NM)
    junk = Cochain.from_entries(2, NM, NM, {(0, 1): L1 * b})
    helpers.assert_raises_exactly(
        NotCocycle,
        "2-cocycle: fails at (a, a, a): residual (L1)*b",
        extension_iso,
        NILP,
        NADJ,
        junk,
        h,
    )
    for wrong, shape in (
        (ModuleMap.zero(AM, NM), "<u, v> into <a, b>"),
        (ModuleMap.zero(NM, AM), "<a, b> into <u, v>"),
    ):
        helpers.assert_raises_exactly(
            ShapeMismatch,
            f"h must map <a, b> into <a, b>, not {shape}",
            extension_iso,
            NILP,
            NADJ,
            helpers.nilp_cocycle(),
            wrong,
        )


# -- matching pairs ----------------------------------------------------------------


def test_degenerate_matching_pair_is_semidirect() -> None:
    wm = FreeModule(("m", "n"))
    trivial = ConfAlgebra.associative(wm, {})
    actions = ConfBimodule.build(DUAL, wm, {(0, 0): wm.basis_elem(0)}, {})
    back = ConfBimodule.build(trivial, AM, {}, {})
    glued = matching_pair(DUAL, trivial, actions, back)
    sd = semidirect(DUAL, actions, validate=False)
    assert glued.table.entries == sd.table.entries
    assert check_associative(glued).holds == check_associative(sd).holds


def test_all_zero_matching_pair_is_associative() -> None:
    wm = FreeModule(("x",))
    zero1 = ConfAlgebra.associative(AM, {})
    zero2 = ConfAlgebra.associative(wm, {})
    glued = matching_pair(
        zero1,
        zero2,
        ConfBimodule.build(zero1, wm, {}, {}),
        ConfBimodule.build(zero2, AM, {}, {}),
    )
    assert not glued.table.entries
    assert check_associative(glued).holds


def test_matching_pair_shape_errors() -> None:
    wm = FreeModule(("x",))
    other = ConfAlgebra.associative(wm, {})
    helpers.assert_raises_exactly(
        ShapeMismatch,
        "matching_pair: the left action of A₁ on A₂ must map <u, v> × <x> into <x>,"
        " not <u, v> × <u, v> into <u, v>",
        matching_pair, DUAL, other, ConfBimodule.adjoint(DUAL), ConfBimodule.adjoint(other),
    )
    helpers.assert_raises_exactly(
        ShapeMismatch,
        "matching_pair: the left action of A₂ on A₁ must map <x> × <u, v> into <u, v>,"
        " not <x> × <x> into <x>",
        matching_pair,
        DUAL,
        other,
        ConfBimodule.build(DUAL, wm, {}, {}),
        ConfBimodule.adjoint(other),
    )
    # a bundle over a twin of A₁: the same module, another product
    twin = ConfBimodule.build(ConfAlgebra.associative(AM, {}), wm, {}, {})
    helpers.assert_raises_exactly(
        ModuleMismatch,
        "bimodule was built over a different algebra",
        matching_pair, DUAL, other, twin, ConfBimodule.adjoint(other),
    )


# -- current algebras ----------------------------------------------------------------


def test_cur_builds_the_canonical_fixtures() -> None:
    assert DUAL.table.entries == {(0, 0): u, (0, 1): v, (1, 0): v}
    assert NILP.table.entries == {(0, 0): b}


def test_cur_accepts_names_or_indices() -> None:
    again = cur(("a", "b"), {(0, 0): (0, 1)})
    assert again.table == NILP.table


def test_cur_rejects_non_scalar_entries() -> None:
    with pytest.raises(InvalidEntry):
        cur(("e",), {("e", "e"): (D,)})


def test_cur_idempotent_rank_one() -> None:
    alg = cur(("e",), {("e", "e"): (1,)})
    assert check_associative(alg).holds


def test_cur_lie_flavor_checks_skew() -> None:
    with pytest.raises(NotSkewSymmetric):
        cur(("e",), {("e", "e"): (1,)}, flavor="lie")
