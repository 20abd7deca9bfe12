"""Tests for cochains, the graded brackets, and the Maurer-Cartan checks.

Frozen values come from an independent brute-force expansion; the bracket
identities and differential laws additionally run on seeded random cochains.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg import cohomology
from confalg.confcore import (
    Composite,
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    LieRep,
    MultiTable,
    check_associative,
    check_bimodule,
    check_lie,
    commutator_lie,
    extension_iso,
    matching_pair,
    twisted_extension,
)
from confalg.cohomology import (
    Cochain,
    derived_binary,
    derived_bracket,
    derived_bracket_direct,
    derived_bracket_via_lifts,
    g_bracket,
    g_circle,
    hochschild_d,
    is_cocycle,
    is_commutative_cocycle,
    lift_cochain,
    lift_twisting_cochain,
    maurer_cartan_check,
    mc_perturbation_check,
    modified_mc_check,
    multiplication_cochain,
    o_complex_d,
    random_cochain,
)
from confalg.errors import (
    ArityMismatch,
    ConfalgError,
    ModuleMismatch,
    NotCocycle,
    NotOOperator,
    PreconditionFailed,
    ShapeMismatch,
)
from confalg.derived import deformed_bracket, induced_bimodule_on_A, m_ass
from confalg.operators import (
    ModuleMap, graph_check, induced_actions, lift, star_product, verify_operator
)

import _oracle
import helpers
from helpers import (
    ADJ,
    AM,
    D,
    DDER,
    DUAL,
    IDENT,
    L1,
    NADJ,
    NILP,
    NILP_DER,
    NILP_T1,
    NILP_T2,
    NM,
    SHIFT,
    ZERO_MAP,
    a,
    b,
    neg_mult,
    nilp_cocycle,
    u,
    v,
)

# A map that is not an O-operator over the adjoint actions.
BAD_MAP = ModuleMap.from_images(AM, AM, {"u": u, "v": v + D * u})


# -- cochain containers ----------------------------------------------------------


def test_cochain_evaluation_is_sesquilinear_in_every_slot():
    f = nilp_cocycle()
    assert f.eval((a, a), (L1,)) == L1 * b
    # D on an inner argument becomes minus that argument's weight
    assert f.eval((D * a, a), (L1,)) == -(L1 * L1) * b
    # D on the last argument becomes D plus the total weight
    assert f.eval((a, D * a), (L1,)) == (L1 * (D + L1)) * b
    assert f.eval((b, a), (L1,)).is_zero()
    # weights may mention D, realizing evaluations at minus-lambda-minus-D
    assert f.eval((a, a), (-L1 - D,)) == -((L1 + D)) * b


def test_cochain_from_function_tabulates_the_lambda_product():
    built = Cochain.from_function(
        2, AM, AM, lambda args, ws: DUAL.mul(args[0], args[1], ws[0])
    )
    assert built == multiplication_cochain(DUAL)
    assert built.table.entries == DUAL.table.entries


def test_multiplication_cochain_wraps_the_algebra_table():
    theta = multiplication_cochain(NILP)
    assert theta.arity == 2
    assert theta.input_module == NM and theta.value_module == NM
    assert theta.table is NILP.table
    assert theta.eval((a, a), (L1,)) == b


def test_module_maps_round_trip_through_arity_one_cochains():
    c = Cochain.from_module_map(SHIFT)
    assert c.arity == 1
    assert c.entry((0,)) == v and c.entry((1,)).is_zero()
    back = c.as_module_map()
    assert back.apply(u) == SHIFT.apply(u) and back.apply(v) == SHIFT.apply(v)
    with pytest.raises(ArityMismatch):
        multiplication_cochain(DUAL).as_module_map()


def test_cochain_linear_combinations():
    f = nilp_cocycle()
    zero = Cochain.zero(2, NM, NM)
    assert zero.is_zero()
    assert (f - f).is_zero()
    assert (f + (-f)).is_zero()
    assert f + zero == f
    assert f.scale(Fraction(1, 2)).scale(2) == f
    assert f.scale(0).is_zero()
    assert f + f == f.scale(2)


def test_cochain_shape_guards():
    f = nilp_cocycle()
    with pytest.raises(ShapeMismatch):
        f + Cochain.zero(1, NM, NM)
    with pytest.raises(ShapeMismatch):
        f + Cochain.zero(2, AM, AM)
    with pytest.raises(ArityMismatch):
        Cochain.zero(0, NM, NM)
    with pytest.raises(ShapeMismatch):
        Cochain(MultiTable((AM, NM), AM, {}))


# -- the differential ------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_differential_squares_to_zero_on_random_cochains(seed):
    rng = random.Random(seed)
    alg, bim = rng.choice([(DUAL, ADJ), (NILP, NADJ)])
    arity = rng.randint(1, 2)
    f = random_cochain(rng, arity, alg.module, bim.module)
    assert hochschild_d(hochschild_d(f, alg, bim), alg, bim).is_zero()


def test_derivations_are_exactly_the_closed_one_cochains():
    assert hochschild_d(Cochain.from_module_map(NILP_DER), NILP, NADJ).is_zero()
    assert hochschild_d(Cochain.from_module_map(DDER), DUAL, ADJ).is_zero()
    leaked = hochschild_d(Cochain.from_module_map(SHIFT), DUAL, ADJ)
    assert not leaked.is_zero()
    assert leaked.entry((0, 0)) == v


def test_differential_of_the_identity_is_the_multiplication():
    for alg, bim in ((DUAL, ADJ), (NILP, NADJ)):
        ident = Cochain.from_module_map(ModuleMap.identity(alg.module))
        assert hochschild_d(ident, alg, bim) == multiplication_cochain(alg)


def test_differential_shape_guards():
    with pytest.raises(ShapeMismatch):
        hochschild_d(nilp_cocycle(), DUAL, ADJ)
    with pytest.raises(ShapeMismatch):
        hochschild_d(Cochain.zero(2, AM, NM), DUAL, ADJ)
    with pytest.raises(ModuleMismatch, match="bimodule was built over a different algebra"):
        hochschild_d(Cochain.zero(2, NM, AM), NILP, ADJ)


def test_cocycle_scan_reports_basis_witnesses():
    good = is_cocycle(nilp_cocycle(), NILP, NADJ)
    assert good.holds and not good.witnesses
    assert good.identity == "2-cocycle"
    junk = Cochain.from_entries(2, NM, NM, {(0, 1): L1 * b})
    bad = is_cocycle(junk, NILP, NADJ)
    assert not bad.holds
    names, residual = bad.witnesses[0]
    assert len(names) == 3 and set(names) <= {"a", "b"}
    assert not residual.is_zero()
    with pytest.raises(ArityMismatch):
        is_cocycle(Cochain.zero(1, NM, NM), NILP, NADJ)


def test_the_hochschild_differential_refuses_a_lie_algebra():
    # [x y] = x is a Lie bracket; d∘d = 0 and the cocycle test assume an associative product
    module = FreeModule(("x", "y"))
    x = module.basis_elem(0)
    lie = ConfAlgebra.lie(module, {(0, 1): x, (1, 0): -x})
    adjoint = ConfBimodule.adjoint(lie)
    phi = Cochain.from_entries(2, module, module, {(0, 1): x})
    message = "hochschild_d needs an associative-flavored algebra"
    with pytest.raises(PreconditionFailed, match=message):
        hochschild_d(phi, lie, adjoint)
    with pytest.raises(PreconditionFailed, match=message):
        is_cocycle(phi, lie, adjoint)


def test_commutative_cocycle_check_adds_the_symmetry_family():
    assert is_commutative_cocycle(neg_mult(), DUAL, ADJ).holds
    skewed = nilp_cocycle()
    verdict = is_commutative_cocycle(skewed, NILP, NADJ)
    assert not verdict.holds
    assert verdict.identity == "commutative-2-cocycle"
    assert {w[0][0] for w in verdict.witnesses} == {"commutative"}
    # the same cochain is clean for the plain scan: only the symmetry fails
    assert is_cocycle(skewed, NILP, NADJ).holds


# -- the graded bracket ----------------------------------------------------------


def test_bracket_of_an_associative_product_with_itself_vanishes():
    for alg in (DUAL, NILP):
        theta = multiplication_cochain(alg)
        square = g_bracket(theta, theta)
        assert square.arity == 3
        assert square.is_zero()


def _associator_of(S: Cochain) -> Cochain:
    def fn(args, ws):
        (x, y, z), (w1, w2) = args, ws
        left = S.eval((S.eval((x, y), (w1,)), z), (w1 + w2,))
        right = S.eval((x, S.eval((y, z), (w2,))), (w1,))
        return left - right

    return Cochain.from_function(3, S.input_module, S.value_module, fn)


def test_bracket_square_doubles_the_associator_of_a_broken_product():
    em = FreeModule(("e",))
    bad = ConfAlgebra.associative(em, {(0, 0): (D + 2 * L1) * em.basis_elem(0)})
    theta = multiplication_cochain(bad)
    square = g_bracket(theta, theta)
    assert not square.is_zero()
    assert square == _associator_of(theta).scale(2)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_bracket_square_doubles_the_associator_of_random_cochains(seed):
    S = random_cochain(seed, 2, AM, AM, max_degree=1)
    assert g_bracket(S, S) == _associator_of(S).scale(2)


def test_bracket_with_the_multiplication_is_the_differential_up_to_sign():
    for alg, bim in ((DUAL, ADJ), (NILP, NADJ)):
        theta = multiplication_cochain(alg)
        for arity in (1, 2):
            f = random_cochain(11 * arity + 3, arity, alg.module, alg.module)
            lhs = g_bracket(theta, f)
            rhs = hochschild_d(f, alg, bim).scale((-1) ** (arity - 1))
            assert lhs == rhs


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**9))
def test_bracket_is_graded_antisymmetric(seed):
    rng = random.Random(seed)
    m, n = rng.choice([(1, 1), (1, 2), (2, 2)])
    f = random_cochain(rng, m, AM, AM, max_degree=1)
    g = random_cochain(rng, n, AM, AM, max_degree=1)
    flip = g_bracket(g, f).scale(-((-1) ** ((m - 1) * (n - 1))))
    assert g_bracket(f, g) == flip


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**9))
def test_bracket_satisfies_the_graded_leibniz_rule(seed):
    rng = random.Random(seed)
    m, n, k = rng.choice([(1, 1, 2), (1, 2, 2)])
    f = random_cochain(rng, m, AM, AM, max_degree=1)
    g = random_cochain(rng, n, AM, AM, max_degree=1)
    h = random_cochain(rng, k, AM, AM, max_degree=1)
    lhs = g_bracket(f, g_bracket(g, h))
    rhs = g_bracket(g_bracket(f, g), h) + g_bracket(
        g, g_bracket(f, h)
    ).scale((-1) ** ((m - 1) * (n - 1)))
    assert lhs == rhs


def test_graded_composition_degrees_and_shape_guards():
    f = random_cochain(5, 2, AM, AM)
    g = random_cochain(6, 1, AM, AM)
    assert g_circle(f, g).arity == 2
    assert g_bracket(f, g).arity == 2
    assert g_circle(f, f).arity == 3
    with pytest.raises(ShapeMismatch):
        g_circle(f, random_cochain(3, 1, NM, NM))


# -- lifts to the semidirect sum ---------------------------------------------------


def test_lift_embeds_values_in_the_algebra_component():
    lifted = lift_cochain(Cochain.from_module_map(SHIFT), DUAL, ADJ)
    big = lifted.input_module
    assert big.basis == ("a_u", "a_v", "m_u", "m_v")
    assert lifted.value_module == big
    assert lifted.table.entries == {(2,): big.basis_elem(1)}
    assert lifted.eval((big.basis_elem(0),), ()).is_zero()


def test_lifted_twisting_cochain_lands_in_the_module_component():
    lifted = lift_twisting_cochain(nilp_cocycle(), NILP, NADJ)
    big = lifted.input_module
    assert big.basis == ("a_a", "a_b", "m_a", "m_b")
    assert lifted.table.entries == {(0, 0): L1 * big.basis_elem(3)}


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**9))
def test_lifted_cochains_bracket_to_zero(seed):
    rng = random.Random(seed)
    alg, bim = rng.choice([(DUAL, ADJ), (NILP, NADJ)])
    f = random_cochain(rng, rng.randint(1, 2), bim.module, alg.module, max_degree=1)
    g = random_cochain(rng, rng.randint(1, 2), bim.module, alg.module, max_degree=1)
    fh = lift_cochain(f, alg, bim)
    gh = lift_cochain(g, alg, bim)
    assert g_bracket(fh, gh).is_zero()


@pytest.mark.parametrize("seed", range(3))
def test_lifts_match_the_oracle(seed):
    rng = random.Random(seed)
    alg, bim = DUAL, _rand_bimodule_over_dual(rng)
    ra, rm = alg.rank, bim.module.rank
    for n in (1, 2, 3):
        f = random_cochain(rng, n, bim.module, alg.module, max_degree=1)
        f_fn = _oracle.cochain_fn(n, rm, ra, helpers.sym_table(f.table))
        expected = _oracle.cochain_table(_oracle.lift_cochain(f_fn, n, ra, rm), n, ra + rm, ra + rm)
        helpers.assert_oracle_table(lift_cochain(f, alg, bim).table, expected)
        if n == 1:
            helpers.assert_oracle_table(lift(f.as_module_map(), alg, bim).table, expected)
    phi = random_cochain(rng, 2, alg.module, bim.module, max_degree=1)
    expected = _oracle.pad_table(helpers.sym_table(phi.table), ra + rm, ra)
    helpers.assert_oracle_table(lift_twisting_cochain(phi, alg, bim).table, expected)


def test_lift_shape_guards():
    with pytest.raises(ShapeMismatch):
        lift_cochain(Cochain.zero(1, AM, AM), NILP, NADJ)
    with pytest.raises(ArityMismatch):
        lift_twisting_cochain(Cochain.zero(1, AM, AM), DUAL, ADJ)
    with pytest.raises(ShapeMismatch):
        lift_twisting_cochain(Cochain.zero(2, NM, NM), DUAL, ADJ)


# -- derived brackets --------------------------------------------------------------


def test_derived_bracket_routes_agree_on_random_cochains():
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        seeds = (0, 1) if m + n < 4 else (0,)
        for seed in seeds:
            rng = random.Random(1000 * m + 100 * n + seed)
            f = random_cochain(rng, m, AM, AM, max_degree=1)
            g = random_cochain(rng, n, AM, AM, max_degree=1)
            direct = derived_bracket_direct(f, g, DUAL, ADJ)
            lifted = derived_bracket_via_lifts(f, g, DUAL, ADJ)
            assert direct == lifted
            assert derived_bracket(f, g, DUAL, ADJ) == direct
            assert direct.arity == m + n


M3 = FreeModule(("x", "y", "z"))


def _rand_bimodule_over_dual(rng: random.Random) -> ConfBimodule:
    """Random rank-3 actions of the dual numbers, linear in ``D`` and ``L1``; not a bimodule."""

    def entry():
        return M3.elem(
            tuple(helpers.rand_poly(rng, ("D", "L1"), max_deg=1) for _ in range(M3.rank))
        )

    left = {(i, j): entry() for i in range(AM.rank) for j in range(M3.rank)}
    right = {(j, i): entry() for i in range(AM.rank) for j in range(M3.rank)}
    return ConfBimodule.build(DUAL, M3, left, right)


# rank-3 brackets of total arity 4 have 81 entries, too slow for the sympy oracle
ORACLE_CASES = [
    (structure, m, n)
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))
    for structure in ("nilp", "dual", "random")
    if structure != "random" or m + n < 4
]


@pytest.mark.parametrize("structure, m, n", ORACLE_CASES)
def test_direct_derived_bracket_matches_the_oracle(structure, m, n):
    rng = random.Random(f"{structure} {m} {n}")
    if structure == "random":
        alg, bim = DUAL, _rand_bimodule_over_dual(rng)
    else:
        alg, bim = {"nilp": (NILP, NADJ), "dual": (DUAL, ADJ)}[structure]
    ra, rm = alg.module.rank, bim.module.rank
    f = random_cochain(rng, m, bim.module, alg.module, max_degree=1)
    g = random_cochain(rng, n, bim.module, alg.module, max_degree=1)
    expected = _oracle.derived_direct(
        _oracle.cochain_fn(m, rm, ra, helpers.sym_table(f.table)), m,
        _oracle.cochain_fn(n, rm, ra, helpers.sym_table(g.table)), n,
        helpers.sym_table(alg.table), helpers.sym_table(bim.left),
        helpers.sym_table(bim.right), ra, rm,
    )
    got = derived_bracket_direct(f, g, alg, bim)
    assert got.arity == m + n
    weights = [_oracle.L[k] for k in range(1, m + n)]
    for idx in itertools.product(range(rm), repeat=m + n):
        want = expected([_oracle.basisv(rm, i) for i in idx], weights)
        have = helpers.sym_vec(got.table.entry(idx))
        assert all(sp.expand(c - e) == 0 for c, e in zip(have, want)), idx


def _flip_first_term_of(monkeypatch, route: str) -> None:
    """Negate the first term of the first table sum that ``route`` computes."""
    real_sum, real_route = cohomology.table_sum, getattr(cohomology, route)

    def flipped(terms):
        (coeff, term), *rest = terms
        monkeypatch.setattr(cohomology, "table_sum", real_sum)
        return real_sum([(-coeff, term)] + rest)

    def mutated(*args):
        monkeypatch.setattr(cohomology, "table_sum", flipped)
        try:
            return real_route(*args)
        finally:
            monkeypatch.setattr(cohomology, "table_sum", real_sum)

    monkeypatch.setattr(cohomology, route, mutated)


@pytest.mark.parametrize("route", ("derived_bracket_direct", "derived_bracket_via_lifts"))
def test_derived_bracket_raises_when_either_route_is_wrong(monkeypatch, route):
    f = random_cochain(3, 1, AM, AM, max_degree=1)
    g = random_cochain(4, 2, AM, AM, max_degree=1)
    expected = derived_bracket(f, g, DUAL, ADJ)
    _flip_first_term_of(monkeypatch, route)
    assert getattr(cohomology, route)(f, g, DUAL, ADJ) != expected
    with pytest.raises(ConfalgError, match="disagree at"):
        derived_bracket(f, g, DUAL, ADJ)


def test_derived_bracket_disagreement_names_the_first_differing_tuple(monkeypatch):
    f = random_cochain(5, 1, AM, AM, max_degree=1)
    real = cohomology.derived_bracket_via_lifts
    # off by one at (v, v) and at (v, u); (v, u) comes first in basis order
    offset = Cochain.from_entries(2, AM, AM, {(1, 1): u, (1, 0): D * v})
    monkeypatch.setattr(
        cohomology, "derived_bracket_via_lifts", lambda *args: real(*args) + offset
    )
    with pytest.raises(ConfalgError, match=r"disagree at \(v, u\)$"):
        derived_bracket(f, f, DUAL, ADJ)


def test_lifted_route_raises_when_the_bracket_leaves_the_lifted_subspace(monkeypatch):
    f = random_cochain(6, 1, AM, AM, max_degree=1)
    real, calls = cohomology.g_bracket, []

    def forged(x, y):
        # the second call is the outer bracket [[θ̂, f̂], ĝ]; give it an M component
        calls.append(None)
        out = real(x, y)
        if len(calls) == 2:
            big, ra = out.input_module, AM.rank
            forge = {(ra,) * out.arity: big.basis_elem(ra)}
            out = out + Cochain.from_entries(out.arity, big, big, forge)
        return out

    monkeypatch.setattr(cohomology, "g_bracket", forged)
    with pytest.raises(ConfalgError, match="derived bracket left the lifted subspace"):
        derived_bracket_via_lifts(f, f, DUAL, ADJ)
    assert len(calls) == 2


def test_lifted_route_refuses_a_bimodule_over_another_algebra():
    # NADJ is a bimodule over NILP, not over DUAL; the direct route refuses it alike
    f = random_cochain(7, 1, NM, AM, max_degree=1)
    with pytest.raises(ModuleMismatch, match="bimodule was built over a different algebra"):
        derived_bracket_direct(f, f, DUAL, NADJ)
    with pytest.raises(ModuleMismatch, match="bimodule was built over a different algebra"):
        derived_bracket_via_lifts(f, f, DUAL, NADJ)


def test_the_differential_and_both_routes_refuse_a_bimodule_over_a_twin_algebra():
    # Z has DUAL's module and the zero product: its adjoint has the right shape
    foreign = ConfBimodule.adjoint(ConfAlgebra.associative(AM, {}))
    f = random_cochain(7, 1, AM, AM, max_degree=1)
    calls = (
        lambda: hochschild_d(f, DUAL, foreign),
        lambda: is_cocycle(helpers.neg_mult(), DUAL, foreign),
        lambda: derived_bracket_direct(f, f, DUAL, foreign),
        lambda: derived_bracket(f, f, DUAL, foreign),
    )
    for call in calls:
        with pytest.raises(ModuleMismatch, match="bimodule was built over a different algebra"):
            call()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_derived_bracket_of_module_maps_matches_the_closed_form(seed):
    rng = random.Random(seed)
    alg, bim = rng.choice([(DUAL, ADJ), (NILP, NADJ)])
    T1 = helpers.rand_map(rng, alg.module)
    T2 = helpers.rand_map(rng, alg.module)
    closed = derived_binary(T1, T2, alg, bim)
    direct = derived_bracket(
        Cochain.from_module_map(T1), Cochain.from_module_map(T2), alg, bim
    )
    assert closed == direct


def test_derived_square_vanishes_exactly_for_o_operators():
    for T, alg, bim in ((SHIFT, DUAL, ADJ), (NILP_T1, NILP, NADJ), (NILP_T2, NILP, NADJ)):
        tc = Cochain.from_module_map(T)
        assert derived_bracket(tc, tc, alg, bim).is_zero()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_derived_square_is_minus_twice_the_operator_residual(seed):
    T = helpers.rand_map(random.Random(seed), AM)

    def residual(args, ws):
        (x, y), (w,) = args, ws
        tx, ty = T.apply(x), T.apply(y)
        inner = ADJ.act_left(tx, y, w) + ADJ.act_right(x, ty, w)
        return DUAL.mul(tx, ty, w) - T.apply(inner)

    res = Cochain.from_function(2, AM, AM, residual)
    assert derived_binary(T, T, DUAL, ADJ) == res.scale(-2)


def test_derived_bracket_shape_guards():
    stray = Cochain.zero(1, AM, AM)
    with pytest.raises(ShapeMismatch):
        derived_bracket_direct(stray, stray, NILP, NADJ)


# -- shape preconditions: one error type and text at every entry point ---------------

#: the entry points that read a twist φ: A² → M, over A = DUAL acting on itself
TWIST_ENTRY_POINTS = {
    "twisted_extension": lambda phi: twisted_extension(DUAL, ADJ, phi),
    "extension_iso": lambda phi: extension_iso(DUAL, ADJ, phi, IDENT),
    "graph_check": lambda phi: graph_check(IDENT, DUAL, ADJ, phi),
    "lift_twisting_cochain": lambda phi: lift_twisting_cochain(phi, DUAL, ADJ),
    "verify_operator": lambda phi: verify_operator("TwistedRB", IDENT, DUAL, ADJ, twist=phi),
    "m_ass": lambda phi: m_ass(IDENT, DUAL, ADJ, phi),
    "m_ass_unvalidated": lambda phi: m_ass(IDENT, DUAL, ADJ, phi, validate=False),
    "induced_bimodule_on_A": lambda phi: induced_bimodule_on_A(IDENT, DUAL, ADJ, phi),
    "star_product": lambda phi: star_product(IDENT, ADJ, phi),
    "induced_actions": lambda phi: induced_actions(IDENT, DUAL, ADJ, phi),
    "induced_bimodule_on_A_unvalidated": lambda phi: induced_bimodule_on_A(
        IDENT, DUAL, ADJ, phi, validate=False
    ),
    "o_complex_d": lambda phi: o_complex_d(Cochain.from_module_map(IDENT), IDENT, DUAL, ADJ, phi),
    "modified_mc_check": lambda phi: modified_mc_check(IDENT, phi, DUAL, ADJ),
}

#: misshapen twists: the cochain, the error, and the shape the message reports
MISSHAPEN_TWISTS = {
    "arity-1": (Cochain.zero(1, AM, AM), ArityMismatch, "<u, v> into <u, v>"),
    "other-algebra": (Cochain.zero(2, NM, NM), ShapeMismatch, "<a, b> × <a, b> into <a, b>"),
}


@pytest.mark.parametrize("twist", MISSHAPEN_TWISTS)
@pytest.mark.parametrize("entry", TWIST_ENTRY_POINTS)
def test_a_misshapen_twist_raises_one_error_at_every_entry_point(entry, twist):
    phi, error, shape = MISSHAPEN_TWISTS[twist]
    helpers.assert_raises_exactly(
        error,
        f"the twist must map <u, v> × <u, v> into <u, v>, not {shape}",
        TWIST_ENTRY_POINTS[entry],
        phi,
    )


#: the entry points that read operator maps T: M → A besides the operator kinds, over DUAL and ADJ
MAP_ENTRY_POINTS = {
    "star_product": lambda T: star_product(T, ADJ),
    "induced_actions": lambda T: induced_actions(T, DUAL, ADJ),
    "derived_binary-left": lambda T: derived_binary(T, IDENT, DUAL, ADJ),
    "derived_binary-right": lambda T: derived_binary(IDENT, T, DUAL, ADJ),
}


@pytest.mark.parametrize("entry", MAP_ENTRY_POINTS)
def test_a_misshapen_map_raises_one_error_at_every_entry_point(entry):
    helpers.assert_raises_exactly(
        ShapeMismatch,
        f"{entry.split('-')[0]}: the map must map <u, v> into <u, v>, not <a, b> into <a, b>",
        MAP_ENTRY_POINTS[entry],
        ModuleMap.zero(NM, NM),
    )


LIE = commutator_lie(DUAL)

#: every refusal of an algebra of the other flavor: the call and the text it gives
FLAVOR_REFUSALS = {
    "LieRep": (lambda: LieRep(DUAL, AM, DUAL.table), "LieRep needs a lie"),
    "check_associative": (lambda: check_associative(LIE), "check_associative needs an associative"),
    "check_lie": (lambda: check_lie(DUAL), "check_lie needs a lie"),
    "check_bimodule": (lambda: check_bimodule(LIE, ADJ), "check_bimodule needs an associative"),
    "hochschild_d": (
        lambda: hochschild_d(Cochain.zero(1, AM, AM), LIE, ADJ),
        "hochschild_d needs an associative",
    ),
    "commutator_lie": (lambda: commutator_lie(LIE), "commutator_lie needs an associative"),
    "matching_pair-first": (
        lambda: matching_pair(LIE, DUAL, ADJ, ADJ), "matching_pair needs an associative"
    ),
    "matching_pair-second": (
        lambda: matching_pair(DUAL, LIE, ADJ, ADJ), "matching_pair needs an associative"
    ),
    "verify_operator-Nijenhuis": (
        lambda: verify_operator("Nijenhuis", IDENT, LIE), "Nijenhuis needs an associative"
    ),
    "verify_operator-NijenhuisLie": (
        lambda: verify_operator("NijenhuisLie", IDENT, DUAL), "NijenhuisLie needs a lie"
    ),
    "deformed_bracket": (lambda: deformed_bracket(IDENT, DUAL), "deformed_bracket needs a lie"),
}


@pytest.mark.parametrize("refusal", FLAVOR_REFUSALS)
def test_an_algebra_of_the_other_flavor_is_refused_with_one_text(refusal):
    call, text = FLAVOR_REFUSALS[refusal]
    helpers.assert_raises_exactly(PreconditionFailed, f"{text}-flavored algebra", call)


#: the entry points that read cochains f: Mⁿ → A, over the nilpotent algebra acting on itself
MODULE_COCHAIN_ENTRY_POINTS = {
    "lift_cochain": lambda f: lift_cochain(f, NILP, NADJ),
    "derived_bracket_direct_left": lambda f: derived_bracket_direct(f, nilp_cocycle(), NILP, NADJ),
    "derived_bracket_direct_right": lambda f: derived_bracket_direct(nilp_cocycle(), f, NILP, NADJ),
    "derived_bracket_via_lifts_left": lambda f: derived_bracket_via_lifts(
        f, nilp_cocycle(), NILP, NADJ
    ),
    "derived_bracket_via_lifts_right": lambda f: derived_bracket_via_lifts(
        nilp_cocycle(), f, NILP, NADJ
    ),
    "derived_bracket": lambda f: derived_bracket(f, f, NILP, NADJ),
}


@pytest.mark.parametrize("entry", MODULE_COCHAIN_ENTRY_POINTS)
def test_a_misshapen_module_cochain_raises_one_error_at_every_entry_point(entry):
    helpers.assert_raises_exactly(
        ShapeMismatch,
        "the module cochain must map <a, b> × <a, b> into <a, b>, not <u, v> × <u, v> into <u, v>",
        MODULE_COCHAIN_ENTRY_POINTS[entry],
        Cochain.zero(2, AM, AM),
    )


# -- the complex attached to an operator ---------------------------------------------


def test_o_complex_differential_is_the_derived_bracket_up_to_sign():
    for T, alg, bim in ((SHIFT, DUAL, ADJ), (NILP_T2, NILP, NADJ)):
        tc = Cochain.from_module_map(T)
        for arity in (1, 2):
            f = random_cochain(17 + arity, arity, bim.module, alg.module, max_degree=1)
            lhs = o_complex_d(f, T, alg, bim).scale((-1) ** arity)
            assert lhs == derived_bracket(tc, f, alg, bim)


def test_o_complex_differential_squares_to_zero_for_o_operators():
    for seed in (0, 1, 2):
        f = random_cochain(seed, 1, AM, AM, max_degree=1)
        once = o_complex_d(f, SHIFT, DUAL, ADJ)
        assert o_complex_d(once, SHIFT, DUAL, ADJ).is_zero()


def test_o_complex_differential_accepts_a_twist():
    f = random_cochain(9, 1, AM, AM, max_degree=1)
    plain = o_complex_d(f, IDENT, DUAL, ADJ)
    assert plain == o_complex_d(f, IDENT, DUAL, ADJ, twist=Cochain.zero(2, AM, AM))
    # the twisted product for the identity with minus-the-multiplication is
    # the original product, so the twisted complex is the original complex
    twisted = o_complex_d(f, IDENT, DUAL, ADJ, twist=neg_mult())
    assert twisted == hochschild_d(f, DUAL, ADJ)


# -- Maurer-Cartan characterizations ---------------------------------------------------


def test_maurer_cartan_flags_all_confirm_an_o_operator():
    mcv = maurer_cartan_check(SHIFT, DUAL, ADJ)
    assert mcv.is_O
    assert mcv.derived_bracket_zero and mcv.lifted_bracket_zero
    assert mcv.differential_zero
    assert mcv.hat_bracket_associative is True
    assert mcv.hat_components_match is True
    assert mcv.consistent and mcv.holds
    assert "consistent=True" in mcv.summary()


def test_maurer_cartan_flags_all_reject_a_non_operator():
    mcv = maurer_cartan_check(BAD_MAP, DUAL, ADJ)
    assert not mcv.is_O
    assert not mcv.derived_bracket_zero and not mcv.lifted_bracket_zero
    assert not mcv.differential_zero
    assert mcv.hat_bracket_associative is None
    assert mcv.hat_components_match is None
    assert mcv.consistent  # the characterizations agree on the failure


def test_maurer_cartan_on_more_operators():
    zero_verdict = maurer_cartan_check(ZERO_MAP, DUAL, ADJ)
    assert zero_verdict.is_O and zero_verdict.holds
    nilp_verdict = maurer_cartan_check(NILP_T2, NILP, NADJ)
    assert nilp_verdict.is_O and nilp_verdict.holds


MC_FLAGS = (
    "is_O",
    "derived_bracket_zero",
    "lifted_bracket_zero",
    "differential_zero",
    "hat_bracket_associative",
    "hat_components_match",
)


def forged_mc(*flags):
    return Composite("maurer-cartan", dict(zip(MC_FLAGS, flags)), agree=MC_FLAGS)


def test_maurer_cartan_verdict_flags_disagreement():
    forged = forged_mc(True, True, True, True, True, False)
    assert not forged.consistent and not forged.holds
    assert "consistent=False" in forged.summary()
    assert not forged_mc(False, True, False, False, None, None).consistent


def test_perturbation_by_a_compatible_operator():
    pv = mc_perturbation_check(SHIFT, SHIFT, DUAL, ADJ)
    assert pv.sum_is_O and pv.mc_zero and pv.differential_relation
    assert pv.consistent and pv.holds
    assert "consistent=True" in pv.summary()
    pair = mc_perturbation_check(NILP_T1, NILP_T2, NILP, NADJ)
    assert pair.sum_is_O and pair.mc_zero and pair.consistent


def test_perturbation_by_an_incompatible_map():
    pv = mc_perturbation_check(SHIFT, BAD_MAP, DUAL, ADJ)
    assert not pv.sum_is_O and not pv.mc_zero
    assert pv.differential_relation and pv.consistent
    trivial = mc_perturbation_check(SHIFT, ZERO_MAP, DUAL, ADJ)
    assert trivial.sum_is_O and trivial.mc_zero and trivial.consistent
    with pytest.raises(NotOOperator):
        mc_perturbation_check(BAD_MAP, SHIFT, DUAL, ADJ)


def test_perturbation_needs_the_differential_relation(monkeypatch):
    # forge a broken complex: the two equivalent flags still agree, the relation fails
    real = cohomology.o_complex_d
    monkeypatch.setattr(cohomology, "o_complex_d", lambda *a, **k: real(*a, **k).scale(2))
    pv = mc_perturbation_check(SHIFT, BAD_MAP, DUAL, ADJ)
    assert not pv.sum_is_O and not pv.mc_zero
    assert not pv.differential_relation
    assert not pv.consistent and not pv.holds
    assert pv.summary() == (
        "sum_is_O=False mc_zero=False differential_relation=False consistent=False"
    )


def test_modified_mc_for_a_twisted_rota_baxter_operator():
    mm = modified_mc_check(IDENT, neg_mult(), DUAL, ADJ)
    assert mm.is_twisted_rb and mm.bracket_identity
    assert mm.consistent and mm.holds
    assert "consistent=True" in mm.summary()


def test_modified_mc_with_zero_twist_reduces_to_the_plain_equation():
    zero_phi = Cochain.zero(2, AM, AM)
    mm = modified_mc_check(SHIFT, zero_phi, DUAL, ADJ)
    assert mm.is_twisted_rb and mm.bracket_identity and mm.consistent
    mm_bad = modified_mc_check(IDENT, zero_phi, DUAL, ADJ)
    assert not mm_bad.is_twisted_rb and not mm_bad.bracket_identity
    assert mm_bad.consistent


def test_modified_mc_requires_a_cocycle_twist():
    junk = Cochain.from_entries(2, NM, NM, {(0, 1): L1 * b})
    with pytest.raises(NotCocycle):
        modified_mc_check(NILP_T2, junk, NILP, NADJ)
    flags = ("is_twisted_rb", "bracket_identity")
    forged = Composite("modified-mc", dict(zip(flags, (True, False))), agree=flags)
    assert not forged.consistent
    assert "consistent=False" in forged.summary()


# -- random cochains ---------------------------------------------------------------


def test_random_cochain_is_reproducible_and_respects_shape():
    f1 = random_cochain(7, 2, AM, NM)
    assert f1 == random_cochain(7, 2, AM, NM)
    assert f1 == random_cochain(random.Random(7), 2, AM, NM)
    assert f1.arity == 2
    assert f1.input_module == AM and f1.value_module == NM
    assert any(random_cochain(s, 2, AM, NM) != f1 for s in range(1, 5))
    assert random_cochain(3, 1, AM, AM, density=0.0).is_zero()
