"""Tests for module maps and the operator-identity checkers.

Each identity kind gets at least one passing and one failing frozen example;
the equivalences between identities (graph closure, square-zero lifts,
idempotency classes, operator quotients) run over seeded random maps.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg.confcore import (
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    check_associative,
    check_lie,
    commutator_lie,
    cur,
    rep_from_bimodule,
    semidirect,
    twisted_extension,
)
from confalg.errors import (
    ModuleMismatch,
    NotCocycle,
    NotDerivation,
    NotInvertible,
    NotNijenhuis,
    NotNilpotentWithinBound,
    NotOOperator,
    PreconditionFailed,
    ShapeMismatch,
)
from confalg.operators import (
    KINDS,
    REGISTRY,
    ModuleMap,
    compatible_nijenhuis,
    compatible_O,
    derivation_composites,
    graph_check,
    lift,
    nijenhuis_from_O_pair,
    reynolds_from_derivation,
    verify_operator,
)
from confalg.polyring import Poly

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
    NILP_IDENT,
    NILP_T1,
    NILP_T1BAD,
    NILP_T2,
    NM,
    PROJ,
    REFLECT,
    SHIFT,
    SWAP,
    ZERO_MAP,
    a,
    b,
    sym,
    sym_map,
    sym_table,
    u,
    v,
)


# -- the map algebra -----------------------------------------------------------


def test_apply_frozen_examples() -> None:
    assert SHIFT.apply(u) == v
    assert SHIFT.apply(D * u) == D * v
    assert SHIFT.apply(L1 * u) == L1 * v


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_apply_commutes_with_module_structure(seed: int) -> None:
    rng = random.Random(seed)
    T = helpers.rand_map(rng, AM)
    x = helpers.rand_elem(rng, AM, names=("D", "L1"))
    y = helpers.rand_elem(rng, AM, names=("D", "L1"))
    p = helpers.rand_poly(rng, names=("D", "L1"))
    assert T.apply(x + y) == T.apply(x) + T.apply(y)
    assert T.apply(x * p) == T.apply(x) * p


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_apply_on_basis_elements_gives_the_columns(seed: int) -> None:
    rng = random.Random(seed)
    T = helpers.rand_map(rng, AM)
    columns = [AM.elem(tuple(row[j] for row in T.matrix)) for j in range(AM.rank)]
    for j, e in enumerate(AM.basis_elems()):
        fresh_one = AM.elem(tuple(Poly({(): 1}) if i == j else 0 for i in range(AM.rank)))
        assert T.apply(e) == columns[j]
        assert T.apply(fresh_one) == columns[j]
        assert T.apply(2 * e) == 2 * columns[j]
        assert T.apply(D * e) == D * columns[j]
    x = helpers.rand_elem(rng, AM, names=("D", "L1"))
    assert T.apply(x) == sum((c * columns[j] for j, c in x.support()), AM.zero())
    with pytest.raises(ModuleMismatch):
        T.apply(a)
    with pytest.raises(ModuleMismatch):
        T.apply(NM.zero())


def test_map_composition_and_powers() -> None:
    assert SHIFT.compose(SHIFT).is_zero()
    assert SHIFT.power(0).matrix == IDENT.matrix
    assert SWAP.compose(SWAP).matrix == IDENT.matrix
    assert (SHIFT + ZERO_MAP).matrix == SHIFT.matrix
    assert (SWAP - SWAP).is_zero()
    assert SHIFT.scale(2).apply(u) == 2 * v


def test_inverse_and_determinant() -> None:
    inv = NILP_T2.inverse()
    assert inv.apply(a) == a * Fraction(1, 2)
    assert NILP_T2.compose(inv).matrix == NILP_IDENT.matrix
    assert NILP_T2.det() == Poly.const(2)
    helpers.assert_raises_exactly(
        NotInvertible, "determinant 0 is not a nonzero scalar", SHIFT.inverse
    )
    # determinants that are non-unit polynomials in D are rejected too
    dmap = ModuleMap.from_images(AM, AM, {"u": D * u, "v": v})
    helpers.assert_raises_exactly(
        NotInvertible, "determinant D is not a nonzero scalar", dmap.inverse
    )


def _module(rank: int) -> FreeModule:
    return FreeModule(tuple(f"e{i}" for i in range(rank)))


@pytest.mark.parametrize("rank", range(1, 7))
def test_det_matches_sympy_on_random_maps(rank: int) -> None:
    module, rng = _module(rank), random.Random(2100 + rank)
    for _ in range(3):
        T = helpers.rand_map(rng, module)
        expected = sp.Matrix(sym_map(T)).det()
        assert sp.expand(sym(T.det()) - expected) == 0


@pytest.mark.parametrize("rank", range(1, 9))
def test_inverse_round_trips_on_dense_unimodular_maps(rank: int) -> None:
    module = _module(rank)
    T = helpers.unimodular_map(random.Random(2200 + rank), module)
    inv, ident = T.inverse(), ModuleMap.identity(module)
    assert T.det() == Poly.one()
    assert T.compose(inv).matrix == ident.matrix
    assert inv.compose(T).matrix == ident.matrix


def test_a_rank_8_inverse_takes_at_most_2_r4_products(monkeypatch) -> None:
    T = helpers.unimodular_map(random.Random(2208), _module(8))
    products, mul = [], Poly.__mul__

    def counted(self, other):
        products.append(None)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    T.inverse()
    assert 0 < len(products) <= 2 * 8**4


def test_map_shape_errors() -> None:
    with pytest.raises(ModuleMismatch):
        SHIFT.apply(a)
    helpers.assert_raises_exactly(
        ShapeMismatch,
        "compose: the inner map must map <a, b> into <u, v>, not <a, b> into <a, b>",
        SHIFT.compose,
        ModuleMap.identity(NM),
    )
    to_nm = ModuleMap.zero(AM, NM)
    endo = "the map must map <u, v> into <u, v>, not <u, v> into <a, b>"
    helpers.assert_raises_exactly(ShapeMismatch, f"power: {endo}", to_nm.power, 2)
    helpers.assert_raises_exactly(ShapeMismatch, f"determinant: {endo}", to_nm.det)
    helpers.assert_raises_exactly(ShapeMismatch, f"determinant: {endo}", to_nm.inverse)


# -- single-operator identities ---------------------------------------------------


def test_o_operator_examples() -> None:
    assert verify_operator("O", SHIFT, DUAL, ADJ).holds
    mutated = ModuleMap.from_images(AM, AM, {"u": u, "v": AM.zero()})
    verdict = verify_operator("O", mutated, DUAL, ADJ)
    assert not verdict.holds
    assert verdict.identity == "O"
    for T in (NILP_T1, NILP_T2, NILP_T1BAD):
        assert verify_operator("O", T, NILP, NADJ).holds


def test_nijenhuis_examples() -> None:
    assert verify_operator("Nijenhuis", SHIFT, DUAL).holds
    assert verify_operator("Nijenhuis", IDENT, DUAL).holds
    assert verify_operator("Nijenhuis", PROJ, DUAL).holds
    assert verify_operator("Nijenhuis", REFLECT, DUAL).holds
    assert not verify_operator("Nijenhuis", SWAP, DUAL).holds


def test_rota_baxter_weights() -> None:
    assert verify_operator("RotaBaxter", SHIFT, DUAL, weight=0).holds
    assert verify_operator("RotaBaxter", PROJ, DUAL, weight=-1).holds
    assert verify_operator("RotaBaxter", REFLECT + IDENT, DUAL, weight=-2).holds
    assert verify_operator("RotaBaxter", REFLECT - IDENT, DUAL, weight=2).holds
    assert not verify_operator("RotaBaxter", SWAP + IDENT, DUAL, weight=-2).holds
    assert not verify_operator("RotaBaxter", SWAP - IDENT, DUAL, weight=2).holds


def test_rota_baxter_symbolic_weight() -> None:
    # a square-zero image inside the annihilator works for every weight at once
    q = Poly.var("q")
    assert verify_operator("RotaBaxter", NILP_DER, NILP, weight=q).holds
    assert not verify_operator("RotaBaxter", NILP_IDENT, NILP, weight=q).holds


def test_twisted_rota_baxter_examples() -> None:
    assert verify_operator(
        "TwistedRB", IDENT, DUAL, ADJ, twist=helpers.neg_mult()
    ).holds
    # an identity map is never an untwisted weight-0 operator on the dual numbers
    assert not verify_operator("RotaBaxter", IDENT, DUAL, weight=0).holds


def test_zero_twist_reduces_to_o_identity() -> None:
    from confalg.cohomology import Cochain

    zero_phi = Cochain.zero(2, AM, AM)
    for T in (SHIFT, SWAP, IDENT):
        twisted = verify_operator("TwistedRB", T, DUAL, ADJ, twist=zero_phi)
        plain = verify_operator("O", T, DUAL, ADJ)
        assert twisted.holds == plain.holds


def test_twisted_rota_baxter_requires_a_cocycle() -> None:
    from confalg.cohomology import Cochain

    junk = Cochain.from_entries(2, NM, NM, {(0, 1): L1 * b})
    with pytest.raises(NotCocycle):
        verify_operator("TwistedRB", NILP_IDENT, NILP, NADJ, twist=junk)


def test_reynolds_examples() -> None:
    R = NILP_IDENT - NILP_DER
    assert verify_operator("Reynolds", R, NILP).holds
    # the identity satisfies the Reynolds identity on every algebra
    assert verify_operator("Reynolds", NILP_IDENT, NILP).holds
    zero_alg = cur(("z",), {})
    assert verify_operator("Reynolds", ModuleMap.identity(zero_alg.module), zero_alg).holds
    assert not verify_operator("Reynolds", NILP_T2, NILP).holds


def test_derivation_examples() -> None:
    assert verify_operator("Derivation", NILP_DER, NILP).holds
    assert verify_operator("Derivation", DDER, DUAL).holds
    assert not verify_operator("Derivation", SHIFT, DUAL).holds


def test_olie_on_the_abelian_commutator() -> None:
    lie = commutator_lie(DUAL)
    rep = rep_from_bimodule(DUAL, ADJ)
    assert verify_operator("OLie", SHIFT, lie, rep=rep).holds


def test_operator_kind_validation() -> None:
    with pytest.raises(PreconditionFailed):
        verify_operator("Frobenius", SHIFT, DUAL)
    with pytest.raises(ShapeMismatch):
        verify_operator("Nijenhuis", ModuleMap.zero(AM, NM), DUAL)
    with pytest.raises(PreconditionFailed):
        verify_operator("TwistedRB", IDENT, DUAL, ADJ)  # no twist given
    with pytest.raises(PreconditionFailed):
        verify_operator("OLie", SHIFT, commutator_lie(DUAL))  # no rep given
    with pytest.raises(PreconditionFailed, match="^O needs a with input$"):
        verify_operator("O", IDENT, DUAL)  # no bimodule given


#: inputs that satisfy every kind's needs, and the algebra of each flavor
_GIVEN = {"bim": ADJ, "twist": helpers.neg_mult(), "rep": rep_from_bimodule(DUAL, ADJ)}
_PARAMETER = {"with": "bim", "twist": "twist", "rep": "rep"}


@pytest.mark.parametrize(
    "kind, missing",
    [(kind, name) for kind, spec in REGISTRY.items() for name in spec.needs],
    ids=str,
)
def test_each_input_a_kind_needs_is_refused_when_left_out(kind, missing) -> None:
    spec = REGISTRY[kind]
    inputs = {_PARAMETER[name]: _GIVEN[_PARAMETER[name]] for name in spec.needs if name != missing}
    alg = commutator_lie(DUAL) if spec.flavor == "lie" else DUAL
    helpers.assert_raises_exactly(
        PreconditionFailed,
        f"{kind} needs a {missing} input",
        lambda: verify_operator(kind, IDENT, alg, **inputs),
    )


def test_the_registry_declares_what_each_kind_needs() -> None:
    needs = {kind: spec.needs for kind, spec in REGISTRY.items() if spec.needs}
    assert needs == {"O": ("with",), "TwistedRB": ("with", "twist"), "OLie": ("rep",)}
    # every input a kind needs is one it reads; the rest default: weight to 0, with to the adjoint
    assert all(set(spec.needs) <= set(spec.reads) for spec in REGISTRY.values())
    assert REGISTRY["Derivation"].maps == ("algebra", "with")


@pytest.mark.parametrize("weight", [Poly.var("L2"), Poly.var("L1") + 1, Poly.var("D")], ids=str)
def test_a_rota_baxter_weight_in_d_or_a_lambda_variable_is_refused(weight) -> None:
    helpers.assert_raises_exactly(
        PreconditionFailed,
        f"RotaBaxter: the weight {weight} is not a scalar or a parameter",
        lambda: verify_operator("RotaBaxter", IDENT, DUAL, weight=weight),
    )
    # an auxiliary parameter is a weight: T(u)T(u) = 0 but T(q·u·u) = q·v
    assert not verify_operator("RotaBaxter", SHIFT, DUAL, weight=Poly.var("q")).holds


@pytest.mark.parametrize("kind", KINDS)
def test_a_misshapen_map_raises_one_error_for_every_operator_kind(kind) -> None:
    inputs = {
        "O": {"bim": ADJ},
        "TwistedRB": {"bim": ADJ, "twist": helpers.neg_mult()},
        "Derivation": {"bim": ADJ},
        "OLie": {"rep": rep_from_bimodule(DUAL, ADJ)},
    }.get(kind, {})
    alg = commutator_lie(DUAL) if REGISTRY[kind].flavor == "lie" else DUAL
    helpers.assert_raises_exactly(
        ShapeMismatch,
        f"{kind}: the map must map <u, v> into <u, v>, not <a, b> into <a, b>",
        lambda: verify_operator(kind, ModuleMap.zero(NM, NM), alg, **inputs),
    )


def test_operators_refuse_a_bimodule_over_a_twin_algebra() -> None:
    # Z has DUAL's module and the zero product: its adjoint has the right shape
    foreign = ConfBimodule.adjoint(ConfAlgebra.associative(AM, {}))
    for kind in ("O", "Derivation"):
        with pytest.raises(ModuleMismatch, match="bimodule was built over a different algebra"):
            verify_operator(kind, IDENT, DUAL, bim=foreign)
    # and an OLie representation over another Lie algebra on the same module
    other = ConfAlgebra.lie(AM, {(0, 1): u, (1, 0): -u})
    helpers.assert_raises_exactly(
        ModuleMismatch,
        "representation was built over a different algebra",
        lambda: verify_operator("OLie", IDENT, other, rep=rep_from_bimodule(DUAL, ADJ)),
    )


def test_inputs_a_kind_does_not_read_are_rejected() -> None:
    with pytest.raises(PreconditionFailed, match="Nijenhuis reads no with or weight input"):
        verify_operator("Nijenhuis", IDENT, DUAL, ADJ, weight=7)
    with pytest.raises(PreconditionFailed, match="O reads no twist input"):
        verify_operator("O", SHIFT, DUAL, ADJ, twist=helpers.neg_mult())
    lie = commutator_lie(DUAL)
    rep = rep_from_bimodule(DUAL, ADJ)
    with pytest.raises(PreconditionFailed, match="OLie reads no with input"):
        verify_operator("OLie", SHIFT, lie, ADJ, rep=rep)
    # inputs left at None are not given; a Rota-Baxter weight defaults to 0
    assert verify_operator("Nijenhuis", IDENT, DUAL, None, weight=None, twist=None).holds
    assert verify_operator("RotaBaxter", SHIFT, DUAL).holds


# -- the twisted-extension operator family ------------------------------------------


def te_and_shift():
    ext = twisted_extension(NILP, NADJ, helpers.nilp_cocycle())
    big = ext.module
    S = ModuleMap.from_images(
        big,
        big,
        {
            "a_a": big.basis_elem(2),
            "a_b": big.basis_elem(3),
            "m_a": big.zero(),
            "m_b": big.zero(),
        },
    )
    return ext, S


def test_pair_shift_is_weight_zero_on_the_twisted_extension() -> None:
    ext, S = te_and_shift()
    assert verify_operator("RotaBaxter", S, ext, weight=0).holds


def test_pair_shift_descends_to_the_noncommutative_commutator() -> None:
    ext, S = te_and_shift()
    lie = commutator_lie(ext)
    assert lie.table.entries  # genuinely noncommutative
    rep = rep_from_bimodule(ext, ConfBimodule.adjoint(ext))
    assert verify_operator("OLie", S, lie, rep=rep).holds
    assert verify_operator("NijenhuisLie", S, lie).holds


def test_olie_holds_for_every_weight_zero_operator() -> None:
    # weight-0 operators on the associative structure satisfy the Lie-side
    # identity over the commutator bracket and its standard representation
    for T, alg, bim in ((SHIFT, DUAL, ADJ), (NILP_T1, NILP, NADJ), (NILP_T2, NILP, NADJ)):
        assert verify_operator("O", T, alg, bim).holds
        lie = commutator_lie(alg)
        rep = rep_from_bimodule(alg, bim)
        assert verify_operator("OLie", T, lie, rep=rep).holds


def test_commutative_twist_descends_to_the_lie_side() -> None:
    # the twist -(product) on the dual numbers is commutative (invariant
    # under swapping arguments at the opposite weight), so the twisted
    # operator identity survives skew-symmetrisation: the graph of the
    # identity map stays closed under the commutator of the twisted extension.
    from confalg.cohomology import is_commutative_cocycle

    phi = helpers.neg_mult()
    assert is_commutative_cocycle(phi, DUAL, ADJ).holds
    ext = twisted_extension(DUAL, ADJ, phi)
    lie = commutator_lie(ext)
    assert check_lie(lie).holds
    ra = DUAL.rank

    # graph closure in the Lie extension: [ (T(m),m), (T(n),n) ] stays on the graph
    def point(x):
        tx = IDENT.apply(x)
        return ext.module.elem(tuple(tx.coeffs) + tuple(x.coeffs))

    for i in range(ra):
        for j in range(ra):
            x, y = AM.basis_elem(i), AM.basis_elem(j)
            z = lie.mul(point(x), point(y), L1)
            a_part = AM.elem(z.coeffs[:ra])
            m_part = AM.elem(z.coeffs[ra:])
            assert a_part == IDENT.apply(m_part)


# -- compatibility ------------------------------------------------------------------


def test_compatible_o_examples() -> None:
    assert compatible_O(SHIFT, ZERO_MAP, DUAL, ADJ).holds
    assert compatible_O(SHIFT, SHIFT, DUAL, ADJ).holds
    assert compatible_O(NILP_T1, NILP_T2, NILP, NADJ).holds
    assert not compatible_O(NILP_T1BAD, NILP_T2, NILP, NADJ).holds
    with pytest.raises(NotOOperator):
        compatible_O(SWAP, SHIFT, DUAL, ADJ)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_compatibility_is_the_cross_term_of_the_sum(seed: int) -> None:
    rng = random.Random(seed)
    scale1, scale2 = rng.randint(-3, 3), rng.randint(-3, 3)
    T1 = NILP_T1.scale(scale1) if rng.random() < 0.5 else NILP_T2.scale(scale1)
    T2 = rng.choice((NILP_T2, NILP_T1BAD)).scale(scale2)
    if not (
        verify_operator("O", T1, NILP, NADJ).holds
        and verify_operator("O", T2, NILP, NADJ).holds
    ):
        return
    assert (
        compatible_O(T1, T2, NILP, NADJ).holds
        == verify_operator("O", T1 + T2, NILP, NADJ).holds
    )


def test_compatible_nijenhuis_examples() -> None:
    for N in (SHIFT, PROJ, REFLECT):
        assert compatible_nijenhuis(N, IDENT, DUAL).holds
    assert compatible_nijenhuis(SHIFT, SHIFT, DUAL).holds
    assert compatible_nijenhuis(SHIFT, ZERO_MAP, DUAL).holds
    with pytest.raises(NotNijenhuis):
        compatible_nijenhuis(SWAP, IDENT, DUAL)


def test_compatible_nijenhuis_matches_the_sum() -> None:
    pairs = ((SHIFT, IDENT), (PROJ, IDENT), (SHIFT, PROJ), (PROJ, REFLECT))
    for N1, N2 in pairs:
        assert (
            compatible_nijenhuis(N1, N2, DUAL).holds
            == verify_operator("Nijenhuis", N1 + N2, DUAL).holds
        )


def _assert_witnesses_match(verdict, module, expected) -> None:
    got = [(tuple(map(module.basis.index, names)), res) for names, res in verdict.witnesses]
    assert [idx for idx, _ in got] == [idx for idx, _ in expected]
    for (_, res), (_, vec) in zip(got, expected):
        assert all(sp.expand(sym(c) - e) == 0 for c, e in zip(res.coeffs, vec))


@pytest.mark.parametrize(
    "T1, T2, alg, bim, holds",
    [
        (NILP_T1, NILP_T2, NILP, NADJ, True),
        (SHIFT, SHIFT, DUAL, ADJ, True),
        (NILP_T1BAD, NILP_T2, NILP, NADJ, False),
    ],
)
def test_compatible_o_matches_the_oracle(T1, T2, alg, bim, holds) -> None:
    verdict = compatible_O(T1, T2, alg, bim)
    expected = _oracle.res_compat_o(
        sym_table(alg.table),
        sym_table(bim.left),
        sym_table(bim.right),
        alg.rank,
        bim.module.rank,
        sym_map(T1),
        sym_map(T2),
    )
    assert verdict.identity == "compatible-O"
    assert verdict.holds is holds
    _assert_witnesses_match(verdict, bim.module, expected)


@pytest.mark.parametrize(
    "N1, N2, holds",
    [(SHIFT, IDENT, True), (PROJ, REFLECT, True), (SHIFT, PROJ, False), (REFLECT, SHIFT, False)],
)
def test_compatible_nijenhuis_matches_the_oracle(N1, N2, holds) -> None:
    verdict = compatible_nijenhuis(N1, N2, DUAL)
    expected = _oracle.res_compat_nijenhuis(
        sym_table(DUAL.table), DUAL.rank, sym_map(N1), sym_map(N2)
    )
    assert verdict.identity == "compatible-Nijenhuis"
    assert verdict.holds is holds
    _assert_witnesses_match(verdict, DUAL.module, expected)


# -- lifts and graphs ------------------------------------------------------------------


def test_lift_is_square_zero_weight_zero() -> None:
    hat = lift(SHIFT, DUAL, ADJ)
    assert hat.compose(hat).is_zero()
    ext = semidirect(DUAL, ADJ)
    assert verify_operator("RotaBaxter", hat, ext, weight=0).holds


def test_lift_of_a_non_operator_fails_weight_zero() -> None:
    mutated = ModuleMap.from_images(AM, AM, {"u": u, "v": v + D * u})
    assert not verify_operator("O", mutated, DUAL, ADJ).holds
    ext = semidirect(DUAL, ADJ)
    verdict = verify_operator("RotaBaxter", lift(mutated, DUAL, ADJ), ext, weight=0)
    assert not verdict.holds


def test_graph_closure_examples() -> None:
    assert graph_check(SHIFT, DUAL, ADJ).holds
    assert graph_check(IDENT, DUAL, ADJ, helpers.neg_mult()).holds
    mutated = ModuleMap.from_images(AM, AM, {"u": u, "v": AM.zero()})
    graph = graph_check(mutated, DUAL, ADJ)
    direct = verify_operator("O", mutated, DUAL, ADJ)
    assert not graph.holds
    assert graph.witnesses[0][0] == direct.witnesses[0][0]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_operator_graph_and_lift_equivalences(seed: int) -> None:
    rng = random.Random(seed)
    T = rng.choice((SHIFT, helpers.rand_map(rng, AM)))
    direct = verify_operator("O", T, DUAL, ADJ).holds
    assert graph_check(T, DUAL, ADJ).holds == direct
    ext = semidirect(DUAL, ADJ)
    lifted = verify_operator("RotaBaxter", lift(T, DUAL, ADJ), ext, weight=0)
    assert lifted.holds == direct


# -- operator constructions ----------------------------------------------------------------


def test_reynolds_series_of_a_nilpotent_derivation() -> None:
    R = reynolds_from_derivation(NILP_DER, NILP, bound=4)
    assert R.matrix == (NILP_IDENT - NILP_DER).matrix
    assert verify_operator("Reynolds", R, NILP).holds
    # the series inverts id + d
    assert R.compose(NILP_IDENT + NILP_DER).matrix == NILP_IDENT.matrix


def test_reynolds_series_of_the_zero_derivation() -> None:
    zero_alg = cur(("z", "w"), {})
    R = reynolds_from_derivation(ModuleMap.zero(zero_alg.module, zero_alg.module), zero_alg, bound=1)
    assert R.matrix == ModuleMap.identity(zero_alg.module).matrix
    assert verify_operator("Reynolds", R, zero_alg).holds


def test_reynolds_series_needs_nilpotency() -> None:
    grading = ModuleMap.from_images(NM, NM, {"a": a * Fraction(1, 2), "b": b})
    assert verify_operator("Derivation", grading, NILP).holds
    with pytest.raises(NotNilpotentWithinBound):
        reynolds_from_derivation(grading, NILP, bound=8)
    with pytest.raises(NotDerivation):
        reynolds_from_derivation(SHIFT, DUAL, bound=4)


def test_quotient_of_compatible_operators_is_nijenhuis() -> None:
    N = nijenhuis_from_O_pair(NILP_T1, NILP_T2, NILP, NADJ)
    assert N.apply(a) == a + b * Fraction(1, 2)
    assert N.apply(b) == b
    # the quotient satisfies N(T2(x)) = T1(x)
    assert N.compose(NILP_T2).matrix == NILP_T1.matrix
    assert verify_operator("Nijenhuis", N, NILP).holds


def test_quotient_of_incompatible_operators_is_not_nijenhuis() -> None:
    N = nijenhuis_from_O_pair(NILP_T1BAD, NILP_T2, NILP, NADJ)
    assert not verify_operator("Nijenhuis", N, NILP).holds


def test_quotient_matches_compatibility_both_ways() -> None:
    for T1 in (NILP_T1, NILP_T1BAD, NILP_T2, NILP_T2.scale(3)):
        N = nijenhuis_from_O_pair(T1, NILP_T2, NILP, NADJ)
        assert (
            verify_operator("Nijenhuis", N, NILP).holds
            == compatible_O(T1, NILP_T2, NILP, NADJ).holds
        )


def test_quotient_degenerate_cases() -> None:
    N = nijenhuis_from_O_pair(NILP_T2, NILP_T2, NILP, NADJ)
    assert N.matrix == NILP_IDENT.matrix
    N2 = nijenhuis_from_O_pair(NILP_T2.scale(2), NILP_T2, NILP, NADJ)
    assert N2.matrix == NILP_IDENT.scale(2).matrix
    with pytest.raises(NotInvertible):
        nijenhuis_from_O_pair(SHIFT, SHIFT, DUAL, ADJ)
    with pytest.raises(NotOOperator):
        nijenhuis_from_O_pair(SWAP, NILP_IDENT, DUAL, ADJ)


def test_derivation_composites_zero_case() -> None:
    nij, second = derivation_composites(SHIFT, ModuleMap.zero(AM, AM), DUAL, ADJ)
    assert nij.holds and second.holds


def test_derivation_composites_on_the_dual_numbers() -> None:
    nij, second = derivation_composites(SHIFT, DDER, DUAL, ADJ)
    assert nij.holds and second.holds


def test_derivation_composites_on_the_nilpotent_algebra() -> None:
    nij, second = derivation_composites(NILP_T2, NILP_DER, NILP, NADJ)
    assert nij.holds and second.holds


def test_derivation_composites_preconditions() -> None:
    with pytest.raises(PreconditionFailed):
        derivation_composites(SWAP, DDER, DUAL, ADJ)  # not an operator
    with pytest.raises(PreconditionFailed):
        derivation_composites(SHIFT, SWAP, DUAL, ADJ)  # not a derivation
    # a derivation that breaks the star-compatibility clause is rejected too
    euler = ModuleMap.from_images(NM, NM, {"a": D * a, "b": D * b})
    assert verify_operator("Derivation", euler, NILP).holds
    with pytest.raises(PreconditionFailed):
        derivation_composites(NILP_T2, euler, NILP, NADJ)


# -- idempotency classes --------------------------------------------------------------------


def test_square_zero_maps_nijenhuis_iff_weight_zero() -> None:
    ext = semidirect(DUAL, ADJ)
    big = ext.module
    rng = random.Random(7)
    for _ in range(12):
        block = [[Poly.zero()] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2, 4):
                if rng.random() < 0.75:
                    block[i][j] = helpers.rand_poly(rng)
        N = ModuleMap.from_images(
            big, big, {j: big.elem(tuple(row[j] for row in block)) for j in range(4)}
        )
        assert N.compose(N).is_zero()
        assert (
            verify_operator("Nijenhuis", N, ext).holds
            == verify_operator("RotaBaxter", N, ext, weight=0).holds
        )


def test_idempotent_maps_nijenhuis_iff_weight_minus_one() -> None:
    for P in (PROJ, IDENT - PROJ, IDENT, ZERO_MAP):
        assert P.compose(P).matrix == P.matrix
        assert (
            verify_operator("Nijenhuis", P, DUAL).holds
            == verify_operator("RotaBaxter", P, DUAL, weight=-1).holds
        )


def test_involutions_nijenhuis_iff_shifts_have_weight_two() -> None:
    for N in (SWAP, REFLECT, IDENT):
        assert N.compose(N).matrix == IDENT.matrix
        nij = verify_operator("Nijenhuis", N, DUAL).holds
        plus = verify_operator("RotaBaxter", N + IDENT, DUAL, weight=-2).holds
        minus = verify_operator("RotaBaxter", N - IDENT, DUAL, weight=2).holds
        assert nij == plus == minus
