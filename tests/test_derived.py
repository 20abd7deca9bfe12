"""Tests for the structures an operator induces on its source.

Frozen tables come from an independent brute-force expansion; the splitting,
deformation, and hierarchy laws additionally run on seeded random maps, and
every construction's tables are compared with the sympy oracle's builders.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg import derived
from confalg.cohomology import Cochain
from confalg.confcore import (
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    MultiTable,
    check_associative,
    check_bimodule,
    check_lie,
    commutator_lie,
    cur,
    eval_multilinear,
    semidirect,
    twisted_extension,
)
from confalg.errors import (
    ConfalgError,
    NotDendriform,
    NotNijenhuis,
    NotOOperator,
    NotTwistedRB,
    PreconditionFailed,
    ShapeMismatch,
)
from confalg.derived import (
    BinaryOpTable,
    StructureBundle,
    check_structure,
    deformation_check,
    deformed_bracket,
    deformed_product,
    dendriform_from_O,
    induced_bimodule_on_A,
    leftsym_from_dendriform,
    m_ass,
    matching_pair_from_O,
    nijenhuis_hierarchy,
    ns_from_nijenhuis,
    ns_from_twisted,
)
from confalg.operators import ModuleMap, verify_operator

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
    NILP_T1,
    NILP_T1BAD,
    NILP_T2,
    NM,
    PROJ,
    SHIFT,
    SWAP,
    a,
    assert_oracle_table,
    b,
    sym_map,
    sym_table,
    u,
    v,
)


# -- dendriform splitting -------------------------------------------------------


def test_dendriform_frozen_tables() -> None:
    bundle = dendriform_from_O(SHIFT, DUAL, ADJ)
    assert bundle.kind == "dendriform"
    assert isinstance(bundle.table("succ"), MultiTable)
    assert bundle.table("succ").entries == {(0, 0): v}
    assert bundle.table("prec").entries == {(0, 0): v}
    assert check_structure(bundle).holds


def test_dendriform_requires_an_operator() -> None:
    with pytest.raises(NotOOperator):
        dendriform_from_O(SWAP, DUAL, ADJ)


def test_double_counting_breaks_the_axioms() -> None:
    broken = StructureBundle(
        "dendriform",
        {"succ": DUAL.table, "prec": DUAL.table},
    )
    verdict = check_structure(broken)
    assert not verdict.holds
    assert verdict.witnesses[0][0][0] == "cd1"


def test_adding_products_on_different_modules_is_a_shape_error() -> None:
    with pytest.raises(ShapeMismatch):
        DUAL.table + NILP.table


def test_sum_of_halves_is_the_star_product() -> None:
    bundle = dendriform_from_O(SHIFT, DUAL, ADJ)
    star = bundle.sum_table()
    assert star.table.entries == {(0, 0): 2 * v}
    assert check_associative(star).holds
    assert m_ass(SHIFT, DUAL, ADJ) == star


def test_dendriform_sums_of_compatible_operators() -> None:
    merged = dendriform_from_O(NILP_T1 + NILP_T2, NILP, NADJ)
    one = dendriform_from_O(NILP_T1, NILP, NADJ)
    two = dendriform_from_O(NILP_T2, NILP, NADJ)
    for tag in ("succ", "prec"):
        assert merged.table(tag) == one.table(tag) + two.table(tag)
    assert check_structure(merged).holds


def test_dendriform_sums_of_incompatible_operators_fail() -> None:
    # the halves are bilinear in the map, so the summed tables coincide with
    # the tables of the summed map; for an incompatible pair that map fails
    # the operator identity and the constructor refuses it.  (The axiom check
    # itself cannot see this on the nilpotent algebra: every dendriform
    # residual is a triple product and those all vanish there.)
    assert not verify_operator("O", NILP_T1BAD + NILP_T2, NILP, NADJ).holds
    with pytest.raises(NotOOperator):
        dendriform_from_O(NILP_T1BAD + NILP_T2, NILP, NADJ)


# -- induced bimodule on the algebra ----------------------------------------------


def test_induced_actions_vanish_for_the_shift_map() -> None:
    ind = induced_bimodule_on_A(SHIFT, DUAL, ADJ)
    assert not ind.left.entries and not ind.right.entries
    assert check_bimodule(m_ass(SHIFT, DUAL, ADJ), ind).holds


def test_induced_actions_of_the_invertible_operator() -> None:
    ind = induced_bimodule_on_A(NILP_T2, NILP, NADJ)
    assert ind.left.entries == {(0, 0): b}
    assert ind.right.entries == {(0, 0): b}
    star = m_ass(NILP_T2, NILP, NADJ)
    assert star.table.entries == {(0, 0): 4 * b}
    assert check_bimodule(star, ind).holds


def test_induced_bimodule_requires_an_operator() -> None:
    with pytest.raises(NotOOperator):
        induced_bimodule_on_A(SWAP, DUAL, ADJ)


# -- matching pairs from operators --------------------------------------------------


def frozen_table(module, raw):
    return {key: module.elem(vec) for key, vec in raw.items()}


def test_matching_pair_of_the_shift_map() -> None:
    glued = matching_pair_from_O(SHIFT, DUAL, ADJ)
    big = glued.module
    expected = {
        (0, 0): (1, 0, 0, 0),
        (0, 1): (0, 1, 0, 0),
        (0, 2): (0, 0, 1, 0),
        (0, 3): (0, 0, 0, 1),
        (1, 0): (0, 1, 0, 0),
        (1, 2): (0, 0, 0, 1),
        (2, 0): (0, 0, 1, 0),
        (2, 1): (0, 0, 0, 1),
        (2, 2): (0, 0, 0, 2),
        (3, 0): (0, 0, 0, 1),
    }
    assert glued.table.entries == frozen_table(big, expected)
    assert check_associative(glued).holds


def test_matching_pair_of_the_invertible_operator() -> None:
    glued = matching_pair_from_O(NILP_T2, NILP, NADJ)
    big = glued.module
    expected = {
        (0, 0): (0, 1, 0, 0),
        (0, 2): (0, 1, 0, 1),
        (2, 0): (0, 1, 0, 1),
        (2, 2): (0, 0, 0, 4),
    }
    assert glued.table.entries == frozen_table(big, expected)
    assert check_associative(glued).holds


def component_projections(big):
    half = big.rank // 2
    basis = list(big.basis_elems())
    p1 = ModuleMap.from_images(big, big, dict(enumerate(basis[:half])))
    p2 = ModuleMap.from_images(big, big, {j: basis[j] for j in range(half, big.rank)})
    return p1, p2


@pytest.mark.parametrize(
    "glued",
    [
        matching_pair_from_O(SHIFT, DUAL, ADJ),
        matching_pair_from_O(NILP_T2, NILP, NADJ),
        semidirect(DUAL, ADJ),
    ],
    ids=["pair-shift", "pair-invertible", "semidirect"],
)
def test_component_projections_are_nijenhuis(glued) -> None:
    p1, p2 = component_projections(glued.module)
    assert verify_operator("Nijenhuis", p1, glued).holds
    assert verify_operator("Nijenhuis", p2, glued).holds
    # rational samples stand in for arbitrary coefficients: the residual is
    # polynomial in (k1, k2), so enough sample points force it identically
    for k1, k2 in ((1, 1), (2, -3), (Fraction(1, 2), 5), (0, 7), (-1, Fraction(2, 3))):
        combo = p1.scale(k1) + p2.scale(k2)
        assert verify_operator("Nijenhuis", combo, glued).holds


# -- NS structures ---------------------------------------------------------------


def test_ns_from_twisted_identity_map() -> None:
    bundle = ns_from_twisted(IDENT, DUAL, ADJ, helpers.neg_mult())
    assert bundle.kind == "ns"
    assert check_structure(bundle).holds
    total = bundle.sum_table()
    assert total == DUAL  # recovers the original product
    star = m_ass(IDENT, DUAL, ADJ, phi=helpers.neg_mult())
    assert star == total


def test_twisted_induced_actions_recover_the_adjoint() -> None:
    ind = induced_bimodule_on_A(IDENT, DUAL, ADJ, phi=helpers.neg_mult())
    assert ind.left.entries == ADJ.left.entries
    assert ind.right.entries == ADJ.right.entries
    assert check_bimodule(m_ass(IDENT, DUAL, ADJ, phi=helpers.neg_mult()), ind).holds


def test_ns_from_twisted_requires_the_identity() -> None:
    with pytest.raises(NotTwistedRB):
        ns_from_twisted(SWAP, DUAL, ADJ, helpers.neg_mult())


def test_ns_from_nijenhuis_shift() -> None:
    bundle = ns_from_nijenhuis(SHIFT, DUAL)
    assert check_structure(bundle).holds
    circ, _ = deformed_product(SHIFT, DUAL)
    assert bundle.sum_table().table == circ.table


def test_ns_from_nijenhuis_rejects_swap() -> None:
    with pytest.raises(NotNijenhuis):
        ns_from_nijenhuis(SWAP, DUAL)


# -- left-symmetric structures ------------------------------------------------------


def test_leftsym_of_the_shift_bundle_is_zero() -> None:
    bundle = dendriform_from_O(SHIFT, DUAL, ADJ)
    ls = leftsym_from_dendriform(bundle)
    assert ls.kind == "leftsym"
    assert ls.table("leftsym").is_zero()
    assert check_structure(ls).holds


def test_leftsym_preconditions_raise_exactly() -> None:
    product = DUAL.table
    failing = StructureBundle("dendriform", {"succ": product, "prec": product})
    helpers.assert_raises_exactly(
        NotDendriform,
        "dendriform: fails at (cd1, u, u, u): residual -1*u",
        leftsym_from_dendriform,
        failing,
    )
    ns = StructureBundle("ns", {"succ": product, "prec": product, "vee": product})
    helpers.assert_raises_exactly(
        ShapeMismatch,
        "leftsym_from_dendriform needs a dendriform bundle",
        leftsym_from_dendriform,
        ns,
    )


def test_leftsym_commutator_matches_the_star_commutator() -> None:
    bundle = dendriform_from_O(NILP_T2, NILP, NADJ)
    ls = leftsym_from_dendriform(bundle).table("leftsym")
    star = bundle.sum_table()
    for x, y in itertools.product(NM.basis_elems(), repeat=2):
        lhs = eval_multilinear(ls, (x, y), (L1,)) - eval_multilinear(ls, (y, x), (-L1 - D,))
        rhs = star.mul(x, y, L1) - star.mul(y, x, -L1 - D)
        assert lhs == rhs


_SKEW = BinaryOpTable.from_function(AM, lambda x, y, w: DUAL.mul(x, y, w) * w).table
_PRODUCT = DUAL.table


def test_broken_leftsym_reports_its_residual() -> None:
    broken = StructureBundle("leftsym", {"leftsym": NILP.table})
    # the nilpotent product is already left-symmetric (all triples die)
    assert check_structure(broken).holds
    assert not check_structure(StructureBundle("leftsym", {"leftsym": _SKEW})).holds


@pytest.mark.parametrize("kind, tables, identity, residuals", [
    ("dendriform", {"succ": _PRODUCT, "prec": _SKEW}, "dendriform", [
        (("cd1",), "(-L1)"), (("cd2",), "(L1^2 - L1)"), (("cd3",), "(L1)"),
    ]),
    ("ns", {"succ": _PRODUCT, "prec": _SKEW, "vee": _PRODUCT}, "ns", [
        (("ns1",), "(-L1 - 1)"), (("ns2",), "(-L1^2 + 2*L1)"),
        (("ns3",), "(-L1)"), (("ns4",), "(-2*L1 + 1)"),
    ]),
    ("leftsym", {"leftsym": _SKEW}, "left-symmetric", [((), "(L1^2 - L2^2)")]),
])
def test_failing_bundles_report_every_witness(kind, tables, identity, residuals) -> None:
    # a kind's families are scanned together, triple by triple; only u·u·u lands in u
    verdict = check_structure(StructureBundle(kind, tables), cap=16)
    expected = [
        (tag + triple, "%s*%s" % (coefficient, "v" if "v" in triple else "u"))
        for triple in (("u", "u", "u"), ("u", "u", "v"), ("u", "v", "u"), ("v", "u", "u"))
        for tag, coefficient in residuals
    ]
    assert verdict.identity == identity
    assert [(names, str(r)) for names, r in verdict.witnesses] == expected


# -- deformed products -----------------------------------------------------------------


def test_deformed_product_of_the_shift_map() -> None:
    circ, defect = deformed_product(SHIFT, DUAL)
    assert circ.table.entries == {(0, 0): v}
    assert check_associative(circ).holds
    assert defect.is_zero()


def test_deformed_product_of_the_swap_map() -> None:
    circ, defect = deformed_product(SWAP, DUAL)
    assert circ.table.entries == {(0, 0): v, (1, 1): 2 * v}
    expected_defect = {(0, 0): -u, (0, 1): v, (1, 0): v, (1, 1): -u}
    assert defect.table.entries == expected_defect
    assert not check_associative(circ).holds


def test_swap_associativity_iff_defect_is_a_cocycle() -> None:
    from confalg.cohomology import is_cocycle

    circ, defect = deformed_product(SWAP, DUAL)
    assert not check_associative(circ).holds
    assert not is_cocycle(defect, DUAL, ADJ).holds


def test_nijenhuis_deformation_is_a_homomorphism() -> None:
    circ, _ = deformed_product(SHIFT, DUAL)
    for x, y in itertools.product(AM.basis_elems(), repeat=2):
        assert SHIFT.apply(circ.mul(x, y, L1)) == DUAL.mul(
            SHIFT.apply(x), SHIFT.apply(y), L1
        )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_mixed_associator_identity_for_any_map(seed: int) -> None:
    rng = random.Random(seed)
    N = helpers.rand_map(rng, AM)
    circ, _ = deformed_product(N, DUAL)
    for i, j, k in itertools.product(range(2), repeat=3):
        x, y, z = AM.basis_elem(i), AM.basis_elem(j), AM.basis_elem(k)
        lhs = DUAL.mul(circ.mul(x, y, L1), z, L1 + L2) + circ.mul(
            DUAL.mul(x, y, L1), z, L1 + L2
        )
        rhs = DUAL.mul(x, circ.mul(y, z, L2), L1) + circ.mul(
            x, DUAL.mul(y, z, L2), L1
        )
        assert lhs == rhs


# -- the power hierarchy -----------------------------------------------------------------


def test_hierarchy_of_the_shift_map() -> None:
    verdict = nijenhuis_hierarchy(SHIFT, DUAL, kmax=3)
    assert verdict.holds
    assert verdict.power_pair.holds
    assert verdict.intertwine.holds
    assert verdict.relative.holds
    assert verdict.powers_nijenhuis.holds
    assert verdict.pairwise_compatible.holds
    assert "holds" in verdict.summary()


@pytest.mark.parametrize("kmax", [0, -3])
def test_a_hierarchy_without_an_exponent_pair_is_refused(kmax) -> None:
    # below 1 no power of N but N⁰ = id is checked, so the verdict would certify nothing
    helpers.assert_raises_exactly(
        PreconditionFailed,
        f"the exponent bound kmax must be positive, not {kmax}",
        lambda: nijenhuis_hierarchy(SHIFT, DUAL, kmax=kmax),
    )


def test_hierarchy_summary_text() -> None:
    verdict = nijenhuis_hierarchy(SHIFT, DUAL, kmax=2)
    assert verdict.summary() == (
        "power-pair: hierarchy-power-pair: holds; "
        "intertwine: hierarchy-intertwine: holds; "
        "relative: hierarchy-relative: holds; "
        "powers-nijenhuis: hierarchy-powers-nijenhuis: holds; "
        "pairwise-compatible: hierarchy-pairwise-compatible: holds"
    )


def test_hierarchy_of_the_projection() -> None:
    assert nijenhuis_hierarchy(PROJ, DUAL, kmax=2).holds


def test_hierarchy_rejects_non_nijenhuis_maps() -> None:
    with pytest.raises(NotNijenhuis):
        nijenhuis_hierarchy(SWAP, DUAL, kmax=2)


def test_hierarchy_witnesses_of_a_non_nijenhuis_map(monkeypatch) -> None:
    # past its precondition the swap map's first power is not Nijenhuis for ∘^{N⁰} or ∘^{N¹}
    monkeypatch.setattr(derived, "require_operator", lambda *args, **kwargs: None)
    verdict = nijenhuis_hierarchy(SWAP, DUAL, kmax=1).powers_nijenhuis
    assert verdict.summary() == (
        "hierarchy-powers-nijenhuis: fails at (i=0,k=1, u, u): residual -1*u (+7 more)"
    )
    pairs = [("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")]
    expected = [-u, v, v, -u, 3 * v, -3 * u, -3 * u, 3 * v]
    slots = [(tag, *pair) for tag in ("i=0,k=1", "i=1,k=1") for pair in pairs]
    assert list(verdict.witnesses) == list(zip(slots, expected))


# -- deformed brackets ----------------------------------------------------------------------


def test_deformed_bracket_of_a_scalar_map() -> None:
    # for N = c·id the deformed bracket collapses to c·[a b]
    ext = twisted_extension(NILP, NADJ, helpers.nilp_cocycle())
    lie = commutator_lie(ext)
    half = ModuleMap.identity(lie.module).scale(Fraction(1, 2))
    assert verify_operator("NijenhuisLie", half, lie).holds
    bracket = deformed_bracket(half, lie)
    assert isinstance(bracket, ConfAlgebra) and bracket.flavor == "lie"
    for x, y in itertools.product(lie.module.basis_elems(), repeat=2):
        assert bracket.mul(x, y, L1) == lie.mul(x, y, L1) * Fraction(1, 2)


def test_deformed_bracket_needs_lie_flavor() -> None:
    with pytest.raises(PreconditionFailed, match="^deformed_bracket needs a lie-flavored algebra$"):
        deformed_bracket(IDENT, DUAL)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_deformed_bracket_is_the_commutator_of_the_deformed_product(seed: int) -> None:
    rng = random.Random(seed)
    N = helpers.rand_map(rng, AM)
    lie = commutator_lie(DUAL)
    bracket = deformed_bracket(N, lie, validate=False)
    circ, _ = deformed_product(N, DUAL)
    for x, y in itertools.product(AM.basis_elems(), repeat=2):
        lhs = bracket.mul(x, y, L1)
        rhs = circ.mul(x, y, L1) - circ.mul(y, x, -L1 - D)
        assert lhs == rhs


# -- trivial deformations ----------------------------------------------------------------------


def test_deformation_clauses_for_the_shift_map() -> None:
    verdict = deformation_check(SHIFT, DUAL)
    assert verdict.holds
    assert verdict.cocycle.holds
    assert verdict.generator_associative.holds
    assert verdict.homomorphism.holds
    assert verdict.obstruction.holds


def test_deformation_clauses_for_the_swap_map() -> None:
    verdict = deformation_check(SWAP, DUAL, validate=False)
    assert not verdict.obstruction.holds
    assert not verdict.homomorphism.holds
    assert "fails" in verdict.summary()


def test_deformation_summary_texts() -> None:
    assert deformation_check(SHIFT, DUAL).summary() == (
        "cocycle: deformation-cocycle: holds; "
        "generator-assoc: associative: holds; "
        "homomorphism: deformation-homomorphism: holds; "
        "obstruction: deformation-obstruction: holds"
    )
    failing = deformation_check(SWAP, DUAL, validate=False)
    assert not failing.holds
    assert failing.summary() == (
        "cocycle: deformation-cocycle: holds; "
        "generator-assoc: associative: fails at (u, u, v): residual 2*v (+1 more); "
        "homomorphism: deformation-homomorphism: fails at (u, u): residual (t^2)*u (+3 more); "
        "obstruction: deformation-obstruction: fails at (u, u): residual u (+3 more)"
    )


def test_deformation_check_validates_by_default() -> None:
    with pytest.raises(NotNijenhuis):
        deformation_check(SWAP, DUAL)


# -- construction tables against the oracle ---------------------------------------------


def _rand_binary(rng: random.Random, left, right, out) -> MultiTable:
    entries = {
        (i, j): helpers.rand_elem(rng, out, ("D", "L1"))
        for i in range(left.rank)
        for j in range(right.rank)
    }
    return MultiTable((left, right), out, entries)


def _twisted_induced_tables(a_tab, lact, ract, phi_fn, ra, rm, tmat):
    """``m·a = T(m)a − T(m·a + φ(T(m), a))`` and ``a·m = a T(m) − T(a·m + φ(a, T(m)))``."""
    o = _oracle

    def left(m, x, w):
        tm = o.apply_mat(tmat, ra, m)
        inner = o.vadd(o.ev2(ract, rm, m, x, w), phi_fn([tm, x], [w]))
        return o.vsub(o.ev2(a_tab, ra, tm, x, w), o.apply_mat(tmat, ra, inner))

    def right(x, m, w):
        tm = o.apply_mat(tmat, ra, m)
        inner = o.vadd(o.ev2(lact, rm, x, m, w), phi_fn([x, tm], [w]))
        return o.vsub(o.ev2(a_tab, ra, x, tm, w), o.apply_mat(tmat, ra, inner))

    def tabulate(fn, r1, r2):
        values = {
            (i, j): fn(o.basisv(r1, i), o.basisv(r2, j), o.L[1])
            for i in range(r1)
            for j in range(r2)
        }
        return {idx: vec for idx, vec in values.items() if not o.veq0(vec)}

    return tabulate(left, rm, ra), tabulate(right, ra, rm)


@pytest.mark.parametrize("seed", range(4))
def test_unvalidated_construction_tables_match_the_oracle(seed: int) -> None:
    # random structure tables (axioms not required) and maps through the validate=False paths
    rng = random.Random(seed)
    M = FreeModule(("p", "q", "r"))
    alg = ConfAlgebra(AM, _rand_binary(rng, AM, AM, AM), "associative")
    bim = ConfBimodule(alg, M, _rand_binary(rng, AM, M, M), _rand_binary(rng, M, AM, M))
    T = ModuleMap.from_images(M, AM, {name: helpers.rand_elem(rng, AM) for name in M.basis})
    phi = Cochain(_rand_binary(rng, AM, AM, M))
    a_tab, lact, ract = sym_table(alg.table), sym_table(bim.left), sym_table(bim.right)
    ra, rm, tmat = AM.rank, M.rank, sym_map(T)
    phi_fn = _oracle.cochain_fn(2, ra, rm, sym_table(phi.table))

    ambient = semidirect(alg, bim, validate=False)
    assert_oracle_table(ambient.table, _oracle.semidirect_table(a_tab, lact, ract, ra, rm))
    extension = twisted_extension(alg, bim, phi, validate=False)
    expected = _oracle.twisted_table(a_tab, lact, ract, sym_table(phi.table), ra, rm)
    assert_oracle_table(extension.table, expected)

    star = _oracle.star_table(a_tab, lact, ract, ra, rm, tmat)
    assert_oracle_table(m_ass(T, alg, bim, validate=False).table, star)
    star_phi = _oracle.star_phi_table(a_tab, lact, ract, ra, rm, tmat, phi_fn)
    assert_oracle_table(m_ass(T, alg, bim, phi, validate=False).table, star_phi)
    induced = induced_bimodule_on_A(T, alg, bim, validate=False)
    left, right = _oracle.induced_action_tables(a_tab, lact, ract, ra, rm, tmat)
    assert_oracle_table(induced.left, left)
    assert_oracle_table(induced.right, right)
    twisted = induced_bimodule_on_A(T, alg, bim, phi, validate=False)
    left, right = _twisted_induced_tables(a_tab, lact, ract, phi_fn, ra, rm, tmat)
    assert_oracle_table(twisted.left, left)
    assert_oracle_table(twisted.right, right)

    N = helpers.rand_map(rng, AM)
    nmat = sym_map(N)
    candidate, phi_n = deformed_product(N, alg)
    assert_oracle_table(candidate.table, _oracle.deformed_table(a_tab, ra, nmat))
    assert_oracle_table(phi_n.table, _oracle.phi_n_table(a_tab, ra, nmat))
    lie = ConfAlgebra(AM, _rand_binary(rng, AM, AM, AM), "lie")
    bracket = deformed_bracket(N, lie, validate=False)
    assert_oracle_table(bracket.table, _oracle.deformed_bracket_table(sym_table(lie.table), ra, nmat))


def _leftsym_table(succ: dict, prec: dict, rank: int) -> dict:
    """``a ∘ b = a ≻ b − b ≺_{−λ−∂} a``."""
    o = _oracle

    def fn(x, y, w):
        return o.vsub(o.ev2(succ, rank, x, y, w), o.ev2(prec, rank, y, x, -w - o.D))

    return o.table_of_fn2(fn, rank, rank)


# upper triangular 2×2 matrices; p ↦ q, r ↦ D·q is an O-operator whose ≺ is neither
# symmetric nor free of D, so its left-symmetric product depends on the swapped weight
UT = cur(("p", "q", "r"), {("p", "p"): (1, 0, 0), ("p", "q"): (0, 1, 0),
                           ("q", "r"): (0, 1, 0), ("r", "r"): (0, 0, 1)})
UT_Q = UT.module.basis_elem("q")
UT_T = ModuleMap.from_images(UT.module, UT.module, {"p": UT_Q, "r": D * UT_Q})
# the dual numbers acting on themselves from the left only; the identity is an O-operator
LEFT_ONLY = ConfBimodule(DUAL, AM, DUAL.table, MultiTable((AM, AM), AM, {}))


@pytest.mark.parametrize(
    "T, alg, bim",
    [(SHIFT, DUAL, ADJ), (NILP_T2, NILP, NADJ), (UT_T, UT, ConfBimodule.adjoint(UT)),
     (IDENT, DUAL, LEFT_ONLY)],
)
def test_o_operator_construction_tables_match_the_oracle(T, alg, bim) -> None:
    a_tab, lact, ract = sym_table(alg.table), sym_table(bim.left), sym_table(bim.right)
    ra, rm, tmat = alg.rank, bim.module.rank, sym_map(T)
    bundle = dendriform_from_O(T, alg, bim)
    succ, prec = _oracle.dendriform_tables(lact, ract, ra, rm, tmat)
    assert_oracle_table(bundle.table("succ"), succ)
    assert_oracle_table(bundle.table("prec"), prec)
    leftsym = leftsym_from_dendriform(bundle).table("leftsym")
    assert_oracle_table(leftsym, _leftsym_table(succ, prec, rm))
    star = _oracle.star_table(a_tab, lact, ract, ra, rm, tmat)
    assert_oracle_table(m_ass(T, alg, bim).table, star)
    induced = induced_bimodule_on_A(T, alg, bim)
    left, right = _oracle.induced_action_tables(a_tab, lact, ract, ra, rm, tmat)
    assert_oracle_table(induced.left, left)
    assert_oracle_table(induced.right, right)
    pair = _oracle.matching_pair_table(a_tab, lact, ract, ra, rm, tmat)
    assert_oracle_table(matching_pair_from_O(T, alg, bim).table, pair)


def test_twisted_construction_tables_match_the_oracle() -> None:
    phi = helpers.neg_mult()
    a_tab, ra, tmat = sym_table(DUAL.table), DUAL.rank, sym_map(IDENT)
    phi_fn = _oracle.cochain_fn(2, ra, ra, sym_table(phi.table))
    star_phi = _oracle.star_phi_table(a_tab, a_tab, a_tab, ra, ra, tmat, phi_fn)
    assert_oracle_table(m_ass(IDENT, DUAL, ADJ, phi).table, star_phi)
    bundle = ns_from_twisted(IDENT, DUAL, ADJ, phi)
    succ, prec = _oracle.dendriform_tables(a_tab, a_tab, ra, ra, tmat)
    assert_oracle_table(bundle.table("succ"), succ)
    assert_oracle_table(bundle.table("prec"), prec)
    assert_oracle_table(bundle.sum_table().table, star_phi)


@pytest.mark.parametrize("N", [SHIFT, IDENT])
def test_nijenhuis_construction_tables_match_the_oracle(N) -> None:
    a_tab, ra, nmat = sym_table(DUAL.table), DUAL.rank, sym_map(N)
    bundle = ns_from_nijenhuis(N, DUAL)
    succ, prec = _oracle.dendriform_tables(a_tab, a_tab, ra, ra, nmat)
    assert_oracle_table(bundle.table("succ"), succ)
    assert_oracle_table(bundle.table("prec"), prec)
    deformed = _oracle.deformed_table(a_tab, ra, nmat)
    assert_oracle_table(bundle.sum_table().table, deformed)
    candidate, phi_n = deformed_product(N, DUAL)
    assert_oracle_table(candidate.table, deformed)
    assert_oracle_table(phi_n.table, _oracle.phi_n_table(a_tab, ra, nmat))


def test_deformed_bracket_table_matches_the_oracle() -> None:
    lie = commutator_lie(twisted_extension(NILP, NADJ, helpers.nilp_cocycle()))
    N = ModuleMap.identity(lie.module).scale(Fraction(1, 2))
    expected = _oracle.deformed_bracket_table(sym_table(lie.table), lie.rank, sym_map(N))
    assert_oracle_table(deformed_bracket(N, lie).table, expected)

