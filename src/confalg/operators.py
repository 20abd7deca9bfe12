"""Operator identities on C[∂]-module maps, and the constructions built on them.

A :class:`~confalg.confcore.ModuleMap` is a C[∂]-linear map between free
modules, a one-field view of an arity-1
:class:`~confalg.confcore.MultiTable` whose entry ``(j,)`` is the image of
the j-th source basis element, with coefficients in ``D`` only (∂ on the
output).  It is defined in :mod:`confalg.confcore`, beside the cochains, and
imported here, so ``confalg.operators.ModuleMap`` names the same class.

Every operator identity is one :class:`~confalg.confcore.Identity` of
:data:`REGISTRY`, keyed by its kind.  Its one residual family is a table sum
of compositions with the map's table (for example O is ``m∘(T⊗T) −
T∘(l∘₁T + r∘₂T)``); :func:`verify_operator` checks an entry's inputs and
scans it, and the definition language takes its clauses from the same
entries.

========================  ====================================================
kind                      identity (all products at weight L1)
========================  ====================================================
``O``                     T(m) T(n) = T( T(m)·n + m·T(n) )
``RotaBaxter`` (q)        T(a) T(b) = T( T(a)b + aT(b) + q·ab )
``TwistedRB`` (φ)         T(m) T(n) = T( T(m)·n + m·T(n) + φ(T(m), T(n)) )
``Nijenhuis``             N(a) N(b) = N( N(a)b + aN(b) − N(ab) )
``NijenhuisLie``          the same identity over a Lie λ-bracket
``Reynolds``              R(a) R(b) = R( R(a)b + aR(b) − R(a)R(b) )
``Derivation``            d(ab) = d(a)·b + a·d(b)
``OLie`` (ρ)              [T(u) T(v)] = T( ρ(T(u))v − ρ(T(v))_{−L1−D} u )
========================  ====================================================

The ⋆-product ``m ⋆ n = T(m)·n + m·T(n)`` carried by the module and the
induced actions of the module on the algebra are defined once, as table sums
(:func:`star_terms`, :func:`induced_actions`); the operator residuals, the
constructions of :mod:`confalg.derived` and the closed form of the derived
bracket in :mod:`confalg.cohomology` all read them from there.

The O and Nijenhuis residuals are quadratic in the map, so the
compatibility of two verified operators is the identity of their sum: its
residual is exactly the cross term.  The remaining operations package the
standard constructions: the square-zero lift of an O-operator to the
semidirect algebra, the graph-closure criterion, the geometric series
inverting ``id + d`` for a nilpotent derivation, the quotient of two
O-operators, and the Nijenhuis/O composites of an O-operator with a
derivation.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from .confcore import (
    AXIOMS,
    WITNESS_CAP,
    ConfAlgebra,
    ConfBimodule,
    LieRep,
    Circ,
    Identity,
    ModuleMap,
    MultiTable,
    Swap,
    Verdict,
    block,
    circ,
    direct_sum,
    is_cocycle,
    require,
    require_flavor,
    require_over,
    require_shape,
    scan,
    semidirect,
    table_sum,
    twisted_extension,
)
from .errors import (
    NotDerivation,
    NotNijenhuis,
    NotNilpotentWithinBound,
    NotOOperator,
    NotTwistedRB,
    PreconditionFailed,
)
from .polyring import PolyLike, as_poly, var_sort_key


# -- operator identities -----------------------------------------------------


def require_module_map(
    what: str, T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, phi=None
) -> None:
    """Refuse a bimodule not over ``alg``, a map ``T`` not M → A, and a twist not A × A → M."""
    require_over(alg, bim)
    require_shape(T.table, (bim.module,), alg.module, f"{what}: the map")
    if phi is not None:
        require_shape(phi.table, (alg.module,) * 2, bim.module, "the twist")


def star_terms(t: MultiTable, left: MultiTable, right: MultiTable, phi=None) -> list:
    """The table-sum terms of ``m ⋆ n = T(m)·n + m·T(n) [+ φ(T(m), T(n))]``.

    They are ``l∘₁T``, ``r∘₂T`` [and ``(φ∘₁T)∘₂T``] for the map's table ``t``,
    the actions ``left``/``right`` and an optional twist table ``phi``; with the
    algebra's product for both actions they give ``T(a)b + aT(b)``.
    """
    terms = [(1, Circ(left, 1, t)), (1, Circ(right, 2, t))]
    if phi is not None:
        terms.append((1, Circ(circ(phi, 1, t), 2, t)))
    return terms


def star_product(T: ModuleMap, bim: ConfBimodule, phi=None) -> MultiTable:
    """The table of ``m ⋆ n`` on the module (:func:`star_terms`); ``phi`` is an
    optional twisting 2-cochain on the algebra valued in the module."""
    require_module_map("star_product", T, bim.algebra, bim, phi)
    twist = phi.table if phi is not None else None
    return table_sum(star_terms(T.table, bim.left, bim.right, twist))


def induced_actions(
    T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, phi=None
) -> Tuple[MultiTable, MultiTable]:
    """The actions of the module on the algebra, ``(m·a, a·m)``.

    ``m·a = T(m)a − T(m·a [+ φ(T(m), a)])`` is ``m∘₁T − T∘₁(r [+ φ∘₁T])`` and
    ``a·m = a T(m) − T(a·m [+ φ(a, T(m))])`` is ``m∘₂T − T∘₁(l [+ φ∘₂T])``.
    """
    require_module_map("induced_actions", T, alg, bim, phi)
    t, m = T.table, alg.table
    left = [(1, Circ(m, 1, t)), (-1, Circ(t, 1, bim.right))]
    right = [(1, Circ(m, 2, t)), (-1, Circ(t, 1, bim.left))]
    if phi is not None:
        left.append((-1, Circ(t, 1, circ(phi.table, 1, t))))
        right.append((-1, Circ(t, 1, circ(phi.table, 2, t))))
    return table_sum(left), table_sum(right)


def _quadratic(mul: MultiTable, t: MultiTable, *inner: tuple) -> list:
    """The one family ``mul∘(T⊗T) − T∘(Σ inner)`` of the map's table ``t``; ``inner`` is terms."""
    return [((), table_sum([(1, Circ(circ(mul, 1, t), 2, t)), (-1, Circ(t, 1, table_sum(inner)))]))]


def _o_residual(T, alg, bim, weight, twist, rep) -> list:
    # O and TwistedRB: m∘(T⊗T) − T∘⋆, the twist (None for O) inside ⋆
    t = T.table
    twist = twist.table if twist is not None else None
    return _quadratic(alg.table, t, *star_terms(t, bim.left, bim.right, twist))


def _rota_baxter_residual(T, alg, bim, weight, twist, rep) -> list:
    # at weight 0 the sum is the O residual's on the adjoint bimodule, which a run computes once
    m, t = alg.table, T.table
    weighted = [(weight, m)] if weight else []
    return _quadratic(m, t, *star_terms(t, m, m), *weighted)


def _nijenhuis_residual(T, alg, bim, weight, twist, rep) -> list:
    m, t = alg.table, T.table
    return _quadratic(m, t, *star_terms(t, m, m), (-1, Circ(t, 1, m)))


def _reynolds_residual(T, alg, bim, weight, twist, rep) -> list:
    m, t = alg.table, T.table
    cross = circ(circ(m, 1, t), 2, t)
    inner = table_sum([*star_terms(t, m, m), (-1, cross)])
    return [((), table_sum([(1, cross), (-1, Circ(t, 1, inner))]))]


def _derivation_residual(T, alg, bim, weight, twist, rep) -> list:
    t = T.table
    terms = (1, Circ(t, 1, alg.table)), (-1, Circ(bim.right, 1, t)), (-1, Circ(bim.left, 2, t))
    return [((), table_sum(terms))]


def _olie_residual(T, alg, bim, weight, twist, rep) -> list:
    # ρ(T(u))_L1 v − ρ(T(v))_{−L1−D} u is ρ∘₁T minus itself with its slots swapped
    acted = circ(rep.action, 1, T.table)
    return _quadratic(alg.table, T.table, (1, acted), (-1, Swap(acted, 1, 2)))


#: the ends of a map: the algebra into itself, the bimodule's module into it, and back
_ENDO, _M_TO_A, _A_TO_M = ("algebra", "algebra"), ("with", "algebra"), ("algebra", "with")

#: Every operator identity, keyed by its kind (its verdict's identity); its families
#: take the map and the inputs of verify_operator, checked and completed.
REGISTRY: Mapping[str, Identity] = {
    kind: Identity(kind, reads, needs, error, residual, flavor=flavor, maps=maps)
    for kind, maps, reads, needs, residual, error, flavor in (
        ("O", _M_TO_A, ("with",), ("with",), _o_residual, NotOOperator, None),
        ("RotaBaxter", _ENDO, ("weight",), (), _rota_baxter_residual, PreconditionFailed, None),
        ("TwistedRB", _M_TO_A, ("with", "twist"), ("with", "twist"), _o_residual, NotTwistedRB, None),
        ("Nijenhuis", _ENDO, (), (), _nijenhuis_residual, NotNijenhuis, "associative"),
        ("NijenhuisLie", _ENDO, (), (), _nijenhuis_residual, NotNijenhuis, "lie"),
        ("Reynolds", _ENDO, (), (), _reynolds_residual, PreconditionFailed, None),
        ("Derivation", _A_TO_M, ("with",), (), _derivation_residual, NotDerivation, None),
        ("OLie", ("rep", "algebra"), ("rep",), ("rep",), _olie_residual, PreconditionFailed, "lie"),
    )
}

KINDS = tuple(REGISTRY)


def verify_operator(
    kind: str,
    T: ModuleMap,
    alg: ConfAlgebra,
    bim: Optional[ConfBimodule] = None,
    *,
    weight: Optional[PolyLike] = None,
    twist=None,
    rep: Optional[LieRep] = None,
    cap: int = WITNESS_CAP,
) -> Verdict:
    """Check one operator identity on every basis pair of the map's source.

    ``bim`` is the bimodule (``with``, the adjoint one when not given),
    ``weight`` the Rota-Baxter weight q (a scalar or parameter, 0 when not
    given), ``twist`` the 2-cocycle of the twisted identity, and ``rep`` the
    Lie representation of the ``OLie`` identity.  An input the kind does not
    read or needs but lacks, and a weight in ``D`` or a λ variable, raise
    :class:`PreconditionFailed`; then the flavor, the algebra of ``bim`` and
    ``rep``, the map's and twist's shapes (a misshapen map of kind ``K``
    raises ``K: the map must map …``, a twist ``the twist must map …``) and
    the twist's cocycle identity are checked.  The residual table is computed
    whole and scanned in basis order; the verdict's identity name is ``kind``.
    """
    spec = REGISTRY.get(kind)
    if spec is None:
        raise PreconditionFailed(f"unknown operator kind {kind!r}; expected one of {KINDS}")
    given = {"with": bim, "twist": twist, "weight": weight, "rep": rep}
    unread = [name for name, value in given.items() if value is not None and name not in spec.reads]
    if unread:
        raise PreconditionFailed(f"{kind} reads no {' or '.join(unread)} input")
    missing = [name for name in spec.needs if given[name] is None]
    if missing:
        raise PreconditionFailed(f"{kind} needs a {missing[0]} input")
    weight = as_poly(weight or 0)
    if any(var_sort_key(name)[0] < 2 for name in weight.variables()):  # D or a λ variable
        raise PreconditionFailed(f"{kind}: the weight {weight} is not a scalar or a parameter")
    if spec.flavor is not None:
        require_flavor(alg, spec.flavor, kind)
    if "with" in spec.reads and bim is None:
        bim = ConfBimodule.adjoint(alg)
    for over in (bim, rep):
        if over is not None:
            require_over(alg, over)
    ends = {"algebra": alg, "with": bim, "rep": rep}
    source, target = (ends[end].module for end in spec.maps)
    require_shape(T.table, (source,), target, f"{kind}: the map")
    if twist is not None:
        require_shape(twist.table, (alg.module,) * 2, bim.module, "the twist")
        require(is_cocycle(twist, alg, bim), AXIOMS["cocycle"].error)
    return spec.check(T, alg, bim, weight, twist, rep, cap=cap)


def require_operator(
    kind: str,
    T: ModuleMap,
    alg: ConfAlgebra,
    bim: Optional[ConfBimodule] = None,
    *,
    origin: Optional[str] = None,
    cap: int = 1,
    **inputs,
) -> None:
    """Raise unless ``T`` satisfies the ``kind`` identity.

    The exception is the kind's registry ``error``; its message is the
    verdict's summary, after ``origin: `` when an origin is given.  ``cap``
    bounds the witnesses the summary counts, and ``inputs`` go to
    :func:`verify_operator`.
    """
    require(verify_operator(kind, T, alg, bim, cap=cap, **inputs), REGISTRY[kind].error, origin)


# -- compatibility -----------------------------------------------------------


def compatible_O(
    T1: ModuleMap,
    T2: ModuleMap,
    alg: ConfAlgebra,
    bim: ConfBimodule,
    cap: int = WITNESS_CAP,
) -> Verdict:
    """Whether the sum of two O-operators is again one.

    Both maps must be O-operators, so the O residual of ``T1 + T2`` is its
    cross term ``T1(m)T2(n) + T2(m)T1(n) − T1(T2(m)·n + m·T2(n)) −
    T2(T1(m)·n + m·T1(n))`` on every basis pair.
    """
    for T in (T1, T2):
        require_operator("O", T, alg, bim, origin="compatible_O")
    return verify_operator("O", T1 + T2, alg, bim, cap=cap)._replace(identity="compatible-O")


def compatible_nijenhuis(
    N1: ModuleMap, N2: ModuleMap, alg: ConfAlgebra, cap: int = WITNESS_CAP
) -> Verdict:
    """Whether the sum of two Nijenhuis operators is again one.

    Both maps must be Nijenhuis, so the Nijenhuis residual of ``N1 + N2`` is
    its cross term ``N1(a)N2(b) + N2(a)N1(b) − N1(a ∘^{N2} b) − N2(a ∘^{N1}
    b)`` with ``a ∘^N b = N(a)b + aN(b) − N(ab)``.
    """
    for N in (N1, N2):
        require_operator("Nijenhuis", N, alg, origin="compatible_nijenhuis")
    verdict = verify_operator("Nijenhuis", N1 + N2, alg, cap=cap)
    return verdict._replace(identity="compatible-Nijenhuis")


# -- constructions -----------------------------------------------------------


def lift(T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule) -> ModuleMap:
    """The square-zero lift ``(a, m) ↦ (T(m), 0)`` to the semidirect module."""
    require_module_map("lift", T, alg, bim)
    big = direct_sum(alg.module, bim.module)
    return ModuleMap(block(T.table, (big,), big, (alg.rank,), 0))


def graph_check(
    T: ModuleMap,
    alg: ConfAlgebra,
    bim: ConfBimodule,
    phi=None,
    cap: int = WITNESS_CAP,
) -> Verdict:
    """Closure of the graph ``{(T(m), m)}`` in the (twisted) extension.

    For basis pairs (u, v) of the module the product ``(T(u), u) L (T(v), v)``
    is expanded in the extension algebra; the residual is its algebra
    component minus T of its module component.
    """
    require_module_map("graph_check", T, alg, bim)
    ext = semidirect(alg, bim) if phi is None else twisted_extension(alg, bim, phi)
    ra, A, M, big, t = alg.rank, alg.module, bim.module, ext.module, T.table
    ident = ModuleMap.identity
    # the residual is (a, m) ↦ a − T(m) after the product of the graph points u ↦ (T(u), u)
    point = block(ident(M).table, (M,), big, (0,), ra) + block(t, (M,), big, (0,), 0)
    project = block(ident(A).table, (big,), A, (0,), 0) - block(t, (big,), A, (ra,), 0)
    graph = circ(circ(ext.table, 1, point), 2, point)
    return scan("graph-closure", [((), circ(project, 1, graph))], cap)


def reynolds_from_derivation(
    d: ModuleMap, alg: ConfAlgebra, bound: int
) -> ModuleMap:
    """The geometric series ``R = Σ (−1)ⁿ dⁿ`` of a nilpotent derivation.

    ``d`` must be a derivation of the algebra into itself with ``d^k = 0``
    for some ``k ≤ bound``; the finite sum then inverts ``id + d`` and is a
    Reynolds operator.
    """
    require_shape(d.table, (alg.module,), alg.module, "reynolds_from_derivation: the map")
    require_operator("Derivation", d, alg, origin="reynolds_from_derivation")
    if bound < 1:
        raise PreconditionFailed("the nilpotency bound must be positive")
    result = ModuleMap.identity(alg.module)
    power = ModuleMap.identity(alg.module)
    for n in range(1, bound + 1):
        power = d.compose(power)
        if power.is_zero():
            return result
        result = result + power.scale((-1) ** n)
    raise NotNilpotentWithinBound(f"d^{bound} is still nonzero")


def nijenhuis_from_O_pair(
    T1: ModuleMap, T2: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule
) -> ModuleMap:
    """The quotient ``N = T1 ∘ T2⁻¹`` of two O-operators.

    ``T2`` must be invertible over C[∂] (scalar nonzero determinant).  The
    result is a Nijenhuis operator exactly when T1 and T2 are compatible;
    callers certify with :func:`verify_operator` / :func:`compatible_O`.
    """
    for T in (T1, T2):
        require_operator("O", T, alg, bim, origin="nijenhuis_from_O_pair")
    return T1.compose(T2.inverse())


def derivation_composites(
    T: ModuleMap,
    omega: ModuleMap,
    alg: ConfAlgebra,
    bim: ConfBimodule,
    cap: int = WITNESS_CAP,
) -> Tuple[Verdict, Verdict]:
    """The Nijenhuis and O verdicts of ``T∘Ω`` and ``T∘Ω∘T``.

    ``T`` must be an O-operator and ``Ω`` a derivation of the algebra into
    the module that additionally intertwines the ⋆-product with the induced
    actions: ``Ω(a) ⋆ Ω(b) = Ω( Ω(a)·b + a·Ω(b) )``.  When the preconditions
    hold, ``T∘Ω`` is Nijenhuis on the algebra and ``T∘Ω∘T`` is a second
    O-operator; the two verdicts report exactly that.
    """
    origin = "derivation_composites"
    require(verify_operator("O", T, alg, bim, cap=1), PreconditionFailed, origin)
    require(verify_operator("Derivation", omega, alg, bim, cap=1), PreconditionFailed, origin)

    o = omega.table
    star = star_product(T, bim)
    m_a, a_m = induced_actions(T, alg, bim)
    inner = table_sum([(1, Circ(m_a, 1, o)), (1, Circ(a_m, 2, o))])
    compat_table = table_sum([(1, Circ(circ(star, 1, o), 2, o)), (-1, Circ(o, 1, inner))])
    compat = scan("derivation-star-compatibility", [((), compat_table)], cap=1)
    if not compat.holds:
        raise PreconditionFailed(
            "derivation_composites: Ω(a)⋆Ω(b) = Ω(Ω(a)·b + a·Ω(b)) fails; "
            + compat.summary()
        )
    nij = verify_operator("Nijenhuis", T.compose(omega), alg, cap=cap)
    second = verify_operator("O", T.compose(omega).compose(T), alg, bim, cap=cap)
    return nij, second
