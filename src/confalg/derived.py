"""Products and brackets induced by operators.

An operator that satisfies one of the identities in :mod:`confalg.operators`
equips the underlying module or algebra with new bilinear products.  This
module composes them from the structure tables and the operator's table
(:func:`~confalg.confcore.table_sum` of partial compositions) and certifies
their axioms:

* dendriform pairs ``(≻, ≺)`` from an O-operator, with the sum ``⋆ = ≻ + ≺``
  an associative product carried by the module;
* NS triples ``(≻, ≺, ∨)`` from a twisted Rota-Baxter operator or a
  Nijenhuis operator, with the sum ``× = ≻ + ≺ + ∨`` associative;
* the module product ``m ⋆ n = T(m)·n + m·T(n)`` (optionally corrected by a
  twisting 2-cochain) together with the induced actions of the module
  algebra back on the original algebra;
* left-symmetric products ``a ∘ b = a ≻ b − b ≺_{−λ−∂} a`` obtained from a
  dendriform pair;
* Nijenhuis-deformed products ``a ∘ᴺ b = N(a)b + aN(b) − N(ab)`` and
  brackets, their defect cochains, the hierarchy of identities satisfied by
  the powers of a Nijenhuis operator, and the formal one-parameter
  deformation they generate.

Each product is a ``module × module -> module``
:class:`~confalg.confcore.MultiTable`, and a :class:`StructureBundle` names
its tables by key (``succ``, ``prec``, ...); a deformed bracket is a Lie
:class:`~confalg.confcore.ConfAlgebra`.
Each structure kind is one :class:`~confalg.confcore.Identity` of
:data:`STRUCTURES`: it reads its tables and scans its axioms interleaved,
triple by triple.  Every constructor validates its operator precondition
and returns only bundles whose axioms have been re-checked on all triples.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping

from .confcore import (
    WITNESS_CAP,
    Circ,
    Cochain,
    Composite,
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    Identity,
    ModElem,
    MultiTable,
    Swap,
    Verdict,
    _Frozen,
    _set_fields,
    check_associative,
    check_lie,
    circ,
    hochschild_d,
    matching_pair,
    require,
    require_flavor,
    require_shape,
    scan,
    table_sum,
)
from .errors import ConfalgError, NotDendriform, PreconditionFailed, ShapeMismatch
from .operators import (
    ModuleMap,
    induced_actions,
    require_operator,
    star_product,
    star_terms,
)
from .polyring import Poly, PolyLike

__all__ = [
    "STRUCTURES",
    "StructureBundle",
    "check_structure",
    "dendriform_from_O",
    "m_ass",
    "induced_bimodule_on_A",
    "matching_pair_from_O",
    "ns_from_twisted",
    "ns_from_nijenhuis",
    "deformed_product",
    "nijenhuis_hierarchy",
    "leftsym_from_dendriform",
    "deformed_bracket",
    "deformation_check",
]

BinaryFn = Callable[[ModElem, ModElem, PolyLike], ModElem]


class BinaryOpTable(_Frozen):
    """A tabulated binary product on one module.

    The package's products are plain :class:`~confalg.confcore.MultiTable`
    values; this class remains only as the home of :meth:`from_function`,
    which the benchmark harness traces as its ``derived.tabulate`` layer.
    """

    __slots__ = _fields = ("table",)
    table: MultiTable

    def __init__(self, table: MultiTable) -> None:
        module = table.out_module
        require_shape(table, (module, module), module, "a binary operation table")
        _set_fields(self, table)

    @classmethod
    def from_function(cls, module: FreeModule, fn: BinaryFn) -> "BinaryOpTable":
        """Tabulate ``fn(x, y, λ)`` on basis pairs at the formal weight ``L1``."""
        return cls(MultiTable.from_function((module, module), module, lambda xy, w: fn(*xy, *w)))


def _dendriform(s: MultiTable, p: MultiTable) -> tuple:
    both = s + p
    return (
        (("cd1",), [(1, Circ(s, 2, s)), (-1, Circ(s, 1, both))]),
        (("cd2",), [(1, Circ(p, 1, p)), (-1, Circ(p, 2, both))]),
        (("cd3",), [(1, Circ(p, 1, s)), (-1, Circ(s, 2, p))]),
    )


def _ns(s: MultiTable, p: MultiTable, v: MultiTable) -> tuple:
    times = s + p + v
    return (
        (("ns1",), [(1, Circ(s, 2, s)), (-1, Circ(s, 1, times))]),
        (("ns2",), [(1, Circ(p, 2, times)), (-1, Circ(p, 1, p))]),
        (("ns3",), [(1, Circ(s, 2, p)), (-1, Circ(p, 1, s))]),
        (("ns4",), [(1, Circ(s, 2, v)), (1, Circ(v, 2, times))]
         + [(-1, Circ(v, 1, times)), (-1, Circ(p, 1, v))]),
    )


def _leftsym(c: MultiTable) -> tuple:
    defect = table_sum([(1, Circ(c, 1, c)), (-1, Circ(c, 2, c))])
    return (((), [(1, defect), (-1, Swap(defect, 1, 2))]),)


#: the one place a structure kind is declared: it reads and needs its tables, in
#: the order they sum, and its axioms are scanned together, triple by triple
STRUCTURES: Mapping[str, Identity] = {
    kind: Identity(name, tags, tags, error, axioms, interleave=True)
    for kind, name, tags, error, axioms in (
        ("dendriform", "dendriform", ("succ", "prec"), NotDendriform, _dendriform),
        ("ns", "ns", ("succ", "prec", "vee"), ConfalgError, _ns),
        ("leftsym", "left-symmetric", ("leftsym",), ConfalgError, _leftsym),
    )
}


class StructureBundle(_Frozen):
    """A named collection of binary products forming one algebraic structure.

    ``kind`` is a key of :data:`STRUCTURES`, which names the tables it needs
    (``succ``, ``prec`` [, ``vee``] or ``leftsym``); each is a ``module ×
    module -> module`` table on one module.  Construction checks only
    shapes; :func:`check_structure` certifies the axioms, and every
    constructor in this module does so before returning a bundle.
    """

    __slots__ = _fields = ("kind", "tables")
    kind: str
    tables: Mapping[str, MultiTable]

    def __init__(self, kind: str, tables: Mapping[str, MultiTable]) -> None:
        if kind not in STRUCTURES:
            raise ShapeMismatch("unknown structure kind %r" % (kind,))
        required = STRUCTURES[kind].needs
        if tuple(sorted(tables)) != tuple(sorted(required)):
            raise ShapeMismatch(
                "%s bundle needs tables %s, got %s" % (kind, sorted(required), sorted(tables))
            )
        modules = {t.out_module for t in tables.values()}
        if len(modules) != 1:
            raise ShapeMismatch("all tables of a bundle must share one module")
        (module,) = modules
        for t in tables.values():
            require_shape(t, (module, module), module, "a binary operation table")
        _set_fields(self, kind, dict(tables))

    @property
    def module(self) -> FreeModule:
        return next(iter(self.tables.values())).out_module

    def table(self, tag: str) -> MultiTable:
        return self.tables[tag]

    def sum_table(self) -> ConfAlgebra:
        """The total product (``⋆`` or ``×``) of a bundle of two or more tables.

        It is the associative-flavored candidate algebra; no axioms are checked.
        """
        first, *rest = (self.tables[tag] for tag in STRUCTURES[self.kind].needs)
        if not rest:
            raise ShapeMismatch("a %s bundle has no sum product" % STRUCTURES[self.kind].name)
        return ConfAlgebra(self.module, sum(rest, first), "associative")


def check_structure(bundle: StructureBundle, cap: int = WITNESS_CAP) -> Verdict:
    """The verdict of the :data:`STRUCTURES` entry of ``bundle.kind`` on the bundle's tables."""
    structure = STRUCTURES[bundle.kind]
    return structure.check(*(bundle.table(tag) for tag in structure.needs), cap=cap)


def _certified(kind: str, origin: str, tables: Mapping[str, MultiTable]) -> StructureBundle:
    bundle = StructureBundle(kind, tables)
    verdict = check_structure(bundle, cap=1)
    if not verdict.holds:
        raise ConfalgError(
            f"{origin} produced a bundle violating its own axioms; {verdict.summary()}"
        )
    return bundle


def _split(terms: list) -> dict:
    """The ⋆ terms (:func:`~confalg.operators.star_terms`) as products ``≻``, ``≺`` [, ``∨``]."""
    return {tag: table_sum([term]) for tag, term in zip(("succ", "prec", "vee"), terms)}


def dendriform_from_O(
    T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, cap: int = WITNESS_CAP
) -> StructureBundle:
    """Dendriform pair ``m ≻ n = T(m)·n``, ``m ≺ n = m·T(n)`` on the module."""
    require_operator("O", T, alg, bim, cap=cap)
    tables = _split(star_terms(T.table, bim.left, bim.right))
    return _certified("dendriform", "dendriform_from_O", tables)


def m_ass(
    T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, phi=None, *, validate: bool = True
) -> ConfAlgebra:
    """The associative product ``m ⋆ n = T(m)·n + m·T(n) [+ φ(T(m), T(n))]``.

    ``phi`` is an optional twisting 2-cochain on the algebra valued in the
    module; with it the product is the one carried by a twisted Rota-Baxter
    operator.  ``validate=False`` skips the operator precondition and
    returns the candidate product unverified.
    """
    if validate:
        kind = "O" if phi is None else "TwistedRB"
        require_operator(kind, T, alg, bim, origin="m_ass", twist=phi)
    return ConfAlgebra(bim.module, star_product(T, bim, phi), "associative")


def induced_bimodule_on_A(
    T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, phi=None, *, validate: bool = True
) -> ConfBimodule:
    """The original algebra as a bimodule over the module's ⋆-algebra.

    Actions ``m·a = T(m)a − T(m a [+ φ(T(m), a)])`` and
    ``a·m = a T(m) − T(a m [+ φ(a, T(m))])``; over the untwisted or twisted
    ⋆-product of :func:`m_ass` they satisfy the bimodule axioms.
    """
    if validate:
        kind = "O" if phi is None else "TwistedRB"
        require_operator(kind, T, alg, bim, origin="induced_bimodule_on_A", twist=phi)
    star_alg = m_ass(T, alg, bim, phi, validate=False)
    return ConfBimodule(star_alg, alg.module, *induced_actions(T, alg, bim, phi))


def matching_pair_from_O(
    T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, phi=None
) -> ConfAlgebra:
    """The matching-pair algebra of the original product and the ⋆-product."""
    star_alg = m_ass(T, alg, bim, phi)
    induced = induced_bimodule_on_A(T, alg, bim, phi, validate=False)
    return matching_pair(alg, star_alg, bim, induced)


def ns_from_twisted(
    T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, phi, cap: int = WITNESS_CAP
) -> StructureBundle:
    """NS triple ``m ≻ n = T(m)·n``, ``m ≺ n = m·T(n)``, ``m ∨ n = φ(T(m), T(n))``."""
    require_operator("TwistedRB", T, alg, bim, twist=phi, cap=cap)
    tables = _split(star_terms(T.table, bim.left, bim.right, phi.table))
    return _certified("ns", "ns_from_twisted", tables)


def ns_from_nijenhuis(N: ModuleMap, alg: ConfAlgebra, cap: int = WITNESS_CAP) -> StructureBundle:
    """NS triple ``a ≻ b = N(a)b``, ``a ≺ b = a N(b)``, ``a ∨ b = −N(ab)``."""
    require_operator("Nijenhuis", N, alg, cap=cap)
    m, n = alg.table, N.table
    tables = _split(star_terms(n, m, m) + [(-1, Circ(n, 1, m))])
    return _certified("ns", "ns_from_nijenhuis", tables)


def _deformed(n: MultiTable, m: MultiTable) -> MultiTable:
    """``a ∘ᴺ b = N(a)b + aN(b) − N(ab)`` is ``m∘₁N + m∘₂N − N∘₁m``."""
    return table_sum([*star_terms(n, m, m), (-1, Circ(n, 1, m))])


def deformed_product(N: ModuleMap, alg: ConfAlgebra):
    """The deformed product ``a ∘ᴺ b = N(a)b + aN(b) − N(ab)`` and its defect.

    Returns ``(candidate, phiN)`` where ``candidate`` is the (unchecked)
    conformal algebra of ``alg``'s flavor carrying ``∘ᴺ``, and ``phiN`` is the
    arity-2 cochain ``φᴺ(a, b) = N(a)N(b) − N(a ∘ᴺ b)``.  The defect vanishes
    exactly when ``N`` is Nijenhuis, and for an associative ``alg``, ``∘ᴺ`` is
    associative exactly when ``φᴺ`` is a 2-cocycle.
    """
    require_shape(N.table, (alg.module,), alg.module, "deformed_product: the map")
    m, n = alg.table, N.table
    product = _deformed(n, m)
    defect = table_sum([(1, Circ(circ(m, 1, n), 2, n)), (-1, Circ(n, 1, product))])
    return ConfAlgebra(alg.module, product, alg.flavor), Cochain(defect)


def nijenhuis_hierarchy(
    N: ModuleMap, alg: ConfAlgebra, kmax: int = 3, cap: int = WITNESS_CAP
) -> Composite:
    """Verify the identities satisfied by the powers of a Nijenhuis operator.

    For all exponents up to ``kmax`` this checks, on every basis pair:

    * the power-pair identity
      ``Nʲ(a) Nᵏ(b) − Nᵏ(Nʲ(a) b) − Nʲ(a Nᵏ(b)) + Nʲ⁺ᵏ(ab) = 0``;
    * ``Nʳ`` intertwines the deformed products,
      ``Nʳ(a ∘^{Nᵏ⁺ʳ} b) = Nʳ(a) ∘^{Nᵏ} Nʳ(b)``;
    * the relative deformation identity: deforming ``∘^{Nⁱ}`` by ``Nᵏ``
      yields ``∘^{Nⁱ⁺ᵏ}``;
    * every power ``Nᵏ`` is Nijenhuis for every deformed product ``∘^{Nⁱ}``;
    * all powers are pairwise compatible Nijenhuis operators.

    The result holds one :class:`~confalg.confcore.Verdict` per family
    (``power_pair``, ``intertwine``, ``relative``, ``powers_nijenhuis``,
    ``pairwise_compatible``), and holds when all five do.  A ``kmax`` below 1
    raises :class:`~confalg.errors.PreconditionFailed`.
    """
    if kmax < 1:
        raise PreconditionFailed(f"the exponent bound kmax must be positive, not {kmax}")
    require_operator("Nijenhuis", N, alg)
    m = alg.table
    P = [ModuleMap.identity(alg.module).table]  # the tables of N⁰, N¹, …, N^(2·kmax)
    for _ in range(2 * kmax):
        P.append(circ(P[-1], 1, N.table))
    circs = [_deformed(p, m) for p in P]
    pairs = list(itertools.product(range(kmax + 1), repeat=2))

    def family(identity: str, names: str, terms) -> Verdict:
        families = (((names % (x, y),), terms(x, y)) for x, y in pairs)
        return scan("hierarchy-" + identity, families, cap)

    def both(x: int, y: int) -> MultiTable:  # N^x(a) N^y(b)
        return circ(circ(m, 1, P[x]), 2, P[y])

    return Composite("nijenhuis-hierarchy", dict(
        power_pair=family("power-pair", "j=%d,k=%d", lambda j, k: [
            (1, both(j, k)),
            (-1, Circ(P[k], 1, circ(m, 1, P[j]))),
            (-1, Circ(P[j], 1, circ(m, 2, P[k]))),
            (1, Circ(P[j + k], 1, m)),
        ]),
        intertwine=family("intertwine", "r=%d,k=%d", lambda r, k: [
            (1, Circ(P[r], 1, circs[k + r])),
            (-1, Circ(circ(circs[k], 1, P[r]), 2, P[r])),
        ]),
        relative=family("relative", "i=%d,k=%d", lambda i, k: [
            (1, Circ(circs[i], 1, P[k])),
            (1, Circ(circs[i], 2, P[k])),
            (-1, Circ(P[k], 1, circs[i])),
            (-1, circs[i + k]),
        ]),
        powers_nijenhuis=family("powers-nijenhuis", "i=%d,k=%d", lambda i, k: [
            (1, Circ(circ(circs[i], 1, P[k]), 2, P[k])),
            (-1, Circ(P[k], 1, _deformed(P[k], circs[i]))),
        ]),
        pairwise_compatible=family("pairwise-compatible", "j=%d,k=%d", lambda j, k: [
            (1, both(j, k)),
            (1, both(k, j)),
            (-1, Circ(P[j], 1, circs[k])),
            (-1, Circ(P[k], 1, circs[j])),
        ]),
    ))


def leftsym_from_dendriform(bundle: StructureBundle, cap: int = WITNESS_CAP) -> StructureBundle:
    """The left-symmetric product ``a ∘ b = a ≻ b − b ≺_{−λ−∂} a``."""
    if bundle.kind != "dendriform":
        raise ShapeMismatch("leftsym_from_dendriform needs a dendriform bundle")
    require(check_structure(bundle, cap=1), STRUCTURES["dendriform"].error)
    succ, prec = bundle.table("succ"), bundle.table("prec")
    leftsym = table_sum([(1, succ), (-1, Swap(prec, 1, 2))])
    return _certified("leftsym", "leftsym_from_dendriform", {"leftsym": leftsym})


def deformed_bracket(N: ModuleMap, lie: ConfAlgebra, *, validate: bool = True) -> ConfAlgebra:
    """The deformed bracket ``[a b]ᴺ = [N(a) b] + [a N(b)] − N([a b])``.

    ``lie`` must carry a Lie table, and the result is the Lie-flavored
    algebra on ``lie``'s module carrying the deformed bracket.  With
    ``validate`` the map is required to satisfy the Lie Nijenhuis identity,
    which makes the deformed bracket a Lie bracket again (re-checked before
    returning).
    """
    require_flavor(lie, "lie", "deformed_bracket")
    if validate:
        require_operator("NijenhuisLie", N, lie)
    bracket = ConfAlgebra(lie.module, _deformed(N.table, lie.table), "lie")
    if validate:
        verdict = check_lie(bracket, cap=1)
        if not verdict.holds:
            raise ConfalgError(
                "deformed_bracket produced a non-Lie table; " + verdict.summary()
            )
    return bracket


def deformation_check(
    N: ModuleMap, alg: ConfAlgebra, *, validate: bool = True, cap: int = WITNESS_CAP
) -> Composite:
    """Check that ``ω = ∘ᴺ`` generates a trivial formal deformation.

    The deformed family is ``a ∘ᵗ b = ab + t·ω(a, b)`` with ``t`` an
    auxiliary scalar parameter.  The result holds one
    :class:`~confalg.confcore.Verdict` per clause, and holds when all four do:

    * ``cocycle`` — ``𝐝ω = 0`` over the algebra acting on itself;
    * ``generator_associative`` — ``ω`` is itself an associative product;
    * ``homomorphism`` — ``T_t = id + t·N`` satisfies
      ``T_t(a ∘ᵗ b) = T_t(a) T_t(b)`` identically in ``t``;
    * ``obstruction`` — the quadratic coefficient condition
      ``N(ω(a, b)) = N(a) N(b)``.

    All four hold when ``N`` is Nijenhuis; the ``homomorphism`` clause fails
    at the ``t²`` coefficient exactly when ``obstruction`` does.
    """
    if validate:
        require_operator("Nijenhuis", N, alg)
    m, n = alg.table, N.table
    omega = _deformed(n, m)
    d_omega = hochschild_d(Cochain(omega), alg, ConfBimodule.adjoint(alg)).table
    generator = check_associative(ConfAlgebra(alg.module, omega, "associative"), cap=cap)
    # T_t = id + t·N is a table, not a module map: its entries carry the parameter t
    t = Poly.var("t")
    t_map = table_sum([(1, ModuleMap.identity(alg.module).table), (t, n)])
    deformed = table_sum([(1, m), (t, omega)])
    homomorphism = [(1, Circ(t_map, 1, deformed)), (-1, Circ(circ(m, 1, t_map), 2, t_map))]
    obstruction = [(1, Circ(n, 1, omega)), (-1, Circ(circ(m, 1, n), 2, n))]
    return Composite("deformation", dict(
        cocycle=scan("deformation-cocycle", [((), d_omega)], cap),
        generator_associative=generator._replace(identity="associative"),
        homomorphism=scan("deformation-homomorphism", [((), table_sum(homomorphism))], cap),
        obstruction=scan("deformation-obstruction", [((), table_sum(obstruction))], cap),
    ), labels={"generator_associative": "generator-assoc"})
