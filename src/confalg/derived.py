"""Products and brackets induced by operators.

An operator that satisfies one of the identities in :mod:`confalg.operators`
equips the underlying module or algebra with new bilinear products.  This
module tabulates them and certifies their axioms:

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

Each product is a :class:`BinaryOpTable`, a one-field view of a
``module × module -> module`` :class:`~confalg.confcore.MultiTable`, and a
:class:`StructureBundle` names its tables by key (``succ``, ``prec``, ...).
Every constructor validates its operator precondition and returns only
bundles whose axioms have been re-checked on all basis triples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Tuple

from .confcore import (
    D,
    WITNESS_CAP,
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    L1,
    L2,
    ModElem,
    MultiTable,
    Verdict,
    basis_tuples,
    check_associative,
    check_lie,
    eval_multilinear,
    matching_pair,
    residual_scan,
)
from .errors import ConfalgError, NotDendriform, ShapeMismatch
from .operators import (
    ModuleMap,
    induced_left_value,
    induced_right_value,
    require_operator,
    star_value,
    verify_operator,
)
from .polyring import Poly, PolyLike, as_poly

__all__ = [
    "BinaryOpTable",
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
    "HierarchyVerdict",
    "leftsym_from_dendriform",
    "deformed_bracket",
    "deformation_check",
    "DeformationVerdict",
]

#: required table names per structure kind
KIND_TAGS: Mapping[str, Tuple[str, ...]] = {
    "dendriform": ("succ", "prec"),
    "ns": ("succ", "prec", "vee"),
    "leftsym": ("leftsym",),
    "assoc": ("star",),
}

BinaryFn = Callable[[ModElem, ModElem, PolyLike], ModElem]


@dataclass(frozen=True)
class BinaryOpTable:
    """A binary product on one module: a view of a ``module × module -> module`` table."""

    table: MultiTable

    def __post_init__(self) -> None:
        module = self.table.out_module
        if self.table.in_modules != (module, module):
            raise ShapeMismatch(
                "binary operation table must map module x module -> module"
            )

    @property
    def module(self) -> FreeModule:
        return self.table.out_module

    @classmethod
    def from_function(cls, module: FreeModule, fn: BinaryFn) -> "BinaryOpTable":
        """Tabulate ``fn(x, y, λ)`` on basis pairs at the formal weight ``L1``."""
        return cls(MultiTable.from_function((module, module), module, lambda xy, w: fn(*xy, *w)))

    def value(self, x: ModElem, y: ModElem, weight: PolyLike) -> ModElem:
        return eval_multilinear(self.table, (x, y), (weight,))

    def entry(self, i, j) -> ModElem:
        return self.table.entry((i, j))

    def as_algebra(self, flavor: str = "associative") -> ConfAlgebra:
        """View the table as a (candidate) conformal algebra; no axioms checked."""
        return ConfAlgebra(self.module, self.table, flavor)

    def __add__(self, other: "BinaryOpTable") -> "BinaryOpTable":
        if not isinstance(other, BinaryOpTable):
            return NotImplemented
        return BinaryOpTable(self.table + other.table)

    def is_zero(self) -> bool:
        return self.table.is_zero()


@dataclass(frozen=True)
class StructureBundle:
    """A named collection of binary products forming one algebraic structure.

    ``kind`` is one of ``dendriform`` (tables ``succ``, ``prec``), ``ns``
    (``succ``, ``prec``, ``vee``), ``leftsym`` (``leftsym``) or ``assoc``
    (``star``); a table is named by its key.  Construction checks only
    shapes; :func:`check_structure` certifies the axioms, and every
    constructor in this module does so before returning a bundle.
    """

    kind: str
    tables: Mapping[str, BinaryOpTable]

    def __post_init__(self) -> None:
        if self.kind not in KIND_TAGS:
            raise ShapeMismatch("unknown structure kind %r" % (self.kind,))
        required = KIND_TAGS[self.kind]
        if tuple(sorted(self.tables)) != tuple(sorted(required)):
            raise ShapeMismatch(
                "%s bundle needs tables %s, got %s"
                % (self.kind, sorted(required), sorted(self.tables))
            )
        modules = {op.module for op in self.tables.values()}
        if len(modules) != 1:
            raise ShapeMismatch("all tables of a bundle must share one module")
        object.__setattr__(self, "tables", dict(self.tables))

    @property
    def module(self) -> FreeModule:
        return next(iter(self.tables.values())).module

    def table(self, tag: str) -> BinaryOpTable:
        return self.tables[tag]

    def sum_table(self) -> BinaryOpTable:
        """The total product (``⋆`` or ``×``) carried by the bundle."""
        if self.kind == "leftsym":
            raise ShapeMismatch("a left-symmetric bundle has no sum product")
        total = None
        for tag in KIND_TAGS[self.kind]:
            total = self.tables[tag] if total is None else total + self.tables[tag]
        return total


def _dendriform_items(succ: BinaryOpTable, prec: BinaryOpTable):
    for names, (a, b, c) in basis_tuples((succ.module,) * 3):
        both = succ.value(a, b, L1) + prec.value(a, b, L1)
        res = succ.value(a, succ.value(b, c, L2), L1) - succ.value(both, c, L1 + L2)
        yield ("cd1",) + names, res
        both_bc = succ.value(b, c, L2) + prec.value(b, c, L2)
        res = prec.value(prec.value(a, b, L1), c, L1 + L2) - prec.value(a, both_bc, L1)
        yield ("cd2",) + names, res
        res = prec.value(succ.value(a, b, L1), c, L1 + L2) - succ.value(
            a, prec.value(b, c, L2), L1
        )
        yield ("cd3",) + names, res


def _ns_items(succ: BinaryOpTable, prec: BinaryOpTable, vee: BinaryOpTable):
    times = succ + prec + vee
    for names, (x, y, z) in basis_tuples((succ.module,) * 3):
        res = succ.value(x, succ.value(y, z, L2), L1) - succ.value(
            times.value(x, y, L1), z, L1 + L2
        )
        yield ("ns1",) + names, res
        res = prec.value(x, times.value(y, z, L2), L1) - prec.value(
            prec.value(x, y, L1), z, L1 + L2
        )
        yield ("ns2",) + names, res
        res = succ.value(x, prec.value(y, z, L2), L1) - prec.value(
            succ.value(x, y, L1), z, L1 + L2
        )
        yield ("ns3",) + names, res
        lhs = succ.value(x, vee.value(y, z, L2), L1) + vee.value(
            x, times.value(y, z, L2), L1
        )
        rhs = vee.value(times.value(x, y, L1), z, L1 + L2) + prec.value(
            vee.value(x, y, L1), z, L1 + L2
        )
        yield ("ns4",) + names, lhs - rhs


def _leftsym_items(circ: BinaryOpTable):
    def defect(x, y, wx, wy, c):
        return circ.value(circ.value(x, y, wx), c, wx + wy) - circ.value(
            x, circ.value(y, c, wy), wx
        )

    for names, (a, b, c) in basis_tuples((circ.module,) * 3):
        yield names, defect(a, b, L1, L2, c) - defect(b, a, L2, L1, c)


def check_structure(bundle: StructureBundle, cap: int = WITNESS_CAP) -> Verdict:
    """Residuals of the axioms of ``bundle.kind`` on all basis triples."""
    if bundle.kind == "dendriform":
        items = _dendriform_items(bundle.table("succ"), bundle.table("prec"))
        return residual_scan("dendriform", items, cap=cap)
    if bundle.kind == "ns":
        items = _ns_items(bundle.table("succ"), bundle.table("prec"), bundle.table("vee"))
        return residual_scan("ns", items, cap=cap)
    if bundle.kind == "leftsym":
        return residual_scan("left-symmetric", _leftsym_items(bundle.table("leftsym")), cap=cap)
    verdict = check_associative(bundle.table("star").as_algebra(), cap=cap)
    return replace(verdict, identity="associative")


def _certify(bundle: StructureBundle, origin: str) -> StructureBundle:
    verdict = check_structure(bundle, cap=1)
    if not verdict.holds:
        raise ConfalgError(
            "%s produced a bundle violating its own axioms; %s"
            % (origin, verdict.summary())
        )
    return bundle


def dendriform_from_O(
    T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, cap: int = WITNESS_CAP
) -> StructureBundle:
    """Dendriform pair ``m ≻ n = T(m)·n``, ``m ≺ n = m·T(n)`` on the module."""
    require_operator("O", T, alg, bim, cap=cap)
    module = bim.module
    succ = BinaryOpTable.from_function(module, lambda m, n, w: bim.act_left(T.apply(m), n, w))
    prec = BinaryOpTable.from_function(module, lambda m, n, w: bim.act_right(m, T.apply(n), w))
    bundle = StructureBundle("dendriform", {"succ": succ, "prec": prec})
    return _certify(bundle, "dendriform_from_O")


def m_ass(
    T: ModuleMap,
    alg: ConfAlgebra,
    bim: ConfBimodule,
    phi=None,
    *,
    validate: bool = True,
) -> ConfAlgebra:
    """The associative product ``m ⋆ n = T(m)·n + m·T(n) [+ φ(T(m), T(n))]``.

    ``phi`` is an optional twisting 2-cochain on the algebra valued in the
    module; with it the product is the one carried by a twisted Rota-Baxter
    operator.  ``validate=False`` skips the operator precondition and
    returns the candidate product unverified.
    """

    def product(m: ModElem, n: ModElem, w: PolyLike) -> ModElem:
        out = star_value(T, bim, m, n, w)
        if phi is not None:
            out = out + phi.eval((T.apply(m), T.apply(n)), (w,))
        return out

    if validate:
        kind = "O" if phi is None else "TwistedRB"
        require_operator(kind, T, alg, bim, twist=phi, origin="m_ass")
    table = BinaryOpTable.from_function(bim.module, product)
    return ConfAlgebra(bim.module, table.table, "associative")


def induced_bimodule_on_A(
    T: ModuleMap,
    alg: ConfAlgebra,
    bim: ConfBimodule,
    phi=None,
    *,
    validate: bool = True,
) -> ConfBimodule:
    """The original algebra as a bimodule over the module's ⋆-algebra.

    Actions ``m·a = T(m)a − T(m a [+ φ(T(m), a)])`` and
    ``a·m = a T(m) − T(a m [+ φ(a, T(m))])``; over the untwisted or twisted
    ⋆-product of :func:`m_ass` they satisfy the bimodule axioms.
    """
    if validate:
        kind = "O" if phi is None else "TwistedRB"
        require_operator(kind, T, alg, bim, twist=phi, origin="induced_bimodule_on_A")
    star_alg = m_ass(T, alg, bim, phi, validate=False)

    def left(args, weights) -> ModElem:
        (m, a), (w,) = args, weights
        if phi is None:
            return induced_left_value(T, alg, bim, m, a, w)
        inner = bim.act_right(m, a, w) + phi.eval((T.apply(m), a), (w,))
        return alg.mul(T.apply(m), a, w) - T.apply(inner)

    def right(args, weights) -> ModElem:
        (a, m), (w,) = args, weights
        if phi is None:
            return induced_right_value(T, alg, bim, a, m, w)
        inner = bim.act_left(a, m, w) + phi.eval((a, T.apply(m)), (w,))
        return alg.mul(a, T.apply(m), w) - T.apply(inner)

    A, M = alg.module, bim.module
    return ConfBimodule(
        star_alg,
        A,
        MultiTable.from_function((M, A), A, left),
        MultiTable.from_function((A, M), A, right),
    )


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
    module = bim.module
    succ = BinaryOpTable.from_function(module, lambda m, n, w: bim.act_left(T.apply(m), n, w))
    prec = BinaryOpTable.from_function(module, lambda m, n, w: bim.act_right(m, T.apply(n), w))
    vee = BinaryOpTable.from_function(
        module, lambda m, n, w: phi.eval((T.apply(m), T.apply(n)), (w,))
    )
    bundle = StructureBundle("ns", {"succ": succ, "prec": prec, "vee": vee})
    return _certify(bundle, "ns_from_twisted")


def ns_from_nijenhuis(N: ModuleMap, alg: ConfAlgebra, cap: int = WITNESS_CAP) -> StructureBundle:
    """NS triple ``a ≻ b = N(a)b``, ``a ≺ b = a N(b)``, ``a ∨ b = −N(ab)``."""
    require_operator("Nijenhuis", N, alg, cap=cap)
    module = alg.module
    succ = BinaryOpTable.from_function(module, lambda a, b, w: alg.mul(N.apply(a), b, w))
    prec = BinaryOpTable.from_function(module, lambda a, b, w: alg.mul(a, N.apply(b), w))
    vee = BinaryOpTable.from_function(module, lambda a, b, w: -N.apply(alg.mul(a, b, w)))
    bundle = StructureBundle("ns", {"succ": succ, "prec": prec, "vee": vee})
    return _certify(bundle, "ns_from_nijenhuis")


def _deformed_value(N: ModuleMap, alg: ConfAlgebra, a: ModElem, b: ModElem, w: PolyLike) -> ModElem:
    return (
        alg.mul(N.apply(a), b, w)
        + alg.mul(a, N.apply(b), w)
        - N.apply(alg.mul(a, b, w))
    )


def deformed_product(N: ModuleMap, alg: ConfAlgebra):
    """The deformed product ``a ∘ᴺ b = N(a)b + aN(b) − N(ab)`` and its defect.

    Returns ``(candidate, phiN)`` where ``candidate`` is the (unchecked)
    conformal algebra carrying ``∘ᴺ`` and ``phiN`` is the arity-2 cochain
    ``φᴺ(a, b) = N(a)N(b) − N(a ∘ᴺ b)``.  The defect vanishes exactly when
    ``N`` is Nijenhuis, and ``∘ᴺ`` is associative exactly when ``φᴺ`` is a
    2-cocycle.
    """
    from .cohomology import Cochain

    if N.source != alg.module or N.target != alg.module:
        raise ShapeMismatch("deformed_product needs an endomorphism of the algebra")
    circ = BinaryOpTable.from_function(
        alg.module, lambda a, b, w: _deformed_value(N, alg, a, b, w)
    )
    candidate = ConfAlgebra(alg.module, circ.table, "associative")

    def defect(args, weights):
        (a, b), (w,) = args, weights
        return alg.mul(N.apply(a), N.apply(b), w) - N.apply(
            _deformed_value(N, alg, a, b, w)
        )

    phiN = Cochain.from_function(2, alg.module, alg.module, defect)
    return candidate, phiN


@dataclass(frozen=True)
class HierarchyVerdict:
    """Verdicts for the tower of identities satisfied by Nijenhuis powers."""

    power_pair: Verdict
    intertwine: Verdict
    relative: Verdict
    powers_nijenhuis: Verdict
    pairwise_compatible: Verdict

    @property
    def holds(self) -> bool:
        return all(
            v.holds
            for v in (
                self.power_pair,
                self.intertwine,
                self.relative,
                self.powers_nijenhuis,
                self.pairwise_compatible,
            )
        )

    def summary(self) -> str:
        parts = [
            "power-pair: " + self.power_pair.summary(),
            "intertwine: " + self.intertwine.summary(),
            "relative: " + self.relative.summary(),
            "powers-nijenhuis: " + self.powers_nijenhuis.summary(),
            "pairwise-compatible: " + self.pairwise_compatible.summary(),
        ]
        return "; ".join(parts)


def nijenhuis_hierarchy(
    N: ModuleMap, alg: ConfAlgebra, kmax: int = 3, cap: int = WITNESS_CAP
) -> HierarchyVerdict:
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
    """
    require_operator("Nijenhuis", N, alg)
    module = alg.module
    powers = [ModuleMap.identity(module)]
    for _ in range(2 * kmax):
        powers.append(powers[-1].compose(N))
    circs = [
        BinaryOpTable.from_function(
            module, lambda a, b, w, P=powers[i]: _deformed_value(P, alg, a, b, w)
        )
        for i in range(2 * kmax + 1)
    ]

    pairs = (module, module)

    def power_pair_items():
        for j, k in itertools.product(range(kmax + 1), repeat=2):
            for names, (a, b) in basis_tuples(pairs):
                nja, nkb = powers[j].apply(a), powers[k].apply(b)
                res = alg.mul(nja, nkb, L1)
                res = res - powers[k].apply(alg.mul(nja, b, L1))
                res = res - powers[j].apply(alg.mul(a, nkb, L1))
                res = res + powers[j + k].apply(alg.mul(a, b, L1))
                yield ("j=%d,k=%d" % (j, k),) + names, res

    def intertwine_items():
        for r, k in itertools.product(range(kmax + 1), repeat=2):
            for names, (a, b) in basis_tuples(pairs):
                lhs = powers[r].apply(circs[k + r].value(a, b, L1))
                rhs = circs[k].value(powers[r].apply(a), powers[r].apply(b), L1)
                yield ("r=%d,k=%d" % (r, k),) + names, lhs - rhs

    def relative_items():
        for i, k in itertools.product(range(kmax + 1), repeat=2):
            for names, (a, b) in basis_tuples(pairs):
                lhs = circs[i].value(powers[k].apply(a), b, L1)
                lhs = lhs + circs[i].value(a, powers[k].apply(b), L1)
                lhs = lhs - powers[k].apply(circs[i].value(a, b, L1))
                yield ("i=%d,k=%d" % (i, k),) + names, lhs - circs[i + k].value(a, b, L1)

    def powers_nijenhuis_items():
        for i, k in itertools.product(range(kmax + 1), repeat=2):
            circ_alg = ConfAlgebra(module, circs[i].table, "associative")
            inner = verify_operator("Nijenhuis", powers[k], circ_alg, cap=cap)
            for witness in inner.witnesses:
                yield ("i=%d,k=%d" % (i, k),) + witness[0], witness[1]

    def compatible_items():
        for j, k in itertools.product(range(kmax + 1), repeat=2):
            nj, nk = powers[j], powers[k]
            for names, (a, b) in basis_tuples(pairs):
                lhs = alg.mul(nj.apply(a), nk.apply(b), L1) + alg.mul(
                    nk.apply(a), nj.apply(b), L1
                )
                rhs = nj.apply(circs[k].value(a, b, L1)) + nk.apply(
                    circs[j].value(a, b, L1)
                )
                yield ("j=%d,k=%d" % (j, k),) + names, lhs - rhs

    return HierarchyVerdict(
        power_pair=residual_scan("hierarchy-power-pair", power_pair_items(), cap=cap),
        intertwine=residual_scan("hierarchy-intertwine", intertwine_items(), cap=cap),
        relative=residual_scan("hierarchy-relative", relative_items(), cap=cap),
        powers_nijenhuis=residual_scan(
            "hierarchy-powers-nijenhuis", powers_nijenhuis_items(), cap=cap
        ),
        pairwise_compatible=residual_scan(
            "hierarchy-pairwise-compatible", compatible_items(), cap=cap
        ),
    )


def leftsym_from_dendriform(bundle: StructureBundle, cap: int = WITNESS_CAP) -> StructureBundle:
    """The left-symmetric product ``a ∘ b = a ≻ b − b ≺_{−λ−∂} a``."""
    if bundle.kind != "dendriform":
        raise ShapeMismatch("leftsym_from_dendriform needs a dendriform bundle")
    verdict = check_structure(bundle, cap=1)
    if not verdict.holds:
        raise NotDendriform(verdict.summary())
    succ, prec = bundle.table("succ"), bundle.table("prec")
    module = bundle.module

    def circ(a: ModElem, b: ModElem, w: PolyLike) -> ModElem:
        return succ.value(a, b, w) - prec.value(b, a, -as_poly(w) - D)

    table = BinaryOpTable.from_function(module, circ)
    out = StructureBundle("leftsym", {"leftsym": table})
    return _certify(out, "leftsym_from_dendriform")


def deformed_bracket(
    N: ModuleMap, lie: ConfAlgebra, *, validate: bool = True, cap: int = WITNESS_CAP
) -> BinaryOpTable:
    """The deformed bracket ``[a b]ᴺ = [N(a) b] + [a N(b)] − N([a b])``.

    ``lie`` must carry a Lie table.  With ``validate`` the map is required
    to satisfy the Lie Nijenhuis identity, which makes the deformed bracket
    a Lie bracket again (re-checked before returning).
    """
    if lie.flavor != "lie":
        raise ShapeMismatch("deformed_bracket needs a Lie conformal algebra")
    if validate:
        require_operator("NijenhuisLie", N, lie)
    table = BinaryOpTable.from_function(
        lie.module, lambda a, b, w: _deformed_value(N, lie, a, b, w)
    )
    if validate:
        candidate = ConfAlgebra(lie.module, table.table, "lie")
        verdict = check_lie(candidate, cap=1)
        if not verdict.holds:
            raise ConfalgError(
                "deformed_bracket produced a non-Lie table; " + verdict.summary()
            )
    return table


@dataclass(frozen=True)
class DeformationVerdict:
    """Clause-by-clause verdict for the deformation generated by ``ω = ∘ᴺ``."""

    cocycle: Verdict
    generator_associative: Verdict
    homomorphism: Verdict
    obstruction: Verdict

    @property
    def holds(self) -> bool:
        return all(
            v.holds
            for v in (
                self.cocycle,
                self.generator_associative,
                self.homomorphism,
                self.obstruction,
            )
        )

    def summary(self) -> str:
        return "; ".join(
            [
                "cocycle: " + self.cocycle.summary(),
                "generator-assoc: " + self.generator_associative.summary(),
                "homomorphism: " + self.homomorphism.summary(),
                "obstruction: " + self.obstruction.summary(),
            ]
        )


def deformation_check(
    N: ModuleMap, alg: ConfAlgebra, *, validate: bool = True, cap: int = WITNESS_CAP
) -> DeformationVerdict:
    """Check that ``ω = ∘ᴺ`` generates a trivial formal deformation.

    The deformed family is ``a ∘ᵗ b = ab + t·ω(a, b)`` with ``t`` an
    auxiliary scalar parameter.  The verdict covers four clauses:

    * ``cocycle`` — ``𝐝ω = 0`` over the algebra acting on itself;
    * ``generator_associative`` — ``ω`` is itself an associative product;
    * ``homomorphism`` — ``T_t = id + t·N`` satisfies
      ``T_t(a ∘ᵗ b) = T_t(a) T_t(b)`` identically in ``t``;
    * ``obstruction`` — the quadratic coefficient condition
      ``N(ω(a, b)) = N(a) N(b)``.

    All four hold when ``N`` is Nijenhuis; the ``homomorphism`` clause fails
    at the ``t²`` coefficient exactly when ``obstruction`` does.
    """
    from .cohomology import Cochain, hochschild_d

    if validate:
        require_operator("Nijenhuis", N, alg)
    module = alg.module
    omega = BinaryOpTable.from_function(module, lambda a, b, w: _deformed_value(N, alg, a, b, w))

    d_omega = hochschild_d(Cochain(omega.table), alg, ConfBimodule.adjoint(alg))

    def cocycle_items():
        for names, _ in basis_tuples((module,) * 3):
            yield names, d_omega.entry(names)

    generator = check_structure(StructureBundle("assoc", {"star": omega}), cap=cap)

    t = Poly.var("t")

    def t_map(x: ModElem) -> ModElem:
        return x + t * N.apply(x)

    def homomorphism_items():
        for names, (a, b) in basis_tuples((module, module)):
            deformed = alg.mul(a, b, L1) + t * omega.value(a, b, L1)
            lhs = t_map(deformed)
            rhs = alg.mul(t_map(a), t_map(b), L1)
            yield names, lhs - rhs

    def obstruction_items():
        for names, (a, b) in basis_tuples((module, module)):
            res = N.apply(omega.value(a, b, L1)) - alg.mul(N.apply(a), N.apply(b), L1)
            yield names, res

    return DeformationVerdict(
        cocycle=residual_scan("deformation-cocycle", cocycle_items(), cap=cap),
        generator_associative=generator,
        homomorphism=residual_scan("deformation-homomorphism", homomorphism_items(), cap=cap),
        obstruction=residual_scan("deformation-obstruction", obstruction_items(), cap=cap),
    )
