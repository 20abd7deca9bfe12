"""C[∂]-module maps and the operator-identity checkers.

A :class:`ModuleMap` is a C[∂]-linear map between free modules, stored as a
matrix of polynomials in ``D`` (∂ on the output).  :func:`verify_operator`
expands one of the supported operator identities on all basis pairs of the
map's source and reports the failing pairs:

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

The remaining operations package the standard constructions: compatibility
of two operators, the square-zero lift of an O-operator to the semidirect
algebra, the graph-closure criterion, the geometric series inverting
``id + d`` for a nilpotent derivation, the quotient of two O-operators, and
the Nijenhuis/O composites of an O-operator with a derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence, Tuple, Union

from .confcore import (
    D,
    L1,
    WITNESS_CAP,
    ConfAlgebra,
    ConfBimodule,
    EntryLike,
    FreeModule,
    LieRep,
    ModElem,
    Verdict,
    _elem,
    _sum_module,
    basis_tuples,
    residual_scan,
    semidirect,
    twisted_extension,
)
from .errors import (
    InvalidEntry,
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
from .polyring import Poly, PolyLike, as_poly

KINDS = (
    "O",
    "RotaBaxter",
    "TwistedRB",
    "Nijenhuis",
    "NijenhuisLie",
    "Reynolds",
    "Derivation",
    "OLie",
)


@dataclass(frozen=True)
class ModuleMap:
    """A C[∂]-linear map, as a target-rank × source-rank matrix over C[D].

    Entry ``matrix[i][j]`` is the coefficient of the i-th target basis
    element in the image of the j-th source basis element.  Entries may use
    ``D`` only; weight variables and auxiliary parameters are rejected, so a
    map always commutes with multiplication by arbitrary coefficients.  A
    map is immutable, and so are the elements it returns: the image of the
    j-th basis element is one column element, made on first use and then
    shared.
    """

    source: FreeModule
    target: FreeModule
    matrix: Tuple[Tuple[Poly, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(as_poly(c) for c in row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        if len(rows) != self.target.rank or any(
            len(row) != self.source.rank for row in rows
        ):
            raise ShapeMismatch(
                f"matrix must be {self.target.rank}×{self.source.rank} for "
                f"{self.source} -> {self.target}"
            )
        for row in rows:
            for c in row:
                bad = c.variables() - {"D"}
                if bad:
                    raise InvalidEntry(
                        f"module-map entries may only use D, got {sorted(bad)}"
                    )

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_images(
        cls,
        source: FreeModule,
        target: FreeModule,
        images: Mapping[Union[int, str], EntryLike],
    ) -> "ModuleMap":
        """Build a map from the images of (some of) the source basis elements."""
        columns = [[Poly.zero()] * target.rank for _ in range(source.rank)]
        for key, raw in images.items():
            j = source.index(key)
            image = raw if isinstance(raw, ModElem) else target.elem(raw)
            if image.module != target:
                raise ModuleMismatch(f"image of {key!r} lives in {image.module}")
            columns[j] = list(image.coeffs)
        matrix = tuple(
            tuple(columns[j][i] for j in range(source.rank)) for i in range(target.rank)
        )
        return cls(source, target, matrix)

    @classmethod
    def identity(cls, module: FreeModule) -> "ModuleMap":
        r = module.rank
        return cls(
            module,
            module,
            tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r)),
        )

    @classmethod
    def zero(cls, source: FreeModule, target: Optional[FreeModule] = None) -> "ModuleMap":
        target = target if target is not None else source
        return cls(source, target, tuple((0,) * source.rank for _ in range(target.rank)))

    # -- algebra of maps -----------------------------------------------------

    def apply(self, x: ModElem) -> "ModElem":
        """The image of ``x``; the image of a basis element is its shared column."""
        if x.module is not self.source and x.module != self.source:
            raise ModuleMismatch(f"argument lives in {x.module}, expected {self.source}")
        j = x.unit_index
        if j is not None:
            return self._columns[j]
        coeffs = []
        for i in range(self.target.rank):
            acc = Poly.zero()
            for j, c in x.support():
                acc = acc + self.matrix[i][j] * c
            coeffs.append(acc)
        return ModElem(self.target, tuple(coeffs))

    @cached_property
    def _columns(self) -> Tuple[ModElem, ...]:
        return tuple(
            _elem(self.target, tuple(row[j] for row in self.matrix))
            for j in range(self.source.rank)
        )

    def compose(self, inner: "ModuleMap") -> "ModuleMap":
        """The composite ``self ∘ inner`` (apply ``inner`` first)."""
        if inner.target != self.source:
            raise ModuleMismatch("composition shapes do not match")
        rows = []
        for i in range(self.target.rank):
            row = []
            for j in range(inner.source.rank):
                acc = Poly.zero()
                for k in range(self.source.rank):
                    acc = acc + self.matrix[i][k] * inner.matrix[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return ModuleMap(inner.source, self.target, tuple(rows))

    def power(self, n: int) -> "ModuleMap":
        if self.source != self.target:
            raise ShapeMismatch("powers need an endomorphism")
        if n < 0:
            raise ValueError("negative power")
        result = ModuleMap.identity(self.source)
        for _ in range(n):
            result = self.compose(result)
        return result

    def _require_same_shape(self, other: "ModuleMap") -> None:
        if (self.source, self.target) != (other.source, other.target):
            raise ModuleMismatch("maps with different shapes")

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        self._require_same_shape(other)
        return ModuleMap(
            self.source,
            self.target,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.matrix, other.matrix)
            ),
        )

    def __neg__(self) -> "ModuleMap":
        return self.scale(-1)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return self + (-other)

    def scale(self, factor: PolyLike) -> "ModuleMap":
        f = as_poly(factor)
        return ModuleMap(
            self.source,
            self.target,
            tuple(tuple(c * f for c in row) for row in self.matrix),
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.matrix for c in row)

    def det(self) -> Poly:
        if self.source != self.target:
            raise ShapeMismatch("determinant needs an endomorphism")
        return _det(self.matrix)

    def inverse(self) -> "ModuleMap":
        """The inverse map; requires the determinant to be a nonzero scalar."""
        d = self.det()
        if d.is_zero() or d.variables():
            raise NotInvertible(f"determinant {d} is not a nonzero scalar")
        scalar = d.constant_term()
        r = self.source.rank
        cof = [
            [
                _det(_minor(self.matrix, i, j)) * ((-1) ** (i + j))
                for j in range(r)
            ]
            for i in range(r)
        ]
        adjugate = tuple(tuple(cof[j][i] for j in range(r)) for i in range(r))
        return ModuleMap(
            self.target,
            self.source,
            tuple(tuple(c * (1 / scalar) for c in row) for row in adjugate),
        )


def _minor(matrix: Sequence[Sequence[Poly]], i: int, j: int) -> Tuple[Tuple[Poly, ...], ...]:
    return tuple(
        tuple(c for jj, c in enumerate(row) if jj != j)
        for ii, row in enumerate(matrix)
        if ii != i
    )


def _det(matrix: Sequence[Sequence[Poly]]) -> Poly:
    n = len(matrix)
    if n == 0:
        return Poly.one()
    if n == 1:
        return matrix[0][0]
    acc = Poly.zero()
    for j in range(n):
        c = matrix[0][j]
        if c.is_zero():
            continue
        acc = acc + c * _det(_minor(matrix, 0, j)) * ((-1) ** j)
    return acc


# -- operator identities -----------------------------------------------------


def _require_endo(T: ModuleMap, alg: ConfAlgebra, kind: str) -> None:
    if T.source != alg.module or T.target != alg.module:
        raise ShapeMismatch(f"{kind} needs an endomorphism of the algebra module")


def _require_mod_to_alg(T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, kind: str) -> None:
    if bim is None:
        raise ShapeMismatch(f"{kind} needs a bimodule")
    if bim.algebra != alg:
        raise ShapeMismatch("the bimodule was built over a different algebra")
    if T.source != bim.module or T.target != alg.module:
        raise ShapeMismatch(f"{kind} needs a map from the module into the algebra")


def o_residual(
    T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, m: ModElem, n: ModElem
) -> ModElem:
    """``T(m) T(n) − T( T(m)·n + m·T(n) )`` at weight L1, valued in the algebra."""
    tm, tn = T.apply(m), T.apply(n)
    inner = bim.act_left(tm, n, L1) + bim.act_right(m, tn, L1)
    return alg.mul(tm, tn, L1) - T.apply(inner)


def verify_operator(
    kind: str,
    T: ModuleMap,
    alg: ConfAlgebra,
    bim: Optional[ConfBimodule] = None,
    *,
    weight: PolyLike = 0,
    twist=None,
    rep: Optional[LieRep] = None,
    cap: int = WITNESS_CAP,
) -> Verdict:
    """Check one operator identity on every basis pair of the map's source.

    ``weight`` carries the Rota-Baxter weight q (a scalar or auxiliary
    parameter), ``twist`` the 2-cocycle of the twisted identity, and ``rep``
    the Lie representation of the ``OLie`` identity.  The verdict's identity
    name is the ``kind`` string.
    """
    if kind not in KINDS:
        raise PreconditionFailed(f"unknown operator kind {kind!r}; expected one of {KINDS}")

    if kind == "O":
        _require_mod_to_alg(T, alg, bim, kind)

        def items():
            for names, (m, n) in basis_tuples((bim.module, bim.module)):
                yield names, o_residual(T, alg, bim, m, n)

    elif kind == "RotaBaxter":
        _require_endo(T, alg, kind)
        q = as_poly(weight)

        def items():
            for names, (a, b) in basis_tuples((alg.module, alg.module)):
                ta, tb = T.apply(a), T.apply(b)
                inner = alg.mul(ta, b, L1) + alg.mul(a, tb, L1) + alg.mul(a, b, L1) * q
                yield names, alg.mul(ta, tb, L1) - T.apply(inner)

    elif kind == "TwistedRB":
        _require_mod_to_alg(T, alg, bim, kind)
        if twist is None:
            raise ShapeMismatch("TwistedRB needs twist= (a 2-cocycle into the module)")
        from .cohomology import is_cocycle

        cocycle = is_cocycle(twist, alg, bim)
        if not cocycle.holds:
            raise NotCocycle(cocycle.summary())

        def items():
            for names, (m, n) in basis_tuples((bim.module, bim.module)):
                tm, tn = T.apply(m), T.apply(n)
                inner = (
                    bim.act_left(tm, n, L1)
                    + bim.act_right(m, tn, L1)
                    + twist.eval((tm, tn), (L1,))
                )
                yield names, alg.mul(tm, tn, L1) - T.apply(inner)

    elif kind in ("Nijenhuis", "NijenhuisLie"):
        if kind == "NijenhuisLie" and alg.flavor != "lie":
            raise ShapeMismatch("NijenhuisLie needs a lie-flavored algebra")
        if kind == "Nijenhuis" and alg.flavor != "associative":
            raise ShapeMismatch("Nijenhuis needs an associative-flavored algebra")
        _require_endo(T, alg, kind)

        def items():
            for names, (a, b) in basis_tuples((alg.module, alg.module)):
                na, nb = T.apply(a), T.apply(b)
                inner = alg.mul(na, b, L1) + alg.mul(a, nb, L1) - T.apply(alg.mul(a, b, L1))
                yield names, alg.mul(na, nb, L1) - T.apply(inner)

    elif kind == "Reynolds":
        _require_endo(T, alg, kind)

        def items():
            for names, (a, b) in basis_tuples((alg.module, alg.module)):
                ra, rb = T.apply(a), T.apply(b)
                cross = alg.mul(ra, rb, L1)
                inner = alg.mul(ra, b, L1) + alg.mul(a, rb, L1) - cross
                yield names, cross - T.apply(inner)

    elif kind == "Derivation":
        acting = bim if bim is not None else ConfBimodule.adjoint(alg)
        if acting.algebra != alg:
            raise ShapeMismatch("the bimodule was built over a different algebra")
        if T.source != alg.module or T.target != acting.module:
            raise ShapeMismatch("Derivation needs a map from the algebra into the module")

        def items():
            for names, (a, b) in basis_tuples((alg.module, alg.module)):
                res = (
                    T.apply(alg.mul(a, b, L1))
                    - acting.act_right(T.apply(a), b, L1)
                    - acting.act_left(a, T.apply(b), L1)
                )
                yield names, res

    else:  # OLie
        if rep is None:
            raise ShapeMismatch("OLie needs rep= (a Lie representation)")
        if alg.flavor != "lie" or rep.lie != alg:
            raise ShapeMismatch("OLie needs the representation's own Lie algebra")
        if T.source != rep.module or T.target != alg.module:
            raise ShapeMismatch("OLie needs a map from the representation module")

        def items():
            for names, (u, v) in basis_tuples((rep.module, rep.module)):
                tu, tv = T.apply(u), T.apply(v)
                inner = rep.act(tu, v, L1) - rep.act(tv, u, -L1 - D)
                yield names, alg.mul(tu, tv, L1) - T.apply(inner)

    return residual_scan(kind, items(), cap)


# -- compatibility -----------------------------------------------------------


def compatible_O(
    T1: ModuleMap,
    T2: ModuleMap,
    alg: ConfAlgebra,
    bim: ConfBimodule,
    cap: int = WITNESS_CAP,
) -> Verdict:
    """Whether the sum of two O-operators is again one.

    Residual: ``T1(m)T2(n) + T2(m)T1(n) − T1(T2(m)·n + m·T2(n)) −
    T2(T1(m)·n + m·T1(n))`` on all basis pairs, which is exactly the
    cross-term of the O-identity of T1+T2.
    """
    for T in (T1, T2):
        if not verify_operator("O", T, alg, bim, cap=1).holds:
            raise NotOOperator("compatible_O needs two verified O-operators")

    def items():
        for names, (m, n) in basis_tuples((bim.module, bim.module)):
            t1m, t1n = T1.apply(m), T1.apply(n)
            t2m, t2n = T2.apply(m), T2.apply(n)
            res = (
                alg.mul(t1m, t2n, L1)
                + alg.mul(t2m, t1n, L1)
                - T1.apply(bim.act_left(t2m, n, L1) + bim.act_right(m, t2n, L1))
                - T2.apply(bim.act_left(t1m, n, L1) + bim.act_right(m, t1n, L1))
            )
            yield names, res

    return residual_scan("compatible-O", items(), cap)


def compatible_nijenhuis(
    N1: ModuleMap, N2: ModuleMap, alg: ConfAlgebra, cap: int = WITNESS_CAP
) -> Verdict:
    """Whether the sum of two Nijenhuis operators is again one.

    Residual: ``N1(a)N2(b) + N2(a)N1(b) − N1(a ∘^{N2} b) − N2(a ∘^{N1} b)``
    with ``a ∘^N b = N(a)b + aN(b) − N(ab)``.
    """
    for N in (N1, N2):
        if not verify_operator("Nijenhuis", N, alg, cap=1).holds:
            raise NotNijenhuis("compatible_nijenhuis needs two verified Nijenhuis operators")

    def deformed(N: ModuleMap, a: ModElem, b: ModElem) -> ModElem:
        return (
            alg.mul(N.apply(a), b, L1)
            + alg.mul(a, N.apply(b), L1)
            - N.apply(alg.mul(a, b, L1))
        )

    def items():
        for names, (a, b) in basis_tuples((alg.module, alg.module)):
            res = (
                alg.mul(N1.apply(a), N2.apply(b), L1)
                + alg.mul(N2.apply(a), N1.apply(b), L1)
                - N1.apply(deformed(N2, a, b))
                - N2.apply(deformed(N1, a, b))
            )
            yield names, res

    return residual_scan("compatible-Nijenhuis", items(), cap)


# -- constructions -----------------------------------------------------------


def lift(T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule) -> ModuleMap:
    """The square-zero lift ``(a, m) ↦ (T(m), 0)`` to the semidirect module."""
    _require_mod_to_alg(T, alg, bim, "lift")
    big = _sum_module(alg.module, bim.module, "a_", "m_")
    ra, rm = alg.rank, bim.module.rank
    zero = Poly.zero()
    rows = []
    for i in range(ra):
        rows.append(tuple([zero] * ra) + tuple(T.matrix[i][u] for u in range(rm)))
    for _ in range(rm):
        rows.append((zero,) * (ra + rm))
    return ModuleMap(big, big, tuple(rows))


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
    _require_mod_to_alg(T, alg, bim, "graph_check")
    ext = (
        semidirect(alg, bim)
        if phi is None
        else twisted_extension(alg, bim, phi)
    )
    ra = alg.rank

    def point(u: ModElem) -> ModElem:
        tu = T.apply(u)
        return ext.module.elem(tuple(tu.coeffs) + tuple(u.coeffs))

    def items():
        for names, (u, v) in basis_tuples((bim.module, bim.module)):
            z = ext.mul(point(u), point(v), L1)
            a_part = alg.module.elem(z.coeffs[:ra])
            m_part = bim.module.elem(z.coeffs[ra:])
            yield names, a_part - T.apply(m_part)

    return residual_scan("graph-closure", items(), cap)


def reynolds_from_derivation(
    d: ModuleMap, alg: ConfAlgebra, bound: int
) -> ModuleMap:
    """The geometric series ``R = Σ (−1)ⁿ dⁿ`` of a nilpotent derivation.

    ``d`` must be a derivation of the algebra into itself with ``d^k = 0``
    for some ``k ≤ bound``; the finite sum then inverts ``id + d`` and is a
    Reynolds operator.
    """
    _require_endo(d, alg, "reynolds_from_derivation")
    if not verify_operator("Derivation", d, alg, cap=1).holds:
        raise NotDerivation("reynolds_from_derivation needs a derivation")
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
        if not verify_operator("O", T, alg, bim, cap=1).holds:
            raise NotOOperator("nijenhuis_from_O_pair needs two verified O-operators")
    return T1.compose(T2.inverse())


def induced_left_value(
    T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, m: ModElem, a: ModElem, w: PolyLike
) -> ModElem:
    """The induced action ``m · a = T(m) a − T(m a)`` of the module on the algebra."""
    return alg.mul(T.apply(m), a, w) - T.apply(bim.act_right(m, a, w))


def induced_right_value(
    T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, a: ModElem, m: ModElem, w: PolyLike
) -> ModElem:
    """The induced action ``a · m = a T(m) − T(a m)`` of the module on the algebra."""
    return alg.mul(a, T.apply(m), w) - T.apply(bim.act_left(a, m, w))


def star_value(
    T: ModuleMap, bim: ConfBimodule, m: ModElem, n: ModElem, w: PolyLike
) -> ModElem:
    """The product ``m ⋆ n = T(m)·n + m·T(n)`` carried by the module."""
    return bim.act_left(T.apply(m), n, w) + bim.act_right(m, T.apply(n), w)


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
    if not verify_operator("O", T, alg, bim, cap=1).holds:
        raise PreconditionFailed("derivation_composites: T fails the O-operator identity")
    if not verify_operator("Derivation", omega, alg, bim, cap=1).holds:
        raise PreconditionFailed("derivation_composites: Ω fails the Leibniz identity")

    def compat_items():
        for names, (a, b) in basis_tuples((alg.module, alg.module)):
            oa, ob = omega.apply(a), omega.apply(b)
            res = star_value(T, bim, oa, ob, L1) - omega.apply(
                induced_left_value(T, alg, bim, oa, b, L1)
                + induced_right_value(T, alg, bim, a, ob, L1)
            )
            yield names, res

    compat = residual_scan("derivation-star-compatibility", compat_items(), cap=1)
    if not compat.holds:
        raise PreconditionFailed(
            "derivation_composites: Ω(a)⋆Ω(b) = Ω(Ω(a)·b + a·Ω(b)) fails; "
            + compat.summary()
        )
    nij = verify_operator("Nijenhuis", T.compose(omega), alg, cap=cap)
    second = verify_operator("O", T.compose(omega).compose(T), alg, bim, cap=cap)
    return nij, second
