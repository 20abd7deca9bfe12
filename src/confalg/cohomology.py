"""Composition brackets, derived brackets, and Maurer-Cartan checks on cochains.

An ``n``-cochain on a conformal algebra is a multilinear, sesquilinear map
with ``n`` arguments and ``n − 1`` weight parameters.
:class:`~confalg.confcore.Cochain` is a one-field view of a
:class:`~confalg.confcore.MultiTable` whose argument slots share one module:
arity, input and value modules are read from the table, and evaluation is
:func:`~confalg.confcore.eval_multilinear`, the composition of the table
with its arguments.  The arity is the degree in the graded Lie algebra, so
the brackets return cochains.  The view, :func:`multiplication_cochain`,
the Hochschild-style differential ``𝐝`` of a cochain valued in a bimodule
(:func:`hochschild_d`, with ``𝐝∘𝐝 = 0`` exactly) and the 2-cocycle test
:func:`is_cocycle` are defined in :mod:`confalg.confcore`, where the twisted
extensions and the operator checks read them, and imported here under the
same names.  Every differential, composition and bracket below is built from
:func:`~confalg.confcore.table_sum` of compositions of the input tables;
nothing is tabulated per basis tuple.  Each function checks the modules of
the cochains it reads with :func:`~confalg.confcore.require_shape`: a module
cochain ``f: Mⁿ → A`` (the lifts and both routes of the derived bracket), the
maps ``T: M → A`` of its closed form, a twist ``φ: A² → M``, and the
self-valued cochains of the composition product.
On top of that single representation this module provides:

* the differential :func:`o_complex_d` of the complex of an O-operator
  candidate, and the commutative cocycle test;
* the composition product ``f ∘ g`` and the graded bracket
  ``[f, g] = f∘g − (−1)^{(m−1)(n−1)} g∘f`` on cochains of an algebra
  valued in itself, for which ``[θ, θ] = 0`` characterizes associativity
  of a binary table ``θ`` and ``[θ, f] = (−1)^{n−1}𝐝f``;
* horizontal lifts of module cochains into the semidirect-sum algebra, each
  one :func:`~confalg.confcore.block` of the cochain's table in ``A ⊕ M``,
  and the derived bracket ``[[f, g]] = (−1)^m [[θ̂, f̂], ĝ]`` computed both
  through the lifts, reading its result back out of the blocks, and
  through its expanded direct formula (the two formulas are cross-checked
  against each other on every call);
* the Maurer-Cartan characterizations: a module map is an O-operator
  exactly when ``[[T, T]] = 0`` (equivalently, when its lift satisfies the
  same equation, or when its differential in the induced complex
  vanishes); perturbations ``T + T′`` of an O-operator are governed by
  ``[[T, T′]] + ½[[T′, T′]] = 0``; and twisted Rota-Baxter operators are
  characterized by the modified equation
  ``½[[T̂, T̂]] = −⅙[[[φ̂, T̂], T̂], T̂]``.

Weight bookkeeping in the bracket formulas follows one rule: when a
composition merges ``k`` consecutive arguments into one slot, that slot's
weight is the sum of the merged weights, and a last-slot composition drops
its weight (the output-∂ convention supplies it implicitly).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional, Union

from .confcore import (
    AXIOMS,
    WITNESS_CAP,
    Circ,
    Cochain,
    CochainFn,
    Composite,
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    ModElem,
    ModuleMap,
    MultiTable,
    Swap,
    Verdict,
    block,
    check_associative,
    circ,
    direct_sum,
    hochschild_d,
    is_cocycle,
    multiplication_cochain,
    require,
    require_over,
    require_shape,
    scan,
    semidirect,
    table_sum,
)
from .errors import ConfalgError, PreconditionFailed
from .operators import lift, require_module_map, require_operator, star_terms, verify_operator
from .derived import induced_bimodule_on_A
from .polyring import Poly, as_poly, lam

__all__ = [
    "Cochain",
    "CochainFn",
    "multiplication_cochain",
    "hochschild_d",
    "o_complex_d",
    "is_cocycle",
    "is_commutative_cocycle",
    "g_circle",
    "g_bracket",
    "lift_cochain",
    "lift_twisting_cochain",
    "derived_bracket",
    "derived_bracket_direct",
    "derived_bracket_via_lifts",
    "derived_binary",
    "maurer_cartan_check",
    "mc_perturbation_check",
    "modified_mc_check",
    "random_cochain",
]


def o_complex_d(phi: Cochain, T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule, twist=None) -> Cochain:
    """The differential of the complex attached to an O-operator candidate.

    This is :func:`hochschild_d` instantiated over the ⋆-product carried by
    the module and the induced actions on the algebra; no operator identity
    is assumed, so it can be applied to arbitrary maps.
    """
    induced = induced_bimodule_on_A(T, alg, bim, twist, validate=False)
    return hochschild_d(phi, induced.algebra, induced)


def is_commutative_cocycle(
    phi: Cochain, alg: ConfAlgebra, bim: ConfBimodule, cap: int = WITNESS_CAP
) -> Verdict:
    """Cocycle test plus the symmetry ``φ_λ(a, b) = φ_{−λ−∂}(b, a)``."""
    ((_, d),) = AXIOMS["cocycle"].families(phi, alg, bim)
    symmetry = table_sum([(1, phi.table), (-1, Swap(phi.table, 1, 2))])
    return scan("commutative-2-cocycle", [(("cocycle",), d), (("commutative",), symmetry)], cap)


def _circle_terms(f: Cochain, g: Cochain, scale: int = 1) -> list:
    """``scale·(f ∘ g)`` as table-sum terms: ``Σ (−1)^((i−1)(n−1)) f∘_i g``."""
    module = f.value_module
    for h in (f, g):
        require_shape(h.table, (module,) * h.arity, module, "a composed cochain")
    n, slots = g.arity, range(1, f.arity + 1)
    return [(scale * (-1) ** ((i - 1) * (n - 1)), Circ(f.table, i, g.table)) for i in slots]


def g_circle(f: Cochain, g: Cochain) -> Cochain:
    """The composition product of two self-valued cochains."""
    return Cochain(table_sum(_circle_terms(f, g)))


def g_bracket(f: Cochain, g: Cochain) -> Cochain:
    """The graded bracket ``[f, g] = f∘g − (−1)^{(m−1)(n−1)} g∘f``, as one table."""
    sign = (-1) ** ((f.arity - 1) * (g.arity - 1))
    return Cochain(table_sum(_circle_terms(f, g) + _circle_terms(g, f, -sign)))


def lift_cochain(f: Cochain, alg: ConfAlgebra, bim: ConfBimodule) -> Cochain:
    """Horizontal lift of ``f: Mⁿ → A`` to the direct sum ``A ⊕ M``.

    The lift is the block of ``f`` with module arguments and algebra values;
    it vanishes whenever any argument has no module part.
    """
    require_shape(f.table, (bim.module,) * f.arity, alg.module, "the module cochain")
    big, n = direct_sum(alg.module, bim.module), f.arity
    return Cochain(block(f.table, (big,) * n, big, (alg.rank,) * n, 0))


def lift_twisting_cochain(phi: Cochain, alg: ConfAlgebra, bim: ConfBimodule) -> Cochain:
    """Extend a 2-cochain ``φ: A² → M`` by zero to the direct sum ``A ⊕ M``."""
    require_shape(phi.table, (alg.module,) * 2, bim.module, "the twist")
    big = direct_sum(alg.module, bim.module)
    return Cochain(block(phi.table, (big, big), big, (0, 0), alg.rank))


def derived_bracket_direct(
    f: Cochain, g: Cochain, alg: ConfAlgebra, bim: ConfBimodule
) -> Cochain:
    """The derived bracket ``[[f, g]]`` by its expanded direct formula, as one table.

    With the product ``μ``, the actions ``l``, ``r`` and ``s = (−1)^(mn)``::

        s·(μ∘₁f)∘_(m+1)g − (μ∘₁g)∘_(n+1)f
        + Σ_(i≤m) (−1)^((i−1)n)·f∘_i(l∘₁g) − (−1)^(in)·f∘_i(r∘₂g)
        − s·Σ_(i≤n) (−1)^((i−1)m)·g∘_i(l∘₁f) − (−1)^(im)·g∘_i(r∘₂f)
    """
    for h in (f, g):
        require_shape(h.table, (bim.module,) * h.arity, alg.module, "the module cochain")
    require_over(alg, bim)
    m, n = f.arity, g.arity
    s, mu = (-1) ** (m * n), alg.table

    def inner_terms(outer: Cochain, inner: Cochain, sign: int) -> list:
        by_left, by_right = circ(bim.left, 1, inner.table), circ(bim.right, 2, inner.table)
        k, terms = inner.arity, []
        for i in range(1, outer.arity + 1):
            terms.append((sign * (-1) ** ((i - 1) * k), Circ(outer.table, i, by_left)))
            terms.append((-sign * (-1) ** (i * k), Circ(outer.table, i, by_right)))
        return terms

    terms = [
        (s, Circ(circ(mu, 1, f.table), m + 1, g.table)),
        (-1, Circ(circ(mu, 1, g.table), n + 1, f.table)),
    ]
    return Cochain(table_sum(terms + inner_terms(f, g, 1) + inner_terms(g, f, -s)))


def derived_bracket_via_lifts(
    f: Cochain, g: Cochain, alg: ConfAlgebra, bim: ConfBimodule
) -> Cochain:
    """``[[f, g]] = (−1)^m [[θ̂, f̂], ĝ]`` computed on the semidirect sum.

    The double bracket's stored entries on lifted arguments (the module
    block of every slot) are read back out with :func:`~confalg.confcore.block`:
    their module component must vanish (the lifted subspace is closed under
    the derived bracket) and the algebra component, scaled by ``(−1)^m``, is
    the bracket.
    """
    fh = lift_cochain(f, alg, bim)
    gh = lift_cochain(g, alg, bim)
    theta = multiplication_cochain(semidirect(alg, bim, validate=False))
    b2 = g_bracket(g_bracket(theta, fh), gh).table
    k, ra, M = b2.arity, alg.module.rank, bim.module
    if not block(b2, (M,) * k, M, (-ra,) * k, -ra).is_zero():
        raise ConfalgError("derived bracket left the lifted subspace")
    return Cochain(block(b2, (M,) * k, alg.module, (-ra,) * k, 0)).scale((-1) ** f.arity)


def derived_bracket(
    f: Cochain, g: Cochain, alg: ConfAlgebra, bim: ConfBimodule
) -> Cochain:
    """The derived bracket, computed by both formulas and cross-checked.

    A disagreement raises :class:`ConfalgError` naming the first basis tuple,
    in :func:`~confalg.confcore.basis_tuples` order, where the two differ.
    """
    direct = derived_bracket_direct(f, g, alg, bim)
    lifted = derived_bracket_via_lifts(f, g, alg, bim)
    if direct != lifted:
        difference = [((), [(1, direct.table), (-1, lifted.table)])]
        names = scan("derived-bracket", difference, cap=1).witnesses[0][0]
        raise ConfalgError(
            "derived bracket: direct formula and lifted computation disagree"
            f" at ({', '.join(names)})"
        )
    return direct


def derived_binary(T1: ModuleMap, T2: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule) -> Cochain:
    """Closed form of ``[[T₁, T₂]]`` for two module maps.

    ``[[T₁,T₂]](u, v) = T₁(T₂(u)v + u T₂(v)) + T₂(T₁(u)v + u T₁(v))
    − T₁(u) T₂(v) − T₂(u) T₁(v)`` with the bimodule actions inside and the
    algebra product outside: ``T₁∘₁⋆(T₂) + T₂∘₁⋆(T₁) − (m∘₁T₁)∘₂T₂ −
    (m∘₁T₂)∘₂T₁`` with ``⋆(T)`` the ⋆-product of :func:`~confalg.operators.star_terms`.
    """
    for T in (T1, T2):
        require_module_map("derived_binary", T, alg, bim)
    m, t1, t2 = alg.table, T1.table, T2.table
    terms = [
        (1, Circ(t1, 1, table_sum(star_terms(t2, bim.left, bim.right)))),
        (1, Circ(t2, 1, table_sum(star_terms(t1, bim.left, bim.right)))),
        (-1, Circ(circ(m, 1, t1), 2, t2)),
        (-1, Circ(circ(m, 1, t2), 2, t1)),
    ]
    return Cochain(table_sum(terms))


def _expected_hat_components(
    T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule
) -> MultiTable:
    """The induced actions and the ⋆-product, placed in the blocks of ``A ⊕ M``."""
    big, ra = direct_sum(alg.module, bim.module), alg.module.rank
    induced = induced_bimodule_on_A(T, alg, bim, validate=False)
    blocks = (
        (induced.right, (0, ra), 0),
        (induced.left, (ra, 0), 0),
        (induced.algebra.table, (ra, ra), ra),
    )
    return table_sum((1, block(t, (big, big), big, shifts, shift)) for t, shifts, shift in blocks)


def maurer_cartan_check(T: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule) -> Composite:
    """Check the Maurer-Cartan characterizations of an O-operator candidate.

    ``is_O`` is the structure-constant identity; the next three flags are
    the vanishing of the derived bracket ``[[T, T]]`` (direct formula), of
    its lift-based computation, and of the differential ``𝐝T`` in the
    induced complex.  When the map is an O-operator, the bracket ``[θ̂, T̂]``
    on the semidirect sum is itself an associative product whose components
    are the induced actions and the ⋆-product; the two ``hat_*`` flags report
    those checks, and are ``None`` otherwise.  The theorem says all six flags
    agree; ``consistent`` records that they did.
    """
    tc = Cochain.from_module_map(T)
    is_O = verify_operator("O", T, alg, bim, cap=1).holds
    derived_zero = derived_bracket_direct(tc, tc, alg, bim).is_zero()
    lifted_zero = derived_bracket_via_lifts(tc, tc, alg, bim).is_zero()
    differential_zero = o_complex_d(tc, T, alg, bim).is_zero()
    hat_assoc: Optional[bool] = None
    hat_match: Optional[bool] = None
    if is_O:
        ambient = semidirect(alg, bim, validate=False)
        theta = multiplication_cochain(ambient)
        that = Cochain.from_module_map(lift(T, alg, bim))
        hat = g_bracket(theta, that)
        hat_alg = ConfAlgebra(ambient.module, hat.table, "associative")
        hat_assoc = check_associative(hat_alg, cap=1).holds
        hat_match = hat.table == _expected_hat_components(T, alg, bim)
    clauses = {
        "is_O": is_O,
        "derived_bracket_zero": derived_zero,
        "lifted_bracket_zero": lifted_zero,
        "differential_zero": differential_zero,
        "hat_bracket_associative": hat_assoc,
        "hat_components_match": hat_match,
    }
    return Composite("maurer-cartan", clauses, agree=tuple(clauses))


def mc_perturbation_check(
    T: ModuleMap, T2: ModuleMap, alg: ConfAlgebra, bim: ConfBimodule
) -> Composite:
    """Decide whether perturbing an O-operator by ``T2`` stays an O-operator.

    ``sum_is_O`` states whether ``T + T′`` satisfies the O-operator
    identity; ``mc_zero`` whether ``[[T, T′]] + ½[[T′, T′]] = 0``; the
    theorem makes them equivalent, so they must agree.
    ``differential_relation`` confirms ``[[T, f]] = −𝐝f`` for the arity-1
    perturbation in the complex induced by ``T``, and must hold.
    """
    require_operator("O", T, alg, bim, origin="mc_perturbation_check")
    tc = Cochain.from_module_map(T)
    t2c = Cochain.from_module_map(T2)
    cross = derived_bracket(tc, t2c, alg, bim)
    square = derived_bracket(t2c, t2c, alg, bim)
    mc = cross + square.scale(Fraction(1, 2))
    sum_is_O = verify_operator("O", T + T2, alg, bim, cap=1).holds
    relation = cross == -o_complex_d(t2c, T, alg, bim)
    clauses = {"sum_is_O": sum_is_O, "mc_zero": mc.is_zero(), "differential_relation": relation}
    return Composite("mc-perturbation", clauses, agree=("sum_is_O", "mc_zero"))


def modified_mc_check(
    T: ModuleMap, phi: Cochain, alg: ConfAlgebra, bim: ConfBimodule
) -> Composite:
    """Check the bracket form of the twisted Rota-Baxter identity.

    ``is_twisted_rb`` is the structure-constant identity with the twisting
    cochain; ``bracket_identity`` states that ``−½·[[θ̂, T̂], T̂]`` equals
    ``⅙·[[[φ̂, T̂], T̂], T̂]`` on the semidirect sum, which is the modified
    Maurer-Cartan equation for the lifted operator.  The two must agree.
    """
    require_shape(phi.table, (alg.module,) * 2, bim.module, "the twist")
    require(is_cocycle(phi, alg, bim, cap=1), AXIOMS["cocycle"].error, "modified_mc_check")
    is_twisted = verify_operator("TwistedRB", T, alg, bim, twist=phi, cap=1).holds
    ambient = semidirect(alg, bim, validate=False)
    theta = multiplication_cochain(ambient)
    that = Cochain.from_module_map(lift(T, alg, bim))
    lhs = g_bracket(g_bracket(theta, that), that).scale(Fraction(-1, 2))
    phi_hat = lift_twisting_cochain(phi, alg, bim)
    rhs = g_bracket(g_bracket(g_bracket(phi_hat, that), that), that).scale(Fraction(1, 6))
    clauses = {"is_twisted_rb": is_twisted, "bracket_identity": lhs == rhs}
    return Composite("modified-mc", clauses, agree=tuple(clauses))


def random_cochain(
    rng: Union[random.Random, int],
    arity: int,
    input_module: FreeModule,
    value_module: FreeModule,
    max_degree: int = 2,
    density: float = 0.7,
) -> Cochain:
    """A random cochain with small integer coefficients.

    Entries are polynomials in ``D`` and the formal weights with
    per-variable degree at most ``max_degree``; each table component is
    nonzero with probability ``density``.  Passing an ``int`` seeds a fresh
    generator, so suites are reproducible.  A negative ``max_degree`` raises
    :class:`PreconditionFailed`.
    """
    if max_degree < 0:
        raise PreconditionFailed(f"the degree cap must not be negative, not {max_degree}")
    if isinstance(rng, int):
        rng = random.Random(rng)
    variables = ["D"] + [lam(k) for k in range(1, arity)]

    def rand_poly() -> Poly:
        total = Poly.zero()
        for _ in range(rng.randint(1, 2)):
            term = as_poly(rng.choice([-3, -2, -1, 1, 2, 3]))
            for name in variables:
                exp = rng.randint(0, max_degree)
                if exp:
                    term = term * Poly.var(name, exp)
            total = total + term
        return total

    entries = {}
    for idx in itertools.product(range(input_module.rank), repeat=arity):
        coeffs = [
            rand_poly() if rng.random() < density else Poly.zero()
            for _ in range(value_module.rank)
        ]
        elem = ModElem(value_module, tuple(coeffs))
        if not elem.is_zero():
            entries[idx] = elem
    return Cochain.from_entries(arity, input_module, value_module, entries)
