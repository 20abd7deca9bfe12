"""Shared fixtures for the test suite.

Canonical small structures used across the tests: the rank-2 current algebra
of the dual numbers, the rank-2 nilpotent current algebra, and a family of
module maps (shift, swap, projection, derivations, the invertible operator
pair on the nilpotent algebra), and the conversions of polynomials, tables and
maps to the sympy form of ``tests/_oracle.py``.  Everything here is immutable,
so module-level constants are safe to share between test files.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy as sp

from confalg.confcore import (
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    MultiTable,
    cur,
)
from confalg.operators import ModuleMap
from confalg.polyring import Poly

D = Poly.var("D")
L1 = Poly.var("L1")
L2 = Poly.var("L2")
L3 = Poly.var("L3")

# -- the two canonical current algebras --------------------------------------

# dual numbers: u·u = u, u·v = v·u = v, v·v = 0
DUAL = cur(("u", "v"), {("u", "u"): (1, 0), ("u", "v"): (0, 1), ("v", "u"): (0, 1)})
AM = DUAL.module
u, v = AM.basis_elem(0), AM.basis_elem(1)
ADJ = ConfBimodule.adjoint(DUAL)

# nilpotent square: a·a = b, all other products 0
NILP = cur(("a", "b"), {("a", "a"): (0, 1)})
NM = NILP.module
a, b = NM.basis_elem(0), NM.basis_elem(1)
NADJ = ConfBimodule.adjoint(NILP)

# -- module maps on the dual numbers ------------------------------------------

SHIFT = ModuleMap.from_images(AM, AM, {"u": v, "v": AM.zero()})
SWAP = ModuleMap.from_images(AM, AM, {"u": v, "v": u})
PROJ = ModuleMap.from_images(AM, AM, {"u": u, "v": AM.zero()})
REFLECT = ModuleMap.from_images(AM, AM, {"u": u, "v": -v})
IDENT = ModuleMap.identity(AM)
ZERO_MAP = ModuleMap.zero(AM, AM)
# derivation of the dual numbers: u -> D v, v -> 0
DDER = ModuleMap.from_images(AM, AM, {"u": D * v, "v": AM.zero()})

# -- module maps on the nilpotent algebra -------------------------------------

NILP_DER = ModuleMap.from_images(NM, NM, {"a": b, "b": NM.zero()})
NILP_T2 = ModuleMap.from_images(NM, NM, {"a": 2 * a, "b": b})
NILP_T1 = ModuleMap.from_images(NM, NM, {"a": 2 * a + b, "b": b})
NILP_T1BAD = ModuleMap.from_images(NM, NM, {"a": NM.zero(), "b": b})
NILP_IDENT = ModuleMap.identity(NM)


# -- cochains ------------------------------------------------------------------


def nilp_cocycle():
    """The 2-cocycle phi(a, a) = L1 * b on the nilpotent adjoint bimodule."""
    from confalg.cohomology import Cochain

    return Cochain.from_entries(2, NM, NM, {(0, 0): L1 * b})


def neg_mult():
    """The commutative 2-cocycle phi = -(product) on the dual numbers."""
    from confalg.cohomology import Cochain

    return Cochain.from_entries(
        2, AM, AM, {key: -val for key, val in DUAL.table.entries.items()}
    )


# -- randomized inputs ---------------------------------------------------------


def rand_poly(rng: random.Random, names=("D",), max_terms=2, max_deg=2) -> Poly:
    total = Poly.zero()
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
        term = Poly.const(coeff)
        for name in names:
            term = term * Poly.var(name) ** rng.randint(0, max_deg)
        total = total + term
    return total


def rand_elem(rng: random.Random, module: FreeModule, names=("D",)):
    return module.elem(
        tuple(
            rand_poly(rng, names) if rng.random() < 0.75 else Poly.zero()
            for _ in range(module.rank)
        )
    )


def rand_map(rng: random.Random, module: FreeModule) -> ModuleMap:
    return ModuleMap.from_images(
        module,
        module,
        {name: rand_elem(rng, module) for name in module.basis},
    )


def unimodular_map(rng: random.Random, module: FreeModule) -> ModuleMap:
    """A dense map ``U∘L`` of determinant 1: unitriangular factors, random entries in Q[D]."""
    r = module.rank

    def triangular(upper: bool) -> ModuleMap:
        return ModuleMap.from_images(module, module, {
            j: module.elem(tuple(
                Poly.one() if i == j else rand_poly(rng) if (i < j) == upper else Poly.zero()
                for i in range(r)
            ))
            for j in range(r)
        })

    return triangular(True).compose(triangular(False))


def rand_table(rng: random.Random, module: FreeModule, names=("D", "L1")) -> MultiTable:
    entries = {}
    for i in range(module.rank):
        for j in range(module.rank):
            value = rand_elem(rng, module, names)
            if not value.is_zero():
                entries[(i, j)] = value
    return MultiTable((module, module), module, entries)


# -- sympy conversions for the oracle ---------------------------------------------


def sym(p: Poly):
    """``p`` as a sympy expression in the same variable names."""
    return sum(
        (
            sp.Rational(c.numerator, c.denominator)
            * sp.Mul(*(sp.Symbol(name) ** exp for name, exp in mono))
            for mono, c in p.items()
        ),
        sp.Integer(0),
    )


def sym_vec(elem):
    return tuple(sym(c) for c in elem.coeffs)


def sym_table(table):
    return {idx: sym_vec(e) for idx, e in table.entries.items()}


def sym_map(T):
    return [sym_vec(T.apply(e)) for e in T.source.basis_elems()]


def assert_oracle_table(table, expected: dict) -> None:
    """``table`` has the oracle's entries: the same index tuples, equal values."""
    got = sym_table(table)
    assert set(got) == set(expected)
    for idx, vec in expected.items():
        assert all(sp.expand(c - e) == 0 for c, e in zip(got[idx], vec)), idx


def assert_raises_exactly(error, message: str, fn, *args) -> None:
    """``fn(*args)`` raises an instance of exactly ``error`` whose text is ``message``."""
    with pytest.raises(error) as caught:
        fn(*args)
    assert type(caught.value) is error
    assert str(caught.value) == message
