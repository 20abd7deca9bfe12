"""The cohomology engine, from cochains to Maurer-Cartan equations.

The storyline:

1. cochains are finite tables of polynomial-valued multilinear maps, and the
   differential squares to zero on any of them;
2. 2-cocycles certify infinitesimal deformations — we exhibit two;
3. cochains of all arities form a graded Lie algebra whose squares detect
   associativity, computed two independent ways that must agree;
4. an operator is an O-operator exactly when its 1-cochain solves the
   Maurer-Cartan equation in that graded Lie algebra — and perturbations
   and twisted variants fit the same machinery.

Run with:  python3 demos/cohomology_walkthrough.py
"""

from __future__ import annotations

import random

from confalg.cohomology import (
    Cochain,
    derived_bracket,
    derived_bracket_direct,
    derived_bracket_via_lifts,
    g_bracket,
    hochschild_d,
    is_cocycle,
    maurer_cartan_check,
    mc_perturbation_check,
    modified_mc_check,
    multiplication_cochain,
    random_cochain,
)
from confalg.confcore import ConfBimodule, cur
from confalg.operators import ModuleMap
from confalg.polyring import Poly

D, L1 = Poly.var("D"), Poly.var("L1")

DUAL = cur(("u", "v"), {("u", "u"): (1, 0), ("u", "v"): (0, 1), ("v", "u"): (0, 1)})
ADJ = ConfBimodule.adjoint(DUAL)
SHIFT = ModuleMap.from_images(DUAL.module, DUAL.module, {"u": DUAL.module.basis_elem(1), "v": DUAL.module.zero()})

NILP = cur(("a", "b"), {("a", "a"): (0, 1)})
NADJ = ConfBimodule.adjoint(NILP)
b = NILP.module.basis_elem(1)


def show(label: str, ok: bool) -> None:
    print(f"  [{'ok ' if ok else 'FAIL'}] {label}")


def main() -> int:
    print("-- the differential squares to zero --------------------------------")
    rng = random.Random(2026)
    for trial in range(6):
        arity = 1 + trial % 2
        phi = random_cochain(rng, arity, NILP.module, NILP.module)
        dd = hochschild_d(hochschild_d(phi, NILP, NADJ), NILP, NADJ)
        show(f"d(d(random {arity}-cochain #{trial})) = 0", dd.is_zero())

    print("\n-- 2-cocycles -------------------------------------------------------")
    # On the nilpotent algebra the table phi(a, a) = L1*b is a 2-cocycle.
    phi = Cochain.from_entries(2, NILP.module, NILP.module, {(0, 0): L1 * b})
    verdict = is_cocycle(phi, NILP, NADJ)
    show("phi(a, a) = L1*b is a 2-cocycle", verdict.holds)
    # The negated multiplication is a 2-cocycle on any associative algebra:
    # its differential is the associator defect, which vanishes.
    neg_mult = multiplication_cochain(DUAL).scale(-1)
    show("-multiplication is a 2-cocycle on the dual numbers",
         is_cocycle(neg_mult, DUAL, ADJ).holds)

    print("\n-- the graded Lie algebra of cochains --------------------------------")
    # The self-bracket of the multiplication is twice the associator, so it
    # vanishes iff the product is associative.
    theta = multiplication_cochain(DUAL)
    show("[m, m] = 0 because the product is associative",
         g_bracket(theta, theta).is_zero())
    # d itself is bracketing with the multiplication.
    psi = random_cochain(11, 2, DUAL.module, DUAL.module)
    show("[m, f] reproduces the differential up to sign",
         g_bracket(theta, psi) == hochschild_d(psi, DUAL, ADJ).scale(-1))

    print("\n-- derived brackets: two routes, one answer ---------------------------")
    # Module-valued cochains bracket through the semidirect sum.  The direct
    # closed-form route and the lift-then-bracket route must agree exactly.
    rng = random.Random(7)
    f = random_cochain(rng, 1, DUAL.module, DUAL.module)
    g = random_cochain(rng, 2, DUAL.module, DUAL.module)
    direct = derived_bracket_direct(f, g, DUAL, ADJ)
    lifted = derived_bracket_via_lifts(f, g, DUAL, ADJ)
    show("closed form equals lift-and-bracket", direct.table.entries == lifted.table.entries)
    both = derived_bracket(f, g, DUAL, ADJ)  # computes both and cross-checks
    show("the cross-checking wrapper agrees", both.table.entries == direct.table.entries)

    print("\n-- Maurer-Cartan equations -------------------------------------------")
    verdict = maurer_cartan_check(SHIFT, DUAL, ADJ)
    print("  shift operator: ", verdict.summary())
    show("O-operator <=> derived bracket zero <=> lifted square zero", verdict.holds)

    bad = ModuleMap.from_images(DUAL.module, DUAL.module,
                                {"u": DUAL.module.basis_elem(0), "v": DUAL.module.basis_elem(1) + D * DUAL.module.basis_elem(0)})
    verdict = maurer_cartan_check(bad, DUAL, ADJ)
    print("  broken operator:", verdict.summary())
    show("all four predicates fail together", verdict.consistent and not verdict.is_O)

    pert = mc_perturbation_check(SHIFT, SHIFT, DUAL, ADJ)
    print("  perturbing T by itself:", "T + T' is an O-operator" if pert.sum_is_O else "T + T' fails")
    show("perturbation <=> Maurer-Cartan in the twisted complex", pert.consistent)

    # Twisted operators solve a *modified* Maurer-Cartan equation instead.
    ident = ModuleMap.identity(DUAL.module)
    neg = multiplication_cochain(DUAL).scale(-1)
    mod = modified_mc_check(ident, neg, DUAL, ADJ)
    show("twisted Rota-Baxter <=> modified Maurer-Cartan",
         mod.is_twisted_rb and mod.bracket_identity)

    print("\nall cohomological identities verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
