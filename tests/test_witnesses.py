"""Every failing residual scan keeps its witnesses: names, residual text and order.

Each case is a failing input of one checker, scanned at cap 16.  The
expected witnesses are frozen literals, so a change to how a checker forms
or orders its residual families shows here.  ``extension_iso`` holds on
every input it accepts (its identity needs neither the bimodule axioms nor
the cocycle condition), so its case pins the holding verdict.
"""

from __future__ import annotations

import pytest

from confalg.cohomology import Cochain, is_commutative_cocycle
from confalg.confcore import (
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    LieRep,
    MultiTable,
    check_bimodule,
    check_lie,
    check_lie_rep,
    extension_iso,
)
from confalg.derived import deformation_check
from confalg.operators import ModuleMap, graph_check
from helpers import ADJ, AM, D, DUAL, L1, SWAP, u, v

#: a bimodule candidate over the dual numbers: the left action shifts by D, the right by L1
BAD_BIM = ConfBimodule.build(
    DUAL, AM, {(0, 0): u, (0, 1): D * v, (1, 0): v}, {(0, 0): u, (0, 1): v, (1, 0): L1 * v}
)
#: a table that is neither skew nor Jacobi as a bracket, nor associative as a product
TWISTED = {(0, 0): L1 * v, (0, 1): u, (1, 0): v}
VIR = FreeModule(("L",))
W = FreeModule(("w", "x"))
w, x = W.basis_elems()


def _lie_rep():
    vir = ConfAlgebra.lie(VIR, {(0, 0): VIR.elem([D + 2 * L1])})
    action = MultiTable((VIR, W), W, {(0, 0): L1 * x, (0, 1): (D + L1) * w})
    return check_lie_rep(LieRep(vir, W, action), cap=16)


def _commutative_cocycle():
    phi = Cochain.from_entries(2, AM, AM, {(0, 0): L1 * u, (0, 1): v, (1, 1): D * u})
    return is_commutative_cocycle(phi, DUAL, ADJ, cap=16)


def _extension_iso():
    h = ModuleMap.from_images(AM, AM, {"u": v, "v": D * u})
    return extension_iso(DUAL, BAD_BIM, Cochain.from_entries(2, AM, AM, {}), h).verdict


def _deformation(clause):
    nonassociative = ConfAlgebra(AM, ConfAlgebra.associative(AM, TWISTED).table, "associative")
    return lambda: getattr(deformation_check(SWAP, nonassociative, validate=False, cap=16), clause)


CASES = {
    "bimodule": lambda: check_bimodule(DUAL, BAD_BIM, cap=16),
    "lie": lambda: check_lie(ConfAlgebra.lie(AM, TWISTED, check_skew=False), cap=16),
    "lie-representation": _lie_rep,
    "commutative-2-cocycle": _commutative_cocycle,
    "graph-closure": lambda: graph_check(SWAP, DUAL, ADJ, cap=16),
    "extension-iso": _extension_iso,
    "deformation-cocycle": _deformation("cocycle"),
    "deformation-homomorphism": _deformation("homomorphism"),
    "deformation-obstruction": _deformation("obstruction"),
}

#: case -> (verdict identity, [(witness names, residual text)] in scan order)
PINNED = {
    "bimodule": ("bimodule", [
        (("left-module", "u", "u", "v"), "(-D^2 - D*L1 + D)*v"),
        (("left-module", "u", "v", "u"), "(-D + 1)*v"),
        (("right-module", "u", "v", "u"), "(L1 + L2 - 1)*v"),
        (("right-module", "v", "u", "u"), "(L1^2 + L1*L2 - L1)*v"),
        (("compatibility", "u", "u", "v"), "(-D + 1)*v"),
        (("compatibility", "u", "v", "u"), "(-D*L2 - L1^2 - 2*L1*L2 - L2^2)*v"),
        (("compatibility", "v", "u", "u"), "(L1 + L2 - 1)*v"),
    ]),
    "lie": ("lie", [
        (("skew", "u", "u"), "(-D)*v"),
        (("skew", "u", "v"), "u + v"),
        (("skew", "v", "u"), "u + v"),
        (("jacobi", "u", "u", "u"), "(-L1 + L2)*u + (-L1)*v"),
        (("jacobi", "u", "u", "v"), "(L1 - L2)*v"),
        (("jacobi", "u", "v", "u"), "u + (-L1 - L2)*v"),
        (("jacobi", "u", "v", "v"), "-1*u + -1*v"),
        (("jacobi", "v", "u", "u"), "-1*u + -1*v"),
        (("jacobi", "v", "u", "v"), "v"),
    ]),
    "lie-representation": ("lie-representation", [
        (("L", "L", "w"), "(-D*L1 + D*L2)*w + (-L1^2 + L2^2)*x"),
        (("L", "L", "x"), "(-D*L1 + D*L2 - L1^2 + L2^2)*w + (D*L1 - D*L2 + L1^2 - L2^2)*x"),
    ]),
    "commutative-2-cocycle": ("commutative-2-cocycle", [
        (("cocycle", "u", "u", "u"), "(-L1)*u"),
        (("cocycle", "u", "u", "v"), "(-L1 + 1)*v"),
        (("cocycle", "u", "v", "v"), "(L1)*u"),
        (("cocycle", "v", "u", "u"), "(L2)*v"),
        (("cocycle", "v", "v", "u"), "(D + L1 + L2)*u"),
        (("cocycle", "v", "v", "v"), "(D + 2*L1 + L2)*v"),
        (("commutative", "u", "u"), "(D + 2*L1)*u"),
        (("commutative", "u", "v"), "v"),
        (("commutative", "v", "u"), "-1*v"),
    ]),
    "graph-closure": ("graph-closure", [
        (("u", "u"), "-2*u"),
        (("v", "v"), "-1*u"),
    ]),
    "extension-iso": ("extension-iso", []),
    "deformation-cocycle": ("deformation-cocycle", [
        (("u", "u", "u"), "(L1 + 1)*u + (-2*L2 - 1)*v"),
        (("u", "u", "v"), "(-L1 + L2 - 1)*u + (-L1 + 1)*v"),
        (("u", "v", "u"), "(L1 + 2*L2 - 1)*u + (-L1 - 1)*v"),
        (("u", "v", "v"), "u + (-L2 + 1)*v"),
        (("v", "u", "u"), "(L2 + 1)*u + (-L1 + 1)*v"),
        (("v", "u", "v"), "-1*u + (L1 - 1)*v"),
        (("v", "v", "u"), "u + (-L1 - L2 - 1)*v"),
        (("v", "v", "v"), "-1*u + v"),
    ]),
    "deformation-homomorphism": ("deformation-homomorphism", [
        (("u", "u"), "(t^2)*u + (-L1*t^2 + t^2)*v"),
        (("u", "v"), "(L1*t^2 - t^2)*u + (-t^2)*v"),
        (("v", "u"), "(L1*t^2 - t^2)*u + (-t^2)*v"),
        (("v", "v"), "(t^2)*u + (-L1*t^2 + t^2)*v"),
    ]),
    "deformation-obstruction": ("deformation-obstruction", [
        (("u", "u"), "u + (-L1 + 1)*v"),
        (("u", "v"), "(L1 - 1)*u + -1*v"),
        (("v", "u"), "(L1 - 1)*u + -1*v"),
        (("v", "v"), "u + (-L1 + 1)*v"),
    ]),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_failing_scan_keeps_its_witnesses_in_order(case: str) -> None:
    verdict = CASES[case]()
    identity, witnesses = PINNED[case]
    assert verdict.identity == identity
    assert [(names, str(residual)) for names, residual in verdict.witnesses] == witnesses
    assert verdict.holds == (not witnesses)
