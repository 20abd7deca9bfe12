"""Acceptance gate: ten end-to-end criteria with runtime budgets.

Each criterion is one test, timed against its budget, using exact rational
arithmetic throughout (tolerance is identically zero).  Running this file
directly prints one PASS/FAIL line per criterion:

    python3 tests/test_acceptance.py

Under pytest the same functions run with the budgets enforced; `pytest -v`
shows one line per criterion.

The standing fixtures: the current algebra of the dual numbers (basis u, v),
the nilpotent square (basis a, b with a·a = b), the shift operator u -> v on
the dual numbers (an O-operator and a Nijenhuis operator), the derivation
a -> b of the nilpotent square, and the 2-cocycle phi(a, a) = L1·b.  All
random objects derive from the documented base seed below.
"""

from __future__ import annotations

import io
import itertools
import json
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

from confalg.cli import main as cli_main
from confalg.cohomology import (
    Cochain,
    derived_bracket_direct,
    derived_bracket_via_lifts,
    g_bracket,
    hochschild_d,
    is_cocycle,
    maurer_cartan_check,
    modified_mc_check,
    multiplication_cochain,
    random_cochain,
)
from confalg.confcore import (
    ConfAlgebra,
    ConfBimodule,
    check_associative,
    check_bimodule,
    check_lie,
    commutator_lie,
    cur,
    rep_from_bimodule,
    semidirect,
    twisted_extension,
)
from confalg.derived import (
    check_structure,
    deformation_check,
    deformed_product,
    dendriform_from_O,
    induced_bimodule_on_A,
    m_ass,
    nijenhuis_hierarchy,
    ns_from_twisted,
)
from confalg.dsl import emit_dsl, parse, run
from confalg.errors import NotNijenhuis
from confalg.operators import ModuleMap, reynolds_from_derivation, verify_operator
from confalg.polyring import Poly

BASE_SEED = 20260814
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

D, L1 = Poly.var("D"), Poly.var("L1")

# dual numbers: u·u = u, u·v = v·u = v
DUAL = cur(("u", "v"), {("u", "u"): (1, 0), ("u", "v"): (0, 1), ("v", "u"): (0, 1)})
AM = DUAL.module
u, v = AM.basis_elem(0), AM.basis_elem(1)
ADJ = ConfBimodule.adjoint(DUAL)

# nilpotent square: a·a = b
NILP = cur(("a", "b"), {("a", "a"): (0, 1)})
NM = NILP.module
a, b = NM.basis_elem(0), NM.basis_elem(1)
NADJ = ConfBimodule.adjoint(NILP)

# the shift u -> v, v -> 0: O-operator, Rota-Baxter, and Nijenhuis
SHIFT = ModuleMap.from_images(AM, AM, {"u": v, "v": AM.zero()})
# the swap u <-> v: none of the above (the standing mutant)
SWAP = ModuleMap.from_images(AM, AM, {"u": v, "v": u})
# derivation of the nilpotent square
NDER = ModuleMap.from_images(NM, NM, {"a": b, "b": NM.zero()})
# 2-cocycle phi(a, a) = L1·b on the nilpotent square
PHI = Cochain.from_entries(2, NM, NM, {(0, 0): L1 * b})

_results = []


@contextmanager
def criterion(number: int, label: str, budget: float):
    """Time a criterion body, record PASS/FAIL, and enforce the budget."""
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:  # re-raised below after recording
        failed = exc
    elapsed = time.perf_counter() - start
    ok = failed is None and elapsed < budget
    line = f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s, budget {budget:g}s)"
    _results.append((ok, line))
    print(line)
    if failed is not None:
        raise failed
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.2f}s >= {budget}s"


# -- 1. axiom engine and mutation detection ------------------------------------------


def test_criterion_01_axiom_engine_and_mutation_detection():
    with criterion(1, "axiom engine + mutation detection", budget=1.0):
        fixtures = (
            DUAL,
            NILP,
            semidirect(DUAL, ADJ),
            twisted_extension(NILP, NADJ, PHI),
        )
        for alg in fixtures:
            assert check_associative(alg).holds

        # Sweep every single-constant mutation (add one basis direction to one
        # table entry).  Each mutant must either fail with a witness triple or
        # be certified genuinely associative by the independent graded-bracket
        # route [S, S] = 0 — a mutation never slips through unexamined.
        detected_per_fixture = []
        for alg in fixtures:
            module = alg.module
            base = dict(alg.table.entries)
            detected = 0
            for (i, j) in itertools.product(range(module.rank), repeat=2):
                for k in range(module.rank):
                    entries = dict(base)
                    entries[(i, j)] = entries.get((i, j), module.zero()) + module.basis_elem(k)
                    mutant = ConfAlgebra.associative(module, entries)
                    verdict = check_associative(mutant, cap=1)
                    if verdict.holds:
                        square = g_bracket(
                            multiplication_cochain(mutant), multiplication_cochain(mutant)
                        )
                        assert square.is_zero(), "checker and graded bracket disagree"
                    else:
                        names, residual = verdict.witnesses[0]
                        assert len(names) == 3 and not residual.is_zero()
                        detected += 1
            detected_per_fixture.append(detected)
        assert all(count > 0 for count in detected_per_fixture)

        # the canonical documented mutation: u·u changed from u to v
        mutant = ConfAlgebra.associative(AM, {**dict(DUAL.table.entries), (0, 0): v})
        verdict = check_associative(mutant)
        assert not verdict.holds and verdict.witnesses[0][0] == ("u", "u", "v")


# -- 2. the differential squares to zero; the standing cocycles -----------------------


def test_criterion_02_hochschild_differential():
    with criterion(2, "d∘d = 0 on 50 random cochains + standing cocycles", budget=30.0):
        stages = ((DUAL, ADJ), (NILP, NADJ))
        for sample in range(50):
            alg, bim = stages[sample % 2]
            arity = 1 + (sample // 2) % 2
            phi = random_cochain(BASE_SEED + sample, arity, alg.module, alg.module)
            dd = hochschild_d(hochschild_d(phi, alg, bim), alg, bim)
            assert dd.is_zero(), f"d∘d != 0 on sample {sample}"

        # the derivation a -> b is a 1-cocycle of the nilpotent square
        assert hochschild_d(Cochain.from_module_map(NDER), NILP, NADJ).is_zero()
        # phi(a, a) = L1·b is a 2-cocycle there
        assert is_cocycle(PHI, NILP, NADJ).holds
        # the negated multiplication is a 2-cocycle on the dual numbers
        neg_mult = multiplication_cochain(DUAL).scale(-1)
        assert is_cocycle(neg_mult, DUAL, ADJ).holds


# -- 3. the O-operator stack -----------------------------------------------------------


def test_criterion_03_o_operator_stack():
    with criterion(3, "O-operator stack for the shift", budget=5.0):
        assert verify_operator("O", SHIFT, DUAL, ADJ).holds

        bundle = dendriform_from_O(SHIFT, DUAL, ADJ)
        assert check_structure(bundle).holds

        star = m_ass(SHIFT, DUAL, ADJ)
        assert check_associative(star).holds

        induced = induced_bimodule_on_A(SHIFT, DUAL, ADJ)
        assert check_bimodule(star, induced).holds

        assert check_lie(commutator_lie(star)).holds
        lie = commutator_lie(DUAL)
        rep = rep_from_bimodule(DUAL, ADJ)
        assert verify_operator("OLie", SHIFT, lie, rep=rep).holds


# -- 4. Maurer-Cartan equivalences -------------------------------------------------------


def test_criterion_04_maurer_cartan_equivalences():
    with criterion(4, "four MC predicates agree on 20 random maps", budget=60.0):
        for sample in range(20):
            T = random_cochain(
                BASE_SEED + 100 + sample, 1, AM, AM, max_degree=2
            ).as_module_map()
            verdict = maurer_cartan_check(T, DUAL, ADJ)
            assert verdict.consistent, f"predicates disagree on sample {sample}: {verdict.summary()}"
        # the known O-operator exercises the all-true branch
        assert maurer_cartan_check(SHIFT, DUAL, ADJ).holds


# -- 5. the derived-bracket engine --------------------------------------------------------


def test_criterion_05_derived_bracket_engine():
    with criterion(5, "derived brackets: routes, Leibniz, biconditional", budget=60.0):
        # route agreement on 20 random (f, g) pairs
        shapes = ((1, 1), (1, 2), (2, 1), (2, 2))
        for sample in range(20):
            m, n = shapes[sample % 4]
            f = random_cochain(BASE_SEED + 200 + sample, m, AM, AM)
            g = random_cochain(BASE_SEED + 300 + sample, n, AM, AM)
            direct = derived_bracket_direct(f, g, DUAL, ADJ)
            lifted = derived_bracket_via_lifts(f, g, DUAL, ADJ)
            assert direct.table.entries == lifted.table.entries, f"routes differ on sample {sample}"

        # graded Leibniz rule on 10 random triples
        triples = ((1, 1, 2), (1, 2, 2))
        for sample in range(10):
            am, an, ap = triples[sample % 2]
            f = random_cochain(BASE_SEED + 400 + sample, am, AM, AM)
            g = random_cochain(BASE_SEED + 500 + sample, an, AM, AM)
            h = random_cochain(BASE_SEED + 600 + sample, ap, AM, AM)
            lhs = g_bracket(f, g_bracket(g, h))
            rhs1 = g_bracket(g_bracket(f, g), h)
            rhs2 = g_bracket(g, g_bracket(f, h))
            sign = (-1) ** ((am - 1) * (an - 1))
            total = lhs - rhs1 - rhs2.scale(sign)
            assert total.is_zero(), f"Leibniz fails on sample {sample}"

        # [S, S] = 0 iff the table is associative, on 10 random binary tables
        # plus the two known associative ones
        tables = [
            random_cochain(BASE_SEED + 700 + sample, 2, AM, AM) for sample in range(10)
        ]
        tables.append(multiplication_cochain(DUAL))
        tables.append(Cochain.zero(2, AM, AM))
        seen_assoc = seen_nonassoc = 0
        for S in tables:
            candidate = ConfAlgebra.associative(AM, dict(S.table.entries))
            square_zero = g_bracket(S, S).is_zero()
            assoc = check_associative(candidate).holds
            assert square_zero == assoc
            seen_assoc += assoc
            seen_nonassoc += not assoc
        assert seen_assoc > 0 and seen_nonassoc > 0


# -- 6. the Nijenhuis hierarchy -------------------------------------------------------------


def test_criterion_06_nijenhuis_hierarchy():
    with criterion(6, "Nijenhuis hierarchy to k = 3 + mutant", budget=30.0):
        hierarchy = nijenhuis_hierarchy(SHIFT, DUAL, kmax=3)
        assert hierarchy.power_pair.holds
        assert hierarchy.intertwine.holds
        assert hierarchy.relative.holds
        assert hierarchy.powers_nijenhuis.holds
        assert hierarchy.pairwise_compatible.holds
        assert hierarchy.holds

        # deformed product is associative with N a homomorphism onto it
        circ, defect = deformed_product(SHIFT, DUAL)
        assert defect.is_zero()
        assert check_associative(circ).holds

        # the swap map is not Nijenhuis: the identity fails, the hierarchy
        # refuses to build, and the deformation defect is nonzero
        assert not verify_operator("Nijenhuis", SWAP, DUAL).holds
        try:
            nijenhuis_hierarchy(SWAP, DUAL, kmax=3)
            raise AssertionError("hierarchy accepted a non-Nijenhuis operator")
        except NotNijenhuis:
            pass
        _, bad_defect = deformed_product(SWAP, DUAL)
        assert not bad_defect.is_zero()


# -- 7. the twisted stack ----------------------------------------------------------------------


def test_criterion_07_twisted_stack():
    with criterion(7, "twisted Rota-Baxter stack + modified MC", budget=10.0):
        phi = multiplication_cochain(DUAL).scale(-1)
        ident = ModuleMap.identity(AM)
        assert verify_operator("TwistedRB", ident, DUAL, ADJ, twist=phi).holds

        bundle = ns_from_twisted(ident, DUAL, ADJ, phi)
        assert check_structure(bundle).holds

        star = m_ass(ident, DUAL, ADJ, phi)
        assert check_associative(star).holds

        induced = induced_bimodule_on_A(ident, DUAL, ADJ, phi)
        assert check_bimodule(star, induced).holds

        # modified Maurer-Cartan biconditional: on the twisted instance ...
        verdict = modified_mc_check(ident, phi, DUAL, ADJ)
        assert verdict.is_twisted_rb and verdict.bracket_identity and verdict.holds
        # ... on the untwisted O-operator instance (phi = 0) ...
        zero_phi = Cochain.zero(2, AM, AM)
        verdict = modified_mc_check(SHIFT, zero_phi, DUAL, ADJ)
        assert verdict.is_twisted_rb and verdict.bracket_identity and verdict.holds
        # ... and on a failing instance both sides are false together
        verdict = modified_mc_check(ident, zero_phi, DUAL, ADJ)
        assert not verdict.is_twisted_rb and not verdict.bracket_identity and verdict.holds


# -- 8. Reynolds operators -----------------------------------------------------------------------


def test_criterion_08_reynolds():
    with criterion(8, "Reynolds operator id − d and its inverse", budget=1.0):
        ident = ModuleMap.identity(NM)
        R = ident - NDER
        assert verify_operator("Reynolds", R, NILP).holds

        # R is inverted by id + d because d² = 0, so R⁻¹ − id is a derivation
        R_inv = ident + NDER
        assert R.compose(R_inv) == ident and R_inv.compose(R) == ident
        assert R_inv - ident == NDER
        assert verify_operator("Derivation", R_inv - ident, NILP).holds
        # the geometric-series construction finds the same operator
        assert reynolds_from_derivation(NDER, NILP, bound=4) == R


# -- 9. deformations ------------------------------------------------------------------------------


def test_criterion_09_deformation():
    with criterion(9, "trivial deformation clauses + t² obstruction", budget=5.0):
        verdict = deformation_check(SHIFT, DUAL)
        assert verdict.cocycle.holds
        assert verdict.generator_associative.holds
        assert verdict.homomorphism.holds
        assert verdict.obstruction.holds
        assert verdict.holds

        # on the swap mutant the t² obstruction fires: the homomorphism
        # clause and the quadratic obstruction clause fail together
        mutant = deformation_check(SWAP, DUAL, validate=False)
        assert not mutant.obstruction.holds
        assert not mutant.homomorphism.holds
        assert mutant.homomorphism.holds == mutant.obstruction.holds


# -- 10. the command line ---------------------------------------------------------------------------


def _validate_report_schema(data: dict) -> None:
    assert sorted(data) == ["command", "records", "seed", "version"]
    assert isinstance(data["command"], str)
    assert isinstance(data["version"], str)
    assert data["seed"] is None or isinstance(data["seed"], int)
    assert isinstance(data["records"], list)
    for record in data["records"]:
        assert sorted(record) == [
            "detail",
            "elapsed_ms",
            "emitted",
            "identity",
            "status",
            "witnesses",
        ]
        assert isinstance(record["identity"], str)
        assert record["status"] in ("holds", "fails", "error")
        assert isinstance(record["elapsed_ms"], float)
        assert record["detail"] is None or isinstance(record["detail"], str)
        assert record["emitted"] is None or isinstance(record["emitted"], str)
        assert isinstance(record["witnesses"], list)
        for witness in record["witnesses"]:
            assert sorted(witness) == ["names", "residual"]
            assert all(isinstance(name, str) for name in witness["names"])
            assert isinstance(witness["residual"], str)
        if record["status"] == "fails":
            assert record["witnesses"]


def test_criterion_10_cli():
    with criterion(10, "CLI corpus: round-trip, JSON schema, exit codes", budget=10.0):
        # every structure in the corpus round-trips through the emitter
        source = (FIXTURES / "all.cfa").read_text()
        _, env = run(parse(source, path="all.cfa"))
        assert env.algebras and env.cocycles
        for name, alg in env.algebras.items():
            _, env2 = run(parse(emit_dsl(alg, name)))
            assert env2.algebras[name].table.entries == alg.table.entries, name
        for name, (phi, on, _into) in env.cocycles.items():
            prefix = emit_dsl(env.algebras[on], on)
            _, env2 = run(parse(prefix + emit_dsl(phi, name, on=on)))
            assert env2.cocycles[name][0] == phi, name

        # the full corpus exits 0 and its JSON validates against the schema
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["check", str(FIXTURES / "all.cfa"), "--json"])
        assert code == 0
        data = json.loads(buffer.getvalue())
        _validate_report_schema(data)
        assert data["records"] and all(r["status"] == "holds" for r in data["records"])

        # five broken files exit 1 (failed check) or 2 (unusable input)
        expected = {
            "broken_syntax.cfa": 2,
            "broken_unresolved.cfa": 2,
            "broken_assoc.cfa": 1,
            "broken_o_operator.cfa": 1,
            "broken_cocycle.cfa": 1,
        }
        for filename, expected_code in expected.items():
            with redirect_stdout(io.StringIO()):
                code = cli_main(["check", str(FIXTURES / filename)])
            assert code == expected_code, filename


if __name__ == "__main__":
    import sys

    tests = [
        test_criterion_01_axiom_engine_and_mutation_detection,
        test_criterion_02_hochschild_differential,
        test_criterion_03_o_operator_stack,
        test_criterion_04_maurer_cartan_equivalences,
        test_criterion_05_derived_bracket_engine,
        test_criterion_06_nijenhuis_hierarchy,
        test_criterion_07_twisted_stack,
        test_criterion_08_reynolds,
        test_criterion_09_deformation,
        test_criterion_10_cli,
    ]
    failures = 0
    for test in tests:
        try:
            test()
        except BaseException:
            failures += 1
    print(f"\n{len(tests) - failures}/{len(tests)} criteria passed")
    sys.exit(1 if failures else 0)
