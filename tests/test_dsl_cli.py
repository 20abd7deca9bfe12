"""Tests for the definition language, its executor, and the command line."""

from __future__ import annotations

import json
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg import cli, confcore
from confalg.cli import build_parser, main
from confalg.cohomology import Cochain, random_cochain
from confalg.confcore import Composite, ConfAlgebra, FreeModule, MultiTable
from confalg.dsl import (
    KEYWORDS,
    Report,
    SourceFile,
    _verdict_record,
    d_squared_suite,
    emit_dsl,
    parse,
    parse_file,
    render_elem,
    resolve,
    run,
)
from confalg.errors import (
    ConfalgError,
    DuplicateName,
    ExponentOverflow,
    ParseError,
    PreconditionFailed,
    UnresolvedName,
)
from confalg import polyring
from confalg.polyring import MAX_TERMS, Poly, parse_poly

import _oracle
import helpers
from helpers import AM, D, DUAL, L1, L2, NILP, NM, a, b, u, v

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

A2_SOURCE = """
algebra A2 {
  basis u, v;
  product u u = u;
  product u v = v;
  product v u = v;
}
"""

N2_SOURCE = """
algebra N2 {
  basis a, b;
  product a a = b;
}
"""


def build(text: str):
    report, env = run(parse(text))
    return report, env


# -- parsing and evaluation ---------------------------------------------------------


def test_source_reconstructs_the_reference_table():
    _, env = build(A2_SOURCE)
    assert env.algebras["A2"].table.entries == DUAL.table.entries
    assert env.algebras["A2"].module.basis == ("u", "v")
    _, env = build(N2_SOURCE)
    assert env.algebras["N2"].table.entries == NILP.table.entries


def test_empty_braces_mean_the_zero_product():
    _, env = build("algebra Z { basis u, v; }")
    assert env.algebras["Z"].table.entries == {}
    report, _ = run(parse("algebra Z { basis u; }\ncheck associative Z;"))
    assert report.records[0].status == "holds"


def test_coefficient_grammar():
    src = """
algebra A {
  basis u, v;
  product u u = (D^2 + 2*L)*u + 1/2*v;
  product u v = -u;
  product v u = 3/2*D*L*v;
  product v v = 0;
}
"""
    _, env = build(src)
    alg = env.algebras["A"]
    d, l1 = Poly.var("D"), Poly.var("L1")
    uu = alg.entry("u", "u")
    assert uu.coeffs[0] == d * d + 2 * l1
    assert uu.coeffs[1] == Poly.const(Fraction(1, 2))
    assert alg.entry("u", "v").coeffs[0] == Poly.const(-1)
    assert alg.entry("v", "u").coeffs[1] == Fraction(3, 2) * d * l1
    assert alg.entry("v", "v").is_zero()


def test_weight_alias_spellings_agree():
    for alias in ("L", "L1"):
        _, env = build(f"algebra A {{ basis e; product e e = {alias}*e; }}")
        assert env.algebras["A"].entry("e", "e") == L1 * env.algebras["A"].module.basis_elem(0)
    # the second weight has two spellings; both parse to the same variable
    parsed = {
        alias: parse(f"algebra B {{ basis e; product e e = ({alias})*e; }}")
        for alias in ("L2", "M")
    }
    coeffs = {
        alias: sf.declarations[0].products[0][2][0][0] for alias, sf in parsed.items()
    }
    assert coeffs["L2"] == coeffs["M"] == Poly.var("L2")
    # ...but a binary product only has one weight, so execution rejects it
    report, env = run(parsed["M"])
    assert report.records[0].status == "error" and "B" not in env.algebras


def test_comments_and_whitespace_are_ignored():
    src = "# leading comment\nalgebra A { # trailing\n  basis u;  # names\n}\n"
    _, env = build(src)
    assert env.algebras["A"].rank == 1


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse("algebra A { basis u; product u u = D^; }")
    assert err.value.line == 1 and err.value.column == 38
    with pytest.raises(ParseError):
        parse("algebra A { basis u; product u u = u")  # missing ';' and '}'
    with pytest.raises(ParseError):
        parse("algebra A { basis u; } @")
    with pytest.raises(ParseError):
        parse("widget A { }")


def test_syntax_error_positions_count_comments_tabs_and_line_breaks():
    def position(text):
        with pytest.raises(ParseError) as err:
            parse(text)
        return err.value.line, err.value.column

    # a comment line counts as a line; a comment moves no column
    assert position("# a comment\nalgebra A { basis u; product u u = D^; }") == (2, 38)
    # a tab is one column
    assert position("algebra A {\n\tbasis u; product u u = D^; }") == (2, 27)
    # CR is one column, LF starts a line, in text given straight to parse
    assert position("algebra A {\r\n  basis u;\r\n  product u u = D^; }") == (3, 19)
    # a coefficient may span lines; the error is where the bad token is
    assert position("algebra A { basis u;\n  product u u = (D +\n    L^)*u; }") == (3, 7)


def _coefficient(text: str) -> Poly:
    decl = parse(f"algebra A {{ basis e; product e e = {text}*e; }}").declarations[0]
    ((_, _, ((coeff, name),)),) = decl.products
    assert name == "e"
    return coeff


def test_grammar_reads_powers_and_unary_minus_on_any_atom():
    assert _coefficient("2^3") == Poly.const(8)
    assert _coefficient("(2*-D)") == -2 * D
    assert _coefficient("-(D + L)^2") == -((D + L1) ** 2)
    assert _coefficient("1/2") == Poly.const(Fraction(1, 2))
    with pytest.raises(ParseError, match="unexpected character"):
        parse("algebra A { basis u; product u u = \u00a0u; }")  # NBSP is not whitespace
    with pytest.raises(ParseError, match="expected a coefficient"):
        parse("algebra A { basis u; product u u = u*; }")  # a '*' needs a right operand


def test_exponent_overflow_in_a_coefficient_names_the_factor():
    head = "algebra E {\n  basis e;\n  product e e = "
    with pytest.raises(ExponentOverflow, match=r"of D exceeds the cap 32767 \(line 3, column 25\)$"):
        parse(head + "D^20000*D^20000*e;\n}\n")
    with pytest.raises(ExponentOverflow, match=r"exceeds the cap 32767 \(line 3, column 19\)$"):
        parse(head + "2*(D + 1)^40000*e;\n}\n")


def test_expression_guards():
    with pytest.raises(ParseError):  # two basis names in one term
        parse("algebra A { basis u, v; product u u = u*v; }")
    with pytest.raises(ParseError):  # nonzero scalar with no basis name
        parse("algebra A { basis u; product u u = 3; }")
    with pytest.raises(ParseError):  # basis name inside a coefficient
        parse("algebra A { basis u; product u u = (u + 1)*u; }")
    with pytest.raises(ParseError):  # basis names cannot be raised to powers
        parse("algebra A { basis u; product u u = u^2; }")
    with pytest.raises(ParseError):  # zero denominator
        parse("algebra A { basis u; product u u = 1/0*u; }")
    with pytest.raises(ParseError):  # keywords cannot name declarations
        parse("algebra check { basis u; }")
    with pytest.raises(ParseError):  # duplicate basis name
        parse("algebra A { basis u, u; }")


def test_duplicate_declarations_are_rejected():
    with pytest.raises(DuplicateName):
        parse("algebra A { basis u; }\nalgebra A { basis w; }")
    # a repeated entry inside one block is caught when the block is executed
    report, env = build("algebra A { basis u; product u u = u; product u u = u; }")
    assert report.records[0].status == "error"
    assert "twice" in report.records[0].detail and "A" not in env.algebras
    # same name in different namespaces is fine
    parse("algebra X { basis u; }\nmap X : X -> X { u -> u; }")


#: an algebra, a bimodule, a cocycle and a map on lines 1-4, for statements on line 5
DECLARED = """algebra A { basis u; }
bimodule B adjoint A;
cocycle phi on A { }
map T : B -> A { }
"""


@pytest.mark.parametrize("source, message", [
    ("bimodule B adjoint Z;", "unknown algebra 'Z' referenced on line 1"),
    ("bimodule B over Z { basis m; }", "unknown algebra 'Z' referenced on line 1"),
    ("cocycle c on Z { }", "unknown algebra 'Z' referenced on line 1"),
    ("algebra A { basis u; }\ncocycle c on A into Z { }", "unknown bimodule 'Z' referenced on line 2"),
    ("algebra A { basis u; }\nmap N : Z -> A { }", "unknown algebra or bimodule 'Z' referenced on line 2"),
    ("algebra A { basis u; }\nmap N : A -> Z { }", "unknown algebra or bimodule 'Z' referenced on line 2"),
    (DECLARED + "check associative Z;", "unknown algebra 'Z' referenced on line 5"),
    (DECLARED + "check bimodule Z;", "unknown bimodule 'Z' referenced on line 5"),
    (DECLARED + "check cocycle Z;", "unknown cocycle 'Z' referenced on line 5"),
    (DECLARED + "check O Z on A with B;", "unknown map 'Z' referenced on line 5"),
    (DECLARED + "check O T on Z with B;", "unknown algebra 'Z' referenced on line 5"),
    (DECLARED + "check O T on A with Z;", "unknown bimodule 'Z' referenced on line 5"),
    (DECLARED + "check cocycle phi with Z;", "unknown bimodule 'Z' referenced on line 5"),
    (DECLARED + "check TwistedRB T on A with B twist Z;", "unknown cocycle 'Z' referenced on line 5"),
    (DECLARED + "construct ns T on A with B twist Z;", "unknown cocycle 'Z' referenced on line 5"),
    # the name is looked up first, then on, with and twist
    (DECLARED + "construct ns Z on Y with X twist W;", "unknown map 'Z' referenced on line 5"),
    (DECLARED + "construct ns T on Y with X twist W;", "unknown algebra 'Y' referenced on line 5"),
    (DECLARED + "construct ns T on A with X twist W;", "unknown bimodule 'X' referenced on line 5"),
    # later declarations cannot be referenced earlier
    ("check associative A;\nalgebra A { basis u; }", "unknown algebra 'A' referenced on line 1"),
], ids=[
    "bimodule-adjoint", "bimodule-over", "cocycle-on", "cocycle-into", "map-source", "map-target",
    "name-algebra", "name-bimodule", "name-cocycle", "name-map", "on", "with", "cocycle-with",
    "twist", "construct-twist", "order-name", "order-on", "order-with", "forward",
])
def test_unresolved_references_are_rejected_before_execution(source, message):
    with pytest.raises(UnresolvedName) as caught:
        resolve(parse(source))
    assert str(caught.value) == message


def test_unknown_basis_names_fail_at_execution():
    for src in (
        "algebra A { basis u; product u w = u; }",
        "algebra A { basis u; product u u = w; }",
        "algebra A { basis u; }\nmap T : A -> A { w -> u; }",
    ):
        report, _ = build(src)
        assert report.records[0].status == "error", src
        assert report.exit_code == 2


def test_maps_default_unlisted_images_to_zero():
    _, env = build(A2_SOURCE + "map T : A2 -> A2 { u -> v; }")
    T = env.maps["T"]
    assert T.apply(u) == v and T.apply(v).is_zero()


def test_explicit_bimodule_and_cocycle_context():
    src = A2_SOURCE + """
bimodule W over A2 {
  basis m;
  left u m = m;
  right m u = m;
}
cocycle psi on A2 into W {
  value u u = D*m;
}
check bimodule W;
"""
    report, env = build(src)
    W = env.bimodules["W"]
    assert W.module.basis == ("m",)
    m = W.module.basis_elem(0)
    assert W.act_left(u, m, L1) == m
    assert W.act_right(m, v, L1).is_zero()
    phi, alg_name, into = env.cocycles["psi"]
    assert alg_name == "A2" and into == "W"
    assert phi.entry((0, 0)) == D * m
    assert report.records[-1].status == "holds"


def test_lie_flavor_declarations_defer_skew_checking():
    src = "algebra G lie { basis x; product x x = x; }\ncheck lie G;"
    report, env = build(src)
    assert env.algebras["G"].flavor == "lie"
    assert report.records[0].status == "fails"
    assert report.exit_code == 1


# -- executing checks and constructs ---------------------------------------------------


def test_check_records_mirror_direct_engine_calls():
    report, _ = build(
        A2_SOURCE
        + "bimodule AdjA2 adjoint A2;\n"
        + "map T : AdjA2 -> A2 { u -> v; }\n"
        + "check O T on A2 with AdjA2;\n"
        + "check associative A2;\n"
    )
    assert [r.status for r in report.records] == ["holds", "holds"]
    assert report.records[0].identity == "check O T"
    assert report.exit_code == 0


def test_failing_checks_carry_witnesses_and_exit_one():
    report, _ = build(
        A2_SOURCE
        + "bimodule AdjA2 adjoint A2;\n"
        + "map Swap : AdjA2 -> A2 { u -> v; v -> u; }\n"
        + "check O Swap on A2 with AdjA2;\n"
    )
    rec = report.records[0]
    assert rec.status == "fails" and rec.witnesses
    assert rec.witnesses[0]["names"] == ["u", "u"]
    assert report.exit_code == 1


def test_witness_cap_limits_reporting():
    src = (
        A2_SOURCE
        + "bimodule AdjA2 adjoint A2;\n"
        + "map Swap : AdjA2 -> A2 { u -> v; v -> u; }\n"
        + "check O Swap on A2 with AdjA2;\n"
    )
    full, _ = run(parse(src))
    capped, _ = run(parse(src), witness_cap=1)
    assert len(full.records[0].witnesses) > 1
    assert len(capped.records[0].witnesses) == 1


def test_symbolic_and_rational_weights():
    src = N2_SOURCE + """
map d : N2 -> N2 { a -> b; }
check RotaBaxter d on N2 weight q;
check RotaBaxter d on N2 weight -1/2;
map i : N2 -> N2 { a -> a; b -> b; }
check RotaBaxter i on N2 weight q;
"""
    report, _ = build(src)
    assert [r.status for r in report.records] == ["holds", "holds", "fails"]


def test_lie_kind_checks_use_the_commutator():
    src = (
        A2_SOURCE
        + "bimodule AdjA2 adjoint A2;\n"
        + "map T : AdjA2 -> A2 { u -> v; }\n"
        + "check OLie T on A2 with AdjA2;\n"
        + "check NijenhuisLie T on A2;\n"
    )
    report, _ = build(src)
    assert [r.status for r in report.records] == ["holds", "holds"]


# the Virasoro algebra with its conformal-weight-1 module: [x_L x] = (D+2L)x,
# [x_L y] = (D+L)y, [y_L x] = L y, [y_L y] = 0
VIR_SOURCE = """
algebra G lie {
  basis x, y;
  product x x = (D + 2*L)*x;
  product x y = (D + L)*y;
  product y x = L*y;
}
bimodule AdjG adjoint G;
"""


@pytest.mark.parametrize(
    "images, holds",
    [
        ({"x": "y", "y": "0"}, True),
        ({"x": "0", "y": "D*x"}, False),
        ({"x": "2*x", "y": "y"}, False),
    ],
)
def test_cli_checks_olie_on_a_lie_algebra_with_its_adjoint_representation(
    tmp_path, capsys, images, holds
):
    basis = ("x", "y")
    source = tmp_path / "olie.cfa"
    lines = "; ".join(f"{name} -> {image}" for name, image in images.items())
    source.write_text(VIR_SOURCE + f"map T : G -> G {{ {lines}; }}\ncheck OLie T on G with AdjG;\n")
    code = main(["check", str(source), "--json"])
    (record,) = json.loads(capsys.readouterr().out)["records"]
    assert (code, record["status"]) == ((0, "holds") if holds else (1, "fails"))

    symbols = {name: sp.Symbol(name) for name in ("D", "L1") + basis}
    sym = lambda text: sp.sympify(text.replace("^", "**"), locals=symbols)
    x, y, D, L = (symbols[name] for name in ("x", "y", "D", "L1"))
    vec = lambda expr: tuple(sp.expand(expr).coeff(b) for b in (x, y))
    bracket = {(0, 0): vec((D + 2 * L) * x), (0, 1): vec((D + L) * y), (1, 0): vec(L * y)}
    tmat = [vec(sym(images[name])) for name in basis]
    # the adjoint representation is the bracket itself: a zero right action
    expected = _oracle.res_olie(bracket, bracket, {}, 2, 2, tmat)
    assert [w["names"] for w in record["witnesses"]] == [[basis[i] for i in idx] for idx, _ in expected]
    for witness, (_, residual) in zip(record["witnesses"], expected):
        assert sp.expand(sym(witness["residual"]) - residual[0] * x - residual[1] * y) == 0


def test_whole_residual_tables_are_computed_past_the_witness_cap(monkeypatch, tmp_path, capsys):
    # (a, a, a) fails first; the tuples of b overflow the term cap.  A scan that stopped
    # at the cap's first witness never computed them; the whole residual table does.
    monkeypatch.setattr(polyring, "MAX_TERMS", 1000)
    source = tmp_path / "overflow.cfa"
    source.write_text(
        "algebra E {\n  basis a, b;\n  product a a = D*a;\n  product b b = D^200*b;\n}\n"
        "check associative E;\n"
    )
    assert main(["check", str(source), "--json", "--witness-cap", "1"]) == 2
    (record,) = json.loads(capsys.readouterr().out)["records"]
    assert record["status"] == "error"
    assert record["detail"] == "a polynomial would have more than 1000 terms"


def test_twisted_check_resolves_the_declared_cocycle():
    src = A2_SOURCE + """
bimodule AdjA2 adjoint A2;
cocycle negmult on A2 {
  value u u = (-1)*u;
  value u v = (-1)*v;
  value v u = (-1)*v;
}
map Id : A2 -> A2 { u -> u; v -> v; }
check TwistedRB Id on A2 with AdjA2 twist negmult;
check cocycle negmult;
"""
    report, _ = build(src)
    assert [r.status for r in report.records] == ["holds", "holds"]


def test_missing_clauses_surface_as_errors():
    report, _ = build(
        A2_SOURCE + "map T : A2 -> A2 { u -> v; }\ncheck O T;"
    )
    assert report.records[0].status == "error"
    assert report.exit_code == 2
    report, _ = build(
        A2_SOURCE + "map T : A2 -> A2 { u -> v; }\nconstruct dendriform T on A2;"
    )
    assert report.records[0].status == "error"


def test_clauses_a_statement_does_not_read_are_errors():
    src = A2_SOURCE + """
bimodule AdjA2 adjoint A2;
cocycle negmult on A2 {
  value u u = (-1)*u;
  value u v = (-1)*v;
  value v u = (-1)*v;
}
map Id : A2 -> A2 { u -> u; v -> v; }
map Swap : AdjA2 -> A2 { u -> v; v -> u; }
check Nijenhuis Id on A2 with AdjA2 weight 7;
check O Swap on A2 with AdjA2 weight 3;
check associative A2 on A2 weight 2;
check RotaBaxter Id on A2 twist negmult;
check cocycle negmult on A2;
construct deformed Id on A2 with AdjA2;
construct ns Id on A2 with AdjA2;
construct dendriform Swap on A2 with AdjA2 twist negmult;
check Nijenhuis Id on A2;
"""
    report, _ = build(src)
    expected = [
        ("check Nijenhuis Id", "'with' or 'weight'"),
        ("check O Swap", "'weight'"),
        ("check associative A2", "'on' or 'weight'"),
        ("check RotaBaxter Id", "'twist'"),
        ("check cocycle negmult", "'on'"),
        ("construct deformed Id", "'with'"),
        ("construct ns Id", "'with'"),
        ("construct dendriform Swap", "'twist'"),
    ]
    *errors, last = report.records
    assert [(r.identity, r.status) for r in errors] == [(i, "error") for i, _ in expected]
    for record, (_, clauses) in zip(errors, expected):
        assert f"reads no {clauses} clause (line " in record.detail
    assert (last.identity, last.status) == ("check Nijenhuis Id", "holds")
    assert report.exit_code == 2


#: the clauses each check and construct kind reads
STATEMENT_READS = {
    ("check", "O"): ("on", "with"),
    ("check", "RotaBaxter"): ("on", "weight"),
    ("check", "TwistedRB"): ("on", "with", "twist"),
    ("check", "Nijenhuis"): ("on",),
    ("check", "NijenhuisLie"): ("on",),
    ("check", "Reynolds"): ("on",),
    ("check", "Derivation"): ("on", "with"),
    ("check", "OLie"): ("on", "with"),
    ("check", "associative"): (),
    ("check", "lie"): (),
    ("check", "bimodule"): (),
    ("check", "cocycle"): ("with",),
    ("construct", "dendriform"): ("on", "with"),
    ("construct", "ns"): ("on", "with", "twist"),
    ("construct", "mass"): ("on", "with", "twist"),
    ("construct", "leftsym"): ("on", "with"),
    ("construct", "deformed"): ("on",),
}
#: the text of each clause in the statements below
CLAUSE_TEXT = {"on": "on A2", "with": "with AdjA2", "twist": "twist negmult", "weight": "weight 2"}
#: the clauses each verb parses that a kind may leave unread ('as' fails at resolve instead)
VERB_CLAUSES = {"check": ("on", "with", "twist", "weight"), "construct": ("on", "with", "twist")}
#: a source declaring every name the statements below refer to
CLAUSE_SOURCE = A2_SOURCE + """
bimodule AdjA2 adjoint A2;
cocycle negmult on A2 {
  value u u = (-1)*u;
  value u v = (-1)*v;
  value v u = (-1)*v;
}
map T : AdjA2 -> A2 { u -> v; v -> 0; }
"""
CLAUSE_LINE = CLAUSE_SOURCE.count("\n") + 1


def _subject(kind):
    """The name a statement of this kind names: an algebra, bimodule, cocycle or map."""
    return {"associative": "A2", "lie": "A2", "bimodule": "AdjA2", "cocycle": "negmult"}.get(kind, "T")


def _statement(verb, kind, clauses):
    words = " ".join(CLAUSE_TEXT[clause] for clause in clauses)
    return f"{verb} {kind} {_subject(kind)} {words};\n"


def _only_record(text):
    report, _ = build(CLAUSE_SOURCE + text)
    (record,) = report.records
    return record


def test_the_statement_kinds_cover_every_operator_kind():
    from confalg.operators import KINDS

    assert {kind for verb, kind in STATEMENT_READS if verb == "check"} >= set(KINDS)


@pytest.mark.parametrize(
    "verb, kind, clause",
    [
        (verb, kind, clause)
        for (verb, kind), reads in STATEMENT_READS.items()
        for clause in VERB_CLAUSES[verb]
        if clause not in reads
    ],
    ids=str,
)
def test_every_clause_a_statement_kind_does_not_read_is_an_error(verb, kind, clause):
    record = _only_record(_statement(verb, kind, STATEMENT_READS[verb, kind] + (clause,)))
    assert (record.identity, record.status) == (f"{verb} {kind} {_subject(kind)}", "error")
    assert record.detail == f"{verb} {kind} reads no '{clause}' clause (line {CLAUSE_LINE})"


#: the clauses each statement kind needs; 'construct ns' also needs 'with' when it has a 'twist'
STATEMENT_NEEDS = {
    **{key: ("on",) if "on" in reads else () for key, reads in STATEMENT_READS.items()},
    ("check", "O"): ("on", "with"),
    ("check", "TwistedRB"): ("on", "with", "twist"),
    ("check", "OLie"): ("on", "with"),
    ("construct", "dendriform"): ("on", "with"),
    ("construct", "mass"): ("on", "with"),
    ("construct", "leftsym"): ("on", "with"),
}
#: how the detail of a statement that lacks a clause it needs names the clause
NEEDED_TEXT = {"on": "an 'on <algebra>'", "with": "a 'with <bimodule>'", "twist": "a 'twist <cocycle>'"}


def test_the_statement_table_declares_the_clauses_each_kind_reads_and_needs():
    from confalg.dsl import STATEMENTS

    assert {key: entry.reads for key, entry in STATEMENTS.items()} == {
        key: reads + (("as",) if key in (("construct", "mass"), ("construct", "deformed")) else ())
        for key, reads in STATEMENT_READS.items()
    }
    assert {key: entry.needs for key, entry in STATEMENTS.items()} == STATEMENT_NEEDS


@pytest.mark.parametrize(
    "verb, kind, missing",
    [
        (verb, kind, clause)
        for (verb, kind), needs in STATEMENT_NEEDS.items()
        for clause in needs
    ]
    + [("construct", "ns", "with")],
    ids=str,
)
def test_a_statement_without_a_clause_its_kind_needs_is_an_error(verb, kind, missing):
    clauses = tuple(clause for clause in STATEMENT_READS[verb, kind] if clause != missing)
    record = _only_record(_statement(verb, kind, clauses))
    assert record.status == "error"
    assert record.detail == f"{verb} {kind} needs {NEEDED_TEXT[missing]} clause (line {CLAUSE_LINE})"


@pytest.mark.parametrize("statement, detail", [
    ("check TwistedRB S on A2 with AdjA2;", "check TwistedRB needs a 'twist <cocycle>' clause"),
    # a twisted construct ns needs 'with', which it reads only with a 'twist'
    ("construct ns S on A2 twist negmult;", "construct ns needs a 'with <bimodule>' clause"),
])
def test_a_missing_clause_is_reported_before_the_names_are_looked_up(statement, detail):
    # the map fails to build, yet the statement reports the clause it lacks
    text = f"map S : AdjA2 -> A2 {{ w -> u; }}\n{statement}\n"
    report, _ = build(CLAUSE_SOURCE + text)
    verb, kind = statement.split()[:2]
    assert [(r.identity, r.status) for r in report.records] == [
        ("map S", "error"), (f"{verb} {kind} S", "error")
    ]
    assert report.records[1].detail == f"{detail} (line {CLAUSE_LINE + 1})"


def test_statement_parse_errors_name_the_kinds_and_clauses():
    operators = (
        "('Derivation', 'Nijenhuis', 'NijenhuisLie', 'O', 'OLie', 'Reynolds', 'RotaBaxter', "
        "'TwistedRB')"
    )
    structures = "('associative', 'lie', 'bimodule', 'cocycle')"
    constructs = "('dendriform', 'ns', 'mass', 'leftsym', 'deformed')"
    cases = [
        ("check Frobenius T on A2;",
         f"unknown check kind 'Frobenius'; expected an operator kind {operators} "
         f"or one of {structures} (line 2, column 1)"),
        ("construct pre T on A2;",
         f"unknown construct kind 'pre'; expected one of {constructs} (line 2, column 1)"),
        ("construct dendriform T on A2 with AdjA2 weight 2;",
         "'weight' is only valid in check statements (line 2, column 41)"),
        ("check associative A2 as B;", "'as' is only valid in construct statements (line 2, column 22)"),
        ("check 7 T;", "expected a check kind, found '7' (line 2, column 7)"),
        ("construct ns;", "expected an operator name, found ';' (line 2, column 13)"),
        # a weight is a number or an auxiliary parameter, never D or a λ variable
        ("check RotaBaxter T on A2 weight L;",
         "'L' is a coefficient variable and cannot name a weight (line 2, column 33)"),
        ("check RotaBaxter T on A2 weight L2;",
         "'L2' is a coefficient variable and cannot name a weight (line 2, column 33)"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as caught:
            parse("\n" + text)
        assert str(caught.value) == message, text
    with pytest.raises(UnresolvedName) as caught:
        resolve(parse(CLAUSE_SOURCE + "construct dendriform T on A2 with AdjA2 as Pre;\n"))
    assert str(caught.value) == (
        f"'as' on line {CLAUSE_LINE} needs a construct that yields an algebra "
        f"(mass or deformed), not 'dendriform'"
    )


FAILED_SOURCE = """
algebra A { basis u; product u u = L2*u; }
algebra G { basis e; product e e = e; }
bimodule B over A { basis m; }
cocycle phi on A { }
map T : A -> A { u -> u; }
"""


#: a command on FAILED_SOURCE, and the detail of its last record
NOT_BUILT = [
    (["check"], "algebra 'A' was not built: its statement failed"),
    (["cohomology", "mc-check", "--map", "T"], "map 'T' was not built: its statement failed"),
    (["cohomology", "mc-check", "--map", "Nope"], "unknown map 'Nope'"),
    (["cohomology", "d2-check", "--algebra", "A"], "algebra 'A' was not built: its statement failed"),
    (["cohomology", "d2-check", "--algebra", "Nope"], "unknown algebra 'Nope'"),
    (
        ["cohomology", "d2-check", "--algebra", "G", "--bimodule", "B"],
        "bimodule 'B' was not built: its statement failed",
    ),
    (["cohomology", "d2-check", "--bimodule", "Nope"], "unknown bimodule 'Nope'"),
    (
        ["cohomology", "bracket", "--left", "T", "--right", "T"],
        "map 'T' was not built: its statement failed",
    ),
    (
        ["cohomology", "bracket", "--left", "phi", "--right", "phi"],
        "cocycle 'phi' was not built: its statement failed",
    ),
    (["cohomology", "bracket", "--left", "Nope", "--right", "Nope"], "unknown map or cocycle 'Nope'"),
]


@pytest.mark.parametrize("argv, detail", NOT_BUILT, ids=[" ".join(argv) for argv, _ in NOT_BUILT])
def test_a_name_whose_statement_failed_is_reported_as_not_built(tmp_path, capsys, argv, detail):
    source = tmp_path / "failed.cfa"
    source.write_text(FAILED_SOURCE)
    split = 2 if argv[0] == "cohomology" else 1
    assert main([*argv[:split], str(source), *argv[split:], "--json"]) == 2
    records = json.loads(capsys.readouterr().out)["records"]
    assert records[-1]["status"] == "error"
    assert records[-1]["detail"] == detail


#: a bimodule whose statement fails, and a twist into it that fails with it
TWIST_INTO_FAILED_SOURCE = """
algebra A { basis u; product u u = u; }
bimodule B over A { basis m; left u w = m; }
cocycle phi on A into B { }
map T : A -> A { u -> u; }
"""


@pytest.mark.parametrize("statement", [
    "check TwistedRB T on A with B twist phi;",
    "construct mass T on A with B twist phi;",
    "construct ns T on A with B twist phi;",
])
def test_checks_and_constructs_look_up_their_clauses_in_one_order(statement):
    # the bimodule is looked up before the twist, so the record names the cause
    report, _ = build(TWIST_INTO_FAILED_SOURCE + statement + "\n")
    assert [r.status for r in report.records] == ["error"] * 3
    assert report.records[-1].detail == "bimodule 'B' was not built: its statement failed"


def test_construct_registers_named_algebras_for_later_checks():
    src = N2_SOURCE + """
bimodule AdjN2 adjoint N2;
map T2 : AdjN2 -> N2 { a -> 2*a; b -> b; }
construct mass T2 on N2 with AdjN2 as Star;
check associative Star;
"""
    report, env = build(src)
    assert [r.status for r in report.records] == ["holds", "holds"]
    assert env.algebras["Star"].entry("a", "a") == 4 * b
    assert report.records[0].emitted is not None
    with pytest.raises(DuplicateName):
        resolve(parse(src + "algebra Star { basis w; }"))


MASS_T_SOURCE = A2_SOURCE + """
bimodule AdjA2 adjoint A2;
map T : AdjA2 -> A2 { u -> v; v -> 0; }
map Swap : AdjA2 -> A2 { u -> v; v -> u; }
"""


def test_cli_checks_an_unnamed_construct_result_by_its_default_name(tmp_path, capsys):
    source = tmp_path / "mass.cfa"
    source.write_text(
        MASS_T_SOURCE
        + "construct mass T on A2 with AdjA2;\n"
        + "construct mass Swap on A2 with AdjA2;\n"  # not an O-operator: nothing is bound
        + "check associative mass_T;\n"
        + "check associative mass_Swap;\n"
    )
    assert main(["check", str(source), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    records = json.loads(captured.out)["records"]
    assert [(r["identity"], r["status"]) for r in records] == [
        ("construct mass T", "holds"),
        ("construct mass Swap", "error"),
        ("check associative mass_T", "holds"),
        ("check associative mass_Swap", "error"),
    ]
    assert records[3]["detail"] == "algebra 'mass_Swap' was not built: its statement failed"


def test_a_default_construct_name_collides_with_an_algebra_or_a_construct(tmp_path, capsys):
    declared = "algebra mass_T { basis w; product w w = w; }\n"
    construct = "construct mass T on A2 with AdjA2;\n"
    check = "check associative mass_T;\n"
    source = tmp_path / "clash.cfa"
    # an algebra declared before or after; or two constructs of one map, such
    # as its plain and its twisted star product
    for text in (MASS_T_SOURCE + declared + check + construct + check,
                 MASS_T_SOURCE + construct + declared,
                 MASS_T_SOURCE + construct + construct):
        source.write_text(text)
        detail = _single_error_record(capsys, source)
        assert "'mass_T'" in detail and "another 'as' name" in detail
        with pytest.raises(DuplicateName, match="mass_T"):
            resolve(parse(text))
    resolve(parse(MASS_T_SOURCE + construct + "construct mass T on A2 with AdjA2 as Star;\n"))


def test_construct_from_invalid_operator_is_an_error():
    src = (
        A2_SOURCE
        + "bimodule AdjA2 adjoint A2;\n"
        + "map Swap : AdjA2 -> A2 { u -> v; v -> u; }\n"
        + "construct dendriform Swap on A2 with AdjA2;\n"
    )
    report, _ = build(src)
    assert report.records[0].status == "error"
    assert report.exit_code == 2


def test_deformed_construct_reports_the_defect_as_failure():
    src = A2_SOURCE + """
map Swap : A2 -> A2 { u -> v; v -> u; }
construct deformed Swap on A2;
"""
    report, env = build(src)
    rec = report.records[0]
    assert rec.status == "fails" and rec.witnesses
    assert rec.emitted is not None
    assert "deformed_Swap" in env.algebras
    assert report.exit_code == 1


#: a Lie algebra, [x y] = x
LIE_G = "algebra G lie { basis x, y; product x y = x; product y x = -x; }\n"


def test_deformed_construct_keeps_the_lie_flavor(tmp_path, capsys):
    source = tmp_path / "deformed.cfa"
    source.write_text(
        LIE_G
        + "map N : G -> G { x -> 2*x; y -> 2*y; }\n"
        + "construct deformed N on G;\ncheck lie deformed_N;\n"
    )
    assert main(["construct", str(source), "--json"]) == 0
    construct, check = json.loads(capsys.readouterr().out)["records"]
    assert construct["emitted"] == (
        "algebra deformed_N lie {\n  basis x, y;\n"
        "  product x y = (2)*x;\n  product y x = (-2)*x;\n}"
    )
    assert (check["identity"], check["status"]) == ("check lie deformed_N", "holds")


@pytest.mark.parametrize("argv, statements, identity", [
    (["check"], "cocycle c on G { value x y = x; }\ncheck cocycle c;\n", "check cocycle c"),
    (["cohomology", "d2-check"], "", "d2-check"),
], ids=["check-cocycle", "d2-check"])
def test_hochschild_checks_on_a_lie_algebra_are_errors(tmp_path, capsys, argv, statements, identity):
    source = tmp_path / "lie.cfa"
    source.write_text(LIE_G + statements)
    assert main([*argv, str(source), "--json"]) == 2
    (record,) = json.loads(capsys.readouterr().out)["records"]
    assert (record["identity"], record["status"], record["witnesses"]) == (identity, "error", [])
    assert record["detail"] == "hochschild_d needs an associative-flavored algebra"


def test_an_operator_check_on_the_other_flavor_is_an_error(tmp_path, capsys):
    source = tmp_path / "lie.cfa"
    source.write_text(LIE_G + "map N : G -> G { x -> x; }\ncheck Nijenhuis N on G;\n")
    assert main(["check", str(source), "--json"]) == 2
    (record,) = json.loads(capsys.readouterr().out)["records"]
    assert (record["identity"], record["status"], record["witnesses"]) == (
        "check Nijenhuis N", "error", []
    )
    assert record["detail"] == "Nijenhuis needs an associative-flavored algebra"


def test_declaration_errors_become_error_records():
    report, _ = build("bimodule B adjoint A;" if False else "algebra A { basis u; }\nmap T : A -> A { u -> D*L*u; }")
    # a lambda variable is not allowed in a module-map image
    assert report.records and report.records[0].status == "error"
    assert report.exit_code == 2


def test_empty_file_is_a_successful_run():
    report, env = build("")
    assert report.records == () and report.exit_code == 0


# -- emission ----------------------------------------------------------------------


def test_render_elem_forms():
    assert render_elem(AM.zero()) == "0"
    assert render_elem(u) == "u"
    assert render_elem(u + 2 * v) == "u + (2)*v"
    assert render_elem(-u) == "(-1)*u"
    assert render_elem((D * D + 2 * L1) * a) == "(D^2 + 2*L1)*a"
    assert render_elem(Fraction(1, 2) * b) == "(1/2)*b"


def test_emitted_fixtures_round_trip():
    for alg, name in ((DUAL, "A2"), (NILP, "N2")):
        _, env = build(emit_dsl(alg, name))
        assert env.algebras[name].table.entries == alg.table.entries


def test_emitted_lie_algebra_keeps_its_flavor():
    lie = ConfAlgebra.lie(FreeModule(("x",)), {})
    text = emit_dsl(lie, "G")
    assert "algebra G lie" in text
    _, env = build(text)
    assert env.algebras["G"].flavor == "lie"


def test_emitted_cocycle_round_trips():
    phi = helpers.nilp_cocycle()
    text = emit_dsl(phi, "phi", on="N2")
    assert "value a a = (L1)*b;" in text
    _, env = build(N2_SOURCE + text)
    assert env.cocycles["phi"][0] == phi
    with pytest.raises(PreconditionFailed):
        emit_dsl(Cochain.zero(1, NM, NM), "f")


def test_emitted_bundle_declares_one_algebra_per_table():
    from confalg.derived import dendriform_from_O

    bundle = dendriform_from_O(helpers.NILP_T2, NILP, helpers.NADJ)
    text = emit_dsl(bundle, "dend")
    _, env = build(text)
    assert set(env.algebras) == {"dend_succ", "dend_prec"}
    assert env.algebras["dend_succ"].table.entries == bundle.table("succ").table.entries
    assert env.algebras["dend_prec"].table.entries == bundle.table("prec").table.entries


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_random_algebras_round_trip_through_emission(seed):
    rng = random.Random(seed)
    rank = rng.randint(1, 3)
    module = FreeModule(tuple(f"e{k}" for k in range(rank)))
    table = random_cochain(rng, 2, module, module, max_degree=2)
    alg = ConfAlgebra.associative(module, dict(table.table.entries))
    _, env = build(emit_dsl(alg, "R"))
    assert env.algebras["R"].table.entries == alg.table.entries


# a coefficient of a binary table: up to two terms c*D^i*L1^j with c = n/d
_binary_coeffs = st.lists(
    st.tuples(st.integers(-3, 3), st.sampled_from((1, 2, 3)), st.integers(0, 2), st.integers(0, 2)),
    max_size=2,
).map(lambda terms: sum((Fraction(n, d) * D**i * L1**j for n, d, i, j in terms), Poly.zero()))


@st.composite
def _binary_tables(draw, module):
    """A table ``module × module -> module`` with small random entries."""
    rank = module.rank
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1)),
            st.lists(_binary_coeffs, min_size=rank, max_size=rank),
            max_size=rank * rank,
        )
    )
    return MultiTable((module, module), module, entries)


@st.composite
def _algebras_with_cochains(draw):
    module = FreeModule(tuple(f"e{k}" for k in range(draw(st.integers(1, 2)))))
    flavor = draw(st.sampled_from(("associative", "lie")))
    alg = ConfAlgebra(module, draw(_binary_tables(module)), flavor)
    return alg, Cochain(draw(_binary_tables(module)))


@settings(max_examples=25, deadline=None)
@given(_algebras_with_cochains())
def test_random_algebras_and_cochains_come_back_equal_from_their_source(alg_and_phi):
    alg, phi = alg_and_phi
    text = emit_dsl(alg, "R") + "\n" + emit_dsl(phi, "phi", on="R")
    report, env = build(text)
    assert report.exit_code == 0
    assert env.algebras["R"] == alg
    assert env.cocycles["phi"] == (phi, "R", None)


# A small source whose records hold, fail and err, with its coefficients as
# slots; the words, names and marks of the language, and "²", a digit that is
# no decimal digit.  The fuzz fills each slot with its own coefficient or with
# random tokens, then replaces a few tokens of the source by random ones.
_FUZZ_SOURCE = """
algebra A {{ basis e , f ; product e e = {} ; product e f = {} ; product f e = f ; }}
bimodule W adjoint A ;
map T : W -> A {{ e -> {} ; f -> 0 ; }}
cocycle c on A {{ value e e = {} ; }}
check associative A ;
check O T on A with W ;
check RotaBaxter T on A weight {} ;
check TwistedRB T on A with W twist c ;
construct mass T on A with W as P ;
check associative P ;
construct dendriform T on A with W ;
"""
_FUZZ_SLOTS = ("e", "( D + L ) * f", "f", "1 / 2 * f", "- 1 / 2")
_FUZZ_TOKENS = (
    sorted(KEYWORDS)
    + ["associative", "O", "Nijenhuis", "Reynolds", "Derivation", "OLie", "ns", "deformed"]
    + ["A", "T", "W", "c", "e", "f", "D", "L", "M", "L2", "q", "0", "1", "2", "3", "\u00b2"]
    + ["", "#", "\n"]
    + ["->", "{", "}", "(", ")", ";", ":", ",", "=", "+", "-", "*", "/", "^"]
)
_fuzz_tokens = st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=6).map(" ".join)


@settings(max_examples=250, deadline=None)
@given(
    st.tuples(*(st.just(slot) | _fuzz_tokens for slot in _FUZZ_SLOTS)),
    st.lists(st.tuples(st.integers(0, 200), st.sampled_from(_FUZZ_TOKENS)), max_size=3),
)
def test_random_token_streams_give_a_report_or_a_confalg_error(slots, edits):
    tokens = _FUZZ_SOURCE.format(*slots).split(" ")
    for at, token in edits:
        tokens[at % len(tokens)] = token
    try:
        report, _ = run(parse(" ".join(tokens)))
    except ConfalgError:
        return
    assert report.exit_code in (0, 1, 2)


_small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    max_size=4,
).map(
    lambda terms: sum(
        (c * D**i * L1**j * L2**k for (i, j, k), c in terms.items()), Poly.zero()
    )
)


@settings(max_examples=50, deadline=None)
@given(_small_polys)
def test_a_coefficient_reads_the_same_in_the_language_and_in_parse_poly(p):
    decl = parse(f"algebra A {{ basis e; product e e = ({p})*e; }}").declarations[0]
    assert decl.products == (("e", "e", ((p, "e"),)),)
    assert parse_poly(str(p)) == p


# -- reports ------------------------------------------------------------------------


def _normalized_json(report: Report) -> str:
    data = report.to_json()
    for record in data["records"]:
        record["elapsed_ms"] = 0.0
    return json.dumps(data, indent=2, sort_keys=True)


def test_reports_are_deterministic_up_to_timing():
    src = A2_SOURCE + "check associative A2;\n"
    first, _ = run(parse(src), command="check", seed=7, version="0.1.0")
    second, _ = run(parse(src), command="check", seed=7, version="0.1.0")
    assert _normalized_json(first) == _normalized_json(second)
    data = first.to_json()
    assert sorted(data) == ["command", "records", "seed", "version"]
    record = data["records"][0]
    assert sorted(record) == [
        "detail",
        "elapsed_ms",
        "emitted",
        "identity",
        "status",
        "witnesses",
    ]


def test_exit_code_precedence_error_over_failure():
    src = (
        A2_SOURCE
        + "check associative A2;\n"
        + "algebra Bad { basis e; product e e = (D + 2*L)*e; }\n"
        + "check associative Bad;\n"
        + "map T : A2 -> A2 { u -> v; }\ncheck O T;\n"
    )
    report, _ = build(src)
    assert [r.status for r in report.records] == ["holds", "fails", "error"]
    assert report.exit_code == 2


def test_negative_sample_counts_degree_caps_and_small_witness_caps_are_rejected():
    _, env = build(A2_SOURCE + "bimodule AdjA2 adjoint A2;")
    alg, bim = env.algebras["A2"], env.bimodules["AdjA2"]
    with pytest.raises(PreconditionFailed):
        d_squared_suite(alg, bim, count=-1)
    with pytest.raises(PreconditionFailed):
        d_squared_suite(alg, bim, count=1, max_degree=-1)
    with pytest.raises(PreconditionFailed):
        random_cochain(1, 2, AM, NM, max_degree=-1)
    with pytest.raises(PreconditionFailed):
        run(parse(A2_SOURCE), witness_cap=0)


def test_d_squared_suite_accepts_real_structures():
    _, env = build(A2_SOURCE + "bimodule AdjA2 adjoint A2;")
    ok, witnesses = d_squared_suite(
        env.algebras["A2"], env.bimodules["AdjA2"], count=4, seed=11
    )
    assert ok and witnesses == ()


# -- the command line ---------------------------------------------------------------


def test_cli_check_runs_the_full_corpus(capsys):
    assert main(["check", str(FIXTURES / "all.cfa")]) == 0
    out = capsys.readouterr().out
    assert "[holds] check O T" in out
    assert "fails" not in out


def test_cli_check_json_report_is_valid(capsys):
    assert main(["check", str(FIXTURES / "all.cfa"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["version"]
    assert all(r["status"] == "holds" for r in data["records"])
    for record in data["records"]:
        assert record["status"] in ("holds", "fails", "error")
        assert isinstance(record["witnesses"], list)
        assert isinstance(record["elapsed_ms"], float)
        if record["status"] == "fails":
            assert record["witnesses"]


def test_cli_broken_corpus_exit_codes(capsys):
    expected = {
        "broken_syntax.cfa": 2,
        "broken_unresolved.cfa": 2,
        "broken_assoc.cfa": 1,
        "broken_o_operator.cfa": 1,
        "broken_cocycle.cfa": 1,
    }
    for name, code in expected.items():
        assert main(["check", str(FIXTURES / name)]) == code, name
        capsys.readouterr()


def test_cli_refuses_a_bimodule_over_another_algebra_on_the_same_basis(tmp_path, capsys):
    source = tmp_path / "twin.cfa"
    source.write_text(
        A2_SOURCE
        + """
algebra Z {
  basis u, v;
}
bimodule B adjoint Z;
cocycle phi on A2 {
  value u u = v;
}
check cocycle phi with B;
"""
    )
    refused = ("error", "bimodule was built over a different algebra")
    assert main(["check", str(source), "--json"]) == 2
    records = json.loads(capsys.readouterr().out)["records"]
    assert [(r["identity"], r["status"], r["detail"]) for r in records] == [
        ("check cocycle phi", *refused)
    ]
    command = ["cohomology", "d2-check", "--algebra", "A2", "--bimodule", "B", str(source)]
    assert main(command + ["--json"]) == 2
    records = json.loads(capsys.readouterr().out)["records"]
    assert [(r["identity"], r["status"], r["detail"]) for r in records[-1:]] == [
        ("d2-check", *refused)
    ]


def test_a_twist_on_another_algebra_is_an_error_record_naming_its_shape():
    source = (
        A2_SOURCE
        + N2_SOURCE
        + """
bimodule B adjoint A2;
bimodule NB adjoint N2;
cocycle phi on N2 into NB {
  value a a = L*b;
}
map T : B -> A2 { u -> u; v -> v; }
check TwistedRB T on A2 with B twist phi;
"""
    )
    report, _ = build(source)
    assert [(r.identity, r.status, r.detail) for r in report.records] == [(
        "check TwistedRB T",
        "error",
        "the twist must map <u, v> × <u, v> into <u, v>, not <a, b> × <a, b> into <a, b>",
    )]


def test_cli_failure_output_names_witnesses(capsys):
    assert main(["check", str(FIXTURES / "broken_assoc.cfa")]) == 1
    out = capsys.readouterr().out
    assert "witness (e, e, e)" in out


def test_cli_missing_file_is_a_runtime_error(capsys):
    assert main(["check", str(FIXTURES / "nope.cfa")]) == 2
    capsys.readouterr()
    assert main(["check", str(FIXTURES / "nope.cfa"), "--json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["records"][0]["status"] == "error"


@pytest.mark.parametrize(
    "coefficient",
    ["D^3000000000", "D^20000*D^20000", "(D+1)^40000", "(D^200+L)^200", "(2)^3000000000"],
)
def test_cli_exponent_overflow_is_an_input_error(tmp_path, capsys, coefficient):
    source = tmp_path / "big.cfa"
    source.write_text(
        f"algebra E {{\n  basis e;\n  product e e = {coefficient}*e;\n}}\n"
        "check associative E;\n"
    )
    assert main(["check", str(source), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    (record,) = json.loads(captured.out)["records"]
    assert record["status"] == "error"
    assert "exceeds the cap 32767" in record["detail"]
    assert "(line 3, column" in record["detail"]


def _single_error_record(capsys, source: Path) -> str:
    assert main(["check", str(source), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    (record,) = json.loads(captured.out)["records"]
    assert record["status"] == "error"
    return record["detail"]


@pytest.mark.parametrize("coefficient", ["2*value", "value", "(D + check)"])
def test_cli_keyword_in_a_coefficient_is_named_as_a_keyword(tmp_path, capsys, coefficient):
    source = tmp_path / "kw.cfa"
    source.write_text(f"algebra A {{ basis e; product e e = {coefficient}*e; }}\n")
    detail = _single_error_record(capsys, source)
    word = "value" if "value" in coefficient else "check"
    assert f"'{word}' is a keyword and cannot appear in a coefficient" in detail
    assert "basis name" not in detail


def test_cli_deep_nesting_is_an_input_error(tmp_path, capsys):
    source = tmp_path / "deep.cfa"
    deep = "(" * 5000 + "D" + ")" * 5000
    source.write_text(f"algebra E {{\n  basis e;\n  product e e = {deep}*e;\n}}\n")
    detail = _single_error_record(capsys, source)
    assert "nesting deeper than 100 levels" in detail
    assert "(line 3, column" in detail


def test_nesting_within_the_limit_parses():
    nested = "(" * 50 + "D" + ")" * 50
    _, env = build(f"algebra E {{ basis e; product e e = {nested}*e; }}")
    e = env.algebras["E"].module.basis_elem(0)
    assert env.algebras["E"].table.entries == {(0, 0): D * e}


def _single_record(capsys, source: Path, exit_code: int) -> dict:
    assert main(["check", str(source), "--json"]) == exit_code
    captured = capsys.readouterr()
    assert captured.err == ""
    (record,) = json.loads(captured.out)["records"]
    return record


def test_cli_numerals_longer_than_the_interpreter_limit(tmp_path, capsys):
    # 4300 digits is the interpreter's default limit on int/str conversions
    nines = "9" * 5000
    source = tmp_path / "big.cfa"
    for coefficient in (f"{nines}*e", f"1/{nines}*e"):
        source.write_text(
            f"algebra A {{\n  basis e;\n  product e e = {coefficient};\n}}\ncheck associative A;\n"
        )
        assert _single_record(capsys, source, 0)["status"] == "holds"

    source.write_text(f"algebra A {{\n  basis e;\n  product e e = D^{nines}*e;\n}}\n")
    detail = _single_error_record(capsys, source)
    assert "exceeds the cap 32767" in detail
    assert "(line 3, column" in detail

    # fixtures/broken_assoc.cfa with the product scaled by 2^15000
    source.write_text(
        "algebra Bad {\n  basis e;\n  product e e = (2)^15000*(D + 2*L)*e;\n}\n"
        "check associative Bad;\n"
    )
    record = _single_record(capsys, source, 1)
    assert record["status"] == "fails"
    (witness,) = record["witnesses"]
    residual = witness["residual"]
    assert residual.startswith("(-") and residual.endswith(")*e")
    small = parse_poly("-D^2 - 2*D*L1 - 3*D*L2 - 4*L1*L2 - 2*L2^2")
    assert parse_poly(residual[1:-3]) == small * 2**30000
    # the leading coefficient is 2^30000, 9031 digits; compare its two ends
    digits = residual[2:].split("*D^2")[0]
    assert len(digits) == 9031
    assert digits[:20] == str(2**30000 // 10**9011)
    assert digits[-20:] == str(2**30000 % 10**20).zfill(20)


def test_cli_non_utf8_source_is_an_input_error(tmp_path, capsys):
    source = tmp_path / "latin1.cfa"
    source.write_bytes(b"algebra E {\r\n  basis e;\n  product e e = \xff*e;\n}\n")
    detail = _single_error_record(capsys, source)
    assert "invalid UTF-8 byte 0xff" in detail
    assert "(line 3, column 17)" in detail


def test_cli_non_decimal_digit_is_an_input_error(tmp_path, capsys):
    # "²" is a digit to str.isdigit() but not a decimal digit, so no number
    source = tmp_path / "super.cfa"
    source.write_text("algebra E {\n  basis e;\n  product e e = \u00b2*e;\n}\n", encoding="utf-8")
    detail = _single_error_record(capsys, source)
    assert detail == "unexpected character '\u00b2' (line 3, column 17)"


def test_cli_closed_stdout_is_not_a_crash(tmp_path):
    # the report is far larger than a pipe buffer, so writing it meets the closed pipe
    source = tmp_path / "big.cfa"
    checks = "check associative E;\n" * 5000
    source.write_text("algebra E {\n  basis e;\n  product e e = e;\n}\n" + checks)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.Popen(
        [sys.executable, "-m", "confalg", "check", str(source)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline().startswith(b"[holds] check associative E")
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert err == b""


def test_cli_term_overflow_is_an_input_error_in_bounded_memory(tmp_path):
    # the check substitutes a two-term weight for D in D^20000, whose powers hold
    # about 2*10^8 terms: without the term cap the child would run out of its
    # 1 GiB of address space long before finishing
    source = tmp_path / "wide.cfa"
    source.write_text(
        "algebra E {\n  basis e;\n  product e e = D^20000*e;\n}\ncheck associative E;\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    child = subprocess.run(
        [sys.executable, "-m", "confalg", "check", "--json", str(source)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        preexec_fn=limit_memory,
        timeout=30,
    )
    assert child.returncode == 2
    assert child.stderr == b""
    (record,) = json.loads(child.stdout)["records"]
    assert record["status"] == "error"
    assert record["detail"] == f"a polynomial would have more than {MAX_TERMS} terms"
    # the check ran for a while before it raised, and its record says so
    assert record["elapsed_ms"] > 0


def test_error_records_of_checks_and_constructs_are_timed(monkeypatch):
    monkeypatch.setattr(polyring, "MAX_TERMS", 1000)
    text = (
        "algebra E {\n  basis e;\n  product e e = D^200*e;\n}\n"
        "map T : E -> E { e -> D*e; }\n"
        "check associative E;\nconstruct ns T on E;\n"
    )
    report, _ = build(text)
    assert report.exit_code == 2
    check, construct = report.records
    assert check.detail == "a polynomial would have more than 1000 terms"
    assert construct.detail.startswith("Nijenhuis: fails at (e, e)")
    for record in report.records:
        assert record.status == "error"
        assert record.elapsed_ms > 0


def test_cli_construct_prints_source_text(capsys):
    assert main(["construct", str(FIXTURES / "all.cfa")]) == 0
    out = capsys.readouterr().out
    assert "algebra dendriform_T_succ" in out
    assert "algebra StarN2" in out


def test_cli_cohomology_d2_check(capsys):
    code = main(
        [
            "cohomology",
            "d2-check",
            str(FIXTURES / "all.cfa"),
            "--algebra",
            "N2",
            "--bimodule",
            "AdjN2",
            "--count",
            "4",
            "--seed",
            "3",
            "--json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 3
    last = data["records"][-1]
    assert last["identity"] == "d2-check N2 with AdjN2"
    assert last["status"] == "holds"


def test_cli_cohomology_mc_check(capsys):
    code = main(
        ["cohomology", "mc-check", str(FIXTURES / "all.cfa"), "--map", "T", "--algebra", "A2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mc-check T on A2 with adjoint" in out
    assert "consistent=True" in out
    code = main(
        ["cohomology", "mc-check", str(FIXTURES / "all.cfa"), "--map", "Missing"]
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "options",
    [
        ["cohomology", "d2-check", "--max-degree", "-1"],
        ["cohomology", "d2-check", "--count", "-3"],
        ["cohomology", "d2-check", "--witness-cap", "0"],
        ["cohomology", "d2-check", "--witness-cap", "-1"],
        ["check", "--witness-cap", "0"],
    ],
    ids=["max-degree", "count", "d2-witness-cap-0", "d2-witness-cap-neg", "check-witness-cap-0"],
)
def test_cli_bad_numeric_options_are_input_errors(options, capsys):
    code = main([*options, str(FIXTURES / "all.cfa"), "--json"])
    assert code == 2
    last = json.loads(capsys.readouterr().out)["records"][-1]
    assert last["status"] == "error"
    assert "negative" in last["detail"] or "at least 1" in last["detail"]


@pytest.mark.parametrize("name", ["broken_syntax", "broken_unresolved"])
def test_parse_and_resolve_error_records_are_timed(name, capsys):
    assert main(["check", str(FIXTURES / f"{name}.cfa"), "--json"]) == 2
    (record,) = json.loads(capsys.readouterr().out)["records"]
    assert (record["identity"], record["status"]) == ("parse", "error")
    assert record["elapsed_ms"] > 0


def test_cli_subcommand_runtime_error_keeps_the_file_records(capsys):
    assert main(["check", str(FIXTURES / "all.cfa"), "--json"]) == 0
    checked = json.loads(capsys.readouterr().out)["records"]
    argv = ["cohomology", "mc-check", str(FIXTURES / "all.cfa"), "--map", "T", "--algebra", "N2"]
    assert main([*argv, "--json"]) == 2
    records = json.loads(capsys.readouterr().out)["records"]
    assert records[-1]["elapsed_ms"] > 0.0
    for record in records + checked:
        del record["elapsed_ms"]
    assert records[:-1] == checked
    error = records[-1]
    assert (error["identity"], error["status"]) == ("mc-check", "error")
    assert error["detail"] == "O: the map must map <a, b> into <a, b>, not <u, v> into <u, v>"


def test_a_failing_composite_renders_as_one_named_witness():
    flags = ("is_twisted_rb", "bracket_identity")
    forged = Composite("modified-mc", dict(zip(flags, (True, False))), agree=flags)
    record = _verdict_record("mc-check X", forged, 0.0, detail=forged.summary())
    summary = "is_twisted_rb=True bracket_identity=False consistent=False"
    assert (record.status, record.detail) == ("fails", summary)
    assert record.witnesses == ({"names": ["modified-mc"], "residual": summary},)


def test_cli_cohomology_bracket(capsys):
    code = main(
        ["cohomology", "bracket", str(FIXTURES / "all.cfa"), "--left", "d", "--right", "d"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[d, d] = 0" in out
    code = main(
        ["cohomology", "bracket", str(FIXTURES / "all.cfa"), "--left", "phi", "--right", "phi"]
    )
    assert code == 0
    assert "degree 3" in capsys.readouterr().out


# -- the run's memo of table sums ----------------------------------------------------

MEMO_SOURCE = A2_SOURCE + """
bimodule AdjA2 adjoint A2;
map T : AdjA2 -> A2 { u -> v; v -> 0; }
"""


def _products(monkeypatch, sf: SourceFile) -> int:
    """The ``Poly`` products that running ``sf`` takes."""
    products, mul = [], Poly.__mul__

    def counted(self, other):
        products.append(None)
        return mul(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(Poly, "__mul__", counted)
        patch.setattr(Poly, "__rmul__", counted)
        run(sf)
    return len(products)


def _timeless(records):
    return [record._replace(elapsed_ms=0.0) for record in records]


@pytest.mark.parametrize(
    "first, then",
    [
        ("check O T on A2 with AdjA2;", "check O T on A2 with AdjA2;"),
        ("check O T on A2 with AdjA2;", "construct dendriform T on A2 with AdjA2;"),
        ("check Nijenhuis T on A2;", "construct ns T on A2;"),
    ],
)
def test_an_identity_checked_again_in_one_run_takes_no_products(monkeypatch, first, then):
    alone = _products(monkeypatch, parse(MEMO_SOURCE + then))
    both = parse(MEMO_SOURCE + first + "\n" + then)
    assert _products(monkeypatch, both) == alone > 0
    report, _ = run(both)
    assert [record.status for record in report.records] == ["holds", "holds"]


def test_each_run_computes_its_sums_afresh_and_closes_its_memo(monkeypatch, capsys):
    sf = parse_file(str(FIXTURES / "all.cfa"))
    costs = [_products(monkeypatch, sf) for _ in range(2)]
    assert costs[0] == costs[1] > 0
    assert confcore._SUMS.get() is None
    assert main(["cohomology", "mc-check", str(FIXTURES / "all.cfa"), "--map", "T"]) == 0
    capsys.readouterr()
    assert confcore._SUMS.get() is None


def test_each_statement_gives_the_record_of_a_run_of_its_own():
    sf = parse_file(str(FIXTURES / "all.cfa"))
    report, _ = run(sf)
    statements = [
        (k, decl) for k, decl in enumerate(sf.declarations) if decl.namespace is None
    ]
    assert len(statements) == len(report.records) == 26
    for (k, stmt), record in zip(statements, report.records):
        # the declarations before it, and the constructs that name an algebra
        needed = [d for d in sf.declarations[:k] if d.namespace is not None or d.as_]
        alone, _ = run(SourceFile(sf.path, tuple(needed) + (stmt,)))
        assert _timeless(alone.records[-1:]) == _timeless([record]), stmt


@pytest.mark.parametrize("budget", [0, 40, 400])
def test_the_memo_keeps_to_its_term_budget(monkeypatch, budget):
    sf = parse_file(str(FIXTURES / "all.cfa"))
    expected, _ = run(sf)
    memos = []

    class Watched(confcore._SumMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(confcore, "SUM_MEMO_TERMS", budget)
    monkeypatch.setattr(confcore, "_SumMemo", Watched)
    report, _ = run(sf)
    assert _timeless(report.records) == _timeless(expected.records)
    (memo,) = memos
    stored = [entry for _, table in memo.sums.values() for entry in table.entries.values()]
    assert memo.held == sum(len(c) for entry in stored for _, c in entry.support()) <= budget
    assert (memo.held > 0) == (budget > 0)


# -- the shared parser --------------------------------------------------------------

ALL = str(FIXTURES / "all.cfa")
CLI_RUNS = (
    ["check", ALL],
    ["construct", ALL, "--json"],
    ["cohomology", "d2-check", ALL, "--seed", "3", "--count", "2"],
    ["cohomology", "mc-check", ALL, "--map", "T", "--algebra", "A2"],
)


def _untimed_run(argv, capsys):
    """Exit code and standard output of one ``main`` call, timings removed."""
    code = main(argv)
    out = capsys.readouterr().out
    out = re.sub(r'"elapsed_ms": [^,\n}]+', '"elapsed_ms": 0', out)
    return code, re.sub(r"\([0-9.]+ ms\)", "(ms)", out)


def test_main_builds_one_parser_per_process_and_reuses_it(monkeypatch, capsys):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    first = [_untimed_run(argv, capsys) for argv in CLI_RUNS]
    # each argv again, after all the others have run
    again = [_untimed_run(argv, capsys) for argv in reversed(CLI_RUNS)][::-1]
    assert len(builds) == 1
    assert [code for code, _ in first] == [0, 0, 0, 0]
    assert again == first


def test_usage_errors_and_version_leave_the_shared_parser_intact(capsys):
    argv = ["check", ALL, "--json"]
    before = _untimed_run(argv, capsys)
    assert _untimed_run([*argv, "--seed", "9", "--witness-cap", "2"], capsys)[0] == 0
    with pytest.raises(SystemExit) as usage:
        main(["check"])
    assert usage.value.code == 2
    with pytest.raises(SystemExit) as version:
        main(["--version"])
    assert version.value.code == 0
    assert capsys.readouterr().out.startswith("confalg ")
    after = _untimed_run(argv, capsys)
    assert after == before
    assert json.loads(after[1])["seed"] == 0


def test_check_has_no_max_degree_option(capsys):
    # only d2-check generates cochains, so only it reads a degree cap
    with pytest.raises(SystemExit) as usage:
        main(["check", ALL, "--max-degree", "3"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --max-degree 3" in capsys.readouterr().err


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import confalg.cli\n"
        "print(len(built), confalg.cli._PARSER)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "0 None\n", "")
