"""Parser, executor, and emitter for the structure-definition language.

A source file declares algebras, bimodules, cocycles, and module maps, then
runs ``check`` and ``construct`` statements against them::

    algebra A2 {
      basis u, v;
      product u u = u;
      product u v = v;
      product v u = v;
    }
    bimodule AdjA2 adjoint A2;
    map T : AdjA2 -> A2 { u -> v; }
    check O T on A2 with AdjA2;

Coefficients are exact polynomials in ``D`` (the derivation) and the weights
``L`` (alias ``L1``), ``L2`` (alias ``M``), written in the grammar of
:func:`~confalg.polyring.parse_poly`, whose tokenizer and parser this module
extends: ``^`` takes an integer exponent on any atom, rational scalars are
written ``p/q``, a unary ``-`` may stand before any factor inside
parentheses, and parentheses and unary minus signs together nest at most
:data:`~confalg.polyring.MAX_NESTING` levels.  A term of an element
expression is a ``*``-product of such powers with at most one basis name.
Numbers are runs of decimal digits, only space, tab, CR and LF separate
tokens, omitted products and values default to zero, and ``#`` starts a
comment running to the end of the line.  :func:`parse` turns text into a
:class:`SourceFile`, :func:`run` executes one and returns a :class:`Report`,
and :func:`emit_dsl` renders algebras, bundles, and 2-cochains back to
source text such that re-parsing reproduces the same tables.
"""

from __future__ import annotations

import io
import json
import random
import time
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .confcore import (
    Composite,
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    LieRep,
    ModElem,
    Verdict,
    check_associative,
    check_bimodule,
    check_lie,
    commutator_lie,
    rep_from_bimodule,
)
from .cohomology import Cochain, is_cocycle, random_cochain, hochschild_d
from .derived import (
    StructureBundle,
    deformed_product,
    dendriform_from_O,
    leftsym_from_dendriform,
    m_ass,
    ns_from_nijenhuis,
    ns_from_twisted,
)
from .errors import (
    ConfalgError,
    DuplicateName,
    ParseError,
    PreconditionFailed,
    UnresolvedName,
)
from .operators import KINDS as OPERATOR_KINDS
from .operators import REGISTRY as OPERATORS
from .operators import ModuleMap, verify_operator
from .polyring import Poly, Token, _PolyParser, _tokenize

__all__ = [
    "SourceFile",
    "Report",
    "Record",
    "parse",
    "parse_file",
    "resolve",
    "run",
    "emit_dsl",
]

#: concrete variable spellings accepted in coefficient expressions
VAR_ALIASES: Mapping[str, str] = {"D": "D", "L": "L1", "L1": "L1", "L2": "L2", "M": "L2"}

#: keywords that cannot be used as declaration or basis names
KEYWORDS = frozenset(
    {
        "algebra",
        "bimodule",
        "cocycle",
        "map",
        "check",
        "construct",
        "basis",
        "product",
        "value",
        "left",
        "right",
        "lie",
        "adjoint",
        "over",
        "on",
        "into",
        "with",
        "twist",
        "weight",
        "as",
    }
)

# -- abstract syntax -----------------------------------------------------------------

#: one additive term of an element expression: coefficient times a basis name
ExprTerm = Tuple[Poly, str]
#: a parsed element expression (empty tuple means the zero element)
Expr = Tuple[ExprTerm, ...]


class AlgebraDecl(NamedTuple):
    name: str
    flavor: str  # "associative" | "lie"
    basis: Tuple[str, ...]
    products: Tuple[Tuple[str, str, Expr], ...]
    line: int


class BimoduleDecl(NamedTuple):
    name: str
    algebra: str
    adjoint: bool
    basis: Tuple[str, ...]  # empty for adjoint declarations
    left: Tuple[Tuple[str, str, Expr], ...]
    right: Tuple[Tuple[str, str, Expr], ...]
    line: int


class CocycleDecl(NamedTuple):
    name: str
    algebra: str
    into: Optional[str]  # bimodule carrying the values; None = the algebra itself
    values: Tuple[Tuple[str, str, Expr], ...]
    line: int


class MapDecl(NamedTuple):
    name: str
    source: str  # algebra or bimodule name
    target: str
    images: Tuple[Tuple[str, Expr], ...]
    line: int


class CheckStmt(NamedTuple):
    kind: str
    name: str
    on: Optional[str]
    with_: Optional[str]
    twist: Optional[str]
    weight: Optional[Union[Fraction, str]]  # a rational or a parameter name
    line: int


class ConstructStmt(NamedTuple):
    kind: str
    name: str
    on: Optional[str]
    with_: Optional[str]
    twist: Optional[str]
    as_: Optional[str]
    line: int


Declaration = Union[AlgebraDecl, BimoduleDecl, CocycleDecl, MapDecl, CheckStmt, ConstructStmt]


class SourceFile(NamedTuple):
    """An ordered list of declarations with per-kind unique names."""

    path: str
    declarations: Tuple[Declaration, ...]


# -- parser ------------------------------------------------------------------------


class _Parser(_PolyParser):
    """The polynomial grammar, with declarations, element expressions and clauses.

    Inside a coefficient a name must be ``D`` or a weight (:data:`VAR_ALIASES`).
    """

    def expect_name(self, what: str = "a name") -> str:
        kind, text, _, _ = self.peek()
        if kind != "name":
            raise self.fail(f"expected {what}, found {text or 'end of input'!r}")
        self.advance()
        return text

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if self.expect_name(f"keyword {word!r}") != word:
            raise self.fail(f"expected keyword {word!r}, found {tok[1]!r}", tok)
        return tok

    def fresh_name(self, what: str) -> str:
        tok = self.peek()
        name = self.expect_name(what)
        if name in KEYWORDS:
            raise self.fail(f"{name!r} is a keyword and cannot name {what}", tok)
        return name

    def at_name(self, text: str) -> bool:
        kind, found, _, _ = self.peek()
        return kind == "name" and found == text

    # element expressions

    def parse_name(self, tok: Token) -> Poly:
        var = VAR_ALIASES.get(tok[1])
        if var is None:
            if tok[1] in KEYWORDS:
                raise self.fail(f"{tok[1]!r} is a keyword and cannot appear in a coefficient", tok)
            raise self.fail("basis names cannot appear inside coefficients", tok)
        return Poly.var(var)

    def parse_elem_term(self) -> Optional[ExprTerm]:
        """One additive term: a product of powers and at most one basis name.

        Returns ``None`` for a term without a basis name whose coefficient is zero.
        """
        coeff = Poly.one()
        basis: Optional[str] = None
        while True:
            kind, text, _, _ = self.peek()
            if kind == "name" and text not in VAR_ALIASES and text not in KEYWORDS:
                if basis is not None:
                    raise self.fail("a term may mention at most one basis name")
                self.advance()
                if self.at_punct("^"):
                    raise self.fail("basis names cannot be raised to powers")
                basis = text
            else:
                coeff = self.times(coeff, self.parse_power)
            if not self.at_punct("*"):
                break
            self.advance()
        if basis is None:
            if coeff.is_zero():
                return None
            raise self.fail("a nonzero term must mention a basis name")
        return (coeff, basis)

    def parse_elem_expr(self) -> Expr:
        terms: List[ExprTerm] = []
        op = self.advance()[1] if self.at_punct("-") else "+"
        while True:
            term = self.parse_elem_term()
            if term is not None:
                coeff, name = term
                terms.append((-coeff if op == "-" else coeff, name))
            if not (self.at_punct("+") or self.at_punct("-")):
                return tuple(terms)
            op = self.advance()[1]

    # declarations

    def parse_basis_line(self) -> Tuple[str, ...]:
        self.expect_keyword("basis")
        names = [self.fresh_name("a basis name")]
        while self.at_punct(","):
            self.advance()
            names.append(self.fresh_name("a basis name"))
        self.expect_punct(";")
        seen = set()
        for name in names:
            if name in seen:
                raise self.fail(f"duplicate basis name {name!r}")
            seen.add(name)
        return tuple(names)

    def parse_entries(self, *words: str) -> List[Tuple[str, str, str, Expr]]:
        """The lines ``word name name = expr;`` for as long as the next word is one of ``words``."""
        entries = []
        while self.peek()[1] in words and self.peek()[0] == "name":
            word = self.advance()[1]
            first = self.expect_name("a basis name")
            second = self.expect_name("a basis name")
            self.expect_punct("=")
            expr = self.parse_elem_expr()
            self.expect_punct(";")
            entries.append((word, first, second, expr))
        return entries

    def parse_algebra(self) -> AlgebraDecl:
        head = self.expect_keyword("algebra")
        name = self.fresh_name("an algebra name")
        flavor = "associative"
        if self.at_name("lie"):
            self.advance()
            flavor = "lie"
        self.expect_punct("{")
        basis = self.parse_basis_line()
        products = tuple(entry[1:] for entry in self.parse_entries("product"))
        self.expect_punct("}")
        return AlgebraDecl(name, flavor, basis, products, head[2])

    def parse_bimodule(self) -> BimoduleDecl:
        head = self.expect_keyword("bimodule")
        name = self.fresh_name("a bimodule name")
        if self.at_name("adjoint"):
            self.advance()
            algebra = self.fresh_name("an algebra name")
            self.expect_punct(";")
            return BimoduleDecl(name, algebra, True, (), (), (), head[2])
        self.expect_keyword("over")
        algebra = self.fresh_name("an algebra name")
        self.expect_punct("{")
        basis = self.parse_basis_line()
        entries = self.parse_entries("left", "right")
        left = tuple(entry[1:] for entry in entries if entry[0] == "left")
        right = tuple(entry[1:] for entry in entries if entry[0] == "right")
        self.expect_punct("}")
        return BimoduleDecl(name, algebra, False, basis, left, right, head[2])

    def parse_cocycle(self) -> CocycleDecl:
        head = self.expect_keyword("cocycle")
        name = self.fresh_name("a cocycle name")
        self.expect_keyword("on")
        algebra = self.fresh_name("an algebra name")
        into = None
        if self.at_name("into"):
            self.advance()
            into = self.fresh_name("a bimodule name")
        self.expect_punct("{")
        values = tuple(entry[1:] for entry in self.parse_entries("value"))
        self.expect_punct("}")
        return CocycleDecl(name, algebra, into, values, head[2])

    def parse_map(self) -> MapDecl:
        head = self.expect_keyword("map")
        name = self.fresh_name("a map name")
        self.expect_punct(":")
        source = self.fresh_name("a source name")
        self.expect_punct("->")
        target = self.fresh_name("a target name")
        self.expect_punct("{")
        images: List[Tuple[str, Expr]] = []
        while self.peek()[0] == "name":
            basis = self.expect_name("a basis name")
            self.expect_punct("->")
            expr = self.parse_elem_expr()
            self.expect_punct(";")
            images.append((basis, expr))
        self.expect_punct("}")
        return MapDecl(name, source, target, tuple(images), head[2])

    def parse_clauses(self, allow_weight: bool, allow_as: bool):
        on = with_ = twist = as_ = None
        weight: Optional[Union[Fraction, str]] = None
        while self.peek()[0] == "name" and self.peek()[1] in ("on", "with", "twist", "weight", "as"):
            word = self.advance()[1]
            if word == "weight":
                if not allow_weight:
                    raise self.fail("'weight' is only valid in check statements")
                negate = self.at_punct("-")
                if negate:
                    self.advance()
                if self.peek()[0] == "number":
                    value = self.parse_number().constant_term()
                    weight = -value if negate else value
                elif negate:
                    raise self.fail("expected a number after '-'")
                else:
                    weight = self.fresh_name("a weight parameter")
                continue
            if word == "as":
                if not allow_as:
                    raise self.fail("'as' is only valid in construct statements")
                as_ = self.fresh_name("a result name")
                continue
            value = self.fresh_name(f"a name after {word!r}")
            if word == "on":
                on = value
            elif word == "with":
                with_ = value
            else:
                twist = value
        return on, with_, twist, weight, as_

    def parse_check(self) -> CheckStmt:
        head = self.expect_keyword("check")
        kind = self.expect_name("a check kind")
        if kind not in OPERATOR_KINDS and kind not in STRUCTURE_CHECK_KINDS:
            raise self.fail(
                f"unknown check kind {kind!r}; expected an operator kind "
                f"{tuple(sorted(OPERATOR_KINDS))} or one of {STRUCTURE_CHECK_KINDS}",
                head,
            )
        name = self.fresh_name("the name to check")
        on, with_, twist, weight, _ = self.parse_clauses(allow_weight=True, allow_as=False)
        self.expect_punct(";")
        return CheckStmt(kind, name, on, with_, twist, weight, head[2])

    def parse_construct(self) -> ConstructStmt:
        head = self.expect_keyword("construct")
        kind = self.expect_name("a construct kind")
        if kind not in CONSTRUCT_KINDS:
            raise self.fail(
                f"unknown construct kind {kind!r}; expected one of {CONSTRUCT_KINDS}", head
            )
        name = self.fresh_name("an operator name")
        on, with_, twist, _, as_ = self.parse_clauses(allow_weight=False, allow_as=True)
        self.expect_punct(";")
        return ConstructStmt(kind, name, on, with_, twist, as_, head[2])

    #: the parser of each declaration, by its keyword
    DECLARATIONS = {
        "algebra": parse_algebra, "bimodule": parse_bimodule, "cocycle": parse_cocycle,
        "map": parse_map, "check": parse_check, "construct": parse_construct,
    }

    def parse_file(self, path: str) -> SourceFile:
        decls: List[Declaration] = []
        while self.peek()[0] != "eof":
            kind, text, _, _ = self.peek()
            if kind != "name":
                raise self.fail("expected a declaration keyword")
            declaration = self.DECLARATIONS.get(text)
            if declaration is None:
                raise self.fail(f"unknown declaration {text!r}")
            decls.append(declaration(self))
        return SourceFile(path, tuple(decls))


def parse(text: str, path: str = "<string>") -> SourceFile:
    """Parse source text, enforcing per-kind uniqueness of declared names."""
    sf = _Parser(_tokenize(text)).parse_file(path)
    seen: Dict[Tuple[str, str], int] = {}
    for decl in sf.declarations:
        kind = _namespace_of(decl)
        if kind is None:
            continue
        key = (kind, decl.name)
        if key in seen:
            raise DuplicateName(
                f"{kind} {decl.name!r} redeclared on line {decl.line} "
                f"(first declared on line {seen[key]})"
            )
        seen[key] = decl.line
    return sf


def parse_file(path: str) -> SourceFile:
    """Read and parse a UTF-8 source file; an undecodable byte is a :class:`ParseError`."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).read()
        line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line, column) from None
    # universal newlines, as text-mode open() would give
    return parse(io.StringIO(text, newline=None).read(), path)


def _namespace_of(decl: Declaration) -> Optional[str]:
    if isinstance(decl, AlgebraDecl):
        return "algebra"
    if isinstance(decl, BimoduleDecl):
        return "bimodule"
    if isinstance(decl, CocycleDecl):
        return "cocycle"
    if isinstance(decl, MapDecl):
        return "map"
    return None


# -- static resolution -----------------------------------------------------------


def _construct_name(stmt: ConstructStmt) -> str:
    """The name a construct's result is bound to: its ``as`` name or ``<kind>_<map>``."""
    return stmt.as_ or f"{stmt.kind}_{stmt.name}"


def resolve(sf: SourceFile) -> None:
    """Verify every reference names an earlier declaration of the right kind."""
    algebras: set = set()
    bimodules: set = set()
    cocycles: set = set()
    maps: set = set()

    def need(name: Optional[str], pool: set, kind: str, line: int) -> None:
        if name is not None and name not in pool:
            raise UnresolvedName(f"unknown {kind} {name!r} referenced on line {line}")

    for decl in sf.declarations:
        if isinstance(decl, AlgebraDecl):
            if decl.name in algebras:
                # parse() already rejects twin declarations, so the only way to
                # get here is a clash with a construct-registered name
                raise DuplicateName(
                    f"algebra {decl.name!r} on line {decl.line} collides with a "
                    f"construct result of the same name; give the construct another 'as' name"
                )
            algebras.add(decl.name)
        elif isinstance(decl, BimoduleDecl):
            need(decl.algebra, algebras, "algebra", decl.line)
            bimodules.add(decl.name)
        elif isinstance(decl, CocycleDecl):
            need(decl.algebra, algebras, "algebra", decl.line)
            need(decl.into, bimodules, "bimodule", decl.line)
            cocycles.add(decl.name)
        elif isinstance(decl, MapDecl):
            for endpoint in (decl.source, decl.target):
                if endpoint not in algebras and endpoint not in bimodules:
                    raise UnresolvedName(
                        f"unknown algebra or bimodule {endpoint!r} referenced on line {decl.line}"
                    )
            maps.add(decl.name)
        elif isinstance(decl, CheckStmt):
            if decl.kind in OPERATOR_KINDS:
                need(decl.name, maps, "map", decl.line)
            elif decl.kind in ("associative", "lie"):
                need(decl.name, algebras, "algebra", decl.line)
            elif decl.kind == "bimodule":
                need(decl.name, bimodules, "bimodule", decl.line)
            else:
                need(decl.name, cocycles, "cocycle", decl.line)
            need(decl.on, algebras, "algebra", decl.line)
            need(decl.with_, bimodules, "bimodule", decl.line)
            need(decl.twist, cocycles, "cocycle", decl.line)
        elif isinstance(decl, ConstructStmt):
            need(decl.name, maps, "map", decl.line)
            need(decl.on, algebras, "algebra", decl.line)
            need(decl.with_, bimodules, "bimodule", decl.line)
            need(decl.twist, cocycles, "cocycle", decl.line)
            if decl.as_ is not None and decl.kind not in ("mass", "deformed"):
                raise UnresolvedName(
                    f"'as' on line {decl.line} needs a construct that yields an "
                    f"algebra (mass or deformed), not {decl.kind!r}"
                )
            if decl.kind in ("mass", "deformed"):
                name = _construct_name(decl)
                if name in algebras:
                    raise DuplicateName(
                        f"algebra {name!r} redeclared by construct on line {decl.line}; "
                        f"give the construct another 'as' name"
                    )
                algebras.add(name)


# -- reports -----------------------------------------------------------------------


class Record(NamedTuple):
    """Outcome of one statement: what ran, how it went, and any witnesses."""

    identity: str
    status: str  # "holds" | "fails" | "error"
    witnesses: Tuple[dict, ...]
    elapsed_ms: float
    detail: Optional[str] = None
    emitted: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "status": self.status,
            "witnesses": [dict(w) for w in self.witnesses],
            "elapsed_ms": self.elapsed_ms,
            "detail": self.detail,
            "emitted": self.emitted,
        }


class Report(NamedTuple):
    """Machine-readable account of a command run over one source file."""

    command: str
    version: str
    seed: Optional[int]
    records: Tuple[Record, ...]

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "seed": self.seed,
            "records": [r.to_json() for r in self.records],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @property
    def exit_code(self) -> int:
        if any(r.status == "error" for r in self.records):
            return 2
        if any(r.status == "fails" for r in self.records):
            return 1
        return 0


def _witnesses_json(verdict: Union[Verdict, Composite]) -> Tuple[dict, ...]:
    return tuple(
        {"names": [str(n) for n in names], "residual": str(residual)}
        for names, residual in verdict.witnesses
    )


def _ms_since(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


def _verdict_record(
    identity: str, verdict: Union[Verdict, Composite], started: float, emitted=None, detail=None
) -> Record:
    status = "holds" if verdict.holds else "fails"
    return Record(identity, status, _witnesses_json(verdict), _ms_since(started), detail, emitted)


# -- execution environment -----------------------------------------------------------


class _Built(dict):
    """The objects of one kind built so far, by name.

    :func:`resolve` has checked every reference, so a missing name is one whose
    declaration or construct raised; looking it up raises :class:`UnresolvedName`.
    """

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind

    def __missing__(self, name: str):
        raise UnresolvedName(f"{self.kind} {name!r} was not built: its statement failed")


class Environment:
    """Named objects built while executing a source file."""

    def __init__(self) -> None:
        self.algebras: Dict[str, ConfAlgebra] = _Built("algebra")
        self.bimodules: Dict[str, ConfBimodule] = _Built("bimodule")
        self.cocycles: Dict[str, Tuple[Cochain, str, Optional[str]]] = _Built("cocycle")
        self.maps: Dict[str, ModuleMap] = _Built("map")

    def module_of(self, name: str) -> FreeModule:
        if name in self.algebras:
            return self.algebras[name].module
        if name in self.bimodules:
            return self.bimodules[name].module
        raise UnresolvedName(f"unknown algebra or bimodule {name!r}")


def _eval_expr(expr: Expr, module: FreeModule) -> ModElem:
    out = module.zero()
    index = {name: k for k, name in enumerate(module.basis)}
    for coeff, name in expr:
        if name not in index:
            raise UnresolvedName(
                f"{name!r} is not a basis name of this module (basis: {', '.join(module.basis)})"
            )
        out = out + coeff * module.basis_elem(index[name])
    return out


def _entry_table(
    pairs: Sequence[Tuple[str, str, Expr]],
    row_module: FreeModule,
    col_module: FreeModule,
    value_module: FreeModule,
) -> Dict[Tuple[int, int], ModElem]:
    rows = {name: k for k, name in enumerate(row_module.basis)}
    cols = {name: k for k, name in enumerate(col_module.basis)}
    entries: Dict[Tuple[int, int], ModElem] = {}
    for first, second, expr in pairs:
        if first not in rows:
            raise UnresolvedName(f"{first!r} is not a basis name (basis: {', '.join(row_module.basis)})")
        if second not in cols:
            raise UnresolvedName(f"{second!r} is not a basis name (basis: {', '.join(col_module.basis)})")
        key = (rows[first], cols[second])
        if key in entries:
            raise DuplicateName(f"entry {first} {second} given twice")
        value = _eval_expr(expr, value_module)
        if not value.is_zero():
            entries[key] = value
    return entries


def _declare(env: Environment, decl: Declaration) -> None:
    if isinstance(decl, AlgebraDecl):
        module = FreeModule(decl.basis)
        entries = _entry_table(decl.products, module, module, module)
        if decl.flavor == "lie":
            env.algebras[decl.name] = ConfAlgebra.lie(module, entries, check_skew=False)
        else:
            env.algebras[decl.name] = ConfAlgebra.associative(module, entries)
    elif isinstance(decl, BimoduleDecl):
        algebra = env.algebras[decl.algebra]
        if decl.adjoint:
            env.bimodules[decl.name] = ConfBimodule.adjoint(algebra)
        else:
            module = FreeModule(decl.basis)
            left = _entry_table(decl.left, algebra.module, module, module)
            right = _entry_table(decl.right, module, algebra.module, module)
            env.bimodules[decl.name] = ConfBimodule.build(algebra, module, left, right)
    elif isinstance(decl, CocycleDecl):
        algebra = env.algebras[decl.algebra]
        value_module = (
            env.bimodules[decl.into].module if decl.into is not None else algebra.module
        )
        entries = _entry_table(decl.values, algebra.module, algebra.module, value_module)
        env.cocycles[decl.name] = (
            Cochain.from_entries(2, algebra.module, value_module, entries),
            decl.algebra,
            decl.into,
        )
    elif isinstance(decl, MapDecl):
        source = env.module_of(decl.source)
        target = env.module_of(decl.target)
        images = {}
        names = set(source.basis)
        for name, expr in decl.images:
            if name not in names:
                raise UnresolvedName(
                    f"{name!r} is not a basis name of {decl.source!r} (basis: {', '.join(source.basis)})"
                )
            if name in images:
                raise DuplicateName(f"image of {name!r} given twice")
            images[name] = _eval_expr(expr, target)
        for name in source.basis:
            images.setdefault(name, target.zero())
        env.maps[decl.name] = ModuleMap.from_images(source, target, images)


def _reject_unread(stmt: Union[CheckStmt, ConstructStmt], reads: Tuple[str, ...]) -> None:
    """Raise if the statement has a clause that its kind does not read."""
    given = {
        "on": stmt.on,
        "with": stmt.with_,
        "twist": stmt.twist,
        "weight": getattr(stmt, "weight", None),
    }
    unread = [
        f"'{name}'" for name, value in given.items() if value is not None and name not in reads
    ]
    if unread:
        verb = "check" if isinstance(stmt, CheckStmt) else "construct"
        raise PreconditionFailed(
            f"{verb} {stmt.kind} reads no {' or '.join(unread)} clause (line {stmt.line})"
        )


def _operator_context(env: Environment, stmt: CheckStmt):
    """The map, the algebra and the inputs (only those the kind reads) of an operator check."""
    spec = OPERATORS[stmt.kind]
    if stmt.on is None:
        raise PreconditionFailed(
            f"check {stmt.kind} needs an 'on <algebra>' clause (line {stmt.line})"
        )
    T = env.maps[stmt.name]
    alg = env.algebras[stmt.on]
    inputs: dict = {}
    if stmt.twist is not None:
        inputs["twist"] = env.cocycles[stmt.twist][0]
    if stmt.weight is not None:
        weight = stmt.weight
        inputs["weight"] = Poly.var(weight) if isinstance(weight, str) else weight
    bim = env.bimodules[stmt.with_] if stmt.with_ is not None else None
    if "rep" not in spec.reads:
        inputs["bim"] = bim
    elif bim is None:
        raise PreconditionFailed(
            f"check {stmt.kind} needs a 'with <bimodule>' clause (line {stmt.line})"
        )
    elif alg.flavor == "associative":  # the commutator representation of the bimodule
        inputs["rep"] = rep_from_bimodule(alg, bim)
    else:  # a bimodule over a Lie algebra acts by its left action: the bracket, if adjoint
        inputs["rep"] = LieRep(bim.algebra, bim.module, bim.left)
    if spec.flavor == "lie" and alg.flavor == "associative":
        # a Lie identity on an associative algebra is checked on its commutator bracket
        alg = commutator_lie(alg)
    return T, alg, inputs


#: the clauses each structure check reads
STRUCTURE_CHECK_CLAUSES: Mapping[str, Tuple[str, ...]] = {
    "associative": (),
    "lie": (),
    "bimodule": (),
    "cocycle": ("with",),
}
STRUCTURE_CHECK_KINDS = tuple(STRUCTURE_CHECK_CLAUSES)

#: the clause of a check statement that supplies each input an operator kind reads
_INPUT_CLAUSES = {"with": "with", "rep": "with", "twist": "twist", "weight": "weight"}


def _check_clauses(kind: str) -> Tuple[str, ...]:
    """The clauses a check of this kind reads; an operator kind's come from its registry entry."""
    if kind in OPERATORS:
        return ("on",) + tuple(_INPUT_CLAUSES[name] for name in OPERATORS[kind].reads)
    return STRUCTURE_CHECK_CLAUSES[kind]


def _run_check(env: Environment, stmt: CheckStmt, cap: int) -> Record:
    identity = f"check {stmt.kind} {stmt.name}"
    started = time.perf_counter()
    _reject_unread(stmt, _check_clauses(stmt.kind))
    if stmt.kind in OPERATOR_KINDS:
        T, alg, inputs = _operator_context(env, stmt)
        verdict = verify_operator(stmt.kind, T, alg, cap=cap, **inputs)
    elif stmt.kind == "associative":
        verdict = check_associative(env.algebras[stmt.name], cap=cap)
    elif stmt.kind == "lie":
        verdict = check_lie(env.algebras[stmt.name], cap=cap)
    elif stmt.kind == "bimodule":
        bim = env.bimodules[stmt.name]
        verdict = check_bimodule(bim.algebra, bim, cap=cap)
    else:  # cocycle
        phi, alg_name, into = env.cocycles[stmt.name]
        alg = env.algebras[alg_name]
        if stmt.with_ is not None:
            bim = env.bimodules[stmt.with_]
        elif into is not None:
            bim = env.bimodules[into]
        else:
            bim = ConfBimodule.adjoint(alg)
        verdict = is_cocycle(phi, alg, bim, cap=cap)
    return _verdict_record(identity, verdict, started)


#: the clauses each construct reads; ``ns`` reads ``with`` only together with ``twist``
CONSTRUCT_CLAUSES: Mapping[str, Tuple[str, ...]] = {
    "dendriform": ("on", "with"),
    "ns": ("on", "with", "twist"),
    "mass": ("on", "with", "twist"),
    "leftsym": ("on", "with"),
    "deformed": ("on",),
}
CONSTRUCT_KINDS = tuple(CONSTRUCT_CLAUSES)


def _run_construct(env: Environment, stmt: ConstructStmt, cap: int) -> Record:
    identity = f"construct {stmt.kind} {stmt.name}"
    started = time.perf_counter()
    _reject_unread(stmt, CONSTRUCT_CLAUSES[stmt.kind])
    if stmt.on is None:
        raise PreconditionFailed(
            f"construct {stmt.kind} needs an 'on <algebra>' clause (line {stmt.line})"
        )
    T = env.maps[stmt.name]
    alg = env.algebras[stmt.on]
    bim = env.bimodules[stmt.with_] if stmt.with_ is not None else None
    twist = env.cocycles[stmt.twist][0] if stmt.twist is not None else None
    base = _construct_name(stmt)

    def need_bim() -> ConfBimodule:
        if bim is None:
            raise PreconditionFailed(
                f"construct {stmt.kind} needs a 'with <bimodule>' clause (line {stmt.line})"
            )
        return bim

    if stmt.kind == "dendriform":
        bundle = dendriform_from_O(T, alg, need_bim(), cap=cap)
        emitted = emit_dsl(bundle, base)
    elif stmt.kind == "ns":
        if twist is not None:
            bundle = ns_from_twisted(T, alg, need_bim(), twist, cap=cap)
        else:
            _reject_unread(stmt, ("on",))
            bundle = ns_from_nijenhuis(T, alg, cap=cap)
        emitted = emit_dsl(bundle, base)
    elif stmt.kind == "leftsym":
        bundle = leftsym_from_dendriform(dendriform_from_O(T, alg, need_bim(), cap=cap), cap=cap)
        emitted = emit_dsl(bundle, base)
    elif stmt.kind == "mass":
        star = m_ass(T, alg, need_bim(), twist)
        env.algebras[base] = star
        emitted = emit_dsl(star, base)
    else:  # deformed
        circ, defect = deformed_product(T, alg)
        env.algebras[base] = circ
        emitted = emit_dsl(circ, base)
        if not defect.is_zero():
            witnesses = tuple(
                {
                    "names": [alg.module.basis[i] for i in idx],
                    "residual": str(value),
                }
                for idx, value in sorted(defect.table.entries.items())
            )[:cap]
            return Record(
                identity,
                "fails",
                witnesses,
                _ms_since(started),
                "the deformation defect (the candidate's cocycle error) is nonzero",
                emitted,
            )
    return Record(identity, "holds", (), _ms_since(started), None, emitted)


def run(
    sf: SourceFile,
    *,
    command: str = "check",
    seed: Optional[int] = None,
    witness_cap: int = 16,
    version: str = "0",
) -> Tuple[Report, Environment]:
    """Execute a parsed file: declarations bind names, checks produce records.

    Declarations only contribute records when they raise; check and construct
    statements always do.  The report's exit code is 2 if any record is an
    error, 1 if any check fails, and 0 otherwise.  A ``witness_cap`` below 1
    raises :class:`PreconditionFailed`.
    """
    if witness_cap < 1:
        raise PreconditionFailed(f"the witness cap must be at least 1, not {witness_cap}")
    resolve(sf)
    env = Environment()
    records: List[Record] = []
    for decl in sf.declarations:
        namespace = _namespace_of(decl)
        started = time.perf_counter()
        try:
            if namespace is not None:
                _declare(env, decl)
            elif isinstance(decl, CheckStmt):
                records.append(_run_check(env, decl, witness_cap))
            else:
                records.append(_run_construct(env, decl, witness_cap))
        except ConfalgError as exc:
            elapsed = _ms_since(started)
            if namespace is not None:
                identity = f"{namespace} {decl.name}"
            else:
                kind = "check" if isinstance(decl, CheckStmt) else "construct"
                identity = f"{kind} {decl.kind} {decl.name}"
            records.append(Record(identity, "error", (), elapsed, str(exc)))
    return Report(command, version, seed, tuple(records)), env


# -- emission ----------------------------------------------------------------------


def render_elem(elem: ModElem) -> str:
    """Render a module element as a parseable element expression."""
    pieces = []
    for k, coeff in enumerate(elem.coeffs):
        if coeff.is_zero():
            continue
        name = elem.module.basis[k]
        if coeff == Poly.one():
            pieces.append(name)
        else:
            pieces.append(f"({coeff})*{name}")
    return " + ".join(pieces) if pieces else "0"


def _emit_algebra(alg: ConfAlgebra, name: str) -> str:
    flavor = " lie" if alg.flavor == "lie" else ""
    lines = [f"algebra {name}{flavor} {{"]
    lines.append(f"  basis {', '.join(alg.module.basis)};")
    for idx in sorted(alg.table.entries):
        left, right = (alg.module.basis[k] for k in idx)
        lines.append(f"  product {left} {right} = {render_elem(alg.table.entries[idx])};")
    lines.append("}")
    return "\n".join(lines)


def _emit_cochain(f: Cochain, name: str, on: str, into: Optional[str]) -> str:
    if f.arity != 2:
        raise PreconditionFailed("only arity-2 cochains have a source form")
    head = f"cocycle {name} on {on}"
    if into is not None:
        head += f" into {into}"
    lines = [head + " {"]
    for idx in sorted(f.table.entries):
        first = f.input_module.basis[idx[0]]
        second = f.input_module.basis[idx[1]]
        lines.append(f"  value {first} {second} = {render_elem(f.table.entries[idx])};")
    lines.append("}")
    return "\n".join(lines)


def emit_dsl(
    obj: Union[ConfAlgebra, StructureBundle, Cochain],
    name: str = "X",
    *,
    on: str = "A",
    into: Optional[str] = None,
) -> str:
    """Render an algebra, a structure bundle, or a 2-cochain as source text.

    Re-parsing the output reconstructs objects with equal tables.  Bundles
    emit one algebra block per component table, named ``<name>_<tag>``; the
    ``on``/``into`` names only matter for cochains, whose source form must
    reference an algebra (and optionally a bimodule) by name.
    """
    if isinstance(obj, ConfAlgebra):
        return _emit_algebra(obj, name)
    if isinstance(obj, StructureBundle):
        blocks = [
            _emit_algebra(obj.table(tag).as_algebra(), f"{name}_{tag}")
            for tag in sorted(obj.tables)
        ]
        return "\n\n".join(blocks)
    if isinstance(obj, Cochain):
        return _emit_cochain(obj, name, on, into)
    raise PreconditionFailed(f"cannot emit {type(obj).__name__} as source text")


# -- random differential suite (used by the command line) ------------------------------


def d_squared_suite(
    alg: ConfAlgebra,
    bim: ConfBimodule,
    *,
    count: int = 10,
    seed: int = 0,
    max_degree: int = 2,
) -> Tuple[bool, Tuple[dict, ...]]:
    """Check 𝐝∘𝐝 = 0 on ``count`` seeded random cochains of arities 1 and 2.

    Returns the overall result and JSON-ready witnesses for any failures.  A
    negative ``count`` or ``max_degree`` raises :class:`PreconditionFailed`.
    """
    if count < 0:
        raise PreconditionFailed(f"the sample count must not be negative, not {count}")
    rng = random.Random(seed)
    witnesses: List[dict] = []
    for sample in range(count):
        arity = 1 + sample % 2
        f = random_cochain(rng, arity, alg.module, bim.module, max_degree=max_degree)
        dd = hochschild_d(hochschild_d(f, alg, bim), alg, bim)
        if not dd.is_zero():
            idx, value = sorted(dd.table.entries.items())[0]
            witnesses.append(
                {
                    "names": [f"sample={sample}", f"arity={arity}"]
                    + [alg.module.basis[i] for i in idx],
                    "residual": str(value),
                }
            )
    return not witnesses, tuple(witnesses)
