"""Parser, executor, and emitter for the structure-definition language.

A source file declares algebras, bimodules, cocycles, and module maps, then
runs ``check`` and ``construct`` statements against them.  Each declaration
kind names in ``refs`` the fields that reference earlier declarations, with
the namespaces each may resolve in, and ``build(env)`` returns its object.
Each kind of statement is one entry of :data:`STATEMENTS`, which gives the
namespace of its name, the clauses it reads and needs, and the function that
runs it::

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
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

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
    sum_memo,
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

#: the field of a statement that holds each clause, in the order error messages name them
CLAUSE_FIELDS = {"on": "on", "with": "with_", "twist": "twist", "weight": "weight", "as": "as_"}

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

    namespace = "algebra"
    refs = ()

    def build(self, env: Environment) -> ConfAlgebra:
        module = FreeModule(self.basis)
        entries = _entry_table(self.products, module, module, module)
        if self.flavor == "lie":
            return ConfAlgebra.lie(module, entries, check_skew=False)
        return ConfAlgebra.associative(module, entries)


class BimoduleDecl(NamedTuple):
    name: str
    algebra: str
    adjoint: bool
    basis: Tuple[str, ...]  # empty for adjoint declarations
    left: Tuple[Tuple[str, str, Expr], ...]
    right: Tuple[Tuple[str, str, Expr], ...]
    line: int

    namespace = "bimodule"
    refs = (("algebra", ("algebra",)),)

    def build(self, env: Environment) -> ConfBimodule:
        algebra = env.algebras[self.algebra]
        if self.adjoint:
            return ConfBimodule.adjoint(algebra)
        module = FreeModule(self.basis)
        left = _entry_table(self.left, algebra.module, module, module)
        right = _entry_table(self.right, module, algebra.module, module)
        return ConfBimodule.build(algebra, module, left, right)


class CocycleDecl(NamedTuple):
    name: str
    algebra: str
    into: Optional[str]  # bimodule carrying the values; None = the algebra itself
    values: Tuple[Tuple[str, str, Expr], ...]
    line: int

    namespace = "cocycle"
    refs = (("algebra", ("algebra",)), ("into", ("bimodule",)))

    def build(self, env: Environment) -> Tuple[Cochain, str, Optional[str]]:
        """The cochain, kept with the names of its algebra and bimodule."""
        algebra = env.algebras[self.algebra]
        value_module = env.bimodules[self.into].module if self.into is not None else algebra.module
        entries = _entry_table(self.values, algebra.module, algebra.module, value_module)
        cochain = Cochain.from_entries(2, algebra.module, value_module, entries)
        return cochain, self.algebra, self.into


class MapDecl(NamedTuple):
    name: str
    source: str  # algebra or bimodule name
    target: str
    images: Tuple[Tuple[str, Expr], ...]
    line: int

    namespace = "map"
    refs = (("source", ("algebra", "bimodule")), ("target", ("algebra", "bimodule")))

    def build(self, env: Environment) -> ModuleMap:
        source = env.lookup(self.source, env.algebras, env.bimodules).module
        target = env.lookup(self.target, env.algebras, env.bimodules).module
        images = {}
        for name, expr in self.images:
            if name not in source.basis:
                raise UnresolvedName(
                    f"{name!r} is not a basis name of {self.source!r} (basis: {', '.join(source.basis)})"
                )
            if name in images:
                raise DuplicateName(f"image of {name!r} given twice")
            images[name] = _eval_expr(expr, target)
        return ModuleMap.from_images(source, target, images)


class Statement(NamedTuple):
    """A ``check`` or ``construct`` statement, run by its :data:`STATEMENTS` entry."""

    verb: str  # "check" | "construct"
    kind: str
    name: str
    on: Optional[str]
    with_: Optional[str]
    twist: Optional[str]
    weight: Optional[Poly]  # a rational or an auxiliary parameter
    as_: Optional[str]
    line: int

    namespace = None  # a statement declares no name

    @property
    def refs(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """The name in its kind's namespace, then the ``on``, ``with`` and ``twist`` clauses."""
        namespace = STATEMENTS[self.verb, self.kind].namespace
        clauses = ("on", ("algebra",)), ("with_", ("bimodule",)), ("twist", ("cocycle",))
        return (("name", (namespace,)),) + clauses


Declaration = Union[AlgebraDecl, BimoduleDecl, CocycleDecl, MapDecl, Statement]

#: the namespaces that declarations bind names in
NAMESPACES = ("algebra", "bimodule", "cocycle", "map")


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

    def parse_weight(self) -> Poly:
        """A rational number or an auxiliary parameter, which is no coefficient variable."""
        negate = self.at_punct("-")
        if negate:
            self.advance()
        if self.peek()[0] == "number":
            return -self.parse_number() if negate else self.parse_number()
        if negate:
            raise self.fail("expected a number after '-'")
        tok = self.peek()
        name = self.fresh_name("a weight parameter")
        if name in VAR_ALIASES:
            raise self.fail(f"{name!r} is a coefficient variable and cannot name a weight", tok)
        return Poly.var(name)

    def parse_statement(self) -> Statement:
        head = self.advance()
        verb = head[1]
        kind = self.expect_name(f"a {verb} kind")
        if (verb, kind) not in STATEMENTS:
            raise self.fail(f"unknown {verb} kind {kind!r}; expected {_expected_kinds(verb)}", head)
        name = self.fresh_name("the name to check" if verb == "check" else "an operator name")
        clauses = dict.fromkeys(CLAUSE_FIELDS.values())
        while self.peek()[0] == "name" and self.peek()[1] in CLAUSE_FIELDS:
            token = self.advance()
            word = token[1]
            if word not in VERB_CLAUSES[verb]:
                other = next(v for v, words in VERB_CLAUSES.items() if word in words)
                raise self.fail(f"{word!r} is only valid in {other} statements", token)
            what = "a result name" if word == "as" else f"a name after {word!r}"
            value = self.parse_weight() if word == "weight" else self.fresh_name(what)
            clauses[CLAUSE_FIELDS[word]] = value
        self.expect_punct(";")
        return Statement(verb, kind, name, **clauses, line=head[2])

    #: the parser of each declaration, by its keyword
    DECLARATIONS = {
        "algebra": parse_algebra, "bimodule": parse_bimodule, "cocycle": parse_cocycle,
        "map": parse_map, "check": parse_statement, "construct": parse_statement,
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


#: keywords that cannot be used as declaration or basis names: the declaration
#: words, the clause words of statements, and the words inside declarations
KEYWORDS = frozenset(_Parser.DECLARATIONS).union(
    CLAUSE_FIELDS, ("basis", "product", "value", "left", "right", "lie", "adjoint", "over", "into")
)


def parse(text: str, path: str = "<string>") -> SourceFile:
    """Parse source text, enforcing per-kind uniqueness of declared names."""
    sf = _Parser(_tokenize(text)).parse_file(path)
    seen: Dict[Tuple[str, str], int] = {}
    for decl in sf.declarations:
        if decl.namespace is None:
            continue
        key = (decl.namespace, decl.name)
        if key in seen:
            raise DuplicateName(
                f"{decl.namespace} {decl.name!r} redeclared on line {decl.line} "
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


# -- static resolution -----------------------------------------------------------


def _construct_name(stmt: Statement) -> str:
    """The name a construct's result is bound to: its ``as`` name or ``<kind>_<map>``."""
    return stmt.as_ or f"{stmt.kind}_{stmt.name}"


def resolve(sf: SourceFile) -> Dict[str, set]:
    """Verify every reference names an earlier declaration of the right kind.

    Returns the names declared in each namespace; construct results are algebras.
    """
    declared: Dict[str, set] = {namespace: set() for namespace in NAMESPACES}
    for decl in sf.declarations:
        for field, namespaces in decl.refs:
            name = getattr(decl, field)
            if name is not None and not any(name in declared[ns] for ns in namespaces):
                raise UnresolvedName(
                    f"unknown {' or '.join(namespaces)} {name!r} referenced on line {decl.line}"
                )
        if decl.namespace is not None:
            if decl.name in declared[decl.namespace]:
                # parse() already rejects twin declarations, so the only way to
                # get here is a clash with a construct-registered algebra name
                raise DuplicateName(
                    f"{decl.namespace} {decl.name!r} on line {decl.line} collides with a "
                    f"construct result of the same name; give the construct another 'as' name"
                )
            declared[decl.namespace].add(decl.name)
            continue
        reads = STATEMENTS[decl.verb, decl.kind].reads
        if decl.as_ is not None and "as" not in reads:
            yielding = [kind for (_, kind), e in STATEMENTS.items() if "as" in e.reads]
            raise UnresolvedName(
                f"'as' on line {decl.line} needs a construct that yields an "
                f"algebra ({' or '.join(yielding)}), not {decl.kind!r}"
            )
        if "as" in reads:
            name = _construct_name(decl)
            if name in declared["algebra"]:
                raise DuplicateName(
                    f"algebra {name!r} redeclared by construct on line {decl.line}; "
                    f"give the construct another 'as' name"
                )
            declared["algebra"].add(name)
    return declared


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

    Looking up a missing name raises :class:`UnresolvedName`.  A name that
    ``declared`` (see :func:`resolve`) holds for this kind is one whose
    declaration or construct raised; any other was never declared.
    """

    def __init__(self, kind: str, declared: Mapping[str, set]) -> None:
        super().__init__()
        self.kind = kind
        self.declared = declared.get(kind, ())

    def __missing__(self, name: str):
        if name in self.declared:
            raise UnresolvedName(f"{self.kind} {name!r} was not built: its statement failed")
        raise UnresolvedName(f"unknown {self.kind} {name!r}")


class Environment:
    """Named objects built while executing a source file that declares ``declared``."""

    def __init__(self, declared: Mapping[str, set] = MappingProxyType({})) -> None:
        self.pools = {namespace: _Built(namespace, declared) for namespace in NAMESPACES}
        # the objects of each namespace, under the names of NAMESPACES in order
        self.algebras, self.bimodules, self.cocycles, self.maps = self.pools.values()

    def lookup(self, name: str, *pools: _Built):
        """The object ``name`` from the first of ``pools`` that built it, else that declared it."""
        found = [pool for pool in pools if name in pool] or [
            pool for pool in pools if name in pool.declared
        ]
        if found:
            return found[0][name]  # raises if its statement failed
        raise UnresolvedName(f"unknown {' or '.join(pool.kind for pool in pools)} {name!r}")


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


#: how an error names each clause a statement may need
_NEEDED = {"on": "an 'on <algebra>'", "with": "a 'with <bimodule>'", "twist": "a 'twist <cocycle>'"}


def _check_clauses(stmt: Statement, entry: StatementKind) -> None:
    """Raise if the statement gives a clause its kind does not read, else lacks one it needs."""
    given = [clause for clause, field in CLAUSE_FIELDS.items() if getattr(stmt, field) is not None]
    tied = {clause: partner in given for clause, partner in entry.tied}
    reads = [clause for clause in entry.reads if tied.get(clause, True)]
    needs = [*entry.needs, *(clause for clause, live in tied.items() if live)]
    unread = " or ".join(f"'{clause}'" for clause in given if clause not in reads)
    missing = [clause for clause in needs if clause not in given]
    if unread or missing:
        problem = f"reads no {unread}" if unread else f"needs {_NEEDED[missing[0]]}"
        raise PreconditionFailed(f"{stmt.verb} {stmt.kind} {problem} clause (line {stmt.line})")


class Bound(NamedTuple):
    """The objects a statement's ``refs`` name, ``None`` for an absent clause; a cocycle
    is kept with the names of its algebra and bimodule, and ``cochain`` is the twist's."""

    name: object
    on: Optional[ConfAlgebra]
    with_: Optional[ConfBimodule]
    twist: Optional[Tuple[Cochain, str, Optional[str]]]

    @property
    def cochain(self) -> Optional[Cochain]:
        return self.twist[0] if self.twist is not None else None


#: the verdict of a construct that has nothing to check beyond its building
_BUILT = Verdict("built", True, ())

#: what running a statement gives: its verdict, the structure it built, and its record's detail
Outcome = Tuple[Union[Verdict, Composite], object, Optional[str]]


def _check_operator(env: Environment, stmt: Statement, args: Bound, cap: int) -> Outcome:
    """The map's identity on the algebra, with the clauses as its registry entry's inputs."""
    spec = OPERATORS[stmt.kind]
    alg, bim = args.on, args.with_
    inputs = {"twist": args.cochain, "weight": stmt.weight}
    if "rep" not in spec.reads:
        inputs["bim"] = bim
    elif alg.flavor == "associative":  # the commutator representation of the bimodule
        inputs["rep"] = rep_from_bimodule(alg, bim)
    else:  # a bimodule over a Lie algebra acts by its left action: the bracket, if adjoint
        inputs["rep"] = LieRep(bim.algebra, bim.module, bim.left)
    if spec.flavor == "lie" and alg.flavor == "associative":
        # a Lie identity on an associative algebra is checked on its commutator bracket
        alg = commutator_lie(alg)
    return verify_operator(stmt.kind, args.name, alg, cap=cap, **inputs), None, None


def _check_bimodule(env: Environment, stmt: Statement, args: Bound, cap: int) -> Outcome:
    return check_bimodule(args.name.algebra, args.name, cap=cap), None, None


def _check_cocycle(env: Environment, stmt: Statement, args: Bound, cap: int) -> Outcome:
    """The 2-cocycle identity, valued in the ``with`` bimodule, else its own, else the adjoint."""
    phi, alg_name, into = args.name
    alg, bim = env.algebras[alg_name], args.with_
    if bim is None:
        bim = env.bimodules[into] if into is not None else ConfBimodule.adjoint(alg)
    return is_cocycle(phi, alg, bim, cap=cap), None, None


def _dendriform(env: Environment, stmt: Statement, args: Bound, cap: int) -> Outcome:
    return _BUILT, dendriform_from_O(args.name, args.on, args.with_, cap=cap), None


def _ns(env: Environment, stmt: Statement, args: Bound, cap: int) -> Outcome:
    """From a twisted Rota-Baxter operator with a twist, else from a Nijenhuis operator."""
    if args.twist is None:
        return _BUILT, ns_from_nijenhuis(args.name, args.on, cap=cap), None
    return _BUILT, ns_from_twisted(args.name, args.on, args.with_, args.cochain, cap=cap), None


def _mass(env: Environment, stmt: Statement, args: Bound, cap: int) -> Outcome:
    return _BUILT, m_ass(args.name, args.on, args.with_, args.cochain), None


def _leftsym(env: Environment, stmt: Statement, args: Bound, cap: int) -> Outcome:
    dendriform = dendriform_from_O(args.name, args.on, args.with_, cap=cap)
    return _BUILT, leftsym_from_dendriform(dendriform, cap=cap), None


def _deformed(env: Environment, stmt: Statement, args: Bound, cap: int) -> Outcome:
    """The deformed product, which fails where the deformation defect is nonzero."""
    product, defect = deformed_product(args.name, args.on)
    # The witnesses are the defect's stored entries in sorted order.  They do
    # not go through residual_scan: the defect is already a table of nonzero
    # entries, and a scan would walk every basis pair and count it as scanned.
    witnesses = tuple(
        (tuple(args.on.module.basis[i] for i in idx), value)
        for idx, value in sorted(defect.table.entries.items())
    )[:cap]
    detail = "the deformation defect (the candidate's cocycle error) is nonzero"
    return Verdict("deformed", not witnesses, witnesses), product, detail if witnesses else None


class StatementKind(NamedTuple):
    """One entry of :data:`STATEMENTS`.

    ``namespace`` is where the statement's name resolves.  ``reads`` names
    the clauses the kind reads and ``needs`` those of them it cannot run
    without; a clause paired with a partner in ``tied`` is read, and needed,
    only when the partner is given.  A construct that reads ``as`` registers
    its result as an algebra under :func:`_construct_name`.
    ``run(env, stmt, args, cap)`` gives the :data:`Outcome` from the
    :class:`Bound` objects ``args``; a built structure is emitted as source
    text.
    """

    namespace: str
    reads: Tuple[str, ...]
    needs: Tuple[str, ...]
    run: Callable[[Environment, Statement, Bound, int], Outcome]
    tied: Tuple[Tuple[str, str], ...] = ()


def _on_algebra(check):
    """The run function of a check on the algebra the statement names."""
    return lambda env, stmt, args, cap: (check(args.name, cap=cap), None, None)


def _clauses(inputs: Tuple[str, ...]) -> Tuple[str, ...]:
    """The clauses that supply registry inputs: the ``with`` clause supplies ``rep`` too."""
    return tuple({"rep": "with"}.get(name, name) for name in inputs)


#: Every check and construct kind, keyed by ``(verb, kind)``.  An operator check
#: reads and needs ``on`` and the clauses that supply the inputs its registry
#: entry reads and needs.  ``construct ns`` reads and needs ``with`` only with a ``twist``.
STATEMENTS: Mapping[Tuple[str, str], StatementKind] = {
    **{
        ("check", kind): StatementKind(
            "map", ("on",) + _clauses(spec.reads), ("on",) + _clauses(spec.needs), _check_operator
        )
        for kind, spec in OPERATORS.items()
    },
    ("check", "associative"): StatementKind("algebra", (), (), _on_algebra(check_associative)),
    ("check", "lie"): StatementKind("algebra", (), (), _on_algebra(check_lie)),
    ("check", "bimodule"): StatementKind("bimodule", (), (), _check_bimodule),
    ("check", "cocycle"): StatementKind("cocycle", ("with",), (), _check_cocycle),
    ("construct", "dendriform"): StatementKind("map", ("on", "with"), ("on", "with"), _dendriform),
    ("construct", "ns"): StatementKind(
        "map", ("on", "with", "twist"), ("on",), _ns, (("with", "twist"),)
    ),
    ("construct", "mass"): StatementKind(
        "map", ("on", "with", "twist", "as"), ("on", "with"), _mass
    ),
    ("construct", "leftsym"): StatementKind("map", ("on", "with"), ("on", "with"), _leftsym),
    ("construct", "deformed"): StatementKind("map", ("on", "as"), ("on",), _deformed),
}

#: the clauses a statement of each verb may give: those some kind of the verb reads
VERB_CLAUSES: Mapping[str, set] = {
    verb: {clause for (v, _), entry in STATEMENTS.items() if v == verb for clause in entry.reads}
    for verb in ("check", "construct")
}


def _expected_kinds(verb: str) -> str:
    """The kinds of ``verb`` as an unknown-kind error lists them."""
    kinds = [kind for v, kind in STATEMENTS if v == verb]
    others = f"one of {tuple(kind for kind in kinds if kind not in OPERATORS)}"
    operators = tuple(sorted(kind for kind in kinds if kind in OPERATORS))
    return f"an operator kind {operators} or {others}" if operators else others


def _run_statement(env: Environment, stmt: Statement, cap: int) -> Record:
    started = time.perf_counter()
    entry = STATEMENTS[stmt.verb, stmt.kind]
    _check_clauses(stmt, entry)
    args = Bound(*(
        None if getattr(stmt, field) is None
        else env.lookup(getattr(stmt, field), *(env.pools[ns] for ns in namespaces))
        for field, namespaces in stmt.refs
    ))
    verdict, built, detail = entry.run(env, stmt, args, cap)
    emitted = None
    if built is not None:
        name = _construct_name(stmt)
        if "as" in entry.reads:
            env.algebras[name] = built
        emitted = emit_dsl(built, name)
    identity = f"{stmt.verb} {stmt.kind} {stmt.name}"
    return _verdict_record(identity, verdict, started, emitted, detail)


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
    env = Environment(resolve(sf))
    records: List[Record] = []
    with sum_memo():
        for decl in sf.declarations:
            started = time.perf_counter()
            try:
                if decl.namespace is None:
                    records.append(_run_statement(env, decl, witness_cap))
                else:
                    env.pools[decl.namespace][decl.name] = decl.build(env)
            except ConfalgError as exc:
                elapsed = _ms_since(started)
                what = decl.namespace or f"{decl.verb} {decl.kind}"
                records.append(Record(f"{what} {decl.name}", "error", (), elapsed, str(exc)))
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
            # the first stored entry, read directly: residual_scan would walk every
            # basis tuple of the arity and count them as scanned
            idx, value = sorted(dd.table.entries.items())[0]
            witnesses.append(
                {
                    "names": [f"sample={sample}", f"arity={arity}"]
                    + [alg.module.basis[i] for i in idx],
                    "residual": str(value),
                }
            )
    return not witnesses, tuple(witnesses)
