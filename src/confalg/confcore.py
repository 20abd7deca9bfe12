"""Conformal algebras over C[∂] presented by finite structure tables.

A conformal algebra here is a finitely generated free C[∂]-module together
with a bilinear λ-product ``a_λ b`` valued in polynomials in λ with module
coefficients.  Everything reduces to finite data:

* a :class:`FreeModule` fixes an ordered basis;
* a :class:`MultiTable` stores the values of an n-linear λ-map on basis
  tuples, written in the variables ``D`` (∂ acting on the *output*) and
  ``L1 .. L(n-1)`` (the formal weights of the first n−1 arguments).  It is
  the package's one table type: products, actions, cochains, derived
  products and module maps are all multitables.  :class:`ModuleMap` (an
  arity-1 table with ``D``-only entries) and :class:`Cochain` (a table whose
  argument slots share one module) are one-field views of one, defined
  here; the structure bundles of :mod:`confalg.derived` hold multitables;
* :meth:`MultiTable.from_function` tabulates any such map from a function
  of basis elements and formal weights, walking :func:`basis_tuples`;
* :func:`table_sum` computes a signed sum of tables, partial compositions
  ``f ∘_i g`` (:class:`Circ`) and slot swaps (:class:`Swap`) as one table,
  visiting only stored entries: every identity of the package is such a sum,
  and inside :func:`sum_memo` (one program run) each distinct sum is computed
  once;
* :func:`direct_sum` is the module ``A ⊕ M`` with basis ``a_* ++ m_*``, and
  :func:`block` re-indexes a table's stored entries into (or, with negative
  shifts, back out of) one block of it: every direct-sum construction
  (:func:`semidirect`, :func:`twisted_extension`, :func:`matching_pair`,
  :func:`extension_iso`, the lifts of :mod:`confalg.operators` and
  :mod:`confalg.cohomology`) is a table sum of blocks;
* :func:`eval_multilinear` extends a table to arbitrary elements for the
  element-level API (products, actions, module maps, cochain evaluation).
  It is a table sum too, each argument an arity-1 table composed into its
  slot with :class:`Circ`, so the package has one sesquilinear engine.

Weights are linear forms in the weight variables and may themselves contain
``D``: that is how products "at weight −λ−∂" (the conformal substitute for
multiplying on the other side) are formed, the ``D`` inside the weight again
meaning ∂ on the output.

Every identity the package checks is an :class:`Identity`, whose families
of residual tables :func:`scan` scans over all basis tuples in order into a
:class:`Verdict` that lists the failing tuples.  :data:`AXIOMS` holds the
axioms, and :func:`check_associative`, :func:`check_lie`,
:func:`check_bimodule`, :func:`check_lie_rep` and :func:`is_cocycle` are
names over it; a theorem that joins several checks returns a
:class:`Composite` of them.  The constructors (:func:`commutator_lie`,
:func:`rep_from_bimodule`, :func:`semidirect`,
:func:`twisted_extension`, :func:`extension_iso`, :func:`matching_pair`,
:func:`cur`) build new algebras from verified inputs and raise when a
documented precondition fails: :func:`require` raises a failing verdict's
summary, :func:`require_flavor` refuses an algebra of the other flavor,
:func:`require_over` refuses a bimodule or a representation built over another
algebra, and :func:`require_shape` refuses a table (a product, an action, a
cochain, a twist, an operator's map or a map composed with another) whose
modules are not the ones it must map between.  Every module above this one
(:mod:`confalg.operators`, :mod:`confalg.derived`, :mod:`confalg.cohomology`,
the definition language and the CLI) imports from here, and this module
imports none of them.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import (
    Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple, Type, Union
)

from .errors import (
    ArityMismatch,
    ConfalgError,
    InvalidEntry,
    ModuleMismatch,
    NotAssociative,
    NotBimodule,
    NotCocycle,
    NotInvertible,
    NotSkewSymmetric,
    PreconditionFailed,
    RankMismatch,
    ShapeMismatch,
)
from .polyring import (
    Poly, PolyLike, Substitution, as_poly, lam, scale_of, sum_of_products, var_sort_key,
    variables_of,
)

D = Poly.var("D")
L1 = Poly.var("L1")
L2 = Poly.var("L2")
L3 = Poly.var("L3")

#: Default maximum number of failing basis tuples kept in a verdict.
WITNESS_CAP = 16
#: The most polynomial terms that the results held by a run's memo of table
#: sums may have together (see :func:`table_sum`); a result past it is not kept.
#: It is about 30 times the most that a run of the benchmark workloads holds
#: (3,420 terms, on ``degree``).
SUM_MEMO_TERMS = 100_000
#: The most slot layouts whose rebindings :func:`table_sum` keeps compiled, for
#: compositions and for swaps each.  A ``cochains`` benchmark pass uses 26
#: composition layouts, a ``corpus`` pass 5 and 2 swap layouts.
_LAYOUTS = 64

EntryLike = Union["ModElem", Sequence[PolyLike]]
IndexKey = Tuple[Union[int, str], ...]


def _is_lambda_var(name: str) -> bool:
    return var_sort_key(name)[0] == 1


class _Frozen:
    """Value semantics for the package's immutable classes.

    Two instances are equal when they are of one class and their ``_fields``
    are equal; hashing and ``repr`` follow the same field list, and
    assigning or deleting an attribute raises.  Subclasses set their fields
    in ``__init__`` with :func:`_set_fields`.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class _once:
    """A lazily computed attribute, stored in the instance on first access.

    Like :func:`functools.cached_property`, but without the lock that Python
    3.11 takes on each first access.  The value depends only on immutable
    fields, so two threads that compute it at once store equal values.
    """

    __slots__ = ("func", "name")

    def __init__(self, func: Callable) -> None:
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _set_fields(obj: _Frozen, *values: object) -> None:
    """Set the ``_fields`` of a new ``obj``, in order, past its refusal of assignment."""
    for name, value in zip(obj._fields, values):
        object.__setattr__(obj, name, value)


class FreeModule(_Frozen):
    """A free C[∂]-module with a fixed ordered basis of named generators."""

    _fields = ("basis",)
    basis: Tuple[str, ...]

    def __init__(self, basis: Sequence[str]) -> None:
        basis = tuple(basis)
        if not basis:
            raise RankMismatch("a free module needs at least one basis element")
        if len(set(basis)) != len(basis):
            raise RankMismatch(f"duplicate basis names in {basis}")
        _set_fields(self, basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def index(self, name: Union[int, str]) -> int:
        if isinstance(name, int):
            if not 0 <= name < self.rank:
                raise RankMismatch(f"basis index {name} out of range 0..{self.rank - 1}")
            return name
        try:
            return self.basis.index(name)
        except ValueError:
            raise RankMismatch(f"no basis element named {name!r} in {self.basis}") from None

    def elem(self, coeffs: Sequence[PolyLike]) -> "ModElem":
        return ModElem(self, tuple(coeffs))

    def basis_elem(self, which: Union[int, str]) -> "ModElem":
        i = self.index(which)
        return ModElem(self, tuple(1 if j == i else 0 for j in range(self.rank)))

    def zero(self) -> "ModElem":
        return self._zero

    @_once
    def _zero(self) -> "ModElem":
        # one shared zero per module: elements are immutable
        return _elem(self, (Poly.zero(),) * self.rank)

    def basis_elems(self) -> Iterator["ModElem"]:
        for i in range(self.rank):
            yield self.basis_elem(i)

    def __str__(self) -> str:
        return "<" + ", ".join(self.basis) + ">"


class ModElem(_Frozen):
    """An element of a :class:`FreeModule`: a vector of polynomial coefficients.

    Coefficients may contain ``D``, weight variables, and auxiliary scalar
    parameters.  Addition, subtraction, negation, and multiplication by a
    polynomial or scalar act coefficientwise.  An element is immutable, and
    so are its coefficients, so one element may be handed to many callers:
    tables share their entries and :meth:`FreeModule.zero` is one element
    per module.
    """

    _fields = ("module", "coeffs")
    module: FreeModule
    coeffs: Tuple[Poly, ...]

    def __init__(self, module: FreeModule, coeffs: Sequence[PolyLike]) -> None:
        coeffs = tuple(map(as_poly, coeffs))
        if len(coeffs) != module.rank:
            raise RankMismatch(f"{len(coeffs)} coefficients for a rank-{module.rank} module")
        _set_fields(self, module, coeffs)

    def is_zero(self) -> bool:
        # the support is cached, so the shared zero of a module is tested once
        return not self._terms

    @_once
    def _terms(self) -> Tuple[Tuple[int, Poly], ...]:
        # computed on first use: basis elements are evaluated many times per scan
        return tuple((i, c) for i, c in enumerate(self.coeffs) if c)

    def support(self) -> Iterator[Tuple[int, Poly]]:
        return iter(self._terms)

    def _require_same_module(self, other: "ModElem") -> None:
        if self.module != other.module:
            raise ModuleMismatch(f"elements of {self.module} and {other.module}")

    def __add__(self, other: "ModElem") -> "ModElem":
        self._require_same_module(other)
        return _elem(self.module, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ModElem") -> "ModElem":
        self._require_same_module(other)
        return _elem(self.module, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ModElem":
        return _elem(self.module, tuple(-c for c in self.coeffs))

    def __mul__(self, factor: PolyLike) -> "ModElem":
        f = as_poly(factor)
        return _elem(self.module, tuple(c * f for c in self.coeffs))

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for i, c in self.support():
            name = self.module.basis[i]
            if c == 1:
                parts.append(name)
            elif not c.variables():
                parts.append(f"{c}*{name}")
            else:
                parts.append(f"({c})*{name}")
        return " + ".join(parts) if parts else "0"


def _elem(module: FreeModule, coeffs: Tuple[Poly, ...]) -> ModElem:
    """Wrap coefficients that are already ``Poly``, one per basis element of ``module``."""
    elem = object.__new__(ModElem)
    state = elem.__dict__  # the fastest way past the refused assignment
    state["module"], state["coeffs"] = module, coeffs
    return elem


class Verdict(NamedTuple):
    """Outcome of an identity check (see :func:`scan`).

    ``witnesses`` holds up to :data:`WITNESS_CAP` failing basis tuples in scan
    order with their nonzero residuals; a tuple's names begin with its family's tag.
    """

    identity: str
    holds: bool
    witnesses: Tuple[Tuple[Tuple[str, ...], ModElem], ...]

    def __bool__(self) -> bool:
        return self.holds

    def summary(self) -> str:
        if self.holds:
            return f"{self.identity}: holds"
        slot, residual = self.witnesses[0]
        where = ", ".join(slot)
        more = f" (+{len(self.witnesses) - 1} more)" if len(self.witnesses) > 1 else ""
        return f"{self.identity}: fails at ({where}): residual {residual}{more}"

    def __str__(self) -> str:
        return self.summary()


#: A clause of a composite: a verdict, a flag, or ``None`` where it does not apply.
Clause = Union[Verdict, bool, None]


class Composite(_Frozen):
    """Outcome of a theorem that joins several checks.

    ``clauses`` maps each clause's name to its value, in report order, and
    each clause reads as an attribute (``verdict.is_O``).  The clauses named
    in ``agree`` are equivalent by the theorem, so their values, skipping
    ``None``, must be equal; every other clause must hold unless it is
    ``None``.  ``holds`` and ``consistent`` both state that rule.  A failing
    composite has one witness: its identity, with its summary as residual.

    Verdict clauses print as ``label: summary`` joined by ``; ``, the label
    being ``labels[name]`` or else the name with ``-`` for ``_``; flags print
    as ``name=value … consistent=…``.
    """

    _fields = ("identity", "clauses", "agree", "labels")
    identity: str
    clauses: Mapping[str, Clause]
    agree: Tuple[str, ...]
    labels: Mapping[str, str]

    def __init__(
        self,
        identity: str,
        clauses: Mapping[str, Clause],
        agree: Tuple[str, ...] = (),
        labels: Union[Mapping[str, str], None] = None,
    ) -> None:
        _set_fields(self, identity, clauses, agree, {} if labels is None else labels)

    def __getattr__(self, name: str) -> Clause:
        clauses = self.__dict__.get("clauses", {})
        if name in clauses:
            return clauses[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def holds(self) -> bool:
        agreed = {bool(v) for k, v in self.clauses.items() if k in self.agree and v is not None}
        others = (v for k, v in self.clauses.items() if k not in self.agree)
        return len(agreed) <= 1 and all(v is None or v for v in others)

    consistent = holds

    @property
    def witnesses(self) -> Tuple[Tuple[Tuple[str, ...], str], ...]:
        return () if self.holds else (((self.identity,), self.summary()),)

    def summary(self) -> str:
        if any(isinstance(v, Verdict) for v in self.clauses.values()):
            return "; ".join(
                f"{self.labels.get(k, k.replace('_', '-'))}: {v.summary()}"
                for k, v in self.clauses.items()
            )
        flags = " ".join(f"{k}={v}" for k, v in self.clauses.items())
        return f"{flags} consistent={self.consistent}"


def basis_tuples(
    modules: Sequence[FreeModule],
) -> Iterator[Tuple[Tuple[str, ...], Tuple[ModElem, ...]]]:
    """Every basis tuple of ``modules`` as ``(names, elements)``, in product order."""
    columns = [tuple(zip(m.basis, m.basis_elems())) for m in modules]
    for combo in itertools.product(*columns):
        yield tuple(name for name, _ in combo), tuple(elem for _, elem in combo)


def residual_scan(
    identity: str,
    items: Iterable[Tuple[Tuple[str, ...], ModElem]],
    cap: int = WITNESS_CAP,
) -> Verdict:
    """Fold a stream of ``(basis tuple, residual)`` pairs into a verdict.

    Scanning stops once ``cap`` nonzero residuals have been collected.
    """
    witnesses = []
    for slot, residual in items:
        if residual.is_zero():
            continue
        witnesses.append((tuple(slot), residual))
        if len(witnesses) >= cap:
            break
    return Verdict(identity, not witnesses, tuple(witnesses))


class Identity(NamedTuple):
    """One identity whose residual must vanish on every basis tuple.

    ``name`` names its verdict; ``error`` is raised where a construction
    requires it.  ``reads`` names the inputs it reads besides its subject (a
    bimodule ``with``, a ``twist``, a ``weight``, a representation ``rep``, a
    structure's tables) and ``needs`` those without a default.
    ``families(*inputs)`` checks the inputs and gives the families that
    :meth:`check` scans, interleaved if ``interleave``.  ``flavor`` and
    ``maps``, an operator's algebra flavor and map ends, are read by
    :func:`~confalg.operators.verify_operator`.
    """

    name: str
    reads: Tuple[str, ...]
    needs: Tuple[str, ...]
    error: Type[ConfalgError]
    families: Callable[..., Iterable[tuple]]
    interleave: bool = False
    flavor: Optional[str] = None
    maps: Tuple[str, ...] = ()

    def check(self, *inputs, cap: int = WITNESS_CAP) -> Verdict:
        return scan(self.name, self.families(*inputs), cap, self.interleave)


def scan(identity: str, families: Iterable, cap: int = WITNESS_CAP, interleave=False) -> Verdict:
    """The verdict of ``(witness tag, table-sum terms or table)`` families; the one
    caller of :func:`residual_scan`.

    Families are scanned one after another, each formed from its terms when
    the scan reaches it, or with ``interleave`` tuple by tuple, formed at once.
    """
    columns = (table_items(r if isinstance(r, MultiTable) else table_sum(r), tag)
               for tag, r in families)
    items = itertools.chain.from_iterable(zip(*columns) if interleave else columns)
    return residual_scan(identity, items, cap)


class MultiTable:
    """Structure constants of an n-linear λ-map between free modules.

    ``entries`` maps basis index tuples to elements of ``out_module`` whose
    coefficients may use ``D``, the weights ``L1 .. L(n-1)``, and auxiliary
    scalar parameters; absent tuples are zero.  It is a read-only view: a
    table never changes after construction, and its entries are immutable
    elements, so results may share them.
    """

    __slots__ = ("in_modules", "out_module", "entries")

    def __init__(
        self,
        in_modules: Sequence[FreeModule],
        out_module: FreeModule,
        entries: Mapping[Tuple[int, ...], EntryLike],
    ) -> None:
        self.in_modules = tuple(in_modules)
        self.out_module = out_module
        if not self.in_modules:
            raise ArityMismatch("a multilinear table needs at least one argument slot")
        n = len(self.in_modules)
        allowed = {lam(k) for k in range(1, n)}
        canon: dict = {}
        for raw_idx, raw_entry in entries.items():
            parts = tuple(raw_idx)
            if len(parts) != n:
                raise ArityMismatch(f"index {raw_idx} has {len(parts)} slots, expected {n}")
            idx = tuple(mod.index(part) for mod, part in zip(self.in_modules, parts))
            entry = raw_entry if isinstance(raw_entry, ModElem) else out_module.elem(raw_entry)
            if entry.module != out_module:
                raise ModuleMismatch(f"entry at {raw_idx} lives in {entry.module}")
            bad = {
                v for v in variables_of(entry.coeffs) if _is_lambda_var(v) and v not in allowed
            }
            if bad:
                raise InvalidEntry(
                    f"entry at {raw_idx} uses {sorted(bad)}; an arity-{n} table "
                    f"may only use {sorted(allowed) or ['no weight variables']}"
                )
            if not entry.is_zero():
                canon[idx] = entry
        self.entries: Mapping[Tuple[int, ...], ModElem] = MappingProxyType(canon)

    @classmethod
    def from_function(
        cls,
        in_modules: Sequence[FreeModule],
        out_module: FreeModule,
        fn: Callable[[Sequence[ModElem], Sequence[Poly]], ModElem],
    ) -> "MultiTable":
        """Tabulate ``fn(args, weights)`` on every basis tuple at the formal weights.

        ``weights`` is ``(L1, .., L(n-1))``; zero values are dropped.
        """
        weights = tuple(Poly.var(lam(k)) for k in range(1, len(in_modules)))
        entries = {}
        for names, args in basis_tuples(in_modules):
            value = fn(args, weights)
            if not value.is_zero():
                entries[names] = value
        return cls(in_modules, out_module, entries)

    @property
    def arity(self) -> int:
        return len(self.in_modules)

    def is_zero(self) -> bool:
        return not self.entries

    def entry(self, idx: IndexKey) -> ModElem:
        parts = tuple(idx)
        if len(parts) != self.arity:
            raise ArityMismatch(f"index {idx} has {len(parts)} slots, expected {self.arity}")
        key = tuple(mod.index(part) for mod, part in zip(self.in_modules, parts))
        return self.entries.get(key, self.out_module.zero())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiTable):
            return NotImplemented
        return (
            self.in_modules == other.in_modules
            and self.out_module == other.out_module
            and self.entries == other.entries
        )

    __hash__ = None  # type: ignore[assignment]

    # sums and multiples are table sums (:func:`table_sum`) of the operands
    def __add__(self, other: "MultiTable") -> "MultiTable":
        return table_sum([(1, self), (1, other)])

    def __sub__(self, other: "MultiTable") -> "MultiTable":
        return table_sum([(1, self), (-1, other)])

    def __neg__(self) -> "MultiTable":
        return self.scale(-1)

    def scale(self, factor: PolyLike) -> "MultiTable":
        return table_sum([(factor, self)])


def _table(in_modules: tuple, out_module: FreeModule, entries: dict) -> MultiTable:
    """Wrap entries that are already canonical: index tuples of ints to nonzero elements."""
    table = object.__new__(MultiTable)
    table.in_modules, table.out_module = in_modules, out_module
    table.entries = MappingProxyType(entries)
    return table


class Circ(NamedTuple):
    """The partial composition ``f ∘_i g``: ``g`` fills argument slot ``i`` (from 1) of ``f``."""

    f: MultiTable
    i: int
    g: MultiTable


class Swap(NamedTuple):
    """``f`` with its argument slots ``p < q`` exchanged, together with their weights."""

    f: MultiTable
    p: int
    q: int


def _weights(first: int, last: int) -> Poly:
    return sum((Poly.var(lam(k)) for k in range(first, last + 1)), Poly.zero())


def _bind(c: Poly, binding: Union[Substitution, None]) -> Poly:
    return c.substitute_many(binding) if binding and not c.is_constant() else c


def _term_shape(term: Union[MultiTable, Circ, Swap]) -> tuple:
    if isinstance(term, MultiTable):
        return term.in_modules, term.out_module
    f, ins = term.f, list(term.f.in_modules)
    if isinstance(term, Swap):
        p, q = term.p, term.q
        if not 1 <= p < q <= f.arity:
            raise ArityMismatch(f"cannot swap slots {p} and {q} of an arity-{f.arity} table")
        ins[p - 1], ins[q - 1] = ins[q - 1], ins[p - 1]
        return tuple(ins), f.out_module
    i, g = term.i, term.g
    if not 1 <= i <= f.arity:
        raise ArityMismatch(f"no slot {i} in an arity-{f.arity} table")
    if g.out_module != ins[i - 1]:
        raise ModuleMismatch(f"slot {i} takes {ins[i - 1]}, the inner table yields {g.out_module}")
    return tuple(ins[: i - 1]) + g.in_modules + tuple(ins[i:]), f.out_module


class _SumMemo:
    """The table sums of one run: key -> (terms, result), and the result terms held."""

    __slots__ = ("sums", "held")

    def __init__(self) -> None:
        self.sums: dict = {}
        self.held = 0


_SUMS: ContextVar[Optional[_SumMemo]] = ContextVar("confalg_table_sums", default=None)


@contextmanager
def sum_memo() -> Iterator[None]:
    """Let the enclosed block (one program run) compute each distinct table sum once.

    Inside, :func:`table_sum` keeps its results in a memo that ends with the
    block.  Entering while a memo is open reuses that memo.
    """
    if _SUMS.get() is not None:
        yield
        return
    token = _SUMS.set(_SumMemo())
    try:
        yield
    finally:
        _SUMS.reset(token)


def _term_key(coeff: PolyLike, term: Union[MultiTable, Circ, Swap]) -> tuple:
    parts = (term,) if isinstance(term, MultiTable) else term
    return (as_poly(coeff), type(term)) + tuple(
        id(part) if isinstance(part, MultiTable) else part for part in parts
    )


def table_sum(terms: Iterable[Tuple[PolyLike, Union[MultiTable, Circ, Swap]]]) -> MultiTable:
    """The table of ``Σ coeff·term`` over ``(coeff, term)`` pairs of one shape.

    A term is a table, a :class:`Swap` (swapping a slot with the last gives it
    the weight ``−D − ΣL``) or a :class:`Circ`, whose value on a basis tuple
    is ``f`` evaluated with ``g``'s value in slot ``i`` at the sum of the
    merged weights.  Only stored entries are visited: each entry of
    ``g`` is rebound once (``L_k ↦ L_(k+i−1)``; ``D ↦ −(merged weight)`` in a
    leading slot, ``D ↦ D + L1 + … + L(m−1)`` in the last), and multiplied by
    the term's coefficient only if that is not a constant, and each entry of
    ``f`` once, grouped by its slot-``i`` index.  Each cell of the result, one
    output coefficient on one basis tuple, gathers its triples ``(factor,
    value, scale)``, the scale being the term's coefficient where that is a
    constant and 1 otherwise, and is formed once, by
    :func:`~confalg.polyring.sum_of_products`: a constant factor or coefficient
    scales numerators, the pairs of non-constant polynomials multiply into the
    cell's one map of numerators (through packed rows where the packing rule
    of :mod:`~confalg.polyring` says so, else term by term), and the cell is
    made canonical once.

    A rebinding depends only on the slot layout, ``(i, f.arity, g.arity)``
    for a composition and ``(p, q, f.arity)`` for a swap, so each layout's
    :class:`~confalg.polyring.Substitution` is built and compiled once per
    process, in a cache of at most :data:`_LAYOUTS` layouts of each kind.
    The powers of its images grow on demand and serve every table sum with
    that layout: a layout keeps those its largest exponent so far needed.

    Inside :func:`sum_memo` a sum is computed once: its key is, per term, the
    coefficient (by value), the term's kind, and the ``id`` of each operand
    table with the slot indices.  A repeated key returns the stored result;
    otherwise the result is stored with its terms, which keep the operands
    alive so that their ids are not reused while the entry lives.  A sum that
    raises stores nothing, and a result whose terms would take the memo past
    :data:`SUM_MEMO_TERMS` is returned without being stored.  Tables are
    immutable, so sharing a result is safe.
    """
    memo = _SUMS.get()
    if memo is None:
        return _table_sum(terms)
    terms = list(terms)
    key = tuple(_term_key(coeff, term) for coeff, term in terms)
    hit = memo.sums.get(key)
    if hit is not None:
        return hit[1]
    result = _table_sum(terms)
    size = sum(len(c) for entry in result.entries.values() for c in entry.coeffs)
    if memo.held + size <= SUM_MEMO_TERMS:
        memo.held += size
        memo.sums[key] = (terms, result)
    return result


@lru_cache(maxsize=_LAYOUTS)
def _circ_bindings(i: int, m: int, n: int) -> tuple:
    """The rebindings ``(f_bind, g_bind)`` of ``f ∘_i g``, ``f`` of arity m and ``g`` of arity n."""
    g_bind = [(lam(k), Poly.var(lam(k + i - 1))) for k in range(1, n)] if i > 1 else []
    f_bind = None
    if i < m:
        g_bind.append(("D", -_weights(i, i + n - 1)))
        if n > 1:
            f_bind = Substitution(
                [(lam(i), _weights(i, i + n - 1))]
                + [(lam(k), Poly.var(lam(k + n - 1))) for k in range(i + 1, m)]
            )
    elif m > 1:
        g_bind.append(("D", D + _weights(1, m - 1)))
    return f_bind, Substitution(g_bind) if g_bind else None


@lru_cache(maxsize=_LAYOUTS)
def _swap_binding(p: int, q: int, arity: int) -> Substitution:
    """The rebinding of an arity-``arity`` table with its slots ``p < q`` swapped."""
    if q < arity:
        return Substitution([(lam(p), Poly.var(lam(q))), (lam(q), Poly.var(lam(p)))])
    return Substitution([(lam(p), -D - _weights(1, arity - 1))])


def _term_pairs(coeff: Poly, term: Union[MultiTable, Circ, Swap]) -> list:
    """The ``(mid, group, factor, scale)`` quadruples of one term of a table sum.

    Each entry ``(head, tail, values)`` of a group adds ``factor·v·scale`` to
    output coefficient ``j`` at index ``head + mid + tail``, for each ``(j, v)``
    in ``values``; the scale is an ``int`` or a ``Fraction``.  The term's
    rebindings are trimmed when it is done with them.
    """
    if isinstance(term, Circ):
        f, i, g = term
        f_bind, g_bind = _circ_bindings(i, f.arity, g.arity)
    else:
        f, p, q = term if isinstance(term, Swap) else (term, 0, 0)
        f_bind, g_bind = _swap_binding(p, q, f.arity) if q else None, None
    try:
        if isinstance(term, Circ):
            groups: dict = {}
            for idx, entry in f.entries.items():
                values = tuple((j, _bind(c, f_bind)) for j, c in entry._terms)
                groups.setdefault(idx[i - 1], []).append((idx[: i - 1], idx[i:], values))
            # a constant coefficient scales the cell's numerators instead of each entry
            constant = coeff.is_constant()
            scale = scale_of(coeff) if constant else 1
            return [
                (gidx, groups[k], _bind(c, g_bind) if constant else _bind(c, g_bind) * coeff, scale)
                for gidx, entry in g.entries.items()
                for k, c in entry._terms
                if k in groups
            ]
        group = []
        for idx, entry in f.entries.items():
            if q:
                idx = idx[: p - 1] + idx[q - 1 : q] + idx[p:q - 1] + idx[p - 1 : p] + idx[q:]
            group.append((idx, (), tuple((j, _bind(c, f_bind)) for j, c in entry._terms)))
        return [((), group, coeff, 1)]
    finally:
        for binding in (f_bind, g_bind):
            if binding:
                binding._trim()


def _table_sum(terms: Iterable[Tuple[PolyLike, Union[MultiTable, Circ, Swap]]]) -> MultiTable:
    shape, rows = None, {}
    for coeff, term in terms:
        here = _term_shape(term)
        if shape is None:
            shape, rank = here, here[1].rank
        elif here != shape:
            raise ShapeMismatch("the terms of a table sum have different shapes")
        coeff = as_poly(coeff)
        if not coeff:
            continue
        # each cell gathers its (factor, value, scale) triples and is formed once, below
        for mid, group, c, scale in _term_pairs(coeff, term):
            for head, tail, values in group:
                row = rows.get(head + mid + tail)
                if row is None:
                    row = rows[head + mid + tail] = [None] * rank
                for j, v in values:
                    cell = row[j]
                    if cell is None:
                        row[j] = [(c, v, scale)]
                    else:
                        cell.append((c, v, scale))
    if shape is None:
        raise ArityMismatch("a table sum needs at least one term")
    ins, out = shape
    entries, zero = {}, Poly.zero()
    for idx, row in rows.items():
        coeffs = tuple(sum_of_products(cell) if cell else zero for cell in row)
        if any(coeffs):
            entries[idx] = _elem(out, coeffs)
    return _table(ins, out, entries)


def circ(f: MultiTable, i: int, g: MultiTable) -> MultiTable:
    """The table of the partial composition ``f ∘_i g``."""
    return table_sum([(1, Circ(f, i, g))])


def table_items(table: MultiTable, tag: Tuple[str, ...] = ()) -> Iterator[tuple]:
    """``(tag + names, entry)`` on every basis tuple, zero where absent, in :func:`basis_tuples` order."""
    get, zero = table.entries.get, table.out_module.zero()
    indices = itertools.product(*(range(m.rank) for m in table.in_modules))
    for idx, names in zip(indices, itertools.product(*(m.basis for m in table.in_modules))):
        yield tag + names, get(idx, zero)


_POINT = FreeModule(("e",))  # the source of each argument's table in eval_multilinear


def eval_multilinear(
    table: MultiTable, args: Sequence[ModElem], weights: Sequence[PolyLike]
) -> ModElem:
    """Evaluate an n-linear table on module elements at the given weights.

    ``weights`` carries the n−1 weights of the leading arguments; the last
    argument's weight is determined.  Each argument is an arity-1 table from
    a rank-1 module, and :func:`circ` fills slots n, …, 1 with them, so
    sesquilinearity is :func:`table_sum`'s rebinding (``D ↦ −L_j`` in a
    leading slot, ``D ↦ D + ΣL`` in the last).  One
    :class:`~confalg.polyring.Substitution` then sends ``L_j ↦ w_j``.
    Weights may contain ``D``, which then denotes ∂ on the output.  The λ
    variables of the arguments stay literal: they are moved past ``L(n-1)``
    before the composition and moved back by the same substitution.
    """
    n = table.arity
    if len(args) != n:
        raise ArityMismatch(f"{len(args)} arguments for an arity-{n} table")
    if len(weights) != n - 1:
        raise ArityMismatch(f"{len(weights)} weights for an arity-{n} table; expected {n - 1}")
    ws = tuple(map(as_poly, weights))
    for pos, (arg, mod) in enumerate(zip(args, table.in_modules)):
        if arg.module != mod:
            raise ModuleMismatch(f"argument {pos + 1} lives in {arg.module}, expected {mod}")
    names = variables_of(c for arg in args for c in arg.coeffs) if n > 1 else ()
    parked = sorted(var_sort_key(v)[1] for v in names if _is_lambda_var(v))
    park = Substitution([(lam(k), Poly.var(lam(k + n - 1))) for k in parked]) if parked else None
    composed = table
    for j in range(n, 0, -1):
        arg = args[j - 1]
        point = {(0,): _elem(arg.module, tuple(_bind(c, park) for c in arg.coeffs))}
        composed = circ(composed, j, _table((_POINT,), arg.module, point if arg._terms else {}))
    value = composed.entries.get((0,) * n)
    if value is None:
        return table.out_module.zero()
    binding = [(lam(k), w) for k, w in enumerate(ws, 1)]
    binding += [(lam(k + n - 1), Poly.var(lam(k))) for k in parked]
    binding = Substitution(binding) if binding else None
    return _elem(table.out_module, tuple(_bind(c, binding) for c in value.coeffs))


class ConfAlgebra(_Frozen):
    """A conformal algebra: a free module with a binary λ-product table.

    ``flavor`` is ``"associative"`` or ``"lie"``; Lie tables are stored in
    full (both argument orders) and skew-symmetry is checked when the
    :meth:`lie` factory builds one.
    """

    __slots__ = _fields = ("module", "table", "flavor")
    module: FreeModule
    table: MultiTable
    flavor: str

    def __init__(self, module: FreeModule, table: MultiTable, flavor: str) -> None:
        if flavor not in ("associative", "lie"):
            raise PreconditionFailed(f"unknown flavor {flavor!r}")
        require_shape(table, (module, module), module, "an algebra table")
        _set_fields(self, module, table, flavor)

    @classmethod
    def associative(
        cls, module: FreeModule, entries: Mapping[Tuple[int, ...], EntryLike]
    ) -> "ConfAlgebra":
        return cls(module, MultiTable((module, module), module, entries), "associative")

    @classmethod
    def lie(
        cls,
        module: FreeModule,
        entries: Mapping[Tuple[int, ...], EntryLike],
        *,
        check_skew: bool = True,
    ) -> "ConfAlgebra":
        alg = cls(module, MultiTable((module, module), module, entries), "lie")
        return _require_skew(alg) if check_skew else alg

    @property
    def rank(self) -> int:
        return self.module.rank

    def entry(self, i: Union[int, str], j: Union[int, str]) -> ModElem:
        return self.table.entry((i, j))

    def mul(self, x: ModElem, y: ModElem, weight: PolyLike) -> ModElem:
        """The λ-product ``x_w y`` at the given weight."""
        return eval_multilinear(self.table, (x, y), (weight,))


class ConfBimodule(_Frozen):
    """Left and right λ-actions of an associative conformal algebra.

    ``left`` maps algebra × module -> module and ``right`` maps module ×
    algebra -> module.  Validity is established by :func:`check_bimodule`,
    not at construction, so failing candidates can be studied.
    """

    __slots__ = _fields = ("algebra", "module", "left", "right")
    algebra: ConfAlgebra
    module: FreeModule
    left: MultiTable
    right: MultiTable

    def __init__(
        self, algebra: ConfAlgebra, module: FreeModule, left: MultiTable, right: MultiTable
    ) -> None:
        require_shape(left, (algebra.module, module), module, "the left action")
        require_shape(right, (module, algebra.module), module, "the right action")
        _set_fields(self, algebra, module, left, right)

    @classmethod
    def build(
        cls,
        algebra: ConfAlgebra,
        module: FreeModule,
        left_entries: Mapping[Tuple[int, ...], EntryLike],
        right_entries: Mapping[Tuple[int, ...], EntryLike],
    ) -> "ConfBimodule":
        amod = algebra.module
        return cls(
            algebra,
            module,
            MultiTable((amod, module), module, left_entries),
            MultiTable((module, amod), module, right_entries),
        )

    @classmethod
    def adjoint(cls, algebra: ConfAlgebra) -> "ConfBimodule":
        """The algebra acting on itself by its own λ-product.

        Both actions are the algebra's own table, not copies of it, so the
        table sums of a run's memo (:func:`sum_memo`) that read the actions
        are the sums that read the product.
        """
        return cls(algebra, algebra.module, algebra.table, algebra.table)

    def act_left(self, a: ModElem, m: ModElem, weight: PolyLike) -> ModElem:
        return eval_multilinear(self.left, (a, m), (weight,))

    def act_right(self, m: ModElem, a: ModElem, weight: PolyLike) -> ModElem:
        return eval_multilinear(self.right, (m, a), (weight,))


class LieRep(_Frozen):
    """A representation of a Lie conformal algebra on a free module."""

    __slots__ = _fields = ("lie", "module", "action")
    lie: ConfAlgebra
    module: FreeModule
    action: MultiTable

    def __init__(self, lie: ConfAlgebra, module: FreeModule, action: MultiTable) -> None:
        require_flavor(lie, "lie", "LieRep")
        require_shape(action, (lie.module, module), module, "the action")
        _set_fields(self, lie, module, action)

    def act(self, a: ModElem, v: ModElem, weight: PolyLike) -> ModElem:
        return eval_multilinear(self.action, (a, v), (weight,))


# -- views of a table ---------------------------------------------------------


class ModuleMap(_Frozen):
    """A C[∂]-linear map: a view of an arity-1 table whose entries use only ``D``.

    Entry ``(j,)`` of ``table`` is the image of the j-th source basis
    element.  Weight variables and auxiliary parameters are rejected, so a
    map always commutes with multiplication by arbitrary coefficients.  A
    map is immutable, and so are the elements it returns.
    """

    __slots__ = _fields = ("table",)
    table: MultiTable

    def __init__(self, table: MultiTable) -> None:
        if table.arity != 1:
            raise ArityMismatch("only arity-1 tables are module maps")
        for entry in table.entries.values():
            if variables_of(entry.coeffs) - {"D"}:
                # the error names the variables of the first coefficient that uses one
                bad = next(filter(None, (c.variables() - {"D"} for c in entry.coeffs)))
                raise InvalidEntry(f"module-map entries may only use D, got {sorted(bad)}")
        _set_fields(self, table)

    @property
    def source(self) -> FreeModule:
        return self.table.in_modules[0]

    @property
    def target(self) -> FreeModule:
        return self.table.out_module

    @property
    def matrix(self) -> Tuple[Tuple[Poly, ...], ...]:
        """The target-rank × source-rank matrix over C[D], read from the entries.

        ``matrix[i][j]`` is the coefficient of the i-th target basis element
        in the image of the j-th source basis element.
        """
        return tuple(zip(*(self.table.entry((j,)).coeffs for j in range(self.source.rank))))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_images(
        cls,
        source: FreeModule,
        target: FreeModule,
        images: Mapping[Union[int, str], EntryLike],
    ) -> "ModuleMap":
        """Build a map from the images of (some of) the source basis elements."""
        entries = {(source.index(key),): image for key, image in images.items()}
        return cls(MultiTable((source,), target, entries))

    @classmethod
    def identity(cls, module: FreeModule) -> "ModuleMap":
        return cls.from_images(module, module, dict(enumerate(module.basis_elems())))

    @classmethod
    def zero(cls, source: FreeModule, target: Optional[FreeModule] = None) -> "ModuleMap":
        return cls(MultiTable((source,), target if target is not None else source, {}))

    # -- algebra of maps -----------------------------------------------------

    def apply(self, x: ModElem) -> ModElem:
        """The image of ``x``."""
        return eval_multilinear(self.table, (x,), ())

    def compose(self, inner: "ModuleMap") -> "ModuleMap":
        """The composite ``self ∘ inner`` (apply ``inner`` first)."""
        require_shape(inner.table, (inner.source,), self.source, "compose: the inner map")
        return ModuleMap(circ(self.table, 1, inner.table))

    def power(self, n: int) -> "ModuleMap":
        require_shape(self.table, (self.source,), self.source, "power: the map")
        if n < 0:
            raise PreconditionFailed("negative power")
        result = ModuleMap.identity(self.source)
        for _ in range(n):
            result = self.compose(result)
        return result

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.table + other.table)

    def __neg__(self) -> "ModuleMap":
        return self.scale(-1)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return self + (-other)

    def scale(self, factor: PolyLike) -> "ModuleMap":
        return ModuleMap(self.table.scale(factor))

    def is_zero(self) -> bool:
        return self.table.is_zero()

    def det(self) -> Poly:
        return self._det_adjugate()[0]

    def inverse(self) -> "ModuleMap":
        """The inverse map; requires the determinant to be a nonzero scalar."""
        d, adjugate = self._det_adjugate()
        if d.is_zero() or d.variables():
            raise NotInvertible(f"determinant {d} is not a nonzero scalar")
        return adjugate.scale(1 / d.constant_term())

    def _det_adjugate(self) -> Tuple[Poly, "ModuleMap"]:
        """The determinant and the adjugate by the Faddeev–LeVerrier recurrence.

        From ``M₀ = 0`` and ``c_r = 1``, step k = 1 … r sets
        ``M_k = A∘M_(k−1) + c_(r−k+1)·id`` and ``c_(r−k) = −tr(A∘M_k)/k``;
        then ``det A = (−1)^r·c₀`` and ``adj A = (−1)^(r+1)·M_r``: r
        compositions and divisions by the integers 1 … r.
        """
        require_shape(self.table, (self.source,), self.source, "determinant: the map")
        r, ident = self.source.rank, ModuleMap.identity(self.source)
        m = a_m = ModuleMap.zero(self.source)
        c = Poly.one()
        for k in range(1, r + 1):
            m = a_m + ident.scale(c)
            a_m = self.compose(m)
            trace = sum((a_m.table.entry((i,)).coeffs[i] for i in range(r)), Poly.zero())
            c = trace * Fraction(-1, k)
        return c * (-1) ** r, m.scale((-1) ** (r + 1))


CochainFn = Callable[[Sequence[ModElem], Sequence[Poly]], ModElem]


class Cochain(_Frozen):
    """A view of a :class:`MultiTable` whose argument slots share one module.

    The arity is the cochain's degree in the graded Lie algebra.
    """

    __slots__ = _fields = ("table",)
    table: MultiTable

    def __init__(self, table: MultiTable) -> None:
        if len(set(table.in_modules)) != 1:
            raise ShapeMismatch("a cochain's arguments must all live in one module")
        _set_fields(self, table)

    @property
    def arity(self) -> int:
        return self.table.arity

    @property
    def input_module(self) -> FreeModule:
        return self.table.in_modules[0]

    @property
    def value_module(self) -> FreeModule:
        return self.table.out_module

    @classmethod
    def from_entries(
        cls, arity: int, input_module: FreeModule, value_module: FreeModule, entries
    ) -> "Cochain":
        return cls(MultiTable((input_module,) * arity, value_module, entries))

    @classmethod
    def from_function(
        cls, arity: int, input_module: FreeModule, value_module: FreeModule, fn: CochainFn
    ) -> "Cochain":
        """Tabulate ``fn`` on basis tuples at the formal weights ``L1, …``."""
        return cls(MultiTable.from_function((input_module,) * arity, value_module, fn))

    @classmethod
    def from_module_map(cls, T: ModuleMap) -> "Cochain":
        """The arity-1 cochain that shares the map's table."""
        return cls(T.table)

    @classmethod
    def zero(cls, arity: int, input_module: FreeModule, value_module: FreeModule) -> "Cochain":
        return cls.from_entries(arity, input_module, value_module, {})

    def eval(self, args: Sequence[ModElem], weights: Sequence[PolyLike]) -> ModElem:
        return eval_multilinear(self.table, args, weights)

    def entry(self, idx) -> ModElem:
        return self.table.entry(idx)

    def as_module_map(self) -> ModuleMap:
        """View an arity-1 cochain with ``D``-only entries as a module map."""
        return ModuleMap(self.table)

    def is_zero(self) -> bool:
        return self.table.is_zero()

    def __add__(self, other: "Cochain") -> "Cochain":
        return Cochain(self.table + other.table)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return Cochain(self.table - other.table)

    def __neg__(self) -> "Cochain":
        return Cochain(-self.table)

    def scale(self, factor: PolyLike) -> "Cochain":
        return Cochain(self.table.scale(factor))


def multiplication_cochain(alg: ConfAlgebra) -> Cochain:
    """The λ-product of an algebra viewed as a 2-cochain valued in itself."""
    return Cochain(alg.table)


# -- preconditions ----------------------------------------------------------


def require(verdict: Verdict, error: Type[ConfalgError], origin: Optional[str] = None) -> None:
    """Unless the verdict holds, raise ``error`` with its summary, after ``origin: `` if given."""
    if not verdict.holds:
        summary = verdict.summary()
        raise error(summary if origin is None else f"{origin}: {summary}")


def require_over(alg: ConfAlgebra, over: Union[ConfBimodule, LieRep]) -> None:
    """Raise :class:`ModuleMismatch` unless the bimodule or representation is over ``alg``."""
    lie = isinstance(over, LieRep)
    what, base = ("representation", over.lie) if lie else ("bimodule", over.algebra)
    if base != alg:
        raise ModuleMismatch(f"{what} was built over a different algebra")


def require_flavor(alg: ConfAlgebra, flavor: str, what: str) -> None:
    """Raise :class:`PreconditionFailed` unless ``alg`` has the ``flavor``; ``what`` names it."""
    if alg.flavor != flavor:
        article = "an" if flavor == "associative" else "a"
        raise PreconditionFailed(f"{what} needs {article} {flavor}-flavored algebra")


def require_shape(
    table: MultiTable, ins: Sequence[FreeModule], out: FreeModule, what: str
) -> None:
    """Raise unless ``table`` maps ``ins`` into ``out``; ``what`` names it in the message.

    A wrong number of argument slots raises :class:`ArityMismatch`, wrong
    modules :class:`ShapeMismatch`, both with the text ``{what} must map
    {ins} into {out}, not …`` and the table's own modules.
    """
    ins = tuple(ins)
    if table.in_modules != ins or table.out_module != out:
        error = ShapeMismatch if table.arity == len(ins) else ArityMismatch
        expected, got = _shape_text(ins, out), _shape_text(table.in_modules, table.out_module)
        raise error(f"{what} must map {expected}, not {got}")


def _shape_text(ins: Sequence[FreeModule], out: FreeModule) -> str:
    return f"{' × '.join(map(str, ins))} into {out}"


# -- axioms -----------------------------------------------------------------


def _associativity(alg: ConfAlgebra) -> list:
    require_flavor(alg, "associative", "check_associative")
    m = alg.table
    return [((), table_sum([(1, Circ(m, 1, m)), (-1, Circ(m, 2, m))]))]


def _skew(alg: ConfAlgebra) -> list:
    m = alg.table
    return [(("skew",), table_sum([(1, m), (1, Swap(m, 1, 2))]))]


def _lie(alg: ConfAlgebra) -> list:
    require_flavor(alg, "lie", "check_lie")
    m = alg.table
    inner = circ(m, 2, m)
    jacobi = table_sum([(1, inner), (-1, Circ(m, 1, m)), (-1, Swap(inner, 1, 2))])
    return _skew(alg) + [(("jacobi",), jacobi)]


def _bimodule(alg: ConfAlgebra, bim: ConfBimodule) -> list:
    require_flavor(alg, "associative", "check_bimodule")
    require_over(alg, bim)
    m, left, right = alg.table, bim.left, bim.right
    return [
        (("left-module",), [(1, Circ(left, 1, m)), (-1, Circ(left, 2, left))]),
        (("right-module",), [(1, Circ(right, 1, right)), (-1, Circ(right, 2, m))]),
        (("compatibility",), [(1, Circ(right, 1, left)), (-1, Circ(left, 2, right))]),
    ]


def _lie_rep(rep: LieRep) -> list:
    act = rep.action
    inner = circ(act, 2, act)
    return [((), table_sum([(1, inner), (-1, Swap(inner, 1, 2)), (-1, Circ(act, 1, rep.lie.table))]))]


def _cocycle(phi: Cochain, alg: ConfAlgebra, bim: ConfBimodule) -> list:
    require_shape(phi.table, (alg.module,) * 2, bim.module, "the cochain")
    return [((), hochschild_d(phi, alg, bim).table)]


#: The axioms, keyed by the kind a ``check`` statement names; ``skew`` and ``lie-rep`` have none.
AXIOMS: Mapping[str, Identity] = {
    "associative": Identity("associativity", (), (), NotAssociative, _associativity),
    "skew": Identity("skew-symmetry", (), (), NotSkewSymmetric, _skew),
    "lie": Identity("lie", (), (), ConfalgError, _lie),
    "bimodule": Identity("bimodule", (), (), NotBimodule, _bimodule),
    "lie-rep": Identity("lie-representation", (), (), ConfalgError, _lie_rep),
    "cocycle": Identity("2-cocycle", ("with",), (), NotCocycle, _cocycle),
}


def check_associative(alg: ConfAlgebra, cap: int = WITNESS_CAP) -> Verdict:
    """Scan ``m∘₁m − m∘₂m``: ``(e_i L1 e_j) L1+L2 e_k − e_i L1 (e_j L2 e_k)`` on all triples."""
    return AXIOMS["associative"].check(alg, cap=cap)


def _require_skew(alg: ConfAlgebra) -> ConfAlgebra:
    """``alg`` itself, after raising :class:`NotSkewSymmetric` unless its bracket is skew."""
    require(AXIOMS["skew"].check(alg, cap=1), AXIOMS["skew"].error)
    return alg


def check_lie(alg: ConfAlgebra, cap: int = WITNESS_CAP) -> Verdict:
    """Check skew-symmetry and the Jacobi identity of a λ-bracket.

    Skew-symmetry compares ``[e_i L1 e_j]`` with ``−[e_j −L1−D e_i]``; the
    Jacobi residual is ``[e_i L1 [e_j L2 e_k]] − [[e_i L1 e_j] L1+L2 e_k] −
    [e_j L2 [e_i L1 e_k]]``.  Witness tuples are tagged ``skew`` or ``jacobi``.
    """
    return AXIOMS["lie"].check(alg, cap=cap)


def check_bimodule(alg: ConfAlgebra, bim: ConfBimodule, cap: int = WITNESS_CAP) -> Verdict:
    """Check the three module axioms of a candidate bimodule.

    Families: ``left-module`` ``(a L1 b) L1+L2 m = a L1 (b L2 m)``,
    ``right-module`` ``(m L1 a) L1+L2 b = m L1 (a L2 b)``, and
    ``compatibility`` ``(a L1 m) L1+L2 b = a L1 (m L2 b)``.
    """
    return AXIOMS["bimodule"].check(alg, bim, cap=cap)


def check_lie_rep(rep: LieRep, cap: int = WITNESS_CAP) -> Verdict:
    """Check ``ρ(a)_L1 ρ(b)_L2 v − ρ(b)_L2 ρ(a)_L1 v = ρ([a L1 b])_L1+L2 v``."""
    return AXIOMS["lie-rep"].check(rep, cap=cap)


def hochschild_d(f: Cochain, alg: ConfAlgebra, bim: ConfBimodule) -> Cochain:
    """The differential of a cochain on ``alg`` valued in the bimodule.

    ``(𝐝φ)(a₀, …, aₙ)`` acts by the leading left action of ``a₀`` on
    ``φ(a₁, …)``, the alternating-sign contractions that replace two
    neighbouring arguments by their product (merging their weights), and
    the trailing right action of ``φ(a₀, …, aₙ₋₁)`` on ``aₙ``: one table,
    ``𝐝φ = l∘₂φ + Σ (−1)^i φ∘_i m + (−1)^(n+1) r∘₁φ`` with actions ``l``, ``r``.
    """
    require_flavor(alg, "associative", "hochschild_d")
    require_shape(f.table, (alg.module,) * f.arity, bim.module, "the cochain")
    require_over(alg, bim)
    n, phi = f.arity, f.table
    terms = [(1, Circ(bim.left, 2, phi))]
    terms += [((-1) ** i, Circ(phi, i, alg.table)) for i in range(1, n + 1)]
    terms.append(((-1) ** (n + 1), Circ(bim.right, 1, phi)))
    return Cochain(table_sum(terms))


def is_cocycle(phi: Cochain, alg: ConfAlgebra, bim: ConfBimodule, cap: int = WITNESS_CAP) -> Verdict:
    """Zero-test of ``𝐝φ`` for an arity-2 cochain."""
    return AXIOMS["cocycle"].check(phi, alg, bim, cap=cap)


# -- constructors -----------------------------------------------------------


def commutator_lie(alg: ConfAlgebra) -> ConfAlgebra:
    """The commutator bracket ``[a L1 b] = a_L1 b − b_{−L1−D} a``.

    Its table is the table sum itself, so inside :func:`sum_memo` every call
    on one algebra returns the same table, and skew-symmetry is checked on it.
    """
    require_flavor(alg, "associative", "commutator_lie")
    require(check_associative(alg, cap=1), AXIOMS["associative"].error)
    table = table_sum([(1, alg.table), (-1, Swap(alg.table, 1, 2))])
    return _require_skew(ConfAlgebra(alg.module, table, "lie"))


def rep_from_bimodule(alg: ConfAlgebra, bim: ConfBimodule) -> LieRep:
    """``ρ(a)_L1 m = a_L1 m − m_{−L1−D} a`` over the commutator bracket."""
    require(check_bimodule(alg, bim, cap=1), AXIOMS["bimodule"].error)
    action = table_sum([(1, bim.left), (-1, Swap(bim.right, 1, 2))])
    return LieRep(commutator_lie(alg), bim.module, action)


def direct_sum(left: FreeModule, right: FreeModule) -> FreeModule:
    """The module ``left ⊕ right`` with basis ``a_* ++ m_*``."""
    return FreeModule(tuple("a_" + n for n in left.basis) + tuple("m_" + n for n in right.basis))


def block(
    table: MultiTable,
    ins: Sequence[FreeModule],
    out: FreeModule,
    shifts: Sequence[int],
    shift: int,
) -> MultiTable:
    """``table`` re-indexed as a table from ``ins`` to ``out``.

    Index k of every stored entry moves by ``shifts[k]`` and value
    coefficient j moves to ``j + shift``; indices and coefficients that fall
    outside ``ins`` and ``out`` are dropped, so positive shifts place a table
    into one block of a :func:`direct_sum` and negative shifts read a block
    back out.
    """
    ins = tuple(ins)
    if not len(ins) == len(shifts) == table.arity:
        raise ArityMismatch("a block needs one module and one shift per argument slot")
    ranks, zero, entries = tuple(m.rank for m in ins), Poly.zero(), {}
    for idx, entry in table.entries.items():
        key = tuple(i + s for i, s in zip(idx, shifts))
        if not all(0 <= k < r for k, r in zip(key, ranks)):
            continue
        coeffs = [zero] * out.rank
        for j, c in entry._terms:
            if 0 <= j + shift < out.rank:
                coeffs[j + shift] = c
        if any(coeffs):
            entries[key] = _elem(out, tuple(coeffs))
    return _table(ins, out, entries)


def _extension(alg: ConfAlgebra, bim: ConfBimodule, phi, validate: bool) -> ConfAlgebra:
    """``(a, m) L (b, n) = (a_L b, a_L n + m_L b [+ φ_L(a, b)])`` on ``A ⊕ M``."""
    if phi is not None:
        require_shape(phi.table, (alg.module,) * 2, bim.module, "the twist")
    if validate:
        require(check_bimodule(alg, bim), AXIOMS["bimodule"].error)
        if phi is not None:
            require(is_cocycle(phi, alg, bim), AXIOMS["cocycle"].error)
    require_over(alg, bim)
    big, ra = direct_sum(alg.module, bim.module), alg.rank
    blocks = [(alg.table, (0, 0), 0), (bim.left, (0, ra), ra), (bim.right, (ra, 0), ra)]
    if phi is not None:
        blocks.append((phi.table, (0, 0), ra))
    table = table_sum((1, block(t, (big, big), big, shifts, shift)) for t, shifts, shift in blocks)
    return ConfAlgebra(big, table, "associative")


def semidirect(alg: ConfAlgebra, bim: ConfBimodule, *, validate: bool = True) -> ConfAlgebra:
    """The extension of ``alg`` by ``bim`` with zero product on the module.

    ``(a, m) L (b, n) = (a_L b, a_L n + m_L b)`` on the basis ``a_* ++ m_*``.
    With ``validate`` the bimodule axioms are checked first; pass
    ``validate=False`` to build the candidate table for a failing bimodule.
    A bimodule over another algebra raises either way.
    """
    return _extension(alg, bim, None, validate)


def twisted_extension(
    alg: ConfAlgebra, bim: ConfBimodule, phi, *, validate: bool = True
) -> ConfAlgebra:
    """The extension twisted by a 2-cocycle φ with values in the module.

    ``(a, m) L (b, n) = (a_L b, a_L n + m_L b + φ_L(a, b))``; with φ = 0 this
    is :func:`semidirect`.  ``validate`` checks the bimodule axioms and that
    φ is a 2-cocycle.
    """
    return _extension(alg, bim, phi, validate)


class ExtensionIso(NamedTuple):
    """The change-of-section map between two twisted extensions."""

    psi: ModuleMap
    psi_inv: ModuleMap
    verdict: Verdict


def extension_iso(alg: ConfAlgebra, bim: ConfBimodule, phi, h) -> ExtensionIso:
    """Verify that ``ψ_h(a, m) = (a, m − h(a))`` intertwines twists φ and φ+𝐝h.

    ``h`` is a module map from the algebra into the module.  Returns ψ_h, its
    inverse ``(a, m) ↦ (a, m + h(a))``, and the verdict of the identity
    ``ψ_h(x ∘ᵠ y) = ψ_h(x) ∘ᵠ⁺ᵈʰ ψ_h(y)`` expanded on all basis pairs.
    """
    require_shape(phi.table, (alg.module,) * 2, bim.module, "the twist")
    require_shape(h.table, (alg.module,), bim.module, "h")
    require(is_cocycle(phi, alg, bim), AXIOMS["cocycle"].error)
    dh = hochschild_d(Cochain(h.table), alg, bim)
    ext = twisted_extension(alg, bim, phi, validate=False)
    ext_shifted = twisted_extension(alg, bim, phi + dh, validate=False)
    big = ext.module
    # ψ_h and its inverse are the identity ∓ h placed in the (A → M) block
    ident, h_block = ModuleMap.identity(big).table, block(h.table, (big,), big, (0,), alg.rank)
    psi, psi_inv = ModuleMap(ident - h_block), ModuleMap(ident + h_block)
    # ψ(x ∘ᵠ y) − ψ(x) ∘ᵠ⁺ᵈʰ ψ(y) on all basis pairs
    outer = circ(ext_shifted.table, 1, psi.table)
    residual = table_sum([(1, Circ(psi.table, 1, ext.table)), (-1, Circ(outer, 2, psi.table))])
    return ExtensionIso(psi, psi_inv, scan("extension-iso", [((), residual)]))


def matching_pair(
    a1: ConfAlgebra,
    a2: ConfAlgebra,
    a1_on_a2: ConfBimodule,
    a2_on_a1: ConfBimodule,
) -> ConfAlgebra:
    """The candidate algebra on A₁ ⊕ A₂ glued by four cross actions.

    ``(a, x) L (b, y) = (a_L b + x·b + a·y, a·y' + x·b' + x_L y)`` where the
    unprimed dots are the actions of A₂ on A₁ and the primed ones the actions
    of A₁ on A₂.  The basis is ``a_* ++ m_*`` as in :func:`semidirect`, so
    the degenerate pair (zero product and actions on one side) reproduces the
    semidirect table exactly.  The result is *not* validated: run
    :func:`check_associative` on it to certify the pair.
    """
    require_flavor(a1, "associative", "matching_pair")
    require_flavor(a2, "associative", "matching_pair")
    for alg, bundle, on, name in ((a1, a1_on_a2, a2, "A₁ on A₂"), (a2, a2_on_a1, a1, "A₂ on A₁")):
        require_over(alg, bundle)
        what = f"matching_pair: the left action of {name}"
        require_shape(bundle.left, (alg.module, on.module), on.module, what)
    big, r1 = direct_sum(a1.module, a2.module), a1.rank
    blocks = [
        (a1.table, (0, 0), 0),
        (a2.table, (r1, r1), r1),
        (a1_on_a2.left, (0, r1), r1),
        (a1_on_a2.right, (r1, 0), r1),
        (a2_on_a1.left, (r1, 0), 0),
        (a2_on_a1.right, (0, r1), 0),
    ]
    table = table_sum((1, block(t, (big, big), big, shifts, shift)) for t, shifts, shift in blocks)
    return ConfAlgebra(big, table, "associative")


def cur(
    basis: Sequence[str],
    products: Mapping[IndexKey, Sequence[PolyLike]],
    flavor: str = "associative",
) -> ConfAlgebra:
    """The current conformal algebra of a finite-dimensional scalar algebra.

    ``products`` maps basis pairs (names or indices) to constant coefficient
    vectors; the λ-product is constant in both ``D`` and the weight.
    Associativity (or the Lie axioms) of the result is equivalent to that of
    the scalar algebra and is *not* checked here.
    """
    module = FreeModule(tuple(basis))
    entries = {}
    for key, vec in products.items():
        elem = module.elem(vec)
        for _, c in elem.support():
            if c.variables():
                raise InvalidEntry(
                    f"current-algebra entry at {key} must be scalar, got {c}"
                )
        entries[tuple(key)] = elem
    if flavor == "lie":
        return ConfAlgebra.lie(module, entries)
    return ConfAlgebra.associative(module, entries)
