"""Exact sparse multivariate polynomials over the rationals, computed with integers.

This is the computational substrate for every identity check in the package.

Variables are plain strings in three classes, ordered ``D < L1 < L2 < ... <
aux``:

* ``"D"`` — the symbol for the module generator ∂ acting on an *output*;
* ``"L1"``, ``"L2"``, ... — the lambda-weights attached to the arguments of a
  multilinear map (the evaluation engine in :mod:`confalg.confcore` binds
  them);
* anything else (``"t"``, ``"q"``, ...) — auxiliary scalar parameters such as
  deformation or weight parameters, never touched by evaluation.

Representation.  A monomial is one non-negative ``int`` holding a packed
exponent vector: every variable owns a field of :data:`FIELD_BITS` bits at a
fixed offset, the low bits holding its exponent and the top bit a guard.
``D`` and ``L1 .. L4`` own the lowest fields in that order; any other
variable gets the next free field the first time it is used (a process-wide,
append-only table that grows with the number of distinct variable names).
Multiplying monomials is adding their integers.  The exponents of two
monomials are below the guard bit, so a field of their sum can only overflow
into its own guard bit, never into the next field; every product is checked
for set guard bits.  A polynomial is a map ``monomial -> int numerator``
together with one positive ``int`` denominator, kept canonical: no zero
numerators, and ``gcd(denominator, *numerators) == 1`` (so the zero
polynomial has denominator 1).  Two equal polynomials therefore have equal
maps and denominators, which is what ``==`` and ``hash`` compare.  A
polynomial never changes, so its hash is computed once and cached, and
callers may share one polynomial freely.

Boundary contract.  The public view is unchanged by the packing:
``Poly(mapping)`` takes monomials as tuples of ``(variable, exponent)`` pairs
and ``int`` or ``Fraction`` coefficients; :meth:`Poly.items` yields
monomials as such tuples, sorted by the variable order, with ``Fraction``
coefficients in lowest terms; :meth:`Poly.constant_term` is a ``Fraction``.
Fractions are made only there, never inside arithmetic.

Exponent cap.  An exponent may not exceed :data:`EXP_MAX` (32767), whether
it is written on a variable, reached by a product or a substitution, or is
the exponent of ``**``.  Exceeding it raises :class:`ExponentOverflow` (a
:class:`~confalg.errors.ConfalgError`) instead of wrapping or running on;
from :func:`parse_poly` and the DSL parser the message ends with the line
and column of the offending factor.

Products.  A product takes one of two routes, packed rows or term by term,
and one rule, :func:`_packing`, chooses it, for ``*`` and for the products of
a sum alike.  Sesquilinearity makes the residuals products of polynomials
that are dense in ``D``, and these are packed (Fateman 2005, "Can you save
time in multiplying polynomials by encoding them as integers?", along one
variable).  Each operand is split into rows, one per monomial without ``D``
(``m & ~_FIELD``; ``D`` owns the field at shift 0), and the numerators of a
row go into one integer, the one of ``D^(lo+k)`` at bit offset ``bits·k``,
where ``lo`` is the operand's lowest ``D`` exponent; a long row is joined by
halves.  A pair of rows costs one big-integer product, added into the row of
an accumulator that the pair's monomials name; a last pass reads the signed
slots back out, up to the highest that the row's bit length names.  The slot
width is

    ``bits = (Σ max|a| · max|b| · min(len a, len b) · |k|).bit_length() + 2``

over the products ``k·a·b`` that share the accumulator: a coefficient of a
product adds at most ``min(len a, len b)`` products of two numerators, so
every slot stays below ``2^(bits-1)`` in magnitude and reads back exactly.
The rule: products are packed together when each one's smaller operand has
at least 8 terms, every row of each operand is a run without gaps from that
operand's ``lo``, the lowest ``D`` exponents of each product's operands add
up to one ``lo`` for all of them, and their pairs of rows are at most an
eighth of their pairs of terms for one product, a quarter for several
(:data:`_PACK_MIN_TERMS`, :data:`_PACK_SHARE`, :data:`_SHARED_SHARE`).  The
shape rules make the slots of every row of the accumulator, a run from
``D^lo``, exactly the monomials that the pairs of terms form: a row with
gaps, or one starting above its operand's ``lo``, or a product from another
``lo``, would cost slots for monomials that no pair forms, as many as the
``D`` exponents between them.  Every other product goes term by term: each
pair of terms is added into one accumulator (Monagan and Pearce 2007,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors").  Both routes drop zero numerators, and both check the exponents
from the operands, since the terms of a product of highest degree in one
variable never cancel.

Sums of products.  A sum ``Σ c·v·k``, such as a cell of a table sum, is formed
at once by :func:`sum_of_products`, in one map of integer numerators over the
least common multiple of the denominators, made canonical once.  A constant
factor, and the constant scale ``k``, multiply the other factor's numerators
and make no ``Poly``; triples of two constant factors add integers, and their
total is scaled into the map.  The products of non-constant factors follow
the rule above.  Where all of them pack together, they share one accumulator
of packed rows, decoded once; the associator cell of ``u·u = (D+L+c)^n u``,
``p(−L1−L2, L1)·p(D, L1+L2) − p(D+L1, L2)·p(D, L1)``, is such a sum.
Otherwise each product that packs alone is decoded from rows of its own into
the pieces of the map, and every other product goes term by term straight
into the map.  No product of a cell is formed as a ``Poly`` or passes through
``*``.  The largest of the pieces gathered before the products seeds the map
as one copy.  Each product is checked as it would be alone, and in the order
of the triples: first its term count, then its exponents, so an overflow
raises even where another product cancels it.

Substitution.  :meth:`Poly.substitute_many` follows a :class:`Substitution`,
which compiles its bindings on the first polynomial with a variable and then
serves any number of polynomials; the table sums of :mod:`confalg.confcore`
keep one per slot layout for the whole process.  An image that is a bare
variable, with coefficient 1 and denominator 1, becomes a move: the bound
exponent field is added into that variable's field, with no arithmetic.
Every other image keeps one table of its powers, grown on demand and shared
by every polynomial that the substitution is applied to; when one such image
occurs in a polynomial, the terms of each monomial's power go straight into
the result.  Every monomial formed has its guard bits checked before it is
added, so an overflow raises even where it would cancel.  The term cap below
is unchanged: a call counts the powers up to its own largest exponent,
however many the table holds.  The table sums trim each table back to
:data:`_KEPT_TERMS` terms of powers when they are done with it.

A substitution that has been trimmed is kept for later calls, and where its
images all have denominator 1 its first trim also starts a memo of the
monomials it rebinds, up to :data:`_KEPT_TERMS` terms held: each monomial's
image, as ``(monomial, numerator)`` pairs, and a bound, the image's terms
plus, for each table, the terms of the powers 1 .. e that the monomial's
exponent e needs.  A call that finds every monomial in the memo, with bounds
that sum to at most the cap, adds each coefficient times its image straight
into the result, with no powers, no moves and no checks; every other call
takes the path above and keeps each image it forms.  The errors are the
same by construction: an image is kept only once formed without raising, and
an exponent overflow depends on the monomial alone, so a call served from
the memo owes none; and the summed bounds are at least the powers and the
result that the path counts against the cap.  A substitution that is never
trimmed keeps no memo, such as one made from pairs or the one that
:func:`~confalg.confcore.eval_multilinear` builds per call; nor does one with
an image over another denominator, whose powers each call scales to its own
largest exponent.

Term cap.  A product may hold at most :data:`MAX_TERMS` terms, and a
substitution at most that many in the powers of its images that it keeps
plus its result so far; where the bounds of its memo (see above) sum past
the cap, a call counts on the path that forms the images, so it raises
exactly where a substitution without a memo would.  A product counts every
monomial that a pair of its terms forms, cancelled or not, and counts them
only where a bound passes the cap.  The term-by-term route's bound is its
pairs of terms: into a map of its own it counts the terms as it adds them,
row by row, and into a map that holds other terms, the distinct sums of
their monomials, before it adds any.
The packed route's bound is the sum over its pairs of rows of the monomials
each pair forms, and before it multiplies it adds up the longest run of each
row of the product, which are exactly those monomials.  So both routes stop
at the same count, and a sum of products, whichever route each product
takes, stops at the product that would have stopped alone.  Past the cap
:class:`~confalg.errors.TermOverflow` (a ``ConfalgError``) is raised, so a
computation whose size would exhaust memory stops early instead.  A power is
refused before its first product when a bound on its terms passes the cap:
the smaller of the simplex and the degree box of :func:`_power_terms_bound`.
The bound counts the monomials the power could form, so a power whose terms
coincide or cancel below it is refused too; ``(D + L1 + 1)^1500``
(1,127,251) is, ``(D + L1 + 1)^1400`` (982,101) is not.

The textual form used by the DSL and JSON reports is produced by ``str()``
and read back by :func:`parse_poly`; it uses ``+ - * ^``, integer and ``p/q``
rational literals, and the variable names above, e.g. ``(2*D + 3*L1)^2``.
Its grammar is the one the DSL parser extends (see "the grammar of
polynomial text" below).  Parentheses and unary minus signs nest at most
:data:`MAX_NESTING` levels deep; deeper input is a :class:`ParseError`.
Integers of any length are read and written through :func:`decimal_to_int`
and :func:`int_to_decimal`, which stay inside the interpreter's limit on
int/str conversions without changing it, and split long numbers in halves so
that their cost grows like that of a product, not quadratically.  Terms are
written by higher total degree first, then larger exponents of earlier
variables.  What a monomial contributes to that text is memoised once per
process: an ``int`` rank, which orders the terms, and its factor text
(``*D^22*L1``).  A rendering fills in the monomials the memo lacks, a column
of exponents per variable at a time, then sorts its terms by rank and joins
their coefficients to the memo's factor texts.  A new variable name moves the
fields within a rank, so interning one starts the memo over; so does filling
it past :data:`_MEMO_MAX` (16,384) monomials, and a polynomial with more
monomials than that is rendered without it.  Beside it, a coefficient memo
maps a denominator and a numerator to the term's sign and coefficient text
(``3/2``), capped in the same way at :data:`_MEMO_MAX` numerators; it holds
only numerators and denominators below ``10^640``, and a polynomial with a
larger one is rendered without it.  The memos' maps are replaced, never
cleared, so a rendering in progress keeps the maps it started with.
"""

from __future__ import annotations

import decimal
import re
import threading
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import comb, gcd, lcm
from operator import index, itemgetter, or_
from typing import Collection, Iterable, Iterator, Mapping, Sequence, Tuple, Union

from .errors import DuplicateBinding, ExponentOverflow, ParseError, PreconditionFailed, TermOverflow

Scalar = Fraction
Monomial = Tuple[Tuple[str, int], ...]
PolyLike = Union["Poly", Scalar, int]

#: Bits per variable in a packed monomial: exponent bits plus one guard bit.
FIELD_BITS = 16
#: The largest exponent a variable may carry, and the largest one ``**`` takes.
EXP_MAX = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1
_REST = ~_FIELD  # every field but D's
#: The most terms a product, or a substitution's powers and result together,
#: may hold.  It is about 500 times the largest product that the test suite and
#: the benchmark workloads count against it (2,014 terms, one of the shared
#: products of a degree-11 associator cell), and a blow-up reaches it in about
#: a second and a few hundred MB, far from exhausting memory.
MAX_TERMS = 1_000_000
#: The size rule of packed rows for one product (see "Products" above).  Timed
#: against the term-by-term loop on products of 10 to 364 terms by 10 to 78
#: dense in D, rows packed by halves took 0.2-0.8x the time with 18 to 42 pairs
#: of terms per pair of rows, 0.8-2.3x with 5 to 12, and 2.2-2.7x with 4.
_PACK_MIN_TERMS = 8
_PACK_SHARE = 8
#: Rows of more slots are decoded by halves.  On rows of 16 to 3,000 slots of 24
#: to 1,500 bits, splitting tied peeling up to 32 slots and won above (1.4-2x at
#: 64, 4-70x at 1,024); the rows of degree-11 products are shorter.
_DECODE_SPLIT = 32
#: Rows of more slots are packed by halves.  On rows of 8 to 1,024 slots of 64
#: and 600 bits, halves tied the loop up to 16 slots and won above (1.5x at 64,
#: 6-17x at 1,024); the rows of degree-11 products are shorter.
_PACK_SPLIT = 16
#: The size rule of packed rows for several products (see "Products" above).
#: Timed against one product each on cells of two products of 16 to 16,380
#: pairs of terms, shared rows were 0.45-0.8x with 4.7 or more pairs of terms
#: per pair of rows, tied at 3.5, and 1.1-2.2x with fewer or with operands of
#: under 8 terms.  The rule counts the cell, not each product: beside a
#: product of 2,352 to 81,600 pairs of terms with 12 to 45 per pair of rows, a
#: product of 100 to 14,400 pairs of terms with one or 1.5 per pair of rows
#: still left the cell at 0.84-0.93x wherever the cell passed the rule.
_SHARED_SHARE = 4
#: The most monomials the display memo holds, and the most numerators the
#: coefficient memo holds (see "textual form" above).  A ``degree`` benchmark
#: pass renders about 2,400 distinct monomials and 8,500 distinct numerators.
_MEMO_MAX = 1 << 14
#: The deepest nesting the text parser accepts; it keeps its recursion far
#: inside the interpreter's recursion limit.
MAX_NESTING = 100
#: Decimal digits per piece in the int/str helpers.  The interpreter refuses
#: int/str conversions longer than a process-wide limit (4300 digits by
#: default) that can be lowered, but never below 640, so such pieces always pass.
_DIGIT_CHUNK = 640
_CHUNK_BASE = 10**_DIGIT_CHUNK
#: Bits per piece when :func:`int_to_decimal` converts through ``Decimal``.
_PIECE_BITS = 2048
#: Exact decimal arithmetic: no rounding, and an error rather than an inexact result.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])

_LAMBDA_RE = re.compile(r"^L([1-9][0-9]*)$")


@lru_cache(maxsize=None)
def var_sort_key(name: str) -> tuple:
    """Total order on variable names: D first, then L1 < L2 < ..., then aux."""
    if name == "D":
        return (0, 0, "")
    m = _LAMBDA_RE.match(name)
    if m:
        return (1, decimal_to_int(m.group(1)), "")
    return (2, 0, name)


def lam(k: int) -> str:
    """Name of the k-th lambda-weight variable (1-based): ``lam(1) == "L1"``."""
    if k < 1:
        raise PreconditionFailed(f"lambda index must be >= 1, got {k}")
    return f"L{k}"


# The split points are cached by k, which stays below 30 for any number that
# fits in memory; the largest power kept is about half the size of the largest
# number converted so far.
@lru_cache(maxsize=None)
def _ten_power(k: int) -> int:
    """``10^(640·2^k)``, where :func:`decimal_to_int` splits its digits."""
    return _CHUNK_BASE if k == 0 else _ten_power(k - 1) ** 2


@lru_cache(maxsize=None)
def _two_power(k: int) -> decimal.Decimal:
    """``2^(2048·2^k)``, where :func:`int_to_decimal` splits its bits."""
    if k == 0:
        return decimal.Decimal(1 << _PIECE_BITS)
    half = _two_power(k - 1)
    return _EXACT.multiply(half, half)


def decimal_to_int(digits: str) -> int:
    """The integer written by a string of decimal digits, of any length.

    Longer strings are split at ``10^(640·2^k)`` into a high and a low part,
    converted recursively, and joined by one multiplication, so the cost
    grows like that of a product rather than quadratically.
    """
    if len(digits) <= _DIGIT_CHUNK:
        return int(digits)
    k = 0
    while _DIGIT_CHUNK << (k + 1) < len(digits):
        k += 1
    cut = len(digits) - (_DIGIT_CHUNK << k)
    return decimal_to_int(digits[:cut]) * _ten_power(k) + decimal_to_int(digits[cut:])


def _as_decimal(value: int) -> decimal.Decimal:
    """``value >= 0`` as an exact ``Decimal``, split at ``2^(2048·2^k)`` and rejoined there."""
    if value.bit_length() <= _PIECE_BITS:
        return decimal.Decimal(value)
    k = 0
    while _PIECE_BITS << (k + 1) < value.bit_length():
        k += 1
    high = value >> (_PIECE_BITS << k)
    low = value - (high << (_PIECE_BITS << k))
    return _EXACT.fma(_as_decimal(high), _two_power(k), _as_decimal(low))


def int_to_decimal(value: int) -> str:
    """The decimal digits of an integer of any size, with ``-`` if negative.

    Integers of more than 640 digits are rebuilt as a ``Decimal``, whose
    products are fast and whose text is not subject to the interpreter's limit.
    """
    if value < 0:
        return "-" + int_to_decimal(-value)
    if value < _CHUNK_BASE:
        return str(value)
    return str(_as_decimal(value))


class _Fields:
    """The assignment of variables to fields of a packed monomial, and the display memos."""

    def __init__(self, first: Iterable[str]) -> None:
        self.shift: dict[str, int] = {}
        #: ``(shift, name)`` pairs in variable order, for unpacking and display.
        self.order: list[Tuple[int, str]] = []
        #: The guard bits of all assigned fields.
        self.guard = 0
        #: The display memo: the order its ranks encode, and two maps from a
        #: monomial to its rank and to its factor text (see "textual form").
        self.memo: Tuple[list, dict, dict] = (self.order, {}, {})
        #: The coefficient memo: a map from a denominator to a map from a
        #: numerator to its sign and coefficient text, and the numerators it holds.
        self.coeffs: Tuple[dict, int] = ({}, 0)
        for name in first:
            self.intern(name)

    def intern(self, name: str) -> int:
        shift = self.shift.get(name)
        if shift is None:
            shift = len(self.shift) * FIELD_BITS
            self.shift[name] = shift
            self.guard |= 1 << (shift + FIELD_BITS - 1)
            self.order = sorted([*self.order, (shift, name)], key=lambda pair: var_sort_key(pair[1]))
            # A new field moves the others within a rank, so the memo starts over.
            self.memo = (self.order, {}, {})
        return shift

    def ranked(self, monos: Collection[int]) -> Tuple[dict, dict]:
        """Maps from each of ``monos`` (distinct) to its rank and to its factor text.

        The memo's maps are filled in with the monomials they lack and
        returned; when that would take them past :data:`_MEMO_MAX` entries,
        fresh maps are filled instead, and kept as the memo if they fit.
        """
        order, rank, text = self.memo
        new = [m for m in monos if m not in rank]
        if not new:
            return rank, text
        if len(rank) + len(new) > _MEMO_MAX:
            rank, text, new = {}, {}, list(monos)
            if len(new) <= _MEMO_MAX:
                self.memo = (order, rank, text)
        # A rank is the total degree above one field per variable, each exponent in
        # variable order, so larger ranks come first in the text.  Each variable
        # present adds ``e << top`` and ``e`` in its own field, as one number.
        present = reduce(or_, new)
        top = FIELD_BITS * len(order)
        parts, factors = [], []
        for place, (shift, name) in enumerate(order):
            if (present >> shift) & _FIELD:
                col = [(m >> shift) & _FIELD for m in new]
                seen = set(col)
                part = {e: e << top | e << (top - FIELD_BITS * (place + 1)) for e in seen}
                factor = {e: f"*{name}^{e}" if e > 1 else f"*{name}" if e else "" for e in seen}
                parts.append(map(part.__getitem__, col))
                factors.append(map(factor.__getitem__, col))
        # Without a variable present the constant is the only monomial.
        rank.update(zip(new, map(sum, zip(*parts)) if parts else [0]))
        text.update(zip(new, map("".join, zip(*factors)) if factors else [""]))
        return rank, text

    def signed(self, nums: Sequence[int], den: int) -> list:
        """The sign and the coefficient text of each of ``nums``, numerators over ``den``.

        The sign is ``"+ "`` or ``"- "``; the text is the magnitude in lowest
        terms, ``n`` or ``p/q``, and empty for 1.  The memo's map for ``den`` is
        filled in with the numerators it lacks; when that would take the memo
        past :data:`_MEMO_MAX` numerators, a fresh map is filled instead, and
        kept as the memo's only one if it fits.  The memo holds only numerators
        and denominators below ``10^640``, whose texts ``str()`` writes: where
        ``den`` or a missing numerator is larger, every text is written anew.
        """
        memo, held = self.coeffs
        texts = memo.get(den)
        if texts is not None:
            try:
                return list(map(texts.__getitem__, nums))
            except KeyError:
                pass
        else:
            texts = {}
        new = set(nums).difference(texts)
        if den >= _CHUNK_BASE or max(new) >= _CHUNK_BASE or min(new) <= -_CHUNK_BASE:
            return [_signed_text(num, den) for num in nums]
        if held + len(new) > _MEMO_MAX:
            memo, held, texts, new = {}, 0, {}, set(nums)
        texts.update((num, _signed_text(num, den)) for num in new)
        if held + len(new) <= _MEMO_MAX:
            memo[den] = texts
            self.coeffs = (memo, held + len(new))
        return list(map(texts.__getitem__, nums))


def _signed_text(num: int, den: int) -> Tuple[str, str]:
    """The sign and the coefficient text of ``num/den`` (see :meth:`_Fields.signed`)."""
    mag = abs(num)
    if den == 1:
        text = "" if mag == 1 else int_to_decimal(mag)
    else:
        g = gcd(mag, den)
        if g != den:
            text = f"{int_to_decimal(mag // g)}/{int_to_decimal(den // g)}"
        else:
            text = "" if mag == g else int_to_decimal(mag // g)
    return "+ " if num > 0 else "- ", text


_FIELDS = _Fields(("D", "L1", "L2", "L3", "L4"))


def _overflow(name: str, exp: int) -> ExponentOverflow:
    return ExponentOverflow(
        f"exponent {int_to_decimal(exp)} of {name} exceeds the cap {EXP_MAX}"
    )


def _pack(mono: Monomial) -> int:
    exps: dict[str, int] = {}
    for name, exp in mono:
        if exp < 0:
            raise PreconditionFailed("negative exponent")
        exps[name] = exps.get(name, 0) + exp
    packed = 0
    for name, exp in exps.items():
        if exp > EXP_MAX:
            raise _overflow(name, exp)
        packed += exp << _FIELDS.intern(name)
    return packed


def _unpack(packed: int) -> Monomial:
    if not packed:
        return ()
    out = []
    for shift, name in _FIELDS.order:
        exp = (packed >> shift) & _FIELD
        if exp:
            out.append((name, exp))
    return tuple(out)


def _checked(nums: dict) -> dict:
    """``nums`` itself, after checking that no exponent reached a guard bit."""
    hit = reduce(or_, nums, 0) & _FIELDS.guard
    if hit:
        for shift, name in _FIELDS.order:
            if (hit >> shift) & _FIELD:
                top = max((m >> shift) & _FIELD for m in nums)
                raise _overflow(name, top)
    return nums


def _term_overflow() -> TermOverflow:
    return TermOverflow(f"a polynomial would have more than {MAX_TERMS} terms")


def _power_terms_bound(nums: dict, n: int) -> int:
    """A bound on the terms of the n-th power of a polynomial of k+1 terms.

    Its monomials are sums of n of the k+1 monomials, at most ``C(n+k, k)`` of
    them (the simplex), and each exponent of a variable ``v`` lies in
    ``n·min_v … n·max_v`` (the degree box); the bound is the smaller count.
    """
    simplex = comb(n + len(nums) - 1, n)
    box = 1
    for shift, _ in _FIELDS.order:
        exps = [(m >> shift) & _FIELD for m in nums]
        box *= n * (max(exps) - min(exps)) + 1
    return min(simplex, box)


def _d_rows(nums: dict) -> tuple | None:
    """``nums`` as ``(lo, rows)`` if its rows are runs along ``D`` from one exponent, else None.

    A row gathers the terms ``D^e·rest`` of one monomial ``rest`` free of
    ``D``: ``rows[rest]`` lists their pairs ``(e, numerator)``.  ``lo`` is the
    lowest ``D`` exponent in ``nums``, and every row must hold each ``D^e``
    from ``D^lo`` up to its highest, without a gap: its exponents are
    distinct and at least ``lo``, so it must reach no higher than
    ``lo + len(row) - 1``.
    """
    rows: dict = {}
    get = rows.get
    for m, c in nums.items():
        rest = m & _REST
        row = get(rest)
        if row is None:
            rows[rest] = [(m & _FIELD, c)]
        else:
            row.append((m & _FIELD, c))
    lo = min(m & _FIELD for m in nums)
    for row in rows.values():
        if max(row)[0] - lo >= len(row):
            return None
    return lo, rows


def _pack_row(row: list, lo: int, bits: int) -> int:
    """The numerators of a row in one integer, that of ``D^(lo+k)`` at bit ``bits·k``.

    The row is a run without gaps from ``D^lo``.
    """
    slots = [0] * len(row)
    for e, c in row:
        slots[e - lo] = c
    return _join(slots, bits)


def _join(slots: list, bits: int) -> int:
    """``Σ slots[k]·2^(bits·k)``.

    More than :data:`_PACK_SPLIT` slots are joined by halves, the low and the
    high half by one shift and one addition, as :func:`_decode` splits, so the
    cost grows like ``count·log(count)`` rather than quadratically.
    """
    if len(slots) <= _PACK_SPLIT:
        packed = 0
        for c in reversed(slots):
            packed = (packed << bits) + c
        return packed
    k = len(slots) // 2
    return _join(slots[:k], bits) + (_join(slots[k:], bits) << bits * k)


def _packed_sum(pairs: list) -> dict:
    """``Σ k·a·b`` over ``(a, b, runs_a, runs_b, k)``, one big-int multiply per pair of rows.

    ``a`` and ``b`` are numerator maps, ``runs_a`` and ``runs_b`` their rows
    from :func:`_d_rows`, and ``k`` a nonzero integer scale, as
    :func:`_packing` gives them.  Every pair has the same ``lo_a + lo_b``, so
    each row of the accumulator is a run from that exponent.  All pairs share
    one slot width and one accumulator of rows (see "Products" above),
    whether they are one product or a cell's products together.
    """
    bound = 0
    for a, b, _, _, k in pairs:
        bound += max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b)) * abs(k)
    bits = bound.bit_length() + 2
    acc: dict = {}
    get = acc.get
    for a, b, (lo_a, rows_a), (lo_b, rows_b), k in pairs:
        # A pair of rows of n1 and n2 terms forms n1+n2-1 monomials, so this bounds
        # the pair's terms; only a pair past the cap by it counts them exactly.
        if len(rows_b) * len(a) + len(rows_a) * len(b) - len(rows_a) * len(rows_b) > MAX_TERMS:
            _count_terms(rows_a, rows_b)
        # The terms of a product of highest degree in one variable never cancel, so
        # its exponents are checked from the operands', even where another pair
        # cancels those terms.
        if _may_overflow(a, b):
            _check_product(a, b)
        packed_b = [(rest, _pack_row(row, lo_b, bits)) for rest, row in rows_b.items()]
        for r1, row in rows_a.items():
            x1 = _pack_row(row, lo_a, bits) * k
            for r2, x2 in packed_b:
                r = r1 + r2
                acc[r] = get(r, 0) + x1 * x2
    lo = lo_a + lo_b
    out: dict = {}
    for r, value in acc.items():
        # a row's highest nonzero slot is its bit length over the slot width
        if value:
            _decode(value, r + lo, bits, value.bit_length() // bits + 1, out)
    return out


def _count_terms(rows_a: dict, rows_b: dict) -> None:
    """Raise :class:`TermOverflow` if a product with these rows forms more than :data:`MAX_TERMS` monomials.

    Two runs of n1 and n2 terms form a run of n1+n2-1, so the longest run of
    each row of the product, summed, counts them (see "Term cap" above).
    """
    lens_b = [(rest, len(row)) for rest, row in rows_b.items()]
    slots: dict = {}
    held = 0
    for r1, row in rows_a.items():
        n1 = len(row) - 1
        for r2, n2 in lens_b:
            r = r1 + r2
            old = slots.get(r, 0)
            if n1 + n2 > old:
                slots[r] = n1 + n2
                held += n1 + n2 - old
        if held > MAX_TERMS:
            raise _term_overflow()


def _may_overflow(a: dict, b: dict) -> int:
    """Nonzero if an exponent of ``a·b`` may pass the cap; :func:`_check_product` tells exactly.

    The OR of an operand's monomials holds, field by field, at least the
    largest exponent of each variable, and a field of the sum of two ORs only
    reaches its own guard bit, so a product past the cap always sets one.
    """
    return (reduce(or_, a, 0) + reduce(or_, b, 0)) & _FIELDS.guard


def _check_product(a: dict, b: dict) -> None:
    """Raise :class:`ExponentOverflow` if a variable's exponents in ``a·b`` would pass the cap.

    The largest exponent of a variable in the product is the sum of its
    largest in ``a`` and in ``b``; the first variable past the cap is named,
    as :func:`_checked` names it.
    """
    for shift, name in _FIELDS.order:
        top = max((m >> shift) & _FIELD for m in a) + max((m >> shift) & _FIELD for m in b)
        if top > EXP_MAX:
            raise _overflow(name, top)


def _decode(value: int, m: int, bits: int, count: int, out: dict) -> None:
    """Put the nonzero slots of ``value`` into ``out``, the one at bit ``bits·k`` for ``m + k``.

    Every slot is below ``2^(bits-1)`` in magnitude, so the low ``k`` of the at
    most ``count`` slots, read as one signed number, are below ``2^(bits·k-1)``:
    long rows are split in halves, bounding the cost by ``count·log(count)``.
    """
    if count > _DECODE_SPLIT:
        k = count // 2
        shift = bits * k
        low = value & ((1 << shift) - 1)
        if low >> (shift - 1):
            low -= 1 << shift
        _decode(low, m, bits, k, out)
        _decode((value - low) >> shift, m + k, bits, count - k, out)
        return
    half, full, mask = 1 << (bits - 1), 1 << bits, (1 << bits) - 1
    while value:
        c = value & mask
        if c >= half:
            c -= full
        value = (value - c) >> bits
        if c:
            out[m] = c
        m += 1


def _mul_nums(a: dict, b: dict) -> dict:
    """Product of two numerator maps: zero numerators dropped, exponents checked."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        ((m2, c2),) = b.items()
        if not m2:
            return a if c2 == 1 else {m1: c1 * c2 for m1, c1 in a.items()}
        # shifting by one monomial is injective and Z has no zero divisors
        return _checked({m1 + m2: c1 * c2 for m1, c1 in a.items()})
    pairs = len(b) >= _PACK_MIN_TERMS and _packing([(a, b, 1)])
    if pairs:
        return _packed_sum(pairs)
    out: dict = {}
    _mul_into(out, a, b, 1)
    if 0 in out.values():
        out = {m: c for m, c in out.items() if c}
    return out


def _packing(products: list) -> list | None:
    """The arguments of :func:`_packed_sum` for ``products``, or None where they do not pack together.

    ``products`` holds ``(a, b, k)``: numerator maps, ``b`` the smaller, and a
    nonzero integer scale ``k``.  This is the one packing rule (see
    "Products" above): each ``b`` has at least :data:`_PACK_MIN_TERMS` terms,
    every operand's rows are runs along ``D`` from one exponent
    (:func:`_d_rows`), the lowest ``D`` exponents of each product's operands
    add up to one ``lo`` for all of them, and the pairs of rows are at most a
    :data:`_PACK_SHARE`-th of the pairs of terms for one product, a
    :data:`_SHARED_SHARE`-th for several.
    """
    if any(len(b) < _PACK_MIN_TERMS for _, b, _ in products):
        return None
    pairs = []
    term_pairs = row_pairs = 0
    lo = None
    for a, b, k in products:
        runs_a = _d_rows(a)
        runs_b = runs_a and _d_rows(b)
        if not runs_b:
            return None
        # rows from another exponent would span the slots between the two in every
        # row of the accumulator, slots for monomials that no pair forms
        if lo is None:
            lo = runs_a[0] + runs_b[0]
        elif runs_a[0] + runs_b[0] != lo:
            return None
        pairs.append((a, b, runs_a, runs_b, k))
        term_pairs += len(a) * len(b)
        row_pairs += len(runs_a[1]) * len(runs_b[1])
    share = _PACK_SHARE if len(products) == 1 else _SHARED_SHARE
    return pairs if share * row_pairs <= term_pairs else None


def _mul_into(acc: dict, a: dict, b: dict, k: int) -> None:
    """Add ``k·a·b`` into ``acc`` term by term, checked as the product alone is; ``b`` is the smaller.

    First the term count, where the pairs of terms pass the cap: the
    monomials they form, cancelled or not (a one-term ``b`` only shifts
    ``a`` and is not counted).  Into an empty ``acc`` they are counted as
    they are added, row by row of ``b``; into one that holds other terms,
    as distinct sums before any is added.  Then the exponents, from the
    operands, since the terms of a product of highest degree in one
    variable never cancel.  Zero numerators stay in ``acc``.
    """
    counting = len(b) > 1 and len(a) * len(b) > MAX_TERMS
    if counting and acc:
        formed: set = set()
        for m2 in b:
            formed.update([m1 + m2 for m1 in a])
            if len(formed) > MAX_TERMS:
                raise _term_overflow()
        counting = False
    # a field past the cap reaches only its own guard bit, so the count stays exact
    guarded = _may_overflow(a, b)
    if guarded and not counting:
        _check_product(a, b)
    get = acc.get
    a_items = a.items()
    for m2, c2 in b.items():
        c2 *= k
        for m1, c1 in a_items:
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
        if counting and len(acc) > MAX_TERMS:
            raise _term_overflow()
    if guarded and counting:
        _check_product(a, b)


class Poly:
    """An immutable exact multivariate polynomial.

    Construct via :meth:`zero`, :meth:`one`, :meth:`const`, :meth:`var` or
    :func:`parse_poly`; combine with ``+ - * **``.  Integers and Fractions
    coerce automatically on either side.  The numerator map ``_nums`` and
    the denominator ``_den`` are private and may be shared between
    polynomials, so nothing may rebind or mutate them.  Because they never
    change, the hash is computed on first use and kept in the ``_hash``
    slot, and one polynomial may be shared by any number of elements.
    """

    __slots__ = ("_nums", "_den", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None) -> None:
        fracs = []
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                fracs.append((_pack(mono), coeff))
        den = lcm(*(c.denominator for _, c in fracs)) if fracs else 1
        nums: dict[int, int] = {}
        for mono, coeff in fracs:
            nums[mono] = nums.get(mono, 0) + coeff.numerator * (den // coeff.denominator)
        canon = _canonical({m: c for m, c in nums.items() if c}, den)
        self._nums, self._den = canon._nums, canon._den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO_POLY

    @classmethod
    def one(cls) -> "Poly":
        return _ONE_POLY

    @classmethod
    def const(cls, value: Union[Scalar, int]) -> "Poly":
        if type(value) is not int:
            value = Fraction(value)
        if not value:
            return _ZERO_POLY
        if value == 1:
            return _ONE_POLY
        return _wrap({0: value.numerator}, value.denominator)

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "Poly":
        if exp < 0:
            raise PreconditionFailed("negative exponent")
        if exp == 0:
            return _ONE_POLY
        if exp > EXP_MAX:
            raise _overflow(name, exp)
        return _wrap({exp << _FIELDS.intern(name): 1}, 1)

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        nums = self._nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def variables(self) -> set[str]:
        return _names(reduce(or_, self._nums, 0))

    def constant_term(self) -> Scalar:
        return Fraction(self._nums.get(0, 0), self._den)

    def degree_in(self, name: str) -> int:
        shift = _FIELDS.shift.get(name)
        if shift is None:
            return 0
        return max(((m >> shift) & _FIELD for m in self._nums), default=0)

    def items(self) -> Iterator[Tuple[Monomial, Scalar]]:
        den = self._den
        return ((_unpack(m), Fraction(c, den)) for m, c in self._nums.items())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: PolyLike, _sign: int = 1) -> "Poly":
        if not isinstance(other, Poly):
            other = as_poly(other)
        a, b = self._nums, other._nums
        if not b:
            return self
        if not a:
            return other if _sign == 1 else -other
        da, db = self._den, other._den
        if da == db:
            out, fb, den = dict(a), _sign, da
        else:
            g = gcd(da, db)
            fa, fb, den = db // g, _sign * (da // g), da // g * db
            out = {m: c * fa for m, c in a.items()}
        get = out.get
        for m, c in b.items():
            s = get(m, 0) + c * fb
            if s:
                out[m] = s
            else:
                del out[m]
        return _canonical(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _wrap({m: -c for m, c in self._nums.items()}, self._den)

    def __sub__(self, other: PolyLike) -> "Poly":
        return self.__add__(other, -1)

    def __rsub__(self, other: PolyLike) -> "Poly":
        return as_poly(other).__sub__(self)

    def __mul__(self, other: PolyLike) -> "Poly":
        if isinstance(other, Poly):
            if not self._nums or not other._nums:
                return _ZERO_POLY
            return _canonical(_mul_nums(self._nums, other._nums), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO_POLY
            other = Fraction(other)
            return _scaled(self._nums, other.numerator, self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        n = index(n)
        if n < 0:
            raise PreconditionFailed("negative exponent")
        if n > EXP_MAX:
            raise ExponentOverflow(f"exponent {int_to_decimal(n)} exceeds the cap {EXP_MAX}")
        nums = self._nums
        if n == 0:
            return _ONE_POLY
        if not nums:
            return _ZERO_POLY
        for name in sorted(self.variables(), key=var_sort_key):
            if self.degree_in(name) * n > EXP_MAX:
                raise _overflow(name, self.degree_in(name) * n)
        # gcd(den, content) == 1 implies gcd(den^n, content^n) == 1 (Gauss's lemma)
        den = self._den ** n
        if len(nums) == 1:
            ((m, c),) = nums.items()
            return _wrap({m * n: c**n}, den)
        if _power_terms_bound(nums, n) > MAX_TERMS:
            raise _term_overflow()
        out = nums
        for _ in range(n - 1):
            out = _mul_nums(out, nums)
        return _wrap(out, den)

    def __eq__(self, other: object) -> bool:
        if type(other) is int:
            return self._den == 1 and (self._nums == {0: other} if other else not self._nums)
        if isinstance(other, (int, Fraction)):
            other = as_poly(other)
        if isinstance(other, Poly):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self._den, frozenset(self._nums.items())))
            return h

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __len__(self) -> int:
        """The number of terms."""
        return len(self._nums)

    # -- substitution ------------------------------------------------------

    def substitute(self, name: str, image: PolyLike) -> "Poly":
        """Replace every occurrence of ``name`` by ``image``."""
        return self.substitute_many([(name, image)])

    def substitute_many(
        self, bindings: Union["Substitution", Iterable[Tuple[str, PolyLike]]]
    ) -> "Poly":
        """Apply several substitutions *simultaneously*.

        ``bindings`` is a :class:`Substitution` or the ``(name, image)``
        pairs to make one of.  Images are not re-substituted: ``L1 -> L1+L2,
        L2 -> L3`` sends ``L1*L2`` to ``(L1+L2)*L3``.  Raises
        :class:`DuplicateBinding` if the same variable is bound twice.  A
        call whose monomials a trimmed substitution has all rebound since
        its first trim, with bounds within :data:`MAX_TERMS`, is one memo
        lookup per monomial and one addition per term of its image; any
        other call forms the images from the tables of powers, keeps them if
        the substitution has a memo, and raises what a fresh substitution
        would (see "Substitution" in the module docstring).
        """
        if not isinstance(bindings, Substitution):
            bindings = Substitution(bindings)
            bindings._compile()  # the pairs are checked even for a constant
        nums = self._nums
        present = reduce(or_, nums, 0)
        if not present:
            return self
        fields, keep, moves, tables = bindings._plan or bindings._compile()
        if not present & fields:
            return self
        memo = bindings._memo
        if memo:
            # every monomial met before: its image goes straight into the result, with
            # no powers and no checks, where the bounds keep the term cap from passing
            hits = list(map(memo.get, nums))
            if None not in hits and sum(map(_BOUND, hits)) <= MAX_TERMS:
                acc: dict = {}
                get = acc.get
                for (_, image), coeff in zip(hits, nums.values()):
                    for m, c in image:
                        s = get(m, 0) + c * coeff
                        if s:
                            acc[m] = s
                        else:
                            del acc[m]
                return _canonical(acc, self._den)
        # The powers of each image up to the largest exponent it replaces here.
        # image^e has denominator d^e; its terms are brought to d^top so that
        # every term shares one denominator.
        den = self._den
        kept = 0  # terms in those powers, held until the result is done
        live = []
        for table in tables:
            shift, _, d, powers, ors, _ = table
            if not (present >> shift) & _FIELD:
                continue
            top = max((m >> shift) & _FIELD for m in nums)
            kept = _grow(table, top, kept)
            scale = None
            if d != 1:
                scale = [d ** (top - e) for e in range(top + 1)]
                den *= scale[0]
            live.append((shift, powers, ors, scale))
        acc = {}
        get = acc.get
        guard = _FIELDS.guard
        # with one image, its power's terms go straight into the result: no product
        # per monomial, which is most calls of a one-off substitution
        one = live[0] if len(live) == 1 else None
        for mono, coeff in nums.items():
            base = mono & keep
            for src, dst in moves:
                base += ((mono >> src) & _FIELD) << dst
            if base & guard:
                _checked({base: coeff})  # raises
            if one:
                shift, powers, ors, scale = one
                e = (mono >> shift) & _FIELD
                piece = powers[e]
                if (base + ors[e]) & guard:  # some field of some monomial may overflow
                    _checked({base + m: c for m, c in piece.items()})
                if scale:
                    coeff *= scale[e]
            else:
                piece = {base: 1}
                for shift, powers, _, scale in live:
                    e = (mono >> shift) & _FIELD
                    if scale:
                        coeff *= scale[e]
                    piece = _mul_nums(piece, powers[e])
                base = 0  # the piece holds whole monomials
            # the image, formed without raising, is kept with its bound: its terms and
            # those of the powers it needs (a table the monomial lacks adds sizes[0] = 0)
            if memo is not None and mono not in memo and bindings._held + len(piece) <= _KEPT_TERMS:
                bound = len(piece)
                for table in tables:
                    bound += table[5][(mono >> table[0]) & _FIELD]
                image = tuple([(m + base, c) for m, c in piece.items()])
                with _KEEPING:  # every thread adds to one count of held terms
                    if mono not in memo and bindings._held + len(image) <= _KEPT_TERMS:
                        bindings._held += len(image)
                        memo[mono] = (bound, image)
            for m, c in piece.items():
                m += base
                s = get(m, 0) + c * coeff
                if s:
                    acc[m] = s
                else:
                    del acc[m]
            if kept + len(acc) > MAX_TERMS:
                raise _term_overflow()
        return _canonical(acc, den)

    # -- textual form ------------------------------------------------------

    def __str__(self) -> str:
        nums = self._nums
        if not nums:
            return "0"
        rank, text = _FIELDS.ranked(nums)
        order = sorted(nums, key=rank.__getitem__, reverse=True)
        vals = list(map(nums.__getitem__, order))
        # Without a coefficient a body starts with "*"; without any factor it is "1".
        terms = [
            sign + ((coeff + factor).lstrip("*") or "1")
            for (sign, coeff), factor in zip(_FIELDS.signed(vals, self._den), map(text.__getitem__, order))
        ]
        first = terms[0][2:]
        terms[0] = first if vals[0] > 0 else "-" + first
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"Poly({self})"


class Substitution:
    """Simultaneous bindings ``name -> image``, compiled once for any number of polynomials.

    Pass one to :meth:`Poly.substitute_many` in place of its pairs.  The
    pairs are checked and compiled on the first polynomial with a variable,
    so a substitution that only meets constants costs no more than its
    pairs: an image ``1·v`` becomes a move of an exponent field into
    ``v``'s, and every other image keeps a table of its powers that grows on
    demand and serves every later polynomial.  Where every image has
    denominator 1, the first :meth:`_trim` starts a memo from each monomial
    rebound after it to that monomial's image and its bound, up to
    :data:`_KEPT_TERMS` terms of images.  The memo is filled under a lock of
    its own, so powers already built are still read without one; threads that
    meet one monomial at once may each form its image, and one keeps it.
    """

    __slots__ = ("_pairs", "_plan", "_memo", "_held")

    def __init__(self, bindings: Iterable[Tuple[str, PolyLike]]) -> None:
        self._pairs = tuple(bindings)
        self._plan: tuple | None = None
        #: The memo of rebound monomials, from the first trim, and its terms.
        self._memo: dict | None = None
        self._held = 0

    def _compile(self) -> tuple:
        """``(fields, keep, moves, tables)``, the plan :meth:`Poly.substitute_many` follows.

        ``fields`` masks the bound fields and ``keep`` the others.  A move
        ``(src, dst)`` adds the exponent at shift ``src`` into the field at
        ``dst``; no two moves share a ``dst``, so a sum of at most two
        exponents below the guard bit never carries into the next field.  A
        table ``(shift, image, den, powers, ors, sizes)`` keeps the numerator
        maps of the image's powers built so far, the OR of each power's
        monomials and the running count of their terms from the first power.
        """
        bound: dict[str, Poly] = {}
        for name, image in self._pairs:
            if name in bound:
                raise DuplicateBinding(f"variable {name!r} bound twice")
            bound[name] = as_poly(image)
        fields, moves, tables = 0, [], []
        for name, image in bound.items():
            shift = _FIELDS.intern(name)
            fields |= _FIELD << shift
            if len(image._nums) == 1 and image._den == 1:
                ((m, c),) = image._nums.items()
                dst = m.bit_length() - 1
                # a bare variable: numerator 1 at the lowest bit of a field
                is_var = c == 1 and m and m == 1 << dst and not dst % FIELD_BITS
                if is_var and all(dst != to for _, to in moves):
                    moves.append((shift, dst))
                    continue
            tables.append((shift, image._nums, image._den, [{0: 1}], [0], [0]))
        self._plan = plan = (fields, ~fields, moves, tables)
        return plan

    def _trim(self) -> None:
        """Keep for later calls only the powers within :data:`_KEPT_TERMS` terms per table.

        A longer table is replaced by a shorter copy, so a call that is reading
        it keeps its lists.  A substitution that is trimmed is kept for later
        calls, so where every image has denominator 1 its first trim also
        starts its memo of rebound monomials.
        """
        plan = self._plan
        if plan is None:
            return
        if self._memo is None and all(table[2] == 1 for table in plan[3]):
            with _KEEPING:
                if self._memo is None:
                    self._memo = {}
        if all(table[5][-1] <= _KEPT_TERMS for table in plan[3]):
            return
        with _GROWING:
            tables = []
            for table in plan[3]:
                n = bisect_right(table[5], _KEPT_TERMS)
                tables.append(table[:3] + (table[3][:n], table[4][:n], table[5][:n]))
            self._plan = plan[:3] + (tables,)


#: Held while a table of powers is grown or trimmed (see :func:`_grow`).
_GROWING = threading.Lock()
#: Held while an image is put into a substitution's memo.
_KEEPING = threading.Lock()
#: The bound of a memo entry ``(bound, image)`` of a substitution.
_BOUND = itemgetter(0)
#: The most terms of powers that :meth:`Substitution._trim` leaves a table.  The
#: powers of the ``degree`` benchmark's largest image, ``(D + L1 + L2)^1 .. ^11``,
#: hold 363.
_KEPT_TERMS = 4096


def _grow(table: tuple, top: int, kept: int) -> int:
    """``kept`` plus the terms of the powers 1 .. ``top`` of a table, built as needed.

    Past :data:`MAX_TERMS` it raises at the same power as building them anew
    would.  A table may serve several threads, so it is grown under one lock,
    and it only ever grows: :meth:`Substitution._trim` replaces it with a
    shorter copy and never shortens a list.  Powers already built are read
    without the lock: ``sizes`` is appended last, after the power and its OR,
    so a table whose ``sizes`` reaches ``top`` holds every power up to it.
    """
    _, image, _, powers, ors, sizes = table
    if top < len(sizes):
        if kept + sizes[top] > MAX_TERMS:
            raise _term_overflow()
        return kept + sizes[top]
    with _GROWING:
        if kept + sizes[min(top, len(sizes) - 1)] > MAX_TERMS:
            raise _term_overflow()
        while len(powers) <= top:
            power = _mul_nums(powers[-1], image)
            powers.append(power)
            ors.append(reduce(or_, power, 0))
            sizes.append(sizes[-1] + len(power))
            if kept + sizes[-1] > MAX_TERMS:
                raise _term_overflow()
        return kept + sizes[top]


def _names(present: int) -> set[str]:
    """The variables whose fields are nonzero in the packed monomial ``present``."""
    if not present:
        return set()
    return {name for shift, name in _FIELDS.order if (present >> shift) & _FIELD}


def variables_of(polys: Iterable[Poly]) -> set[str]:
    """The variables of any of ``polys``, from one OR over all their packed monomials."""
    return _names(reduce(or_, chain.from_iterable(p._nums for p in polys), 0))


def _wrap(nums: dict, den: int) -> Poly:
    """Wrap numerators over ``den`` that are already canonical."""
    p = object.__new__(Poly)
    p._nums = nums
    p._den = den
    return p


def _canonical(nums: dict, den: int) -> Poly:
    """Wrap nonzero numerators over ``den > 0``, dividing out their common factor."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {m: c // g for m, c in nums.items()}
    return _wrap(nums, den)


def sum_of_products(triples: Sequence[tuple]) -> Poly:
    """``Σ c·v·k`` over triples ``(c, v, k)``, formed in one accumulator over a common denominator.

    ``c`` and ``v`` are polynomials and ``k`` a nonzero ``int`` or ``Fraction``,
    a scale.  A constant factor and the scale multiply the numerators of the
    other factor instead of making a ``Poly``, and the triples of two constant
    factors add integers.  The triples of two non-constant factors are
    products, each scaled to the least common multiple of the denominators,
    and :func:`_packing` chooses their route: all of them together into one
    set of packed rows, decoded once, where they pack together; else each
    into packed rows of its own where it packs alone, or term by term
    straight into the cell's map of numerators.  Each is checked as ``*``
    checks it, in the order of the triples: first its term count, then its
    exponents.  Every piece is added into that map, made canonical once.  A
    lone triple of scale 1 returns its product as it is: ``(1, v, 1)``
    returns ``v`` itself.
    """
    if len(triples) == 1 and triples[0][2] == 1:
        ((c, v, _),) = triples
        a, b = c._nums, v._nums
        if len(a) == 1 and 0 in a:
            return v if a[0] == 1 == c._den else _scaled(b, a[0], v._den * c._den)
        if len(b) == 1 and 0 in b:
            return c if b[0] == 1 == v._den else _scaled(a, b[0], c._den * v._den)
        return c * v
    parts = []  # (numerators, factor, denominator)
    total, total_den = 0, 1  # the triples of two constants
    products = []  # (larger numerators, smaller, scale numerator, denominator), then (a, b, k)
    for c, v, scale in triples:
        a, b = c._nums, v._nums
        k, kd = scale.numerator, scale.denominator
        if len(a) == 1 and 0 in a:
            d = c._den * v._den * kd
            if len(b) == 1 and 0 in b:
                if d == total_den:
                    total += a[0] * b[0] * k
                else:
                    total, total_den = total * d + a[0] * b[0] * k * total_den, total_den * d
            else:
                parts.append((b, a[0] * k, d))
        elif len(b) == 1 and 0 in b:
            parts.append((a, b[0] * k, c._den * v._den * kd))
        elif a and b:
            if len(a) < len(b):
                a, b = b, a
            products.append((a, b, k, c._den * v._den * kd))
    if not parts and not products:
        return _canonical({0: total}, total_den) if total else _ZERO_POLY
    den = lcm(total_den, *[d for _, _, d in parts], *[d for _, _, _, d in products])
    # each product's scale at den; den and k are read in loops, not comprehensions:
    # a name that a comprehension reads becomes a cell, slower in every call
    for i, (a, b, k, d) in enumerate(products):
        products[i] = (a, b, k * (den // d))
    acc: dict = {}
    pairs = len(products) > 1 and _packing(products)
    if pairs:
        acc = _packed_sum(pairs)
        if not parts and not total:
            return _canonical(acc, den) if acc else _ZERO_POLY
        products = []
    elif parts:  # the largest piece gathered so far seeds the map, copied at scale 1
        nums, k, d = parts.pop(max(range(len(parts)), key=lambda i: len(parts[i][0])))
        k *= den // d
        if k == 1:
            acc = dict(nums)
        else:
            for m, x in nums.items():
                acc[m] = x * k
    for a, b, k in products:
        pairs = len(b) >= _PACK_MIN_TERMS and _packing([(a, b, k)])
        if pairs:
            parts.append((_packed_sum(pairs), 1, den))
        else:
            _mul_into(acc, a, b, k)
    get = acc.get
    for nums, k, d in parts:
        k *= den // d
        for m, x in nums.items():
            acc[m] = get(m, 0) + x * k
    if total:
        acc[0] = get(0, 0) + total * (den // total_den)
    if 0 in acc.values():
        acc = {m: x for m, x in acc.items() if x}
    return _canonical(acc, den) if acc else _ZERO_POLY


def _scaled(nums: dict, k: int, den: int) -> Poly:
    """The numerators ``nums`` times ``k`` over ``den``, made canonical."""
    if not nums:
        return _ZERO_POLY
    return _canonical({m: x * k for m, x in nums.items()}, den)


def scale_of(p: Poly) -> Union[int, Fraction]:
    """The constant ``p`` as a scale for :func:`sum_of_products`: an ``int`` where it is one, else a ``Fraction``."""
    num = p._nums.get(0, 0)
    return num if p._den == 1 else Fraction(num, p._den)


def as_poly(value: PolyLike) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


_ZERO_POLY = _wrap({}, 1)
_ONE_POLY = _wrap({0: 1}, 1)


# -- the grammar of polynomial text -------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := unary ('*' unary)*
# unary  := '-' unary | power
# power  := atom ('^' NUMBER)?
# atom   := NUMBER ('/' NUMBER)? | NAME | '(' expr ')'
#
# The tokenizer reads the whole alphabet of the definition language, whose
# parser (:mod:`confalg.dsl`) extends this one.  A token is a ``(kind, text,
# line, column)`` tuple, ``kind`` one of "number", "name", "punct" and "eof".

Token = Tuple[str, str, int, int]

# One match per token: the blanks before it (spaces, tabs, CRs, LFs and every
# comment line), a comment on the last line, then the token itself, a
# character no token starts with, or the end of the text.  A name starts with
# a letter or "_" and goes on with letters, digits or "_"; "[^\W\d]" also
# admits the numeric characters that are not decimal digits (such as "²"),
# which the tokenizer rejects.  A number is what int() reads.
_TOKEN_RE = re.compile(
    r"([ \t\r\n]*(?:#.*\n[ \t\r\n]*)*)(?:#.*)?"
    r"(?:([^\W\d]\w*)|(->|[{}();:,=+\-*/^])|(\d+)|(.)|\Z)"
)


def _tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending in an "eof" token, from one regex match each.

    Lines and columns count from 1, one column per character.  ``#`` starts a
    comment that runs to the end of the line; space, tab, CR and LF separate
    tokens, and any other character is a :class:`ParseError`.  End of input
    sits after the last blank, so a comment on the last line moves no column.
    """
    tokens: list[Token] = []
    append = tokens.append
    line = column = 1
    for blank, name, punct, number, bad in _TOKEN_RE.findall(text):
        if "\n" in blank:
            line += blank.count("\n")
            column = len(blank) - blank.rfind("\n")
        else:
            column += len(blank)
        if name:
            if not (name[0].isalpha() or name[0] == "_"):
                raise ParseError(f"unexpected character {name[0]!r}", line, column)
            append(("name", name, line, column))
            column += len(name)
        elif punct:
            append(("punct", punct, line, column))
            column += len(punct)
        elif number:
            append(("number", number, line, column))
            column += len(number)
        elif bad:
            raise ParseError(f"unexpected character {bad!r}", line, column)
        else:  # the end of the text, which the blanks before it may reach
            append(("eof", "", line, column))
            break
    return tokens


def _located(exc: ExponentOverflow, tok: Token) -> ExponentOverflow:
    """``exc`` with the position of the factor that raised it, as a :class:`ParseError` has."""
    return ExponentOverflow(f"{exc} (line {tok[2]}, column {tok[3]})")


class _PolyParser:
    """Recursive descent over a token list, one method per rule of the grammar."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None) -> ParseError:
        _, _, line, column = tok or self.peek()
        return ParseError(message, line, column)

    def at_punct(self, text: str) -> bool:
        # no name or number is spelled like a punctuation mark
        return self.tokens[self.pos][1] == text

    def expect_punct(self, text: str) -> Token:
        found = self.peek()[1]
        if found != text:
            raise self.fail(f"expected {text!r}, found {found or 'end of input'!r}")
        return self.advance()

    def descend(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels", tok)

    def times(self, left: Poly, factor) -> Poly:
        """``left`` times the polynomial ``factor()`` parses; an overflow names the factor."""
        tok = self.peek()
        right = factor()
        try:
            return left * right
        except ExponentOverflow as exc:
            raise _located(exc, tok) from None

    def parse_expr(self) -> Poly:
        result = self.parse_term()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance()[1]
            rhs = self.parse_term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def parse_term(self) -> Poly:
        result = self.parse_unary()
        while self.at_punct("*"):
            self.advance()
            result = self.times(result, self.parse_unary)
        return result

    def parse_unary(self) -> Poly:
        if not self.at_punct("-"):
            return self.parse_power()
        self.descend(self.advance())
        result = -self.parse_unary()
        self.depth -= 1
        return result

    def parse_power(self) -> Poly:
        tok = self.peek()
        base = self.parse_atom()
        if not self.at_punct("^"):
            return base
        self.advance()
        if self.peek()[0] != "number":
            raise self.fail("expected an integer exponent after '^'")
        try:
            return base ** decimal_to_int(self.advance()[1])
        except ExponentOverflow as exc:
            raise _located(exc, tok) from None

    def parse_number(self) -> Poly:
        """An integer or ``p/q`` literal."""
        value = decimal_to_int(self.advance()[1])
        if not self.at_punct("/"):
            return Poly.const(value)
        self.advance()
        den = self.peek()
        if den[0] != "number":
            raise self.fail("expected a denominator after '/'")
        divisor = decimal_to_int(self.advance()[1])
        if divisor == 0:
            raise self.fail("zero denominator", den)
        return Poly.const(Fraction(value, divisor))

    def parse_name(self, tok: Token) -> Poly:
        """The atom a name stands for: here, the variable of that name."""
        return Poly.var(tok[1])

    def parse_atom(self) -> Poly:
        tok = self.peek()
        kind, text = tok[0], tok[1]
        if kind == "number":
            return self.parse_number()
        if kind == "name":
            return self.parse_name(self.advance())
        if text != "(":
            raise self.fail(f"expected a coefficient, found {text or 'end of input'!r}")
        self.descend(self.advance())
        inner = self.parse_expr()
        self.expect_punct(")")
        self.depth -= 1
        return inner


def parse_poly(text: str) -> Poly:
    """Parse the textual polynomial form, e.g. ``"(2*D + 3*L1)^2"``."""
    parser = _PolyParser(_tokenize(text))
    result = parser.parse_expr()
    _, found, _, _ = parser.peek()
    if found:
        raise parser.fail(f"unexpected trailing input {found!r}")
    return result
