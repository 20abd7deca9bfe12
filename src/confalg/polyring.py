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

Products.  Sesquilinearity makes the residuals products of polynomials that
are dense in ``D``, and these take a packed path (Fateman 2005, "Can you
save time in multiplying polynomials by encoding them as integers?", along
one variable).  Each operand is split into rows, one per monomial without
``D`` (``m & ~_FIELD``; ``D`` owns the field at shift 0), and the numerators
of a row go into one integer, the one of ``D^(lo+k)`` at bit offset
``bits·k``, where ``lo`` is the operand's lowest ``D`` exponent.  A pair of
rows costs one big-integer product, added into the row of the result that
the pair's monomials name; a last pass reads the signed slots back out.  The
slot width is

    ``bits = (max|a| · max|b| · min(len a, len b)).bit_length() + 2``:

a coefficient of the product adds at most ``min(len a, len b)`` products of
two numerators, so every slot stays below ``2^(bits-1)`` in magnitude and
reads back exactly.  Size rule: a product is packed when its smaller
operand has at least 8 terms, every row of each operand is a run without
gaps from that operand's ``lo``, and its pairs of rows are at most an eighth
of its pairs of terms (:data:`_PACK_MIN_TERMS`, :data:`_PACK_SHARE`); other
products are formed term by term.  The shape rule makes the slots of the
result exactly the monomials that its pairs of terms form: a row with gaps,
or one starting above ``lo``, would cost slots for monomials that no pair
forms, as many as its ``D`` exponents span.  Both paths drop zero numerators
and check the exponents of their result.  A sum of products, such as a cell of
a table sum, is formed at once by :func:`sum_of_products`: a constant factor
scales the other one's numerators and makes no ``Poly``, pairs of constants
add integers, and only a pair of non-constant polynomials takes a product
(with its exponent check and term cap); the sum is taken over the least
common multiple of the denominators and made canonical once.

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

Term cap.  A product may hold at most :data:`MAX_TERMS` terms, and a
substitution at most that many in the powers of its images that it keeps
plus its result so far.  A product counts every monomial that a pair of its
terms forms, cancelled or not, as it goes (on the packed path, the slots of
the rows formed so far, which are exactly those monomials), so both paths
stop at the same count.  Past the cap :class:`~confalg.errors.TermOverflow`
(a ``ConfalgError``) is raised, so a computation whose size would exhaust
memory stops early instead.  A power is refused before its first product when
a bound on its terms passes the cap: the smaller of the simplex and the degree
box of :func:`_power_terms_bound`.  The bound counts the monomials the power
could form, so a power whose terms coincide or cancel below it is refused
too; ``(D + L1 + 1)^1500`` (1,127,251) is, ``(D + L1 + 1)^1400`` (982,101) is
not.

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
monomials than that is rendered without it.  The memo's maps are replaced,
never cleared, so a rendering in progress keeps the maps it started with.
"""

from __future__ import annotations

import decimal
import re
import threading
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, repeat
from math import comb, gcd, lcm
from operator import index, or_
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
#: may hold.  It is about 500 times the largest intermediate of the test suite
#: and the benchmark workloads (2,014 terms), and a blow-up reaches it in about
#: a second and a few hundred MB, far from exhausting memory.
MAX_TERMS = 1_000_000
#: The size rule of the packed product (see "Products" above).  Timed against
#: the term-by-term loop on operands of 8 to 1,365 terms dense in D, packing
#: was faster in nearly every shape with 8 or more term pairs per row pair,
#: and up to 2x slower with 3 to 6.
_PACK_MIN_TERMS = 8
_PACK_SHARE = 8
#: Rows of more slots are decoded by halves.  On rows of 16 to 3,000 slots of 24
#: to 1,500 bits, splitting tied peeling up to 32 slots and won above (1.4-2x at
#: 64, 4-70x at 1,024); the rows of degree-11 products are shorter.
_DECODE_SPLIT = 32
#: The most monomials the display memo holds (see "textual form" above).  A
#: ``degree`` benchmark pass renders about 2,400 distinct ones.
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
    """The assignment of variables to fields of a packed monomial, and the display memo."""

    def __init__(self, first: Iterable[str]) -> None:
        self.shift: dict[str, int] = {}
        #: ``(shift, name)`` pairs in variable order, for unpacking and display.
        self.order: list[Tuple[int, str]] = []
        #: The guard bits of all assigned fields.
        self.guard = 0
        #: The display memo: the order its ranks encode, and two maps from a
        #: monomial to its rank and to its factor text (see "textual form").
        self.memo: Tuple[list, dict, dict] = (self.order, {}, {})
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
    from ``D^lo`` up to its highest, without a gap.
    """
    rows: dict = {}
    for m, c in nums.items():
        row = rows.get(m & _REST)
        if row is None:
            rows[m & _REST] = [(m & _FIELD, c)]
        else:
            row.append((m & _FIELD, c))
    lo = min(m & _FIELD for m in nums)
    for row in rows.values():
        if min(row)[0] != lo or max(row)[0] != lo + len(row) - 1:
            return None
    return lo, rows


def _pack_row(row: list, lo: int, bits: int) -> int:
    """The numerators of a row in one integer, that of ``D^(lo+k)`` at bit ``bits·k``."""
    packed = 0
    for e, c in row:
        packed += c << bits * (e - lo)
    return packed


def _mul_packed(a: dict, b: dict, runs_a: tuple, runs_b: tuple) -> dict:
    """The product of two numerator maps, one big-int multiply per pair of rows.

    ``runs_a`` and ``runs_b`` are the rows of ``a`` and ``b`` from :func:`_d_rows`.
    """
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    bits = bound.bit_length() + 2
    (lo_a, rows_a), (lo_b, rows_b) = runs_a, runs_b
    packed_b = [(rest, _pack_row(row, lo_b, bits), len(row)) for rest, row in rows_b.items()]
    acc: dict = {}
    slots: dict = {}
    # Two runs of n1 and n2 terms from D^lo_a and D^lo_b form every monomial of a
    # run of n1+n2-1 from D^(lo_a+lo_b), so ``held``, the sum of the longest run
    # of each row of the result, counts the monomials that the term-by-term loop
    # would have formed by now.
    held = 0
    for r1, row in rows_a.items():
        x1, n1 = _pack_row(row, lo_a, bits), len(row)
        for r2, x2, n2 in packed_b:
            r = r1 + r2
            n = n1 + n2 - 1
            old = slots.get(r)
            if old is None:
                acc[r] = x1 * x2
                slots[r] = n
                held += n
            else:
                acc[r] += x1 * x2
                if n > old:
                    slots[r] = n
                    held += n - old
        if held > MAX_TERMS:
            raise _term_overflow()
    out: dict = {}
    for r, value in acc.items():
        _decode(value, r + lo_a + lo_b, bits, slots[r], out)
    return _checked(out)


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
    if len(b) >= _PACK_MIN_TERMS:
        runs_a, runs_b = _d_rows(a), _d_rows(b)
        if runs_a and runs_b and _PACK_SHARE * len(runs_a[1]) * len(runs_b[1]) <= len(a) * len(b):
            return _mul_packed(a, b, runs_a, runs_b)
    out: dict = {}
    get = out.get
    a_items = a.items()
    for m2, c2 in b.items():
        for m1, c1 in a_items:
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
        if len(out) > MAX_TERMS:
            raise _term_overflow()
    if 0 in out.values():
        out = {m: c for m, c in out.items() if c}
    return _checked(out)


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
            if not other or not self._nums:
                return _ZERO_POLY
            other = Fraction(other)
            num = other.numerator
            return _canonical(
                {m: c * num for m, c in self._nums.items()}, self._den * other.denominator
            )
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
        :class:`DuplicateBinding` if the same variable is bound twice.
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
        acc: dict = {}
        get = acc.get
        guard = _FIELDS.guard
        # with one image, its power's terms go straight into the result: no product
        # per monomial, which is most calls of a table sum
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
        den = self._den
        rank, text = _FIELDS.ranked(nums)
        order = sorted(nums, key=rank.__getitem__, reverse=True)
        vals = list(map(nums.__getitem__, order))
        # One coefficient string per term, "" for a unit numerator over 1.
        mags = list(map(abs, vals))
        digits = str if max(*mags, den) < _CHUNK_BASE else int_to_decimal
        if den == 1:
            coeffs = ["" if mag == 1 else digits(mag) for mag in mags]
        else:
            coeffs = []
            for mag, g in zip(mags, map(gcd, mags, repeat(den))):
                if g != den:
                    coeffs.append(f"{digits(mag // g)}/{digits(den // g)}")
                else:
                    coeffs.append("" if mag == g else digits(mag // g))
        # Without a coefficient a body starts with "*"; without any factor it is "1".
        factors = map(text.__getitem__, order)
        bodies = [(coeff + factor).lstrip("*") or "1" for coeff, factor in zip(coeffs, factors)]
        terms = [f"+ {body}" if num > 0 else f"- {body}" for num, body in zip(vals, bodies)]
        terms[0] = bodies[0] if vals[0] > 0 else "-" + bodies[0]
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
    demand and serves every later polynomial.
    """

    __slots__ = ("_pairs", "_plan")

    def __init__(self, bindings: Iterable[Tuple[str, PolyLike]]) -> None:
        self._pairs = tuple(bindings)
        self._plan: tuple | None = None

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
        it keeps its lists.
        """
        plan = self._plan
        if plan is None or all(table[5][-1] <= _KEPT_TERMS for table in plan[3]):
            return
        with _GROWING:
            tables = []
            for table in plan[3]:
                n = bisect_right(table[5], _KEPT_TERMS)
                tables.append(table[:3] + (table[3][:n], table[4][:n], table[5][:n]))
            self._plan = plan[:3] + (tables,)


#: Held while a table of powers is read or grown (see :func:`_grow`).
_GROWING = threading.Lock()
#: The most terms of powers that :meth:`Substitution._trim` leaves a table.  The
#: powers of the ``degree`` benchmark's largest image, ``(D + L1 + L2)^1 .. ^11``,
#: hold 363.
_KEPT_TERMS = 4096


def _grow(table: tuple, top: int, kept: int) -> int:
    """``kept`` plus the terms of the powers 1 .. ``top`` of a table, built as needed.

    Past :data:`MAX_TERMS` it raises at the same power as building them anew
    would.  A table may serve several threads, so it is read and grown under
    one lock, and it only ever grows: :meth:`Substitution._trim` replaces it.
    """
    _, image, _, powers, ors, sizes = table
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


def sum_of_products(pairs: Sequence[Tuple[Poly, Poly]]) -> Poly:
    """``Σ c·v`` over the pairs ``(c, v)``, formed at once over a common denominator.

    A constant factor scales the numerators of the other one instead of making
    a ``Poly``, and the pairs of two constants add integers; a pair of
    non-constant factors is one ``c * v``, which keeps that product's guard-bit
    check and term cap.  The pieces are added over the least common multiple of
    their denominators and made canonical once.  A lone pair returns its
    product as it is: ``(1, v)`` returns ``v`` itself.
    """
    if len(pairs) == 1:
        ((c, v),) = pairs
        a, b = c._nums, v._nums
        if len(a) == 1 and 0 in a:
            return v if a[0] == 1 == c._den else _scaled(b, a[0], v._den * c._den)
        if len(b) == 1 and 0 in b:
            return c if b[0] == 1 == v._den else _scaled(a, b[0], c._den * v._den)
        return c * v
    parts = []  # (numerators, factor, denominator)
    total, total_den = 0, 1  # the pairs of two constants
    for c, v in pairs:
        a, b = c._nums, v._nums
        if len(a) == 1 and 0 in a:
            if len(b) == 1 and 0 in b:
                d = c._den * v._den
                if d == total_den:
                    total += a[0] * b[0]
                else:
                    total, total_den = total * d + a[0] * b[0] * total_den, total_den * d
            else:
                parts.append((b, a[0], v._den * c._den))
        elif len(b) == 1 and 0 in b:
            parts.append((a, b[0], c._den * v._den))
        elif a and b:
            p = c * v
            parts.append((p._nums, 1, p._den))
    if not parts:
        return _canonical({0: total}, total_den) if total else _ZERO_POLY
    if total:
        parts.append(({0: total}, 1, total_den))
    den = lcm(*[d for _, _, d in parts])
    # the largest piece is copied, and the others are added into the copy
    parts.sort(key=lambda part: len(part[0]))
    nums, k, d = parts.pop()
    k *= den // d
    acc = dict(nums) if k == 1 else {m: x * k for m, x in nums.items()}
    get = acc.get
    for nums, k, d in parts:
        if d != den:
            k *= den // d
        for m, x in nums.items():
            acc[m] = get(m, 0) + x * k
    if 0 in acc.values():
        acc = {m: x for m, x in acc.items() if x}
    return _canonical(acc, den) if acc else _ZERO_POLY


def _scaled(nums: dict, k: int, den: int) -> Poly:
    """The numerators ``nums`` times ``k`` over ``den``, made canonical."""
    if not nums:
        return _ZERO_POLY
    return _canonical({m: x * k for m, x in nums.items()}, den)


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
