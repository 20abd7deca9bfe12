"""Exact reading of the polynomial and element text that confalg prints.

The benchmark checks confalg's witnesses and bracket tables against
expectations computed elsewhere (sympy, closed forms), so it must read the
printed residuals without using confalg's own parser.  This module is that
reader: a small tokenizer and recursive-descent parser over the printed
grammar (integers, ``p/q`` through ``/``, names, ``+ - * ^`` and
parentheses), producing exact term maps with :class:`fractions.Fraction`
coefficients.

Canonical forms are plain JSON-ready lists, so expectations computed in one
process compare with ``==`` against readings made in another:

* a polynomial is a sorted list of ``[monomial, "p/q"]`` pairs, where a
  monomial is a sorted list of ``[variable, exponent]`` pairs;
* a module element is a sorted list of ``[basis name, polynomial]`` pairs,
  zero components omitted.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


def _tokens(text):
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:pos + 20]!r}")
        pos = m.end()
        if m.group(1) is not None:
            out.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            out.append(("name", m.group(2)))
        elif m.group(3) in "+-*/^()":
            out.append(("op", m.group(3)))
        else:
            raise ValueError(f"unexpected character {m.group(3)!r} in {text!r}")
    out.append(("end", None))
    return out


def _mono_mul(a, b):
    merged = dict(a)
    for name, exp in b:
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted(merged.items()))


def _add(p, q, sign=1):
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + sign * c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = _mono_mul(m1, m2)
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


class _Reader:
    def __init__(self, text):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        acc = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            sign = -1 if self.take()[1] == "-" else 1
            acc = _add(acc, self.term(), sign)
        return acc

    def term(self):
        acc = self.factor()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            rhs = self.factor()
            if op == "*":
                acc = _mul(acc, rhs)
            else:
                if set(rhs) != {()}:
                    raise ValueError("division by a non-constant")
                acc = {m: c / rhs[()] for m, c in acc.items()}
        return acc

    def factor(self):
        if self.peek() in (("op", "-"), ("op", "+")):  # printed as "x + -2*y"
            sign = -1 if self.take()[1] == "-" else 1
            return {m: sign * c for m, c in self.factor().items()}
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, exp = self.take()
            if kind != "int":
                raise ValueError("exponent must be an integer")
            out = {(): Fraction(1)}
            for _ in range(exp):
                out = _mul(out, base)
            return out
        return base

    def atom(self):
        kind, value = self.take()
        if kind == "int":
            return {(): Fraction(value)} if value else {}
        if kind == "name":
            return {((value, 1),): Fraction(1)}
        if (kind, value) == ("op", "("):
            inner = self.expr()
            if self.take() != ("op", ")"):
                raise ValueError("unbalanced parenthesis")
            return inner
        raise ValueError(f"unexpected token {value!r}")


def read_poly(text):
    """Term map ``{monomial: Fraction}`` of a printed polynomial."""
    reader = _Reader(text)
    out = reader.expr()
    if reader.peek()[0] != "end":
        raise ValueError(f"trailing text in {text!r}")
    return out


def canon_poly(terms):
    """Canonical list form of a term map."""
    return sorted(
        [[list(map(list, mono)), str(Fraction(c))] for mono, c in terms.items() if c]
    )


def read_elem(text, basis):
    """Canonical form of a printed module element over the given basis names."""
    if text.strip() == "0":
        return []
    names = set(basis)
    parts = {}
    for mono, c in read_poly(text).items():
        hits = [(n, e) for n, e in mono if n in names]
        if len(hits) != 1 or hits[0][1] != 1:
            raise ValueError(f"{text!r} is not linear in the basis {sorted(names)}")
        rest = tuple(p for p in mono if p[0] not in names)
        parts.setdefault(hits[0][0], {})[rest] = c
    return sorted([name, canon_poly(poly)] for name, poly in parts.items())
