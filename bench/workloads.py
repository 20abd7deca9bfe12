"""Seeded inputs and independently derived expected answers for each workload.

``build(workload, seed, root, workdir)`` writes the workload's source files
under ``workdir`` and returns the list of items of one pass.  Every item
carries the answer the benchmark expects, and none of those answers comes
from confalg:

* by construction or theorem: matrix (and other finite-dimensional) current
  algebras are associative, ``fixtures/all.cfa`` holds, d∘d = 0, the
  Maurer-Cartan characterisations are consistent, the two derived-bracket
  routes agree, and the closed forms of the degree family below;
* otherwise from the sympy oracle ``tests/_oracle.py``, imported read-only.

The structure of a pass (how many items of which shape) is the same for
every seed; the seed chooses coefficients, algebras within a size class,
maps, mutation sites and names.  That keeps the cost of a pass comparable
across seeds while the inputs differ.

Coefficients are written once, as text in the definition language's
polynomial syntax over ``D``, ``L1``, ``L2``, ... and ``q``; the same text is
written into the ``.cfa`` sources and read by sympy for the oracle.
"""

from __future__ import annotations

import importlib
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import sympy as sp

from polytext import canon_poly

WITNESS_CAP = 16

_ORACLE = None


def oracle(root: Path):
    """The sympy oracle of the test suite, imported without writing bytecode."""
    global _ORACLE
    if _ORACLE is None:
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(root / "tests"))
        try:
            _ORACLE = importlib.import_module("_oracle")
        finally:
            sys.path.remove(str(root / "tests"))
    return _ORACLE


# -- coefficient text, sympy values and canonical forms ------------------------------


def _sym(text):
    O = _ORACLE
    names = {"D": O.D, "q": O.q}
    names.update({f"L{k}": O.L[k] for k in range(1, 9)})
    return sp.sympify(text.replace("^", "**"), locals=names)


def _vec(texts):
    return tuple(_sym(t) for t in texts)


def _canon_expr(expr):
    expr = sp.expand(expr)
    if expr == 0:
        return []
    gens = sorted(expr.free_symbols, key=str)
    if not gens:
        r = sp.Rational(expr)
        return canon_poly({(): Fraction(int(r.p), int(r.q))})
    terms = {}
    for exps, c in sp.Poly(expr, *gens).terms():
        mono = tuple((str(g), e) for g, e in zip(gens, exps) if e)
        r = sp.Rational(c)
        terms[tuple(sorted(mono))] = Fraction(int(r.p), int(r.q))
    return canon_poly(terms)


def canon_vec(vec, basis):
    out = []
    for name, expr in zip(basis, vec):
        poly = _canon_expr(expr)
        if poly:
            out.append([name, poly])
    return sorted(out)


def _frac_text(c: Fraction) -> str:
    return str(Fraction(c))


def _elem_text(coeffs, basis) -> str:
    parts = [f"({c})*{n}" for c, n in zip(coeffs, basis) if c not in ("0", "")]
    return " + ".join(parts) if parts else f"(0)*{basis[0]}"


# -- finite-dimensional algebras presented by structure constants -----------------------


def _algebra(kind):
    """Basis names and constants ``{(i, j): {k: c}}`` of a catalogued algebra."""
    consts = {}

    def put(i, j, k, c=1):
        consts.setdefault((i, j), {})[k] = Fraction(c)

    if kind == "dual":
        basis = ["u", "v"]
        put(0, 0, 0), put(0, 1, 1), put(1, 0, 1)
    elif kind == "nil2":
        basis = ["a", "b"]
        put(0, 0, 1)
    elif kind == "cc":
        basis = ["e", "f"]
        put(0, 0, 0), put(1, 1, 1)
    elif kind in ("trunc3", "trunc4"):
        n = 3 if kind == "trunc3" else 4
        basis = [f"s{i}" for i in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            if i + j < n:
                put(i, j, i + j)
    elif kind == "ut2":
        basis = ["p11", "p12", "p22"]
        put(0, 0, 0), put(0, 1, 1), put(1, 2, 1), put(2, 2, 2)
    elif kind == "grass2":
        basis = ["g0", "gx", "gy", "gz"]
        for i in range(4):
            put(0, i, i)
            if i:
                put(i, 0, i)
        put(1, 2, 3), put(2, 1, 3, -1)
    elif kind.startswith("M"):
        n = int(kind[1:])
        basis = [f"e{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
        for i, j, k in itertools.product(range(n), repeat=3):
            put(i * n + j, j * n + k, i * n + k)
    else:
        raise ValueError(kind)
    return basis, consts


def _square_zero(kind):
    """Basis vectors (as index lists) of elements with a·a = 0."""
    table = {
        "dual": [[1]], "nil2": [[1]], "cc": [], "trunc3": [[2]],
        "trunc4": [[2], [3], [2, 3]], "ut2": [[1]], "grass2": [[1], [2], [3], [1, 2]],
    }
    if kind.startswith("M"):
        n = int(kind[1:])
        return [[i * n + j] for i in range(n) for j in range(n) if i != j]
    return table[kind]


class Algebra:
    """A current algebra: constant structure constants on named basis vectors."""

    def __init__(self, kind, name):
        self.kind, self.name = kind, name
        self.basis, self.consts = _algebra(kind)
        self.rank = len(self.basis)

    def mul(self, x, y):
        out = [Fraction(0)] * self.rank
        for (i, j), row in self.consts.items():
            if x[i] and y[j]:
                for k, c in row.items():
                    out[k] += x[i] * y[j] * c
        return out

    def unit(self, i):
        return [Fraction(int(k == i)) for k in range(self.rank)]

    def table_texts(self):
        return {
            key: [_frac_text(row.get(k, 0)) for k in range(self.rank)]
            for key, row in self.consts.items()
        }

    def dsl(self, table=None, lie=False, name=None):
        table = self.table_texts() if table is None else table
        lines = [f"algebra {name or self.name}{' lie' if lie else ''} {{",
                 "  basis " + ", ".join(self.basis) + ";"]
        for (i, j), texts in sorted(table.items()):
            lines.append(f"  product {self.basis[i]} {self.basis[j]} = "
                         f"{_elem_text(texts, self.basis)};")
        lines.append("}")
        return "\n".join(lines)

    def sym_table(self):
        return {key: _vec(texts) for key, texts in self.table_texts().items()}

    def left_mult(self, a):
        return [[_frac_text(c) for c in self.mul(a, self.unit(j))] for j in range(self.rank)]

    def inner_derivation(self, a):
        out = []
        for j in range(self.rank):
            e = self.unit(j)
            out.append([_frac_text(x - y) for x, y in zip(self.mul(a, e), self.mul(e, a))])
        return out

    def commutator_texts(self):
        table = {}
        for i, j in itertools.product(range(self.rank), repeat=2):
            ei, ej = self.unit(i), self.unit(j)
            vec = [x - y for x, y in zip(self.mul(ei, ej), self.mul(ej, ei))]
            if any(vec):
                table[(i, j)] = [_frac_text(c) for c in vec]
        return table


def _nonzero(rng, choices=(-2, -1, 1, 2, 3)):
    return Fraction(rng.choice(choices))


def _random_elem(rng, rank):
    """A random element with half of its coordinates nonzero."""
    vec = [Fraction(0)] * rank
    for i in rng.sample(range(rank), (rank + 1) // 2):
        vec[i] = _nonzero(rng, (-2, -1, 1, 2))
    return vec


def _square_zero_elem(rng, alg):
    picks = _square_zero(alg.kind)
    if not picks:
        return None
    vec = [Fraction(0)] * alg.rank
    for i in rng.choice(picks):
        vec[i] = _nonzero(rng)
    return vec


def _random_map(rng, rank, with_d=True):
    """A random map with ``rank`` nonzero matrix entries, every fourth one times D."""
    images = [["0"] * rank for _ in range(rank)]
    cells = rng.sample([(i, j) for i in range(rank) for j in range(rank)], rank)
    for n, (i, j) in enumerate(cells):
        c = rng.choice((-1, 1, 2))
        images[i][j] = f"{c}*D" if with_d and n % 4 == 3 else str(c)
    return images


def _identity_map(rank):
    return [["1" if i == j else "0" for i in range(rank)] for j in range(rank)]


def _map_dsl(name, src, tgt, images, basis):
    clauses = "; ".join(f"{b} -> {_elem_text(img, basis)}" for b, img in zip(basis, images))
    return f"map {name} : {src} -> {tgt} {{ {clauses}; }}"


def _sym_map(images):
    return [_vec(img) for img in images]


def _rand_poly_text(rng, variables):
    """Two terms of fixed total degrees (one per variable, and 1), split at random.

    The seed draws coefficients and which variables carry the degree; fixing
    the totals keeps the cost of an entry the same for every seed.
    """
    text = ""
    for k, total in enumerate((len(variables), 1)):
        exps = dict.fromkeys(variables, 0)
        for _ in range(total):
            exps[rng.choice([v for v in variables if exps[v] < 2])] += 1
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        factors = [str(abs(c))] + [f"{v}^{e}" for v, e in exps.items() if e]
        sign = ("-" if c < 0 else "") if k == 0 else (" - " if c < 0 else " + ")
        text += sign + "*".join(factors)
    return "(" + text + ")"


def _random_cochain(rng, arity, rank, density=0.7):
    """A cochain with a fixed share ``density`` of nonzero value components.

    Each nonzero component is a two-term polynomial in D and the formal
    weights with per-variable degree at most 2, like ``random_cochain`` of
    the package; fixing the share and the degrees keeps the cost of a slot
    steady across seeds.
    """
    variables = ["D"] + [f"L{k}" for k in range(1, arity)]
    cells = [(idx, k) for idx in itertools.product(range(rank), repeat=arity) for k in range(rank)]
    entries = {}
    for idx, k in sorted(rng.sample(cells, max(1, round(density * len(cells))))):
        entries.setdefault(idx, ["0"] * rank)[k] = _rand_poly_text(rng, variables)
    return entries


# -- expected records ------------------------------------------------------------------


def _witnesses(bad, names_of, basis_out):
    return [[names_of(key), canon_vec(vec, basis_out)] for key, vec in bad[:WITNESS_CAP]]


def _record(identity, bad, names_of, basis_out):
    return {
        "identity": identity,
        "status": "fails" if bad else "holds",
        "witnesses": _witnesses(bad, names_of, basis_out),
    }


def _holds(identity):
    return {"identity": identity, "status": "holds", "witnesses": []}


def _table_bad(table, arity, rank):
    """Nonzero entries of an oracle cochain table, in scan order."""
    return [(idx, table[idx]) for idx in itertools.product(range(rank), repeat=arity) if idx in table]


class Source:
    """A generated ``.cfa`` file and the records it must produce."""

    def __init__(self):
        self.lines, self.records = [], []

    def decl(self, text):
        self.lines.append(text)

    def stmt(self, text, record):
        self.lines.append(text)
        self.records.append(record)

    def write(self, path: Path):
        path.write_text("\n".join(self.lines) + "\n", encoding="utf-8")

    def exit_code(self):
        statuses = {r["status"] for r in self.records}
        return 2 if "error" in statuses else 1 if "fails" in statuses else 0


def _cli_item(argv, src: Source, slot, **extra):
    item = {"slot": slot, "kind": "cli", "argv": argv, "exit": src.exit_code(),
            "records": src.records}
    item.update(extra)
    return item


# -- corpus ---------------------------------------------------------------------------


def _full_source(rng, alg: Algebra, src: Source, extras=True, lie=True, constructs=True,
                 associative_by_theorem=False):
    """Declarations and checks of every operator kind and construct on ``alg``."""
    O = _ORACLE
    A, r, basis = alg.name, alg.rank, alg.basis
    tab = alg.sym_table()
    names2 = lambda key: [basis[i] for i in key]
    adj = f"Adj{A}"
    src.decl(alg.dsl())
    src.decl(f"bimodule {adj} adjoint {A};")
    if associative_by_theorem:
        src.stmt(f"check associative {A};", _holds(f"check associative {A}"))
    else:
        src.stmt(f"check associative {A};",
                 _record(f"check associative {A}", O.assoc_bad(tab, r), names2, basis))
    src.stmt(f"check bimodule {adj};", _holds(f"check bimodule {adj}"))

    # N = left multiplication by a random element: Nijenhuis on any associative algebra
    n_img = alg.left_mult(_random_elem(rng, r))
    src.decl(_map_dsl(f"N{A}", A, A, n_img, basis))
    nmat = _sym_map(n_img)
    src.stmt(f"check Nijenhuis N{A} on {A};",
             _record(f"check Nijenhuis N{A}", O.res_nijenhuis(tab, r, nmat), names2, basis))

    # T = left multiplication by a square-zero element: an O-operator on the adjoint
    s = _square_zero_elem(rng, alg)
    t_img = alg.left_mult(s) if s is not None else _random_map(rng, r)
    src.decl(_map_dsl(f"T{A}", adj, A, t_img, basis))
    tmat = _sym_map(t_img)
    t_bad = O.res_o(tab, tab, tab, r, r, tmat)
    src.stmt(f"check O T{A} on {A} with {adj};",
             _record(f"check O T{A}", t_bad, names2, basis))
    src.stmt(f"check RotaBaxter T{A} on {A} weight 0;",
             _record(f"check RotaBaxter T{A}", O.res_rb(tab, r, tmat, 0), names2, basis))

    # an inner derivation plus D times the identity: a derivation
    e_img = alg.inner_derivation(_random_elem(rng, r))
    for j in range(r):
        c = Fraction(e_img[j][j])
        e_img[j][j] = "D" if not c else f"D {'-' if c < 0 else '+'} {abs(c)}"
    src.decl(_map_dsl(f"E{A}", A, A, e_img, basis))
    src.stmt(f"check Derivation E{A} on {A};",
             _record(f"check Derivation E{A}",
                     O.res_derivation(tab, tab, tab, r, r, _sym_map(e_img)), names2, basis))

    tw_bad = None
    if extras:
        # a random map, checked against identities it rarely satisfies
        x_img = _random_map(rng, r)
        xmat = _sym_map(x_img)
        weight = rng.choice(("-1", "1/2"))
        src.decl(_map_dsl(f"X{A}", A, A, x_img, basis))
        src.stmt(f"check Reynolds X{A} on {A};",
                 _record(f"check Reynolds X{A}", O.res_reynolds(tab, r, xmat), names2, basis))
        src.stmt(f"check RotaBaxter X{A} on {A} weight {weight};",
                 _record(f"check RotaBaxter X{A}", O.res_rb(tab, r, xmat, _sym(weight)), names2, basis))

        # -product is a 2-cocycle twisting the identity into a twisted Rota-Baxter operator
        neg = {key: [_frac_text(-Fraction(t)) for t in texts] for key, texts in alg.table_texts().items()}
        neg_lines = "; ".join(f"value {basis[i]} {basis[j]} = {_elem_text(t, basis)}"
                              for (i, j), t in sorted(neg.items()))
        src.decl(f"cocycle neg{A} on {A} {{ {neg_lines}; }}")
        neg_sym = {key: _vec(t) for key, t in neg.items()}
        d_neg = O.cochain_table(O.d_hoch(O.cochain_fn(2, r, r, neg_sym), 2, tab, tab, tab, r, r), 3, r, r)
        src.stmt(f"check cocycle neg{A};",
                 _record(f"check cocycle neg{A}", _table_bad(d_neg, 3, r), names2, basis))
        src.decl(_map_dsl(f"I{A}", A, A, _identity_map(r), basis))
        tw_bad = O.res_twisted(tab, tab, tab, r, r, _sym_map(_identity_map(r)),
                               O.cochain_fn(2, r, r, neg_sym))
        src.stmt(f"check TwistedRB I{A} on {A} with {adj} twist neg{A};",
                 _record(f"check TwistedRB I{A}", tw_bad, names2, basis))

        # a 2-cochain with weight-dependent values: the oracle decides closedness
        cand = _random_cochain(rng, 2, r, density=0.3)
        if cand:
            lines = "; ".join(f"value {basis[i]} {basis[j]} = {_elem_text(t, basis)}"
                              for (i, j), t in sorted(cand.items()))
            src.decl(f"cocycle phi{A} on {A} {{ {lines}; }}")
            cand_sym = {key: _vec(t) for key, t in cand.items()}
            d_c = O.cochain_table(O.d_hoch(O.cochain_fn(2, r, r, cand_sym), 2, tab, tab, tab, r, r), 3, r, r)
            src.stmt(f"check cocycle phi{A};",
                     _record(f"check cocycle phi{A}", _table_bad(d_c, 3, r), names2, basis))

    if lie:
        comm_sym = O.commutator_table(tab, r)
        src.stmt(f"check OLie T{A} on {A} with {adj};",
                 _record(f"check OLie T{A}", O.res_olie(comm_sym, tab, tab, r, r, tmat), names2, basis))
        src.stmt(f"check NijenhuisLie N{A} on {A};",
                 _record(f"check NijenhuisLie N{A}", O.res_nijlie(comm_sym, r, nmat), names2, basis))
        comm = alg.commutator_texts()
        src.decl(alg.dsl(comm, lie=True, name=f"G{A}"))
        comm_tab = {key: _vec(t) for key, t in comm.items()}
        lie_names = lambda key: [key[0]] + [basis[i] for i in key[1:]]
        src.stmt(f"check lie G{A};", _record(f"check lie G{A}", O.lie_bad(comm_tab, r), lie_names, basis))

    if constructs:
        # each construct is a theorem once its operator identity holds
        if not t_bad:
            src.stmt(f"construct dendriform T{A} on {A} with {adj};", _holds(f"construct dendriform T{A}"))
            src.stmt(f"construct leftsym T{A} on {A} with {adj};", _holds(f"construct leftsym T{A}"))
            src.stmt(f"construct mass T{A} on {A} with {adj} as Star{A};", _holds(f"construct mass T{A}"))
            src.stmt(f"check associative Star{A};", _holds(f"check associative Star{A}"))
        src.stmt(f"construct ns N{A} on {A};", _holds(f"construct ns N{A}"))
        src.stmt(f"construct deformed N{A} on {A};", _holds(f"construct deformed N{A}"))
        if tw_bad == []:
            src.stmt(f"construct ns I{A} on {A} with {adj} twist neg{A};", _holds(f"construct ns I{A}"))


def _mutant_source(rng, kind, src: Source):
    """An algebra with one structure constant changed, and a map with one image changed."""
    O = _ORACLE
    alg = Algebra(kind, "B")
    basis, r = alg.basis, alg.rank
    names2 = lambda key: [basis[i] for i in key]
    i, j, k = (rng.randrange(r) for _ in range(3))
    mutated = dict(alg.table_texts())
    row = [Fraction(t) for t in mutated.get((i, j), ["0"] * r)]
    row[k] += _nonzero(rng, (-1, 1, 2))
    mutated[(i, j)] = [_frac_text(c) for c in row]
    if not any(row):
        del mutated[(i, j)]
    src.decl(alg.dsl(mutated, name="Bm"))
    mtab = {key: _vec(t) for key, t in mutated.items()}
    src.stmt("check associative Bm;", _record("check associative Bm", O.assoc_bad(mtab, r), names2, basis))

    src.decl(alg.dsl())
    src.decl("bimodule AdjB adjoint B;")
    s = _square_zero_elem(rng, alg)
    t_img = alg.left_mult(s)
    a, b = rng.randrange(r), rng.randrange(r)
    t_img[a][b] = _frac_text(Fraction(t_img[a][b]) + _nonzero(rng, (-1, 1)))
    src.decl(_map_dsl("Tm", "AdjB", "B", t_img, basis))
    tab = alg.sym_table()
    src.stmt("check O Tm on B with AdjB;",
             _record("check O Tm", O.res_o(tab, tab, tab, r, r, _sym_map(t_img)), names2, basis))


def _fixture_items(root: Path):
    """Expected records of the committed corpus and its five broken inputs."""
    O = _ORACLE
    items = []
    statements = []
    for line in (root / "fixtures" / "all.cfa").read_text(encoding="utf-8").splitlines():
        words = line.split()
        if words and words[0] in ("check", "construct"):
            statements.append(_holds(" ".join(words[:3]).rstrip(";")))
    # twice each: these seed-independent items hold the median of a pass
    for command in ("check", "construct", "check", "construct"):
        items.append({"slot": f"all-{command}", "kind": "cli",
                      "argv": [command, "fixtures/all.cfa", "--json"], "exit": 0,
                      "records": statements})
    names = lambda basis: (lambda key: [basis[i] for i in key])
    tab = lambda entries: {key: _vec(texts) for key, texts in entries.items()}
    dual = tab({(0, 0): ["1", "0"], (0, 1): ["0", "1"], (1, 0): ["0", "1"]})
    nil2 = tab({(0, 0): ["0", "1"]})
    junk = O.cochain_fn(2, 2, 2, tab({(0, 1): ["0", "L1"]}))
    swap = _sym_map([["0", "1"], ["1", "0"]])
    expected = {
        # e·e = (D + 2L)e
        "broken_assoc": [_record("check associative Bad",
                                 O.assoc_bad(tab({(0, 0): ["D + 2*L1"]}), 1), names(["e"]), ["e"])],
        # junk(a, b) = L·b on the nilpotent square a·a = b
        "broken_cocycle": [_record(
            "check cocycle junk",
            _table_bad(O.cochain_table(O.d_hoch(junk, 2, nil2, nil2, nil2, 2, 2), 3, 2, 2), 3, 2),
            names(["a", "b"]), ["a", "b"])],
        # the swap u <-> v on the dual numbers
        "broken_o_operator": [_record("check O Swap", O.res_o(dual, dual, dual, 2, 2, swap),
                                      names(["u", "v"]), ["u", "v"])],
        "broken_syntax": [{"identity": "parse", "status": "error", "witnesses": []}],
        "broken_unresolved": [{"identity": "parse", "status": "error", "witnesses": []}],
    }
    exits = {"broken_assoc": 1, "broken_cocycle": 1, "broken_o_operator": 1,
             "broken_syntax": 2, "broken_unresolved": 2}
    for stem, records in expected.items():
        items.append({"slot": stem, "kind": "cli",
                      "argv": ["check", f"fixtures/{stem}.cfa", "--json"],
                      "exit": exits[stem], "records": records})
    return items


def _corpus(rng, root: Path, work: Path):
    items = _fixture_items(root)
    rel = work.relative_to(root)

    def emit(slot, src, command="check"):
        path = work / f"{slot}.cfa"
        src.write(path)
        items.append(_cli_item([command, str(rel / path.name), "--json"], src, slot))

    # cheaper than the fixture corpus: one small source and two mutants
    src = Source()
    _full_source(rng, Algebra(rng.choice(("dual", "nil2", "cc")), "A"), src)
    emit("rank2", src)
    for k in range(2):
        src = Source()
        _mutant_source(rng, rng.choice(("dual", "ut2", "trunc3", "grass2", "M2")), src)
        emit(f"mutant{k}", src)
    # dearer than the fixture corpus: ranks 3 and 4, and the matrix algebras M_2 .. M_4.
    # Six slots of similar cost make the dearest group of a pass; the tail of a run
    # lies inside it.
    for slot, kind, command in (("rank3", "ut2", "check"), ("rank4", "grass2", "check"),
                                ("rank4b", "trunc4", "check"), ("m2", "M2", "construct"),
                                ("m2b", "M2", "check")):
        src = Source()
        _full_source(rng, Algebra(kind, "A"), src)
        emit(slot, src, command)
    for slot in ("m3", "m3b"):
        src = Source()
        _full_source(rng, Algebra("M3", "Mat"), src, extras=False, lie=False, constructs=False,
                     associative_by_theorem=True)
        emit(slot, src)
    src = Source()
    _m4_source(rng, src)
    emit("m4", src)
    return items


def _m4_source(rng, src: Source):
    """M_4 (rank 16): operator scans over 256 basis pairs, answers by theorem.

    Left multiplication by a square-zero element is an O-operator on the
    adjoint bimodule and a Rota-Baxter operator of weight 0; left
    multiplication by any element is a Nijenhuis operator.
    """
    alg = Algebra("M4", "Mat")
    src.decl(alg.dsl())
    src.decl("bimodule AdjMat adjoint Mat;")
    src.decl(_map_dsl("T", "AdjMat", "Mat", alg.left_mult(_square_zero_elem(rng, alg)),
                      alg.basis))
    src.decl(_map_dsl("N", "Mat", "Mat", alg.left_mult(_random_elem(rng, alg.rank)),
                      alg.basis))
    src.stmt("check O T on Mat with AdjMat;", _holds("check O T"))
    src.stmt("check RotaBaxter T on Mat weight 0;", _holds("check RotaBaxter T"))
    src.stmt("check Nijenhuis N on Mat;", _holds("check Nijenhuis N"))


# -- degree ---------------------------------------------------------------------------


def _coeff_text(c: Fraction) -> str:
    return ("+" if c > 0 else "-") + str(abs(c))


def _degree_block(n, c, k, basis_name):
    """Closed forms for the rank-1 block ``u·u = p(D, L)u`` with ``p = (D+L+c)^n``.

    Sesquilinearity gives ``(u_{L1} u)_{L1+L2} u = p(-L1-L2, L1) p(D, L1+L2) u`` and
    ``u_{L1}(u_{L2} u) = p(D+L1, L2) p(D, L1) u``, so the associator is their
    difference.  For ``T = k·id`` the Rota-Baxter residual of weight w is
    ``-k(k+w) p(D, L1) u``, and every ``k·id`` is a Nijenhuis operator.
    """
    O = _ORACLE
    D, L1, L2, q = O.D, O.L[1], O.L[2], O.q
    gens = (D, L1, L2, q)

    def p(x, lam):
        return sp.Poly(x + lam + sp.Rational(c.numerator, c.denominator), *gens) ** n

    assoc = p(-L1 - L2, L1) * p(D, L1 + L2) - p(D + L1, L2) * p(D, L1)
    kk = sp.Rational(k.numerator, k.denominator)
    rb_q = p(D, L1) * sp.Poly(-kk * (kk + q), *gens)

    def canon(poly):
        terms = {}
        for exps, coeff in poly.terms():
            mono = tuple(sorted((str(g), e) for g, e in zip(gens, exps) if e))
            terms[mono] = Fraction(int(coeff.p), int(coeff.q))
        return [[basis_name, canon_poly(terms)]] if terms else []

    return canon(assoc), canon(rb_q)


def _degree_source(blocks):
    """A rank-1 or block-diagonal rank-2 algebra from the degree family.

    ``blocks`` holds ``(basis name, n, c, k)`` per block; all blocks share k.
    """
    basis = [b for b, _, _, _ in blocks]
    src = Source()
    lines = [f"algebra A {{", "  basis " + ", ".join(basis) + ";"]
    images = []
    assoc_w, rbq_w = [], []
    for name, n, c, k in blocks:
        lines.append(f"  product {name} {name} = (D+L{_coeff_text(c)})^{n}*{name};")
        images.append(f"{name} -> {k}*{name}")
        assoc, rbq = _degree_block(n, c, k, name)
        assoc_w.append([[name, name, name], assoc])
        rbq_w.append([[name, name], rbq])
    lines.append("}")
    src.decl("\n".join(lines))
    src.decl(f"map T : A -> A {{ {'; '.join(images)}; }}")
    src.stmt("check associative A;", {"identity": "check associative A", "status": "fails",
                                      "witnesses": assoc_w})
    src.stmt(f"check RotaBaxter T on A weight {-blocks[0][3]};", _holds("check RotaBaxter T"))
    src.stmt("check RotaBaxter T on A weight q;", {"identity": "check RotaBaxter T",
                                                   "status": "fails", "witnesses": rbq_w})
    src.stmt("check Nijenhuis T on A;", _holds("check Nijenhuis T"))
    return src


def _draw_c(rng, rational):
    """±3 or ±3/2, ±2/3: the size of c sets the cost, so the seed draws sign and shape."""
    return Fraction(rng.choice(("3/2", "2/3") if rational else ("3",))) * rng.choice((-1, 1))


def _degree(rng, root: Path, work: Path):
    items = []
    rel = work.relative_to(root)
    slots = []
    for n in (8, 9, 10, 11):
        for rational in (False, True):
            slots.append((f"n{n}{'q' if rational else 'z'}", [("u", n, rational)]))
    # a third n = 10 item puts the median of a pass inside the n = 10 group, and a
    # third n = 11 item makes the dearest group large enough to hold the tail
    slots.append(("n10z2", [("u", 10, False)]))
    slots.append(("n11z2", [("u", 11, False)]))
    for k in range(2):
        slots.append((f"pair{k}", [("u", 9, k == 1), ("v", 9, k == 0)]))
    for slot, spec in slots:
        k = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
        blocks = [(name, n, _draw_c(rng, rational), k) for name, n, rational in spec]
        src = _degree_source(blocks)
        path = work / f"{slot}.cfa"
        src.write(path)
        items.append(_cli_item(["check", str(rel / path.name), "--json"], src, slot))
    return items


# -- cochains -------------------------------------------------------------------------


def _alg_spec(alg: Algebra):
    return {"basis": alg.basis,
            "table": [[list(key), texts] for key, texts in sorted(alg.table_texts().items())]}


def _cochain_spec(arity, entries):
    return {"arity": arity, "entries": [[list(idx), t] for idx, t in sorted(entries.items())]}


def _cochains(rng, root: Path, work: Path):
    O = _ORACLE
    items = []
    rel = work.relative_to(root)
    rank2 = lambda: Algebra("dual", "A")
    rank3 = lambda: Algebra("ut2", "A")

    # d∘d = 0 on seeded cochains of arity 1-4
    for rank_alg, arity in ((rank2, 1), (rank2, 2), (rank2, 3), (rank2, 4), (rank3, 1), (rank3, 2)):
        alg = rank_alg()
        items.append({"slot": f"dd-r{alg.rank}-a{arity}", "kind": "api", "api": "dd",
                      "alg": _alg_spec(alg),
                      "f": _cochain_spec(arity, _random_cochain(rng, arity, alg.rank))})

    # derived brackets of module-to-algebra cochains; the two routes must agree.
    # (2, 2) comes twice, so that the dearest group of a pass holds the tail of a
    # run whatever the number of passes, rather than the step below it.
    for slot, m, n in (("bracket-11", 1, 1), ("bracket-12", 1, 2), ("bracket-22", 2, 2),
                       ("bracket-22b", 2, 2)):
        alg = Algebra("dual", "A")
        items.append({"slot": slot, "kind": "api", "api": "bracket",
                      "alg": _alg_spec(alg),
                      "f": _cochain_spec(m, _random_cochain(rng, m, alg.rank)),
                      "g": _cochain_spec(n, _random_cochain(rng, n, alg.rank))})

    # Maurer-Cartan perturbation of an O-operator by a random map
    alg = Algebra("dual", "A")
    tab, r = alg.sym_table(), alg.rank
    t_img = alg.left_mult(_square_zero_elem(rng, alg))
    t2_img = _random_map(rng, r)
    sum_img = [[str(_sym(a) + _sym(b)) for a, b in zip(x, y)] for x, y in zip(t_img, t2_img)]
    sum_is_o = not O.res_o(tab, tab, tab, r, r, _sym_map(sum_img))
    items.append({"slot": "perturb", "kind": "api", "api": "perturb", "alg": _alg_spec(alg),
                  "T": t_img, "T2": t2_img, "sum_is_O": sum_is_o})

    # modified Maurer-Cartan equation with the cocycle -product
    for slot, ident in (("modified-id", True), ("modified-rand", False)):
        alg = Algebra("dual", "A")
        tab, r = alg.sym_table(), alg.rank
        t_img = _identity_map(r) if ident else _random_map(rng, r, with_d=False)
        neg = {key: [_frac_text(-Fraction(t)) for t in texts]
               for key, texts in alg.table_texts().items()}
        neg_sym = {key: _vec(t) for key, t in neg.items()}
        twisted = not O.res_twisted(tab, tab, tab, r, r, _sym_map(t_img),
                                    O.cochain_fn(2, r, r, neg_sym))
        items.append({"slot": slot, "kind": "api", "api": "modified", "alg": _alg_spec(alg),
                      "T": t_img, "phi": _cochain_spec(2, neg), "is_twisted_rb": twisted})

    # the cohomology subcommands of the command line
    alg = Algebra("dual", "A")
    src = Source()
    src.decl(alg.dsl())
    path = work / "d2.cfa"
    src.write(path)
    src.records.append(_holds("d2-check A with adjoint"))
    items.append(_cli_item(["cohomology", "d2-check", str(rel / path.name), "--json",
                            "--algebra", "A", "--count", "4", "--seed", str(rng.randrange(10**6))],
                           src, "d2-check"))

    alg = Algebra("dual", "A")
    tab, r = alg.sym_table(), alg.rank
    t_img = alg.left_mult(_square_zero_elem(rng, alg)) if rng.random() < 0.5 else _random_map(rng, r)
    src = Source()
    src.decl(alg.dsl())
    src.decl(_map_dsl("T", "A", "A", t_img, alg.basis))
    path = work / "mc.cfa"
    src.write(path)
    src.records.append(_holds("mc-check T on A with adjoint"))
    is_o = not O.res_o(tab, tab, tab, r, r, _sym_map(t_img))
    items.append(_cli_item(["cohomology", "mc-check", str(rel / path.name), "--json", "--map", "T"],
                           src, "mc-check", mc_is_O=is_o))

    for slot, right_arity in (("bracket-cli", 2), ("bracket-cli-maps", 1)):
        alg = Algebra("dual", "A")
        r, basis = alg.rank, alg.basis
        f_img = _random_map(rng, r)
        src = Source()
        src.decl(alg.dsl())
        src.decl(_map_dsl("f", "A", "A", f_img, basis))
        if right_arity == 2:
            g_tab = _random_cochain(rng, 2, r, density=0.5)
            lines = "; ".join(f"value {basis[i]} {basis[j]} = {_elem_text(t, basis)}"
                              for (i, j), t in sorted(g_tab.items()))
            src.decl(f"cocycle g on A {{ {lines}; }}")
            gn = O.cochain_fn(2, r, r, {key: _vec(t) for key, t in g_tab.items()})
        else:
            g_img = _random_map(rng, r)
            src.decl(_map_dsl("g", "A", "A", g_img, basis))
            gn = O.mat_cochain(_sym_map(g_img), r)
        path = work / f"{slot}.cfa"
        src.write(path)
        src.records.append(_holds("bracket f g"))
        fn = O.mat_cochain(_sym_map(f_img), r)
        table = O.cochain_table(O.g_bracket(fn, 1, gn, right_arity, r), right_arity, r, r)
        bracket = [[[basis[i] for i in idx], canon_vec(vec, basis)]
                   for idx, vec in _table_bad(table, right_arity, r)]
        items.append(_cli_item(["cohomology", "bracket", str(rel / path.name), "--json",
                                "--left", "f", "--right", "g"], src, slot,
                               bracket=bracket, basis=basis))
    return items


def build(workload: str, seed: int, root: Path, work: Path):
    """Write the workload's sources under ``work``; return one pass of items."""
    oracle(root)
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    return {"corpus": _corpus, "degree": _degree, "cochains": _cochains}[workload](rng, root, work)
