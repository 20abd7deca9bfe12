"""The front end of the definition language: its tokens, and the work of building declarations.

The work counts are made the way the benchmark's tracer makes them: by
replacing ``Poly.__mul__`` and ``Poly.__add__`` on the class with wrappers
that count calls.  They need no clock, so they hold on any machine.
"""

from __future__ import annotations

import pytest

from confalg.dsl import parse, run
from confalg.errors import ParseError
from confalg.polyring import Poly, _tokenize

# -- tokens ------------------------------------------------------------------------

#: tabs, CR LF, blank lines, '->', multi-digit numbers, and a comment in
#: mid-line and on the last line
SAMPLE = "map T : A -> B {\r\n\tu -> 12*v; # mid-line\r\n\r\n\n  w -> 305/7*u;\t}\n# last line"


def test_tokenize_returns_each_token_with_its_line_and_column():
    assert _tokenize(SAMPLE) == [
        ("name", "map", 1, 1),
        ("name", "T", 1, 5),
        ("punct", ":", 1, 7),
        ("name", "A", 1, 9),
        ("punct", "->", 1, 11),
        ("name", "B", 1, 14),
        ("punct", "{", 1, 16),
        ("name", "u", 2, 2),
        ("punct", "->", 2, 4),
        ("number", "12", 2, 7),
        ("punct", "*", 2, 9),
        ("name", "v", 2, 10),
        ("punct", ";", 2, 11),
        ("name", "w", 5, 3),
        ("punct", "->", 5, 5),
        ("number", "305", 5, 8),
        ("punct", "/", 5, 11),
        ("number", "7", 5, 12),
        ("punct", "*", 5, 13),
        ("name", "u", 5, 14),
        ("punct", ";", 5, 15),
        ("punct", "}", 5, 17),
        # a comment on the last line moves no column: end of input sits at its '#'
        ("eof", "", 6, 1),
    ]


@pytest.mark.parametrize("text, eof", [
    ("", ("eof", "", 1, 1)),
    ("u  ", ("eof", "", 1, 4)),
    ("u;# c", ("eof", "", 1, 3)),
    ("u # c\n# d", ("eof", "", 2, 1)),
    ("u\n\t\n", ("eof", "", 3, 1)),
])
def test_end_of_input_sits_after_the_last_blank_before_any_comment(text, eof):
    assert _tokenize(text)[-1] == eof


def test_a_comment_on_the_last_line_leaves_the_error_at_its_mark():
    with pytest.raises(ParseError) as err:
        parse("algebra A { basis u; # trailing")
    assert (err.value.line, err.value.column) == (1, 22)
    assert str(err.value) == "expected '}', found 'end of input' (line 1, column 22)"


@pytest.mark.parametrize("text, char, line, column", [
    ("u # c @\n  @", "@", 2, 3),  # a character inside a comment is no token
    ("\r\n\t ", " ", 2, 2),  # only space, tab, CR and LF are blanks
    ("x ²", "²", 1, 3),  # a numeric character that is no decimal digit
])
def test_an_unexpected_character_is_located(text, char, line, column):
    with pytest.raises(ParseError) as err:
        _tokenize(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"unexpected character {char!r} (line {line}, column {column})"


# -- work of building declarations -------------------------------------------------

_UNITS = [f"e{i}{j}" for i in range(1, 5) for j in range(1, 5)]

#: the matrix units of M_4 (64 products) and a map with 16 one-term images,
#: each value written with a coefficient as the benchmark writes them
M4_SOURCE = "\n".join([
    "algebra Mat {",
    f"  basis {', '.join(_UNITS)};",
    *(
        f"  product e{i}{j} e{j}{k} = (1)*e{i}{k};"
        for i in range(1, 5) for j in range(1, 5) for k in range(1, 5)
    ),
    "}",
    "map T : Mat -> Mat { "
    + " ".join(f"e{i}{j} -> (2*D)*e{j}{i};" for i in range(1, 5) for j in range(1, 5))
    + " }",
])
M4_TERMS = 64 + 16


def _counting(monkeypatch, name):
    calls = [0]
    original = getattr(Poly, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(Poly, name, wrapper)
    return calls


def test_building_declarations_takes_one_addition_per_written_term(monkeypatch):
    products = _counting(monkeypatch, "__mul__")
    sums = _counting(monkeypatch, "__add__")
    report, env = run(parse(M4_SOURCE))
    assert report.records == () and env.algebras["Mat"].rank == 16
    assert env.maps["T"].table.entry(("e12",)).coeffs[4] == 2 * Poly.var("D")
    # one product per explicit '*' at most, and none by a unit or a basis vector
    assert products[0] <= M4_SOURCE.count("*")
    # one addition of each written term into its basis slot
    assert sums[0] <= M4_TERMS


@pytest.mark.parametrize("source, identity, detail", [
    (
        "algebra A { basis u, v; product u u = u + 2*w; }",
        "algebra A", "'w' is not a basis name of this module (basis: u, v)",
    ),
    (
        "algebra A { basis u, v; product u v = v; product u v = u; }",
        "algebra A", "entry u v given twice",
    ),
    (
        "algebra A { basis u, v; }\nmap T : A -> A { u -> v; u -> 2*u; }",
        "map T", "image of 'u' given twice",
    ),
])
def test_build_errors_keep_their_texts(source, identity, detail):
    report, env = run(parse(source))
    (record,) = report.records
    assert (record.identity, record.status, record.detail) == (identity, "error", detail)
    kind, name = identity.split()
    assert name not in env.pools[kind]
