"""Byte-for-byte regression of the CLI's JSON reports.

``tests/golden/`` holds the ``check --json`` and ``construct --json`` output of
the fixture corpus, of every broken fixture and of one large-degree source,
and the ``cohomology`` subcommands' output on the fixture corpus, with the
run-time field ``elapsed_ms`` removed and the exit code added.  Any change of
verdict, witness, residual text or rendering order shows up here.

After an intended change of output, rewrite the files with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg.cli import main
from confalg.dsl import Record, Report

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

SOURCES = sorted(
    [Path("fixtures/all.cfa"), Path("tests/golden/degree10.cfa")]
    + [p.relative_to(ROOT) for p in (ROOT / "fixtures").glob("broken_*.cfa")]
)
COHOMOLOGY = [
    ("mc-check-T-A2", "mc-check", ["--map", "T", "--algebra", "A2"]),
    ("mc-check-T2-N2", "mc-check", ["--map", "T2", "--algebra", "N2", "--bimodule", "AdjN2"]),
    ("mc-check-R-N2", "mc-check", ["--map", "R", "--algebra", "N2"]),
    ("bracket-d-d", "bracket", ["--left", "d", "--right", "d"]),
    ("bracket-phi-phi", "bracket", ["--left", "phi", "--right", "phi"]),
    (
        "d2-check-N2",
        "d2-check",
        ["--algebra", "N2", "--bimodule", "AdjN2", "--count", "4", "--seed", "3"],
    ),
]
# (test id, command line without --json, golden file name)
CASES = [
    (f"{command}-{source.stem}", [command, source.as_posix()], f"{source.stem}.{command}.json")
    for source in SOURCES
    for command in ("check", "construct")
] + [
    (name, ["cohomology", sub, "fixtures/all.cfa", *options], f"all.{name}.json")
    for name, sub, options in COHOMOLOGY
]


def render(argv: List[str]) -> str:
    """The normalised report: exit code plus JSON without ``elapsed_ms``.

    Runs from the checkout root with a relative path, so the echoed command
    does not depend on where the checkout lives.
    """
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--json"])
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue())
    for record in report["records"]:
        del record["elapsed_ms"]
    return json.dumps({"exit": code, "report": report}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv,golden", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_report_matches_golden(argv: List[str], golden: str) -> None:
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert render(argv) == expected


def _reference_text(report: Report) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_report_text_is_what_json_dumps_writes(golden: str) -> None:
    data = json.loads((GOLDEN / golden).read_text(encoding="utf-8"))["report"]
    records = tuple(
        Record(r["identity"], r["status"], tuple(r["witnesses"]), 0.25 * k, r["detail"], r["emitted"])
        for k, r in enumerate(data["records"])
    )
    report = Report(data["command"], data["version"], data["seed"], records)
    assert report.to_json_text() == _reference_text(report)


# any text: non-ASCII, control characters, quotes and backslashes
texts = st.text(max_size=12)
witnesses = st.fixed_dictionaries({"names": st.lists(texts, max_size=3), "residual": texts})
records = st.builds(
    Record,
    texts,
    st.sampled_from(["holds", "fails", "error"]),
    st.lists(witnesses, max_size=3).map(tuple),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.none() | texts,
    st.none() | texts,
)


@settings(max_examples=150, deadline=None)
@given(texts, st.none() | st.integers(0, 2**64), st.lists(records, max_size=4).map(tuple))
def test_report_text_is_what_json_dumps_writes_for_any_record(command, seed, drawn) -> None:
    report = Report(command, "0.1", seed, drawn)
    assert report.to_json_text() == _reference_text(report)


if __name__ == "__main__":
    for _, argv, golden in CASES:
        (GOLDEN / golden).write_text(render(argv), encoding="utf-8")
        print(f"wrote {(GOLDEN / golden).relative_to(ROOT)}", file=sys.stderr)
