"""Byte-for-byte regression of the CLI's JSON reports.

``tests/golden/`` holds the ``check --json`` and ``construct --json`` output of
the fixture corpus, of every broken fixture and of one large-degree source,
with the run-time field ``elapsed_ms`` removed and the exit code added.  Any
change of verdict, witness, residual text or rendering order shows up here.

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

import pytest

from confalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

SOURCES = sorted(
    [Path("fixtures/all.cfa"), Path("tests/golden/degree10.cfa")]
    + [p.relative_to(ROOT) for p in (ROOT / "fixtures").glob("broken_*.cfa")]
)
CASES = [(command, source) for source in SOURCES for command in ("check", "construct")]


def _golden_path(command: str, source: Path) -> Path:
    return GOLDEN / f"{source.stem}.{command}.json"


def render(command: str, source: Path) -> str:
    """The normalised report: exit code plus JSON without ``elapsed_ms``.

    Runs from the checkout root with a relative path, so the echoed command
    does not depend on where the checkout lives.
    """
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main([command, source.as_posix(), "--json"])
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue())
    for record in report["records"]:
        del record["elapsed_ms"]
    return json.dumps({"exit": code, "report": report}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "command,source", CASES, ids=[f"{c}-{s.stem}" for c, s in CASES]
)
def test_report_matches_golden(command: str, source: Path) -> None:
    expected = _golden_path(command, source).read_text(encoding="utf-8")
    assert render(command, source) == expected


if __name__ == "__main__":
    for command, source in CASES:
        _golden_path(command, source).write_text(render(command, source), encoding="utf-8")
        print(f"wrote {_golden_path(command, source).relative_to(ROOT)}", file=sys.stderr)
