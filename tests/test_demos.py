"""Every walkthrough in ``demos/`` runs to completion, returns 0 and prints its golden text.

``tests/golden/demo-<stem>.txt`` holds the standard output of each demo.
After an intended change of output, rewrite the files with::

    PYTHONPATH=src python tests/test_demos.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


def _golden(path: Path) -> Path:
    return GOLDEN / f"demo-{path.stem}.txt"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


@pytest.mark.parametrize(
    "path, golden", [(path, _golden(path)) for path in DEMOS], ids=[path.stem for path in DEMOS]
)
def test_demo_main_returns_zero(path, golden, capsys):
    assert _load(path).main() == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == golden.read_text(encoding="utf-8")


if __name__ == "__main__":
    for path in DEMOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _load(path).main()
        _golden(path).write_text(out.getvalue(), encoding="utf-8")
        print(f"wrote {_golden(path).relative_to(ROOT)}", file=sys.stderr)
