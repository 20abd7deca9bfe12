"""The traced benchmark can still find and wrap every function it measures.

``bench/tracing.py`` replaces the functions, methods and classmethods named in
its ``LAYERS`` table and reads attributes of their results.  A refactor that
moves or renames one of them would otherwise break only the traced benchmark
run; this test breaks first.  The benchmark files are only read.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from confalg import cli, cohomology
from helpers import NADJ, NILP, NM

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _slot(module_name, owner, attr):
    namespace = vars(sys.modules[module_name])
    return namespace[attr] if owner is None else vars(namespace[owner])[attr]


def test_tracer_wraps_every_layer_counts_tabulation_and_restores(tracing, capsys):
    targets = [target for group in tracing.LAYERS.values() for target in group]
    originals = [_slot(*target) for target in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for target in targets:
            slot = _slot(*target)
            wrapper = slot.__func__ if isinstance(slot, classmethod) else slot
            assert hasattr(wrapper, "__wrapped__"), target
        tracer.active = True
        assert cli.main(["check", "--json", str(ROOT / "fixtures" / "all.cfa")]) == 0
        f = cohomology.random_cochain(1, 1, NM, NM, max_degree=1)
        g = cohomology.random_cochain(2, 2, NM, NM, max_degree=1)
        before = {layer: Counter(tracer.stats[layer]) for layer in tracer.stats}
        assert cohomology.derived_bracket(f, g, NILP, NADJ).arity == 3
        tracer.active = False
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # the constructions and both routes of the derived bracket are table sums;
    # nothing is tabulated
    assert tracer.stats["derived.tabulate"]["calls"] == 0
    assert tracer.stats["derived.tabulate"]["tuples"] == 0
    assert tracer.stats["cohomology.tabulate"]["calls"] == 0
    assert tracer.stats["cohomology.tabulate"]["tuples"] == 0
    bracket = {layer: tracer.stats[layer] - before[layer] for layer in before}
    assert bracket["confcore.eval"]["calls"] == 0
    assert bracket["confcore.eval"]["basis_only_calls"] == 0
    assert bracket["cohomology.tabulate"]["calls"] == 0
    assert bracket["cohomology.tabulate"]["tuples"] == 0
    assert all(_slot(*target) is raw for target, raw in zip(targets, originals))


def test_tracer_pins_the_evaluator_counts_of_the_fixture_corpus(tracing, capsys):
    # The checkers compute whole residual tables and the constructions compose
    # theirs, so the fixture corpus makes no evaluator or module-map call; work
    # moved back to per-tuple evaluation would show here first.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        assert cli.main(["check", "--json", str(ROOT / "fixtures" / "all.cfa")]) == 0
        tracer.active = False
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.stats["confcore.eval"]["calls"] == 0
    assert tracer.stats["confcore.eval"]["basis_only_calls"] == 0
    assert tracer.stats["operators.apply"]["calls"] == 0
    # the scan reads every basis tuple of each residual table, as a per-tuple scan did
    assert tracer.stats["confcore.scan"]["tuples"] == 360
