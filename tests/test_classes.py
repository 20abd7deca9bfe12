"""Value semantics of the package's immutable classes, and what importing the CLI loads.

The classes that validate or carry behaviour are plain classes: two objects
are equal when they are of one class with equal fields, equal objects hash
alike (where their fields hash at all), and no attribute can be assigned or
deleted.  The plain records are ``NamedTuple``s, with the same rules inside
their class.  Importing ``confalg.cli`` must stay cheap: it loads neither
``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from confalg.cohomology import Cochain
from confalg.confcore import (
    Composite,
    ConfAlgebra,
    ConfBimodule,
    FreeModule,
    ModElem,
    MultiTable,
    Verdict,
    check_associative,
    cur,
    extension_iso,
    rep_from_bimodule,
)
from confalg.derived import BinaryOpTable, StructureBundle, dendriform_from_O
from confalg.dsl import Environment, Record, Report, parse
from confalg.errors import ArityMismatch, PreconditionFailed, RankMismatch, ShapeMismatch
from confalg.operators import ModuleMap
from confalg.polyring import Poly

SRC = Path(__file__).resolve().parent.parent / "src"
D, L1 = Poly.var("D"), Poly.var("L1")


def _module() -> FreeModule:
    return FreeModule(("a", "b"))


def _nilp() -> ConfAlgebra:
    return cur(("a", "b"), {("a", "a"): (0, 1)})


def _double() -> ModuleMap:
    module = _module()
    images = {"a": module.elem((2, 0)), "b": module.elem((0, 1))}
    return ModuleMap.from_images(module, module, images)


def _unary() -> MultiTable:
    module = _module()
    return MultiTable((module,), module, {(0,): module.elem((0, D))})


def _binary() -> MultiTable:
    module = _module()
    return MultiTable((module, module), module, {(0, 0): module.elem((0, L1))})


# each factory builds a new object with the same value on every call
PLAIN = {
    "FreeModule": _module,
    "ModElem": lambda: _module().elem((1, D + L1)),
    "ConfAlgebra": _nilp,
    "ConfBimodule": lambda: ConfBimodule.adjoint(_nilp()),
    "LieRep": lambda: rep_from_bimodule(_nilp(), ConfBimodule.adjoint(_nilp())),
    "Cochain": lambda: Cochain(_binary()),
    "ModuleMap": _double,
    "Composite": lambda: Composite("flags", {"p": True, "q": None}, agree=("p",)),
    "StructureBundle": lambda: dendriform_from_O(
        _double(), _nilp(), ConfBimodule.adjoint(_nilp())
    ),
    "BinaryOpTable": lambda: BinaryOpTable(_binary()),
}
RECORDS = {
    "Verdict": lambda: check_associative(_nilp()),
    "Record": lambda: Record("associativity", "holds", (), 1.5, "detail"),
    "Report": lambda: Report(
        "check x", "0.1.0", 7, (Record("x", "fails", ({"names": ["a"]},), 2.0),)
    ),
    "SourceFile": lambda: parse("algebra A { basis e; product e e = D*e; } check associative A;"),
    "AlgebraDecl": lambda: parse("algebra A lie { basis e, f; }").declarations[0],
    "Statement": lambda: parse("check associative A;").declarations[0],
}


def _hash(obj):
    """``hash(obj)``, or ``None`` where a field is unhashable (tables, mappings)."""
    try:
        return hash(obj)
    except TypeError:
        return None


@pytest.mark.parametrize("make", [*PLAIN.values(), *RECORDS.values()], ids=[*PLAIN, *RECORDS])
def test_equal_values_give_equal_objects_and_equal_hashes(make):
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert _hash(first) == _hash(second)


def test_fields_that_hash_give_hashable_objects():
    assert len({_module(), _module()}) == 1
    assert len({PLAIN["ModElem"](), PLAIN["ModElem"]()}) == 1
    assert hash(RECORDS["Verdict"]()) == hash(RECORDS["Verdict"]())


@pytest.mark.parametrize("make", PLAIN.values(), ids=list(PLAIN))
def test_plain_classes_refuse_assignment_and_deletion(make):
    obj = make()
    field = obj._fields[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        setattr(obj, "extra", None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


@pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))
def test_records_refuse_assignment(make):
    obj = make()
    with pytest.raises(AttributeError):
        setattr(obj, obj._fields[0], None)
    with pytest.raises(AttributeError):
        setattr(obj, "extra", None)


def test_objects_of_different_classes_are_never_equal():
    # one arity-1 table viewed as a map and as a cochain; one binary table
    # viewed as a product and as a cochain: same fields, different classes
    assert ModuleMap(_unary()) != Cochain(_unary())
    assert BinaryOpTable(_binary()) != Cochain(_binary())
    assert Cochain(_binary()) != BinaryOpTable(_binary())
    assert _module() != (("a", "b"),)
    assert PLAIN["ModElem"]() != (_module(), (Poly.one(), D + L1))
    assert Composite("x", {}) != Verdict("x", True, ())


def test_objects_with_different_fields_are_unequal():
    assert FreeModule(("a", "b")) != FreeModule(("b", "a"))
    assert _module().elem((1, 0)) != _module().elem((0, 1))
    nilp = _nilp()
    assert ConfAlgebra(nilp.module, nilp.table, "lie") != nilp
    assert Composite("flags", {"p": True}) != Composite("flags", {"p": False})
    assert Composite("flags", {"p": True}) != Composite("flags", {"p": True}, labels={"p": "P"})


def test_constructors_keep_their_checks():
    with pytest.raises(RankMismatch, match="duplicate basis names"):
        FreeModule(("a", "a"))
    with pytest.raises(RankMismatch, match="at least one basis element"):
        FreeModule(())
    with pytest.raises(RankMismatch, match="1 coefficients for a rank-2 module"):
        ModElem(_module(), (1,))
    with pytest.raises(PreconditionFailed, match="unknown flavor 'jordan'"):
        ConfAlgebra(_module(), _binary(), "jordan")
    with pytest.raises(ShapeMismatch, match="^an algebra table must map <x> × <x> into <x>, not"):
        ConfAlgebra(FreeModule(("x",)), _binary(), "associative")
    with pytest.raises(ArityMismatch, match="^an algebra table must map <a, b> × <a, b> into"):
        ConfAlgebra(_module(), _unary(), "associative")
    with pytest.raises(ShapeMismatch, match="^the left action must map <a, b> × <x> into <x>, not"):
        ConfBimodule(_nilp(), FreeModule(("x",)), _binary(), _binary())
    with pytest.raises(ArityMismatch, match="^a binary operation table must map <a, b> × <a, b>"):
        BinaryOpTable(_unary())
    with pytest.raises(ArityMismatch, match="^a binary operation table must map"):
        StructureBundle("leftsym", {"leftsym": _unary()})
    with pytest.raises(ShapeMismatch, match="arguments must all live in one module"):
        Cochain(MultiTable((_module(), FreeModule(("x",))), _module(), {}))
    with pytest.raises(ShapeMismatch, match="unknown structure kind"):
        StructureBundle("magma", {})
    with pytest.raises(ShapeMismatch, match="^unknown structure kind 'assoc'$"):
        StructureBundle("assoc", {"star": _binary()})


def test_reprs_name_the_class_and_its_fields():
    assert repr(_module()) == "FreeModule(basis=('a', 'b'))"
    assert repr(Composite("x", {"p": True})) == (
        "Composite(identity='x', clauses={'p': True}, agree=(), labels={})"
    )
    assert repr(Record("x", "holds", (), 1.0)) == (
        "Record(identity='x', status='holds', witnesses=(), elapsed_ms=1.0, "
        "detail=None, emitted=None)"
    )
    assert repr(ModuleMap(_unary())).startswith("ModuleMap(table=<")


def test_copies_of_records_and_the_environment_stay_independent():
    verdict = RECORDS["Verdict"]()
    renamed = verdict._replace(identity="renamed")
    assert (renamed.identity, verdict.identity) == ("renamed", "associativity")
    assert renamed.holds == verdict.holds and renamed.witnesses == verdict.witnesses
    first, second = Environment(), Environment()
    first.algebras["A"] = _nilp()
    assert "A" not in second.algebras


def test_extension_iso_is_a_record_of_two_maps_and_a_verdict():
    nilp = _nilp()
    bim = ConfBimodule.adjoint(nilp)
    phi = Cochain.from_entries(2, nilp.module, nilp.module, {(0, 0): nilp.module.elem((0, L1))})
    h = ModuleMap.from_images(nilp.module, nilp.module, {"a": nilp.module.elem((0, 1))})
    psi, psi_inv, verdict = extension_iso(nilp, bim, phi, h)
    assert verdict.holds and psi.compose(psi_inv) == ModuleMap.identity(psi.source)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: without site, nothing but the import itself can load them
    code = "import sys, confalg.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"
