"""Command-line interface for checking, constructing, and cohomology runs.

``confalg check FILE`` executes a source file's declarations and check
statements; ``confalg construct FILE`` additionally prints the source form of
every constructed structure; ``confalg cohomology {d2-check,mc-check,bracket}``
runs differential and bracket computations against the objects a file
declares.  Every command accepts ``--json`` for a machine-readable report and
exits 0 when all checks hold, 1 when some check fails, and 2 on parse or
runtime errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence, Tuple

from . import __version__
from .cohomology import Cochain, g_bracket, maurer_cartan_check
from .confcore import ConfBimodule, Verdict, sum_memo
from .dsl import (
    Environment,
    Record,
    Report,
    _ms_since,
    _verdict_record,
    d_squared_suite,
    parse_file,
    render_elem,
    run,
)
from .errors import ConfalgError, UnresolvedName

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the command line; ``main`` keeps one of these per process."""
    parser = argparse.ArgumentParser(
        prog="confalg",
        description="exact checks and constructions for conformal algebras",
    )
    parser.add_argument("--version", action="version", version=f"confalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, seeded: bool = False) -> None:
        p.add_argument("file", help="source file to execute")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument(
            "--witness-cap",
            type=int,
            default=16,
            metavar="K",
            help="cap on reported witnesses per check (default 16)",
        )
        if seeded:
            p.add_argument("--seed", type=int, default=0, metavar="N", help="random seed")

    check = sub.add_parser("check", help="run a file's check statements")
    common(check, seeded=True)

    construct = sub.add_parser(
        "construct", help="run a file and print constructed structures as source"
    )
    common(construct)

    cohomology = sub.add_parser("cohomology", help="differential and bracket runs")
    cosub = cohomology.add_subparsers(dest="subcommand", required=True)

    d2 = cosub.add_parser("d2-check", help="verify d∘d = 0 on random cochains")
    common(d2, seeded=True)
    d2.add_argument("--algebra", metavar="NAME", help="algebra to use (default: first declared)")
    d2.add_argument("--bimodule", metavar="NAME", help="bimodule to use (default: adjoint)")
    d2.add_argument("--count", type=int, default=10, metavar="N", help="number of samples")
    d2.add_argument(
        "--max-degree",
        type=int,
        default=2,
        metavar="K",
        help="per-variable degree cap for generated cochains (default 2)",
    )

    mc = cosub.add_parser("mc-check", help="Maurer-Cartan characterization of a map")
    common(mc)
    mc.add_argument("--map", required=True, metavar="NAME", help="map to test")
    mc.add_argument("--algebra", metavar="NAME", help="algebra (default: first declared)")
    mc.add_argument("--bimodule", metavar="NAME", help="bimodule (default: adjoint)")

    bracket = cosub.add_parser("bracket", help="graded bracket of two cochains")
    common(bracket)
    bracket.add_argument("--left", required=True, metavar="NAME", help="map or cocycle")
    bracket.add_argument("--right", required=True, metavar="NAME", help="map or cocycle")

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the process.

    Parsing leaves an ``ArgumentParser`` unchanged, so repeated ``main`` calls
    in one interpreter pay only for their file; importing this module builds
    nothing. Threads that race on the first call may each build one, and
    every one of them parses alike.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _print_report(report: Report, *, json_mode: bool, show_emitted: bool) -> None:
    if json_mode:
        print(report.to_json_text())
        return
    for rec in report.records:
        print(f"[{rec.status}] {rec.identity} ({rec.elapsed_ms:.1f} ms)")
        if rec.detail:
            print(f"    {rec.detail}")
        for witness in rec.witnesses:
            names = ", ".join(witness["names"])
            print(f"    witness ({names}): {witness['residual']}")
        if show_emitted and rec.emitted:
            print(rec.emitted)


def _pick_algebra(env: Environment, name: Optional[str]):
    if name is not None:
        return name, env.algebras[name]
    if not env.algebras:
        raise UnresolvedName("the file declares no algebra")
    first = next(iter(env.algebras))
    return first, env.algebras[first]


def _pick_bimodule(env: Environment, name: Optional[str], algebra) -> Tuple[str, ConfBimodule]:
    if name is not None:
        return name, env.bimodules[name]
    return "adjoint", ConfBimodule.adjoint(algebra)


def _as_self_cochain(env: Environment, name: str) -> Cochain:
    found = env.lookup(name, env.maps, env.cocycles)
    # a cocycle is kept with the names of its algebra and bimodule
    return found[0] if isinstance(found, tuple) else Cochain.from_module_map(found)


def _cmd_d2_check(args, env: Environment, started: float) -> Record:
    alg_name, alg = _pick_algebra(env, args.algebra)
    bim_name, bim = _pick_bimodule(env, args.bimodule, alg)
    verdict = d_squared_suite(
        alg, bim, count=args.count, seed=args.seed, max_degree=args.max_degree
    )
    return _verdict_record(
        f"d2-check {alg_name} with {bim_name}",
        verdict._replace(witnesses=verdict.witnesses[: args.witness_cap]),
        started,
        detail=f"{args.count} random cochains of arities 1 and 2",
    )


def _cmd_mc_check(args, env: Environment, started: float) -> Record:
    T = env.maps[args.map]
    alg_name, alg = _pick_algebra(env, args.algebra)
    bim_name, bim = _pick_bimodule(env, args.bimodule, alg)
    verdict = maurer_cartan_check(T, alg, bim)
    identity = f"mc-check {args.map} on {alg_name} with {bim_name}"
    return _verdict_record(identity, verdict, started, detail=verdict.summary())


def _cmd_bracket(args, env: Environment, started: float) -> Record:
    left = _as_self_cochain(env, args.left)
    right = _as_self_cochain(env, args.right)
    result = g_bracket(left, right)
    lines = [f"degree {result.arity}"]
    module = result.input_module
    for idx in sorted(result.table.entries):
        names = ", ".join(module.basis[i] for i in idx)
        lines.append(f"[{args.left}, {args.right}]({names}) = {render_elem(result.table.entries[idx])}")
    if result.is_zero():
        lines.append(f"[{args.left}, {args.right}] = 0")
    identity = f"bracket {args.left} {args.right}"
    return _verdict_record(identity, Verdict("bracket", True, ()), started, detail="\n".join(lines))


COHOMOLOGY = {"d2-check": _cmd_d2_check, "mc-check": _cmd_mc_check, "bracket": _cmd_bracket}


def _run_file(args, echo: str) -> Report:
    """Run the file; a cohomology subcommand then appends its record, or an error record.

    Both share one memo of table sums (:func:`~confalg.confcore.sum_memo`).
    """
    with sum_memo():
        report, env = run(
            parse_file(args.file),
            command=echo,
            seed=getattr(args, "seed", None),
            witness_cap=args.witness_cap,
            version=__version__,
        )
        if args.command != "cohomology":
            return report
        started = time.perf_counter()
        try:
            record = COHOMOLOGY[args.subcommand](args, env, started)
        except ConfalgError as exc:
            record = Record(args.subcommand, "error", (), _ms_since(started), str(exc))
    return report._replace(records=report.records + (record,))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    echo = " ".join(
        part for part in (args.command, getattr(args, "subcommand", None), args.file) if part
    )
    started = time.perf_counter()
    try:
        report = _run_file(args, echo)
    except (ConfalgError, OSError) as exc:
        # reading, parsing or resolving the file failed: its record is timed from the start
        report = Report(
            echo,
            __version__,
            getattr(args, "seed", None),
            (Record("parse", "error", (), _ms_since(started), str(exc)),),
        )
    try:
        _print_report(report, json_mode=args.json, show_emitted=args.command == "construct")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; send what is left, and the flush at exit, nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
