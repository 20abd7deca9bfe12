"""Closed-loop client: runs one workload's items in this process and checks each.

One client on one thread: an item starts only after the previous one has
returned and its output has been checked against the expected answer.  An
item is one ``confalg.cli.main(argv)`` call, with standard output captured,
or one package API call on objects built fresh for that call.  Only the call
itself is timed; building inputs and checking outputs happen outside the
timed region (and outside tracing).

    python3 bench/worker.py --items ITEMS.json --out RESULT.json
        [--seconds S] [--trace SPANS.bin]

With ``--seconds 0`` the worker runs exactly one pass over the items;
otherwise it repeats whole passes for as long as another pass still fits in
``S`` seconds.  Before every item and once after the last one it times the
calibration kernel of ``calibrate.py``, outside the item's timed region.  The
result file lists per-item times, the kernel times around them, the
failures, the peak resident set size and an output signature per item of
the first pass.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from calibrate import kernel_ms  # noqa: E402
from polytext import read_elem, read_poly  # noqa: E402


class Runner:
    def __init__(self, tracer=None):
        from confalg import cli, cohomology, confcore, operators, polyring

        self.cli, self.coh, self.core, self.ops = cli, cohomology, confcore, operators
        self.Poly = polyring.Poly
        self.tracer = tracer

    # -- inputs ---------------------------------------------------------------------

    def poly(self, text):
        Poly = self.Poly
        acc = Poly.zero()
        for mono, coeff in read_poly(text).items():
            term = Poly.const(coeff)
            for name, exp in mono:
                term = term * Poly.var(name, exp)
            acc = acc + term
        return acc

    def elem(self, module, texts):
        return module.elem([self.poly(t) for t in texts])

    def algebra(self, spec):
        core = self.core
        module = core.FreeModule(tuple(spec["basis"]))
        entries = {tuple(key): self.elem(module, texts) for key, texts in spec["table"]}
        alg = core.ConfAlgebra.associative(module, entries)
        return alg, core.ConfBimodule.adjoint(alg)

    def cochain(self, spec, module):
        entries = {tuple(idx): self.elem(module, texts) for idx, texts in spec["entries"]}
        return self.coh.Cochain.from_entries(spec["arity"], module, module, entries)

    def module_map(self, images, module):
        return self.ops.ModuleMap.from_images(
            module, module, {module.basis[j]: self.elem(module, img) for j, img in enumerate(images)}
        )

    # -- calls ----------------------------------------------------------------------

    def _timed(self, call):
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        try:
            start = time.perf_counter()
            try:
                value, error = call(), None
            except Exception as exc:  # a raising item is a failed item
                value, error = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.end_item()
        return elapsed, value, error

    def run(self, item):
        """Run and check one item: (seconds, failure reason or None, output signature).

        The signature is a callable, so that only the passes that compare
        outputs pay for it.
        """
        if item["kind"] == "cli":
            buf = io.StringIO()
            with redirect_stdout(buf):
                elapsed, code, error = self._timed(lambda: self.cli.main(item["argv"]))
            if error:
                return elapsed, error, lambda: error
            text = buf.getvalue()
            try:
                why = check_cli(item, code, text)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                why = f"unreadable output: {type(exc).__name__}: {exc}"
            return elapsed, why, lambda: signature_cli(code, text)
        return self.run_api(item)

    def run_api(self, item):
        coh = self.coh
        alg, bim = self.algebra(item["alg"])
        module = alg.module
        api = item["api"]
        if api == "dd":
            f = self.cochain(item["f"], module)
            call = lambda: coh.hochschild_d(coh.hochschild_d(f, alg, bim), alg, bim)
        elif api == "bracket":
            f, g = self.cochain(item["f"], module), self.cochain(item["g"], module)
            call = lambda: coh.derived_bracket(f, g, alg, bim)
        elif api == "perturb":
            T, T2 = self.module_map(item["T"], module), self.module_map(item["T2"], module)
            call = lambda: coh.mc_perturbation_check(T, T2, alg, bim)
        else:
            T, phi = self.module_map(item["T"], module), self.cochain(item["phi"], module)
            call = lambda: coh.modified_mc_check(T, phi, alg, bim)
        elapsed, value, error = self._timed(call)
        if error:
            return elapsed, error, lambda: error
        if api == "dd":
            arity = item["f"]["arity"] + 2
            ok = value.arity == arity and value.is_zero()
            why = None if ok else f"d(d f) of arity {value.arity} is not zero"
            sig = lambda: _table_text(value)
        elif api == "bracket":
            arity = item["f"]["arity"] + item["g"]["arity"]
            why = None if value.arity == arity else f"bracket has arity {value.arity}, expected {arity}"
            sig = lambda: _table_text(value)
        elif api == "perturb":
            ok = value.consistent and value.sum_is_O == item["sum_is_O"]
            why = None if ok else f"perturbation verdict {value.summary()}, sum_is_O expected {item['sum_is_O']}"
            sig = value.summary
        else:
            ok = value.consistent and value.is_twisted_rb == item["is_twisted_rb"]
            why = None if ok else f"modified MC verdict {value.summary()}, is_twisted_rb expected {item['is_twisted_rb']}"
            sig = value.summary
        return elapsed, why, sig


def _table_text(cochain):
    return "; ".join(f"{idx}: {value}" for idx, value in sorted(cochain.table.entries.items()))


def signature_cli(code, text):
    report = json.loads(text)
    for record in report["records"]:
        record.pop("elapsed_ms", None)
    return f"{code} {json.dumps(report, sort_keys=True)}"


# residual text already read and compared, keyed by the expected residual's identity;
# later passes repeat the same items, so each distinct output is read once
_VERIFIED = {}


def _same_residual(text, names, residual):
    key = (id(residual), hashlib.sha256(text.encode()).digest())
    if key not in _VERIFIED:
        basis = {n for n, _ in residual} | set(names)
        _VERIFIED[key] = read_elem(text, basis) == residual
    return _VERIFIED[key]


def check_cli(item, code, text):
    """Compare a JSON report with the expected exit code, records and witnesses."""
    report = json.loads(text)
    if code != item["exit"]:
        return f"exit code {code}, expected {item['exit']}"
    got, want = report["records"], item["records"]
    if len(got) != len(want):
        return f"{len(got)} records, expected {len(want)}"
    for g, w in zip(got, want):
        if (g["identity"], g["status"]) != (w["identity"], w["status"]):
            return f"record {g['identity']!r} {g['status']}, expected {w['identity']!r} {w['status']}"
        if len(g["witnesses"]) != len(w["witnesses"]):
            return f"{g['identity']}: {len(g['witnesses'])} witnesses, expected {len(w['witnesses'])}"
        for gw, (names, residual) in zip(g["witnesses"], w["witnesses"]):
            if gw["names"] != names:
                return f"{g['identity']}: witness {gw['names']}, expected {names}"
            if not _same_residual(gw["residual"], names, residual):
                return f"{g['identity']}: residual at {names} differs"
    last = (got[-1]["detail"] or "") if got else ""
    if "mc_is_O" in item:
        flags = dict(part.split("=") for part in last.split())
        if flags.get("is_O") != str(item["mc_is_O"]) or flags.get("consistent") != "True":
            return f"mc-check detail {last!r}, expected is_O={item['mc_is_O']}"
    if "bracket" in item:
        table = []
        for line in last.splitlines()[1:]:
            head, _, value = line.partition(" = ")
            if "](" in head:
                names = head.split("](", 1)[1].rstrip(")").split(", ")
                table.append([names, read_elem(value, item["basis"])])
        if table != item["bracket"]:
            return "bracket table differs from the oracle"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--items", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", metavar="SPANS")
    args = ap.parse_args(argv)

    items = json.loads(Path(args.items).read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        from confalg import cli  # noqa: F401  (load every module before patching)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(tracer)

    times, slots, failures, signatures, calib = [], [], [], [], []
    try:
        passes = 0
        started = time.perf_counter()
        deadline = started + args.seconds
        while True:
            pass_started = time.perf_counter()
            for item in items:
                calib.append(kernel_ms())
                elapsed, why, sig = runner.run(item)
                times.append(elapsed * 1000.0)
                slots.append(item["slot"])
                if why is not None:
                    failures.append(f"{item['slot']}: {why}")
                if passes == 0:
                    signatures.append(hashlib.sha256(sig().encode()).hexdigest())
            passes += 1
            now = time.perf_counter()
            if now + (now - pass_started) > deadline:  # another pass would overrun
                break
        calib.append(kernel_ms())
        loop_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "times_ms": times,
        "slots": slots,
        "calib_ms": calib,
        "failures": failures,
        "passes": passes,
        "loop_s": loop_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "signatures": signatures,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        tracer.write_spans(args.trace)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
