"""Per-layer spans and counts, recorded around confalg's public functions.

The tracer lives entirely in the benchmark: it replaces selected functions
and methods of the ``confalg`` modules with wrappers, in every module
namespace that imported them (``eval_multilinear`` is imported into
``cohomology``, ``derived`` and ``operators``, for example), and puts the
originals back in :meth:`Tracer.uninstall`.

Each wrapped call records a span (layer, start, end, parent span) in
compact typed arrays, so spans stay in memory until
:meth:`Tracer.write_spans` stores them at the end.  A layer's self time is the span's duration minus
the durations of its child spans; calls run on one thread, so children never
overlap.  Wrappers do nothing while ``active`` is false, which keeps input
construction and output checks out of the numbers.
"""

from __future__ import annotations

import array
import json
import sys
import time
from collections import Counter

# layer -> (module, class or None, attribute); one layer may wrap several methods
LAYERS = {
    "polyring.mul": [("confalg.polyring", "Poly", "__mul__")],
    "polyring.add": [("confalg.polyring", "Poly", "__add__")],
    "polyring.pow": [("confalg.polyring", "Poly", "__pow__")],
    "polyring.subst": [("confalg.polyring", "Poly", "substitute_many")],
    "confcore.eval": [("confalg.confcore", None, "eval_multilinear")],
    "confcore.elem": [("confalg.confcore", "ModElem", name)
                      for name in ("__add__", "__sub__", "__neg__", "__mul__")],
    "confcore.scan": [("confalg.confcore", None, "residual_scan")],
    "operators.verify": [("confalg.operators", None, "verify_operator")],
    "operators.apply": [("confalg.operators", "ModuleMap", "apply")],
    "derived.tabulate": [("confalg.derived", "BinaryOpTable", "from_function")],
    "cohomology.tabulate": [("confalg.cohomology", "Cochain", "from_function")],
    "cohomology.differential": [("confalg.cohomology", None, "hochschild_d")],
    "cohomology.bracket_direct": [("confalg.cohomology", None, "derived_bracket_direct")],
    "cohomology.bracket_lifts": [("confalg.cohomology", None, "derived_bracket_via_lifts")],
    "dsl.parse": [("confalg.dsl", None, "parse")],
    "dsl.run": [("confalg.dsl", None, "run")],
    "cli.render": [("confalg.dsl", "Report", "to_json_text")],
    "cli.main": [("confalg.cli", None, "main")],
}

# metric -> (layer, statistic); statistic is "calls", "self_s", "s" (inclusive) or a count
METRICS = {
    "polyring.mul.calls": ("polyring.mul", "calls"),
    "polyring.mul.self_s": ("polyring.mul", "self_s"),
    "polyring.mul.terms_out": ("polyring.mul", "terms_out"),
    "polyring.mul.max_terms": ("polyring.mul", "max_terms"),
    "polyring.subst.calls": ("polyring.subst", "calls"),
    "polyring.subst.self_s": ("polyring.subst", "self_s"),
    "polyring.add.calls": ("polyring.add", "calls"),
    "polyring.add.self_s": ("polyring.add", "self_s"),
    "polyring.pow.calls": ("polyring.pow", "calls"),
    "polyring.pow.self_s": ("polyring.pow", "self_s"),
    "confcore.eval.calls": ("confcore.eval", "calls"),
    "confcore.eval.self_s": ("confcore.eval", "self_s"),
    "confcore.eval.basis_only_calls": ("confcore.eval", "basis_only_calls"),
    "confcore.eval.distinct_keys": ("confcore.eval", "distinct_keys"),
    "confcore.elem.calls": ("confcore.elem", "calls"),
    "confcore.elem.self_s": ("confcore.elem", "self_s"),
    "confcore.scan.tuples": ("confcore.scan", "tuples"),
    "confcore.scan.witnesses": ("confcore.scan", "witnesses"),
    "confcore.scan.self_s": ("confcore.scan", "self_s"),
    "operators.verify.calls": ("operators.verify", "calls"),
    "operators.verify.self_s": ("operators.verify", "self_s"),
    "operators.apply.calls": ("operators.apply", "calls"),
    "operators.apply.self_s": ("operators.apply", "self_s"),
    "derived.tabulate.calls": ("derived.tabulate", "calls"),
    "derived.tabulate.tuples": ("derived.tabulate", "tuples"),
    "derived.tabulate.self_s": ("derived.tabulate", "self_s"),
    "cohomology.tabulate.calls": ("cohomology.tabulate", "calls"),
    "cohomology.tabulate.tuples": ("cohomology.tabulate", "tuples"),
    "cohomology.tabulate.self_s": ("cohomology.tabulate", "self_s"),
    "cohomology.differential.calls": ("cohomology.differential", "calls"),
    "cohomology.differential.s": ("cohomology.differential", "s"),
    "cohomology.bracket_direct.s": ("cohomology.bracket_direct", "s"),
    "cohomology.bracket_lifts.s": ("cohomology.bracket_lifts", "s"),
    "dsl.parse.self_s": ("dsl.parse", "self_s"),
    "dsl.run.self_s": ("dsl.run", "self_s"),
    "dsl.records": ("cli.render", "records"),
    "dsl.error_records": ("cli.render", "error_records"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "cli.render.s": ("cli.render", "s"),
}

TIME_STATS = ("self_s", "s")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    def __init__(self):
        from confalg.polyring import Poly, as_poly

        self._one, self._as_poly = Poly.one(), as_poly
        self.active = False
        self.layers = list(LAYERS)
        self.span_layer = array.array("H")
        self.span_parent = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stats = {layer: Counter() for layer in self.layers}
        self._stack = []
        self._keys = set()
        # holds each evaluated table until the item ends, so that its id() is not reused
        self._tables = {}
        self._undo = []

    # -- layer hooks ----------------------------------------------------------------

    def _before(self, layer, args, kwargs):
        if layer == "confcore.eval":
            table = _arg(args, kwargs, 0, "table")
            elems = _arg(args, kwargs, 1, "args")
            weights = _arg(args, kwargs, 2, "weights")
            self._tables[id(table)] = table
            self._keys.add((id(table), tuple(self._as_poly(w) for w in weights)))
            if all(sum(1 for c in e.coeffs if c) == 1 and self._one in e.coeffs for e in elems):
                self.stats[layer]["basis_only_calls"] += 1
        elif layer == "confcore.scan":
            items = self._count_items(_arg(args, kwargs, 1, "items"))
            if "items" in kwargs:
                kwargs = dict(kwargs, items=items)
            else:
                args = (args[0], items) + tuple(args[2:])
        return args, kwargs

    def _count_items(self, items):
        stats = self.stats["confcore.scan"]
        for item in items:
            stats["tuples"] += 1
            yield item

    def _after(self, layer, args, result):
        stats = self.stats[layer]
        if layer == "polyring.mul" and hasattr(result, "items"):
            n = sum(1 for _ in result.items())
            stats["terms_out"] += n
            stats["max_terms"] = max(stats["max_terms"], n)
        elif layer == "confcore.scan":
            stats["witnesses"] += len(result.witnesses)
        elif layer == "derived.tabulate":
            stats["tuples"] += result.module.rank ** 2
        elif layer == "cohomology.tabulate":
            stats["tuples"] += result.input_module.rank ** result.arity
        elif layer == "cli.render":
            records = args[0].records
            stats["records"] += len(records)
            stats["error_records"] += sum(1 for r in records if r.status == "error")

    # -- wrapping -----------------------------------------------------------------------

    def _wrap(self, layer, fn):
        tracer, lid, perf = self, self.layers.index(layer), time.perf_counter
        hooked_before = layer in ("confcore.eval", "confcore.scan")
        stats = self.stats[layer]

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hooked_before:
                args, kwargs = tracer._before(layer, args, kwargs)
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_layer.append(lid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.span_end[idx] = end
                duration = end - start
                stats["calls"] += 1
                stats["s"] += duration
                stats["self_s"] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            tracer._after(layer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "confalg" or name.startswith("confalg.")]
        for layer, targets in LAYERS.items():
            for module_name, owner, attr in targets:
                module = sys.modules[module_name]
                if owner is None:
                    original = getattr(module, attr)
                    wrapper = self._wrap(layer, original)
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._undo.append((mod, name, value))
                                setattr(mod, name, wrapper)
                    continue
                cls = getattr(module, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._undo.append((cls, attr, raw))
                    setattr(cls, attr, classmethod(self._wrap(layer, raw.__func__)))
                    continue
                wrapper = self._wrap(layer, raw)
                for name, value in list(cls.__dict__.items()):
                    if value is raw:  # aliases such as __rmul__ = __mul__
                        self._undo.append((cls, name, value))
                        setattr(cls, name, wrapper)

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- items and results ------------------------------------------------------------------

    def end_item(self):
        """Close the per-item scope of the distinct (table, weights) keys."""
        self.stats["confcore.eval"]["distinct_keys"] += len(self._keys)
        self._keys.clear()
        self._tables.clear()

    def metrics(self):
        out = {}
        for metric, (layer, stat) in METRICS.items():
            value = self.stats[layer][stat]
            out[metric] = float(value) if stat in TIME_STATS else int(value)
        return out

    def write_spans(self, path):
        """Store the spans: a JSON header beside a binary file of four arrays."""
        with open(path, "wb") as handle:
            for arr in (self.span_layer, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)
        header = {
            "layers": self.layers,
            "count": len(self.span_start),
            "arrays": [["layer", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
        }
        with open(str(path) + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)
