"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of each pericat layer
module, in every pericat module namespace that holds it, by a wrapper that
records one span per call (name, start, end, parent span, item id).  Calls
that cross modules (``glmult`` calling ``kl_eval_one``) and recursion
(``kl_polynomial`` calling itself through its module global) therefore
pass through the wrappers.  A span's self time is its duration minus the
time its child spans cover; calls and self time are aggregated for every
call, while the span list itself is kept in memory up to ``span_cap``
entries and written out at the end.

Counts that need a call's arguments or result are taken by per-function
hooks at the same wrappers.  Time spent in ``FormalChar`` methods, in
private helpers and in the standard library counts toward the self time of
the public function that called it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "weights",
    "weyl",
    "linkage",
    "glmult",
    "characters",
    "tilting",
    "pe3.tables",
    "pe3.verify",
    "pe3.appendix",
    "cli",
)


def _public_functions(module) -> dict:
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


class Tracer:
    def __init__(self, hooks: dict, span_cap: int):
        self.hooks = hooks
        self.span_cap = span_cap
        self.spans: list = []
        self.dropped = 0
        self.stack: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.item = -1
        self._next_id = 0
        self._restore: list = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["pericat." + layer]
            for name, fn in _public_functions(module).items():
                qualname = f"{layer}.{name}"
                wrappers[id(fn)] = self._wrap(qualname, fn, self.hooks.get(qualname))
        for modname, module in list(sys.modules.items()):
            if modname != "pericat" and not modname.startswith("pericat."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, qualname: str, fn, hook):
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            result = exc = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[qualname] += 1
                self.self_s[qualname] += duration - frame[1]
                if len(self.spans) < self.span_cap:
                    self.spans.append((span_id, qualname, start, end, parent, self.item))
                else:
                    self.dropped += 1
                if hook is not None:
                    hook(self.counts, args, result, exc)

        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, item in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "item": item}
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": len(self.spans),
            "dropped": self.dropped,
        }


# --- counting hooks: hook(counts, args, result, exc) -------------------------


def _kl_hook(seen: set):
    def hook(counts, args, result, exc):
        key = (tuple(args[0]), tuple(args[1]))
        if key not in seen:
            seen.add(key)
            counts["weyl.kl.new_pairs"] += 1

    return hook


def _set_size(counts, args, result, exc):
    if exc is None:
        counts["linkage.bfs.nodes"] += len(result)


def _verma_nonzero(counts, args, result, exc):
    if exc is None and result:
        counts["glmult.verma.nonzero"] += 1


def _convert_terms(counts, args, result, exc):
    if exc is None:
        counts["characters.convert.terms_out"] += len(result.terms)


def _theta_zero(counts, args, result, exc):
    if exc is None and result.is_zero():
        counts["characters.theta.zero"] += 1


def _wt_terms(counts, args, result, exc):
    if exc is None:
        counts["tilting.wt.terms"] += len(result.terms)


def _lookup_outcome(weakly_typical):
    def hook(counts, args, result, exc):
        if exc is not None:
            counts["pe3.tables.lookup.misses"] += type(exc).__name__ == "NoTableEntry"
            return
        lam = args[0]
        p = args[1] if len(args) > 1 and args[1] is not None else (1,) * len(lam)
        if weakly_typical(lam, tuple(p)):
            counts["pe3.tables.lookup.engine_hits"] += 1
        else:
            counts["pe3.tables.lookup.table_hits"] += 1

    return hook


def _checked_reports(counts, args, result, exc):
    if exc is None:
        reports = result if isinstance(result, list) else [result]
        counts["pe3.verify.checked"] += sum(r.checked for r in reports)


def _appendix_steps(counts, args, result, exc):
    if exc is None:
        counts["pe3.appendix.steps"] += len(result)


def default_hooks(weakly_typical) -> dict:
    return {
        "weyl.kl_polynomial": _kl_hook(set()),
        "linkage.strong_down_set": _set_size,
        "linkage.strong_up_set": _set_size,
        "glmult.verma_simple_mult": _verma_nonzero,
        "characters.nabla_sum_to_delta_sum": _convert_terms,
        "characters.delta_sum_to_nabla_sum": _convert_terms,
        "characters.theta_char": _theta_zero,
        "tilting.weakly_typical_tilting": _wt_terms,
        "pe3.tables.lookup_tilting_pe3": _lookup_outcome(weakly_typical),
        "pe3.verify.verify_tables": _checked_reports,
        "pe3.verify.verify_theorem_D": _checked_reports,
        "pe3.verify.pe2_property_check": _checked_reports,
        "pe3.appendix.replay_appendix": _appendix_steps,
    }


# --- per-layer metrics from summed summaries -----------------------------------

BFS = ("linkage.strongly_linked", "linkage.strong_down_set", "linkage.strong_up_set")
CONVERT = ("characters.nabla_sum_to_delta_sum", "characters.delta_sum_to_nabla_sum")


def merge(summaries: list) -> dict:
    total = {"calls": Counter(), "self_s": defaultdict(float), "counts": Counter(),
             "spans": 0, "dropped": 0}
    for s in summaries:
        total["calls"].update(s["calls"])
        for name, v in s["self_s"].items():
            total["self_s"][name] += v
        total["counts"].update(s["counts"])
        total["spans"] += s["spans"]
        total["dropped"] += s["dropped"]
    return total


def layer_metrics(total: dict) -> dict:
    """The declared per-layer metrics, as ``name -> (value, unit)``."""
    calls, self_s, counts = total["calls"], total["self_s"], total["counts"]

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.rsplit(".", 1)[0] == layer)

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.rsplit(".", 1)[0] == layer)

    def ratio(num, den):
        return num / den if den else 0.0

    verma = calls["glmult.verma_simple_mult"]
    theta = calls["characters.theta_char"]
    out = {
        "weights.calls": (layer_calls("weights"), "count"),
        "weights.self_s": (layer_self("weights"), "s"),
        "weyl.kl.calls": (calls["weyl.kl_polynomial"], "count"),
        "weyl.kl.new_pairs": (counts["weyl.kl.new_pairs"], "count"),
        "weyl.kl.self_s": (self_s["weyl.kl_polynomial"], "s"),
        "weyl.bruhat.calls": (calls["weyl.bruhat_leq"], "count"),
        "weyl.self_s": (layer_self("weyl"), "s"),
        "linkage.bfs.calls": (sum(calls[k] for k in BFS), "count"),
        "linkage.bfs.nodes": (counts["linkage.bfs.nodes"], "count"),
        "linkage.block_label.calls": (calls["linkage.block_label"], "count"),
        "linkage.self_s": (layer_self("linkage"), "s"),
        "glmult.verma.calls": (verma, "count"),
        "glmult.verma.nonzero_ratio": (ratio(counts["glmult.verma.nonzero"], verma), "ratio"),
        "glmult.parabolic.calls": (calls["glmult.parabolic_verma_simple_mult"], "count"),
        "glmult.self_s": (layer_self("glmult"), "s"),
        "characters.convert.calls": (sum(calls[k] for k in CONVERT), "count"),
        "characters.convert.terms_out": (counts["characters.convert.terms_out"], "count"),
        "characters.theta.calls": (theta, "count"),
        "characters.theta.zero_ratio": (ratio(counts["characters.theta.zero"], theta), "ratio"),
        "characters.self_s": (layer_self("characters"), "s"),
        "tilting.wt.calls": (calls["tilting.weakly_typical_tilting"], "count"),
        "tilting.wt.terms": (counts["tilting.wt.terms"], "count"),
        "tilting.self_s": (layer_self("tilting"), "s"),
        "pe3.tables.lookup.calls": (calls["pe3.tables.lookup_tilting_pe3"], "count"),
        "pe3.tables.lookup.engine_hits": (counts["pe3.tables.lookup.engine_hits"], "count"),
        "pe3.tables.lookup.table_hits": (counts["pe3.tables.lookup.table_hits"], "count"),
        "pe3.tables.lookup.misses": (counts["pe3.tables.lookup.misses"], "count"),
        "pe3.tables.self_s": (layer_self("pe3.tables"), "s"),
        "pe3.verify.checked": (counts["pe3.verify.checked"], "count"),
        "pe3.verify.decompose.calls": (calls["pe3.verify.decompose_into_tiltings"], "count"),
        "pe3.verify.self_s": (layer_self("pe3.verify"), "s"),
        "pe3.appendix.steps": (counts["pe3.appendix.steps"], "count"),
        "pe3.appendix.self_s": (layer_self("pe3.appendix"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
    }
    return out
