"""Outside-in tracing of the dbnet library for the benchmark's traced run.

The tracer replaces module attributes that callers look up at call time
(``dbnet.bisim.build_lts``, ``dbnet.model.fire``, ``Marking.plus`` ...)
with wrappers that record one span per call: (name, start, end, parent).
Spans are kept in memory and written out when the job ends; a layer's
self time is its spans' duration minus the time covered by their child
spans.  Nothing inside the package is edited, so the hooks follow the
public names only: when a name disappears, its metrics are reported as
absent with a note instead of as 0.
"""

from __future__ import annotations

import importlib
import time

# (owner, attribute, span name).  The owner is a module, or "module:Class".
HOOKS = (
    ("dbnet.dsl", "parse_model", "dsl.parse_model"),
    ("dbnet.translate", "translate", "translate.translate"),
    ("dbnet.mutations", "apply_mutation", "mutations.apply_mutation"),
    ("dbnet.bisim", "translate", "translate.translate"),
    ("dbnet.bisim", "build_lts", "model.build_lts"),
    ("dbnet.bisim", "cpn_build_lts", "cpn.cpn_build_lts"),
    ("dbnet.bisim", "flatten", "bisim.flatten"),
    ("dbnet.bisim", "check_weak_bisim", "bisim.check_weak_bisim"),
    ("dbnet.model", "build_lts", "model.build_lts"),
    ("dbnet.model", "enabled_bindings", "model.enabled_bindings"),
    ("dbnet.model", "fire", "model.fire"),
    ("dbnet.model", "eval_ucq", "queries.eval_ucq"),
    ("dbnet.model", "apply_action", "relational.apply_action"),
    ("dbnet.cpn", "cpn_enabled", "cpn.cpn_enabled"),
    ("dbnet.marking:Marking", "minus", "marking.update"),
    ("dbnet.marking:Marking", "plus", "marking.update"),
    ("dbnet.lts", "lts_text", "lts.lts_text"),
)

# Per-layer metric -> (unit, span names whose hooks it needs).  A metric
# whose name ends in ``.calls``, ``.self_s`` or ``.s`` (total time) reads
# that field of the span it needs; the two ratios are formed in
# ``layer_metrics``; every other metric is a counter of the same name.
METRICS = {
    "marking.update.calls": ("count", ("marking.update",)),
    "marking.update.self_s": ("s", ("marking.update",)),
    "cpn.cpn_enabled.calls": ("count", ("cpn.cpn_enabled",)),
    "cpn.cpn_enabled.self_s": ("s", ("cpn.cpn_enabled",)),
    "cpn.bindings_per_call": ("bindings/call", ("cpn.cpn_enabled",)),
    "cpn.cpn_build_lts.self_s": ("s", ("cpn.cpn_build_lts",)),
    "cpn.states": ("count", ("cpn.cpn_build_lts",)),
    "cpn.edges": ("count", ("cpn.cpn_build_lts",)),
    "cpn.truncated_jobs": ("count", ("cpn.cpn_build_lts",)),
    "bisim.flatten.self_s": ("s", ("bisim.flatten",)),
    "bisim.check_weak_bisim.self_s": ("s", ("bisim.check_weak_bisim",)),
    "bisim.stable_states": ("count", ("bisim.flatten",)),
    "bisim.interior_states": ("count", ("bisim.flatten",)),
    "bisim.relation_pairs": ("count", ("bisim.check_weak_bisim",)),
    "model.build_lts.self_s": ("s", ("model.build_lts",)),
    "model.enabled_bindings.calls": ("count", ("model.enabled_bindings",)),
    "model.enabled_bindings.self_s": ("s", ("model.enabled_bindings",)),
    "model.fire.calls": ("count", ("model.fire",)),
    "model.fire.self_s": ("s", ("model.fire",)),
    "model.states": ("count", ("model.build_lts",)),
    "model.edges": ("count", ("model.build_lts",)),
    "relational.apply_action.calls": ("count", ("relational.apply_action",)),
    "relational.apply_action.self_s": ("s", ("relational.apply_action",)),
    "relational.rollback_share": ("ratio", ("relational.apply_action",)),
    "queries.eval_ucq.calls": ("count", ("queries.eval_ucq",)),
    "queries.eval_ucq.distinct": ("count", ("queries.eval_ucq",)),
    "queries.eval_ucq.self_s": ("s", ("queries.eval_ucq",)),
    "translate.s": ("s", ("translate.translate",)),
    "translate.transitions": ("count", ("translate.translate",)),
    "translate.places": ("count", ("translate.translate",)),
    "dsl.parse_model.s": ("s", ("dsl.parse_model",)),
    "mutations.apply_mutation.s": ("s", ("mutations.apply_mutation",)),
    "lts.lts_text.s": ("s", ("lts.lts_text",)),
}


# Metric name suffix -> the span field it reads.
SPAN_FIELDS = {"calls": "calls", "self_s": "self_s", "s": "total_s"}


class Tracer:
    """Span recorder plus the counters read off the hooked calls' results."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = [-1]
        self.counters = {}
        self.notes = {}  # span name -> why its hook is missing
        self.installed = set()
        self._queries = set()
        self._committed = None

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _add(self, counter, n):
        self.counters[counter] = self.counters.get(counter, 0) + n

    # -- result callbacks ----------------------------------------------------

    def _on_lts(self, prefix):
        def record(_args, _kwargs, lts):
            self._add(f"{prefix}.states", lts.state_count)
            self._add(f"{prefix}.edges", lts.edge_count)
            if prefix == "cpn" and lts.truncated:
                self.counters["cpn.truncated_jobs"] = 1  # one tracer per job

        return record

    def _on_flatten(self, args, kwargs, lts):
        classes = args[1] if len(args) > 1 else kwargs.get("classes")
        if classes is None:  # the source side: every state is stable
            return
        stable = sum(1 for s in lts.states if lts.annotations[s]["stable"])
        self._add("bisim.stable_states", stable)
        self._add("bisim.interior_states", len(lts.states) - stable)

    def _on_check(self, _args, _kwargs, result):
        if result.relation is not None:
            self._add("bisim.relation_pairs", len(result.relation))

    def _on_enabled(self, _args, _kwargs, result):
        self._add("cpn.bindings", len(result))

    def _on_action(self, _args, _kwargs, result):
        if result[1] != self._committed:
            self._add("relational.rollbacks", 1)

    def _on_query(self, args, _kwargs, _result):
        # Queries live as long as their model, so their identity is a key.
        self._queries.add((args[0], id(args[1])))
        self.counters["queries.eval_ucq.distinct"] = len(self._queries)

    def _on_translate(self, _args, _kwargs, out):
        self._add("translate.transitions", len(out.net.transitions))
        self._add("translate.places", len(out.net.places))

    def _callback(self, name):
        return {
            "model.build_lts": self._on_lts("model"),
            "cpn.cpn_build_lts": self._on_lts("cpn"),
            "bisim.flatten": self._on_flatten,
            "bisim.check_weak_bisim": self._on_check,
            "cpn.cpn_enabled": self._on_enabled,
            "relational.apply_action": self._on_action,
            "queries.eval_ucq": self._on_query,
            "translate.translate": self._on_translate,
        }.get(name)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every hook target that exists; note the ones that do not."""
        self._committed = importlib.import_module("dbnet.relational").COMMITTED
        for owner, attr, name in HOOKS:
            module_name, _, class_name = owner.partition(":")
            target = importlib.import_module(module_name)
            if class_name:
                target = getattr(target, class_name, None)
            fn = getattr(target, attr, None) if target is not None else None
            if fn is None:
                self.notes.setdefault(name, f"hook target {owner}.{attr} not found")
                continue
            setattr(target, attr, self.wrap(fn, name, self._callback(name)))
            self.installed.add(name)
        # A name counts as hooked only if every one of its targets exists.
        self.installed -= set(self.notes)

    # -- reduction -----------------------------------------------------------

    def by_name(self) -> dict:
        """span name -> {"calls", "total_s", "self_s"}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _parent), covered in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
        return out

    def summary(self) -> dict:
        """What one job hands back to the parent: per-name span totals,
        counters, the installed hooks and notes on the missing ones."""
        return {
            "spans": self.by_name(),
            "counters": dict(self.counters),
            "installed": sorted(self.installed),
            "notes": dict(self.notes),
        }

    def write(self, path):
        """Dump every span as a tab-separated line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.7f}\t{end:.7f}\t{parent}\n")


def layer_metrics(summaries) -> dict:
    """Per-layer metrics of one pass, from the summaries of its jobs.

    Returns metric -> (value or None, note or None).  Times and counts are
    summed over jobs; ratios are formed from the sums.
    """
    spans: dict = {}
    counters: dict = {}
    installed = set(summaries[0]["installed"]) if summaries else set()
    notes: dict = {}
    for s in summaries:
        installed &= set(s["installed"])
        notes.update(s["notes"])
        for name, agg in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += agg[k]
        for k, v in s["counters"].items():
            counters[k] = counters.get(k, 0) + v

    idle = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name, field):
        return spans.get(name, idle)[field]

    def ratio(num, den):
        return num / den if den else 0.0

    ratios = {
        "cpn.bindings_per_call": ratio(
            counters.get("cpn.bindings", 0), span("cpn.cpn_enabled", "calls")
        ),
        "relational.rollback_share": ratio(
            counters.get("relational.rollbacks", 0), span("relational.apply_action", "calls")
        ),
    }

    out = {}
    for metric, (_unit, needs) in METRICS.items():
        missing = [n for n in needs if n not in installed]
        field = SPAN_FIELDS.get(metric.rpartition(".")[2])
        if missing:
            out[metric] = (None, "; ".join(notes.get(n, f"{n} not hooked") for n in missing))
        elif metric in ratios:
            out[metric] = (ratios[metric], None)
        elif field:
            out[metric] = (span(needs[0], field), None)
        else:
            out[metric] = (counters.get(metric, 0), None)
    return out
