"""Spans and counts taken from outside the program.

Each patch point replaces one public function at the name its caller
imported (``aaweave.weaver.merge_group`` and so on) with a wrapper that
records a span (name, start, end, parent, op id) and counts computed
from the call's arguments and result.  Spans stay in memory and are
written out when the run ends.  The time spent computing counts is
recorded as a ``bench.count`` span under the caller, so it never lands in
a layer's self time; it does show in the traced latency, and so in the
tracing overhead.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def tree_nodes(tree) -> int:
    """Node count of an operator tree, read off the node fields."""
    n = 1
    for attr in ("child", "then", "orelse"):
        sub = getattr(tree, attr, None)
        if sub is not None:
            n += tree_nodes(sub)
    for sub in getattr(tree, "children", ()):
        n += tree_nodes(sub)
    return n


def _joinpoints(c, args, result):
    c["matching.joinpoints"] += len(result)


def _match(c, args, result):
    joinpoints, aa = args[0], args[1]
    c["matching.match_tests"] += len(aa.pointcut) * len(joinpoints)
    c["matching.candidates"] += sum(len(js) for js in result.values())


def _combinations(c, args, result):
    c["matching.combinations.count"] += len(result)


def _detect(c, args, result):
    groups, plan = result
    c["merge.anchors"] += len(groups) + len(plan.plain_bindings)
    c["merge.groups"] += len(groups)


def _fold(c, args, result):
    trees = args[0].trees
    c["merge.fold_steps"] += len(trees) - 1
    c["merge.tree_nodes_in"] += sum(tree_nodes(t) for t in trees)
    c["merge.tree_nodes_out"] += tree_nodes(result)


def _lower(c, args, result):
    c["merge.lower.instructions"] += len(result)


def _apply(c, args, result):
    c["model.apply_instructions.instructions"] += len(args[1])


def _diff(c, args, result):
    c["model.diff.instructions"] += len(result)


def _cascade(c, args, result):
    reports = result[1]
    c["weaver.cycles"] += len(reports)
    c["weaver.failures"] += sum(1 for r in reports if r.failure)


def _batch(c, args, result):
    c["sim.batches_total"] += 1


# (module, name the module imported, span name, counter)
PATCH_POINTS = (
    ("aaweave.weaver", "collect_joinpoints", "matching.collect_joinpoints", _joinpoints),
    ("aaweave.weaver", "match_pointcut", "matching.match_pointcut", _match),
    ("aaweave.weaver", "combinations", "matching.combinations", _combinations),
    ("aaweave.weaver", "instantiate_advice", "matching.instantiate_advice", None),
    ("aaweave.weaver", "detect_conflicts", "merge.detect_conflicts", _detect),
    ("aaweave.weaver", "merge_group", "merge.merge_group", _fold),
    ("aaweave.weaver", "lower", "merge.lower", _lower),
    ("aaweave.weaver", "apply_instructions", "model.apply_instructions", _apply),
    ("aaweave.sim", "apply_instructions", "model.apply_instructions", _apply),
    ("aaweave.weaver", "diff", "model.diff", _diff),
    ("aaweave.weaver", "weave_cascade", "weaver.weave_cascade", _cascade),
    ("aaweave.sim", "weave_cascade", "weaver.weave_cascade", _cascade),
    ("aaweave.sim", "reweave", "weaver.reweave", _batch),
    ("aaweave.cli", "reweave", "weaver.reweave", None),
    ("aaweave.sim", "run_scenario", "sim.run_scenario", None),
    ("aaweave.cli", "parse_aa", "language.parse_aa", None),
    ("aaweave.cli", "assembly_to_json", "model.export", None),
    ("aaweave.cli", "to_dot", "model.export", None),
    ("aaweave.cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in PATCH_POINTS))

# A span with one of these names starts an op unless an enclosing span
# already did: a one-shot weave, one re-weave of a replay, one CLI call.
OP_SPANS = {"weaver.weave_cascade", "weaver.reweave", "cli.main"}

# Counts reported per op; the two ratios and sim.batches are derived.
PER_OP_COUNTS = (
    "matching.joinpoints",
    "matching.match_tests",
    "matching.candidates",
    "matching.combinations.count",
    "matching.instantiate_advice.calls",
    "merge.anchors",
    "merge.groups",
    "merge.fold_steps",
    "merge.tree_nodes_in",
    "merge.tree_nodes_out",
    "merge.lower.instructions",
    "model.apply_instructions.instructions",
    "model.diff.instructions",
    "weaver.cycles",
    "weaver.failures",
    "language.parse_aa.calls",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        calls = name + ".calls"

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[calls] += 1
            if count is not None:
                count(counts, args, result)
                spans.append(["bench.count", span[2], clock(), stack[-1] if stack else -1])
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, count in PATCH_POINTS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(name, fn, count))
            self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, fn = self._restore.pop()
            setattr(mod, attr, fn)

    def self_ns(self) -> dict[str, int]:
        """Per span name: total duration minus the time its children cover."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def op_ids(self) -> list:
        ops: list = []
        for i, (name, _, _, parent) in enumerate(self.spans):
            inherited = ops[parent] if parent >= 0 else None
            ops.append(inherited if inherited is not None else (i if name in OP_SPANS else None))
        return ops

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for (name, start, end, parent), op in zip(self.spans, self.op_ids()):
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, ops: int, sort_key_delta: tuple[int, int]) -> dict[str, float]:
        """Per-layer metrics for ``ops`` traced ops: self times and counts per
        op, ``sim.batches`` per replay, and the two ratios."""
        ops = max(ops, 1)
        c = self.counts
        self_ns = self.self_ns()
        out = {f"{name}.self_ms": self_ns.get(name, 0) / 1e6 / ops for name in SPAN_NAMES}
        out.update({name: c.get(name, 0) / ops for name in PER_OP_COUNTS})
        tests = c.get("matching.match_tests", 0)
        out["matching.match_yield"] = c.get("matching.candidates", 0) / tests if tests else 0.0
        replays = c.get("sim.run_scenario.calls", 0)
        out["sim.batches"] = c.get("sim.batches_total", 0) / replays if replays else 0.0
        hits, misses = sort_key_delta
        out["optree.sort_key.hits"] = hits / ops
        out["optree.sort_key.misses"] = misses / ops
        out["optree.sort_key.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out
