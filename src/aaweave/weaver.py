"""End-to-end weaving: mono-cycle, cascaded multi-cycle, union, re-weave.

A weave never mutates its input assembly.  Every cycle runs match ->
combine -> instantiate -> merge -> lower on its input and applies the
resulting instructions; cascades fold cycles in rank order, so each cycle
sees everything earlier cycles produced.  Withdrawal is recomputation: the
target configuration is always rewoven from the aspect-free base and the
difference against the currently deployed assembly is emitted as
instructions.

Every weave grounds, folds and lowers through a :class:`Memo`, which a
replay shares among the weaves of its session.

Several cascades weave as their union, whose ranks list the aspects in a
canonical order; together with the symmetric merge operator this makes
results independent of how callers hand in and order their aspect sets.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .language import AspectOfAssembly
from .matching import (
    GLOBAL_NAMESPACE,
    FreshNames,
    JoinpointIndex,
    collect_joinpoints,
    combinations,
    instantiate_advice,
    match_pointcut,
)
from .merge import CallWithoutOriginal, DelegateClash, NestedTooDeeply, detect_conflicts, lower, merge_group, op_stems
from .model import Assembly, Instruction, ModelError, apply_instructions, diff

# Timed phases of one cycle, in pipeline order; every report carries
# exactly these ``durations_us`` keys.  ``merge`` spans conflict detection
# plus the fold, ``lower`` spans lowering plus applying the instructions.
PHASES = ("match", "combine", "factory", "merge", "lower")


class NameCollision(Exception):
    """Two distinct aspects share a (namespace, name) pair."""


class MemoTable(dict):
    """One pure step's memo: ``key -> (pin, value)``, counting its ``hits``.

    A step takes its fresh ids before it looks up and puts them in its
    key, so a hit names exactly what a miss would.  The rest of the key is
    all the step reads, flat, with ``id()``s standing for the objects the
    entry pins, so no id in a live key is reused.  A hit returns the very
    value stored, so all it emits passes ``diff`` by identity.
    """

    hits = 0

    def recall(self, key, pin, build):
        """The value stored under ``key``, or else ``build()``'s, stored
        with ``pin``; a ``build`` that raises stores nothing."""
        entry = self.get(key)
        if entry is not None:
            self.hits += 1
            return entry[1]
        value = build()
        self[key] = (pin, value)
        return value


@dataclass
class Memo:
    """The memo of one weave, or of every weave of a replay session.

    ``folds`` keys a group on its originals and the ids of its rule trees
    as a multiset (``CALL`` can land twice), pinning all its trees, and
    stores the folded tree and its ``op_stems``.  ``lowerings`` stores a
    group's instructions ready made (see ``merge._lower_group``).

    ``stamps`` and ``plain_bindings`` are ``detect_conflicts``'s: one
    ``Woven`` per (contributors, cycle), and one plain ``Binding`` per
    (anchor, leaf, stamp), keyed on the ``id()``s of all three and pinning
    the leaf, so that a weave with no hits pays no hash of a port.  Both
    make each re-weave hand on the objects the last one deployed.
    """

    instances: MemoTable = field(default_factory=MemoTable)
    folds: MemoTable = field(default_factory=MemoTable)
    lowerings: MemoTable = field(default_factory=MemoTable)
    stamps: dict = field(default_factory=dict)
    plain_bindings: MemoTable = field(default_factory=MemoTable)


@dataclass(frozen=True)
class Cascade:
    """An ordered list of unordered aspect sets, one set per weaving cycle."""

    name: str
    namespace: str = GLOBAL_NAMESPACE
    cycles: tuple[tuple[AspectOfAssembly, ...], ...] = ()

    def resolved(self) -> list[list[tuple[AspectOfAssembly, str]]]:
        """Per-cycle (aspect, effective namespace) pairs."""
        out = []
        for rank in self.cycles:
            out.append([(aa, aa.namespace if aa.namespace is not None else self.namespace) for aa in rank])
        return out

    def aa_names(self) -> set[str]:
        return {aa.name for rank in self.cycles for aa in rank}


@dataclass
class WeaveReport:
    cycle: int = 0
    applied: list[tuple[str, int, int]] = field(default_factory=list)  # (aa, cycle, combinations)
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (aa, reason)
    conflict_groups: int = 0
    conflict_fraction: float = 0.0
    merge_ops: int = 0
    # Hits in the memo's instances, folds and lowerings (``MemoTable.hits``);
    # ``merge_ops`` still counts the reused groups' fold steps.
    instances_reused: int = 0
    folds_reused: int = 0
    lowerings_reused: int = 0
    durations_us: dict[str, float] = field(default_factory=dict)
    # (aspect, producer) pairs where a pointcut bound another aspect's
    # product; cross-cascade triggering is surfaced here, not policed.
    cross_aspect_matches: list[tuple[str, str]] = field(default_factory=list)
    failure: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "applied": [
                {"aa": aa, "cycle": cycle, "combinations": n} for aa, cycle, n in self.applied
            ],
            "skipped": [{"aa": aa, "reason": reason} for aa, reason in self.skipped],
            "conflict_groups": self.conflict_groups,
            "conflict_fraction": round(self.conflict_fraction, 6),
            "merge_ops": self.merge_ops,
            "instances_reused": self.instances_reused,
            "folds_reused": self.folds_reused,
            "lowerings_reused": self.lowerings_reused,
            "durations_us": {k: round(v, 3) for k, v in self.durations_us.items()},
            "cross_aspect_matches": [
                {"aa": aa, "producer": producer} for aa, producer in self.cross_aspect_matches
            ],
            "failure": self.failure,
        }


def _lap(durations: dict[str, float], phase: str, since: int) -> int:
    """Charge the time since ``since`` to ``phase``; return the new mark."""
    now = time.perf_counter_ns()
    durations[phase] += (now - since) / 1000.0
    return now


def _weave_cycle(
    base: Assembly,
    pairs: list[tuple[AspectOfAssembly, str]],
    cycle_index: int,
    fresh: FreshNames,
    memo: Memo,
) -> tuple[Assembly, WeaveReport]:
    report = WeaveReport(cycle=cycle_index, durations_us=dict.fromkeys(PHASES, 0.0))
    durations = report.durations_us
    weaving_names = {aa.name for aa, _ in pairs}
    instances = []
    index_by_ns: dict[str, JoinpointIndex] = {}
    instance_hits = memo.instances.hits
    # Only a woven component is another aspect's product, so a cycle whose
    # input holds none, as every first cycle over a base does, crosses none.
    crossing = any(c.provenance is not None for c in base.components.values())

    for aa, namespace in pairs:
        mark = time.perf_counter_ns()
        index = index_by_ns.get(namespace)
        if index is None:
            index = collect_joinpoints(base, cycle_index, namespace, weaving_names)
            index_by_ns[namespace] = index
        candidates = match_pointcut(index, aa)
        mark = _lap(durations, "match", mark)
        combos = combinations(candidates)
        mark = _lap(durations, "combine", mark)
        if not combos:
            dry = sorted(v for v, js in candidates.items() if not js)
            report.skipped.append((aa.name, f"no joinpoint for {', '.join(dry)}"))
            continue
        for combo in combos:
            instances.append(
                instantiate_advice(aa, combo, fresh, cycle=cycle_index, namespace=namespace, memo=memo.instances)
            )
        _lap(durations, "factory", mark)
        report.applied.append((aa.name, cycle_index, len(combos)))
        if crossing:
            # Some combination exists, so every candidate is bound by one.
            crossed = {
                (aa.name, p.aa_name)
                for ports in candidates.values()
                for port in ports
                if (p := base.components[port.component_id].provenance) is not None and p.aa_name != aa.name
            }
            report.cross_aspect_matches.extend(sorted(crossed))
    report.instances_reused = memo.instances.hits - instance_hits

    # Any weave-time error aborts the cycle atomically: its input assembly
    # is returned unchanged and the message lands in ``report.failure``.
    mark, phase = time.perf_counter_ns(), "merge"
    fold_hits, lowering_hits = memo.folds.hits, memo.lowerings.hits
    try:
        groups, plan = detect_conflicts(base, instances, memo, cycle=cycle_index)
        folded = []
        for group in groups:
            originals = group.originals
            key = (originals, tuple(sorted([id(tree) for tree in group.trees[len(originals):]])))
            try:
                tree, stems = memo.folds.recall(key, group.trees, lambda: (tree := merge_group(group), op_stems(tree)))
            except RecursionError:
                raise NestedTooDeeply(group.anchor) from None
            folded.append((group, tree, stems))
        report.merge_ops = sum(len(group.trees) - 1 for group in groups)
        mark, phase = _lap(durations, phase, mark), "lower"
        instructions = lower(plan, folded, fresh, memo.lowerings)
        report.lowerings_reused = memo.lowerings.hits - lowering_hits
        result = apply_instructions(base, instructions)
    except (DelegateClash, CallWithoutOriginal, NestedTooDeeply) as exc:
        failing = next(g for g in groups if g.anchor == exc.anchor)
        aspects = sorted({aa for aa, _ in failing.contributors})
        report.failure = f"{exc} (aspects: {', '.join(aspects)})"
        return base, report
    except ModelError as exc:
        report.failure = str(exc)
        return base, report
    finally:
        report.folds_reused = memo.folds.hits - fold_hits
        _lap(durations, phase, mark)

    conflicts = sum(1 for g in groups if g.is_conflict())
    anchors = len(groups) + len(plan.plain_bindings)
    report.conflict_groups = conflicts
    report.conflict_fraction = conflicts / anchors if anchors else 0.0
    return result, report


def weave_cascade(base: Assembly, cascades, memo: Memo | None = None) -> tuple[Assembly, list[WeaveReport]]:
    """Weave the union of the cascades cycle by cycle.

    A failing cycle aborts the fold: the output of the cycles before it is
    returned together with the failure report.  ``memo`` is a replay
    session's; a call without one weaves through an empty :class:`Memo`.
    """
    memo = memo or Memo()
    reports: list[WeaveReport] = []
    fresh = FreshNames(taken=base.components)
    current = base
    for i, pairs in enumerate(union(*cascades).resolved()):
        current, report = _weave_cycle(current, pairs, i, fresh, memo)
        reports.append(report)
        if report.failure:
            break
    return current, reports


def weave_cycle(base: Assembly, aas) -> tuple[Assembly, WeaveReport]:
    """One mono-cycle weave of an aspect set: a one-cycle cascade."""
    woven, (report,) = weave_cascade(base, [Cascade("mono", cycles=(tuple(aas),))])
    return woven, report


def union(*cascades: Cascade) -> Cascade:
    """Rank-wise set union, each rank in (namespace, name) order.

    Aspects keep their effective namespace: ones that inherited it from
    their cascade get it pinned when the union's own namespace, shared by
    every cascade or else the global one, would resolve differently.  An
    aspect given twice in one namespace weaves once; two different aspects
    with one name in one namespace clash.
    """
    namespaces = {c.namespace for c in cascades}
    result_ns = namespaces.pop() if len(namespaces) == 1 else GLOBAL_NAMESPACE
    resolved = [c.resolved() for c in cascades]
    cycles: list[tuple[AspectOfAssembly, ...]] = []
    for i in range(max((len(r) for r in resolved), default=0)):
        merged: dict[tuple[str, str], AspectOfAssembly] = {}
        for r in resolved:
            for aa, ns in r[i] if i < len(r) else ():
                resolved_ns = aa.namespace if aa.namespace is not None else result_ns
                pinned = aa if resolved_ns == ns else aa.with_namespace(ns)
                key = (ns, aa.name)
                prior = merged.setdefault(key, pinned)
                if prior is not pinned and prior.with_namespace(ns) != pinned.with_namespace(ns):
                    raise NameCollision(f"aspect {aa.name!r} defined twice in namespace {ns!r}")
        cycles.append(tuple(merged[k] for k in sorted(merged)))
    return Cascade("+".join(c.name for c in cascades), result_ns, tuple(cycles))


def select_aspects(cascades, selection) -> list[Cascade]:
    """Restrict cascades to the enabled aspect names (None keeps all)."""
    if selection is None:
        return list(cascades)
    out = []
    for c in cascades:
        cycles = tuple(tuple(aa for aa in rank if aa.name in selection) for rank in c.cycles)
        out.append(replace(c, cycles=cycles))
    return out


def reweave(
    current: Assembly,
    base: Assembly,
    cascades,
    selection=None,
    memo: Memo | None = None,
) -> tuple[Assembly, list[Instruction], list[WeaveReport]]:
    """Recompute the target from the aspect-free base and diff against
    what is deployed, so withdrawing an aspect removes exactly its
    contributions.  When a cycle fails, the deployed assembly stands and
    no instruction is emitted.  ``memo`` is as for ``weave_cascade``; the
    target is rewoven from the base all the same."""
    target, reports = weave_cascade(base, select_aspects(cascades, selection), memo)
    if any(r.failure for r in reports):
        return current, [], reports
    return target, diff(current, target), reports
