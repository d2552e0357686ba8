"""Scripted environment simulation, workload generation and benchmarking.

The simulator drives re-weaves from a script of logical-time events:
components appearing or disappearing, aspects being selected or
unselected.  Logical time orders and coalesces events (several events at
one timestamp, or events arriving while a weave is notionally busy,
trigger a single weave); wall-clock time is only ever measured, never used
for control, so traces are reproducible.

The workload generator builds the two aspect archetypes the benchmarks
exercise: link-only aspects, whose rules never collide, and
rewrite-with-if aspects, whose rules always fold into the interactions
already present.  Mixing the two calibrates the measured conflict
fraction.
"""
from __future__ import annotations

import csv
import gc
import io
import json
import random
import time
from dataclasses import dataclass, field

from .language import parse_aa, parse_number
from .model import (
    PROVIDED,
    REQUIRED,
    AddComponent,
    Assembly,
    Binding,
    Component,
    ModelError,
    PortRef,
    PortSpec,
    RemoveComponent,
    apply_instructions,
    component_from_json,
    component_to_json,
    to_json_dict,
)
from .weaver import PHASES, Cascade, Memo, WeaveReport, reweave, weave_cascade


class ScriptError(Exception):
    pass


@dataclass(frozen=True)
class EnvEvent:
    at: int
    kind: str  # appear | disappear | select | unselect
    component: Component | None = None
    component_id: str | None = None
    aa_name: str | None = None

    def to_json_dict(self) -> dict:
        d: dict = {"at": self.at, "kind": self.kind}
        if self.kind == "appear":
            d["component"] = component_to_json(self.component)
        elif self.kind == "disappear":
            d["id"] = self.component_id
        else:
            d["aa"] = self.aa_name
        return d


def event_from_json(d: dict) -> EnvEvent:
    kind = d.get("kind")
    at = d.get("at", 0)
    if type(at) is not int:  # bool is an int subclass
        raise ScriptError(f'"at" must be an integer, not {json.dumps(at)}')
    if kind == "appear":
        return EnvEvent(at, "appear", component=component_from_json(_field(d, "component", dict, "an object")))
    if kind == "disappear":
        return EnvEvent(at, "disappear", component_id=_field(d, "id", str, "a string"))
    if kind in ("select", "unselect"):
        return EnvEvent(at, kind, aa_name=_field(d, "aa", str, "a string"))
    raise ScriptError(f"unknown event kind {kind!r}")


def _field(d: dict, key: str, kind: type, noun: str):
    value = d[key]
    if not isinstance(value, kind):
        raise ScriptError(f'"{key}" must be {noun}, not {json.dumps(value)}')
    return value


def parse_script(text: str) -> list[EnvEvent]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            doc = json.loads(line, parse_int=parse_number)
            if not isinstance(doc, dict):
                raise ScriptError(f"an event is a JSON object, not {line}")
            events.append(event_from_json(doc))
        except KeyError as exc:
            raise ScriptError(f"script line {lineno}: missing key {exc}") from None
        except (ValueError, RecursionError, ModelError, ScriptError) as exc:
            raise ScriptError(f"script line {lineno}: {exc}") from None
    return events


@dataclass
class TraceRecord:
    event: EnvEvent
    triggered: bool
    instructions: int = 0
    reports: list[WeaveReport] = field(default_factory=list)
    duration_us: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "event": self.event.to_json_dict(),
            "triggered": self.triggered,
            "instructions": self.instructions,
            "reports": [r.to_json_dict() for r in self.reports],
            "duration_us": round(self.duration_us, 3),
        }


@dataclass
class Trace:
    records: list[TraceRecord]
    final_assembly: Assembly
    initial_reports: list[WeaveReport]

    def to_json_dict(self) -> dict:
        return {
            "records": [r.to_json_dict() for r in self.records],
            "final_assembly": to_json_dict(self.final_assembly),
            "initial_reports": [r.to_json_dict() for r in self.initial_reports],
        }


def run_scenario(
    base: Assembly,
    cascades,
    script,
    *,
    weave_duration_ms: int = 0,
) -> Trace:
    """Replay a script, re-weaving after every batch of coalesced events.

    ``weave_duration_ms`` is the logical busy window of one weave: events
    arriving inside it are buffered and coalesced into the next weave.
    Zero still coalesces events sharing a timestamp.

    Every re-weave recomputes its target from the aspect-free base.  The
    weaves of one call share a :class:`~aaweave.weaver.Memo`, which dies
    with the call.  A script whose timestamps decrease raises
    :class:`ScriptError` before anything is woven.  Each :class:`ScriptError`
    names its event's position (from 1), kind and ``at``.
    """
    known_aas = set()
    for c in cascades:
        known_aas |= c.aa_names()
    selection = set(known_aas)

    events = list(script)
    for n, (prev, nxt) in enumerate(zip(events, events[1:]), start=2):
        if nxt.at < prev.at:
            raise ScriptError(f"event {n} ({nxt.kind} at {nxt.at}): script timestamps must be non-decreasing")

    env = base
    memo = Memo()
    current, initial_reports = weave_cascade(env, cascades, memo)

    records: list[TraceRecord] = []
    free_at = 0
    i = 0
    while i < len(events):
        trigger_at = max(events[i].at, free_at)
        first, batch = i, []
        while i < len(events) and events[i].at <= trigger_at:
            batch.append(events[i])
            i += 1
        for n, e in enumerate(batch, start=first + 1):
            env, selection = _apply_event(env, selection, known_aas, n, e)
        t0 = time.perf_counter_ns()
        current, instrs, reports = reweave(current, env, cascades, selection, memo)
        duration_us = (time.perf_counter_ns() - t0) / 1000.0
        free_at = trigger_at + weave_duration_ms
        for e in batch[:-1]:
            records.append(TraceRecord(e, triggered=False))
        records.append(
            TraceRecord(batch[-1], True, len(instrs), reports, duration_us)
        )
    return Trace(records, current, initial_reports)


def _apply_event(env, selection, known_aas, n: int, e: EnvEvent):
    """Apply the script's ``n``-th event (from 1), naming it in any error."""
    where = f"event {n} ({e.kind} at {e.at})"
    try:
        if e.kind == "appear":
            return apply_instructions(env, [AddComponent(e.component)]), selection
        if e.kind == "disappear":
            return apply_instructions(env, [RemoveComponent(e.component_id)]), selection
    except ModelError as exc:
        raise ScriptError(f"{where}: {exc}") from None
    if e.kind in ("select", "unselect"):
        if e.aa_name not in known_aas:
            raise ScriptError(f"{where}: unknown aspect {e.aa_name!r}")
        updated = set(selection)
        if e.kind == "select":
            updated.add(e.aa_name)
        else:
            updated.discard(e.aa_name)
        return env, updated
    raise ScriptError(f"{where}: unknown event kind {e.kind!r}")


# ---------------------------------------------------------------------------
# Random workloads


@dataclass(frozen=True)
class WorkloadSpec:
    seed: int = 0
    joinpoint_count: int = 30
    aa_count: int = 12
    rules_per_aa: int = 2
    conflict_probability: float = 0.33
    cycles: int = 1

    def __post_init__(self):
        if not 0 <= self.joinpoint_count <= 120:
            raise ValueError("joinpoint_count must lie in [0, 120]")
        if not 0.0 <= self.conflict_probability <= 1.0:
            raise ValueError("conflict_probability must lie in [0, 1]")
        if self.aa_count < 1 or self.rules_per_aa < 1 or self.cycles < 1:
            raise ValueError("aa_count, rules_per_aa and cycles must be positive")


def _device(name: str, type_tag: str, extra_ports=(), extra_metadata=None) -> Component:
    ports = [PortSpec("in", PROVIDED), PortSpec("out", REQUIRED)]
    ports.extend(extra_ports)
    metadata = {"type": type_tag}
    metadata.update(extra_metadata or {})
    return Component(name, type_tag, metadata=metadata, ports=tuple(ports))


# One rewrite aspect per shared device class stacks several rules on the
# same anchor, so a conflicting anchor collects a deep pile of trees and
# the merge step sees real folding work without inflating instance counts.
REWRITE_STACK = 10


def generate_workload(spec: WorkloadSpec) -> tuple[Assembly, list[Cascade]]:
    """Deterministic-in-seed workload with a calibrated conflict mix.

    Every device exposes one matchable provided port and is matched by
    exactly one class aspect, so available joinpoints and woven advice
    instances both equal ``spec.joinpoint_count``.  Rewrite-with-if
    aspects fold their whole rule stack into the hub interaction feeding
    their devices; link-only aspects use fresh relay anchors and never
    collide.  With b rewrite aspects among t, the conflicting-anchor
    fraction is b / (b + rules_per_aa * (t - b)), which the rewrite share
    is solved from.
    """
    rng = random.Random(spec.seed)
    total = spec.aa_count
    r = spec.rules_per_aa
    p = spec.conflict_probability
    n_rewrite = 0
    if p > 0:
        n_rewrite = min(total, max(1, round(p * r * total / (1 - p + p * r))))
    rewrite_ids = set(rng.sample(range(total), n_rewrite)) if n_rewrite else set()

    device_classes = [k % total for k in range(spec.joinpoint_count)]
    rng.shuffle(device_classes)

    comps = []
    bindings = []
    hub_ports = [PortSpec("Ready", PROVIDED), PortSpec("Armed", PROVIDED)]
    hub_ports += [PortSpec(f"ev_{k}", REQUIRED) for k in range(spec.joinpoint_count)]
    comps.append(Component("hub", "gen.Hub", metadata={"type": "gen.Hub"}, ports=tuple(hub_ports)))
    for k, cls in enumerate(device_classes):
        dev = _device(f"d{k}", f"dev.Type{cls}")
        comps.append(dev)
        bindings.append(
            Binding(PortRef("hub", f"ev_{k}", REQUIRED), PortRef(dev.id, "in", PROVIDED))
        )
    assembly = Assembly.build(comps, bindings)

    aas = []
    for n in range(total):
        if n in rewrite_ids:
            rules = "\n".join(
                f"  v -> (if (h) {{if (g) {{th.SetValue_{i}}} else {{call}}}} else {{call}})"
                for i in range(1, REWRITE_STACK * r + 1)
            )
            source = (
                "Pointcut:\n"
                f"  v := /*(@type=dev.Type{n}).in/\n"
                "  h := /hub.Ready/\n"
                "  g := /hub.Armed/\n"
                "Advice:\n"
                f"schema gen_rw_{n:03d}(v, h, g):\n"
                "  th : 'gen.Threshold';\n"
                f"{rules}\n"
            )
        else:
            rules = "\n".join(f"  relay.^out_{i} -> (v)" for i in range(1, r + 1))
            source = (
                "Pointcut:\n"
                f"  v := /*(@type=dev.Type{n}).in/\n"
                "Advice:\n"
                f"schema gen_ln_{n:03d}(v):\n"
                "  relay : 'gen.Relay';\n"
                f"{rules}\n"
            )
        aas.append(parse_aa(source, path=f"<generated:{n}>"))

    cycle_sets: list[list] = [[] for _ in range(spec.cycles)]
    for n, aa in enumerate(aas):
        cycle_sets[n % spec.cycles].append(aa)
    cascade = Cascade("generated", "", tuple(tuple(s) for s in cycle_sets))
    return assembly, [cascade]


def continuum_workload(seed: int = 0) -> tuple[Assembly, list[Cascade]]:
    """Field-trial-sized fixture: 18 aspects over 25 rules, 10 devices plus
    7 interface components, 25 advice instances, conflict fraction ~0.35."""
    rng = random.Random(seed)
    type_of = {1: "quad", 2: "quad", 3: "quad", 4: "quad", 5: "pa", 6: "pa", 7: "pb", 8: "pb", 9: "pc", 10: "pc"}
    comps = []
    for k in range(1, 11):
        extra = {"pair": "pd"} if k in (3, 4) else None
        comps.append(
            _device(
                f"dev{k}",
                type_of[k],
                extra_ports=(PortSpec("alert", REQUIRED), PortSpec("pulse", REQUIRED)),
                extra_metadata=extra,
            )
        )
    for j in range(1, 8):
        comps.append(Component(f"ui{j}", "ui.Panel", metadata={"type": "ui"}, ports=(PortSpec("in", PROVIDED),)))
    bindings = []
    for k in range(1, 11):
        for offset in (0, 3):
            j = (k - 1 + offset) % 7 + 1
            bindings.append(Binding(PortRef(f"dev{k}", "out", REQUIRED), PortRef(f"ui{j}", "in", PROVIDED)))
    assembly = Assembly.build(comps, bindings)

    sources = []
    for j in range(1, 8):
        sources.append(
            "Pointcut:\n"
            f"  u := /ui{j}.in/\n"
            "Advice:\n"
            f"schema filter_ui{j}(u):\n"
            "  flt : 'gen.Filter';\n"
            "  u -> (if (flt.IsReached) {flt.SetValue} else {call})\n"
        )
    sources.append(
        "Pointcut:\n"
        "  v := /*(@type=quad).^alert/\n"
        "  t := /ui1.in/\n"
        "Advice:\n"
        "schema link_quad(v, t):\n"
        "  v -> (t)\n"
    )
    for idx, tag in enumerate(("pa", "pb", "pc"), start=2):
        sources.append(
            "Pointcut:\n"
            f"  v := /*(@type={tag}).^alert/\n"
            f"  t := /ui{idx}.in/\n"
            "Advice:\n"
            f"schema link_{tag}(v, t):\n"
            "  v -> (t)\n"
        )
    sources.append(
        "Pointcut:\n"
        "  v := /*(@pair=pd).^pulse/\n"
        "  t := /ui5.in/\n"
        "Advice:\n"
        "schema link_pd(v, t):\n"
        "  v -> (t)\n"
    )
    targets = list(range(1, 8))
    rng.shuffle(targets)
    for k in range(5, 11):
        j = targets[(k - 5) % 7]
        sources.append(
            "Pointcut:\n"
            f"  v := /dev{k}.^pulse/\n"
            f"  t := /ui{j}.in/\n"
            "Advice:\n"
            f"schema link_dev{k}(v, t):\n"
            "  v -> (t)\n"
        )
    aas = [parse_aa(src, path=f"<continuum:{i}>") for i, src in enumerate(sources)]
    return assembly, [Cascade("continuum", "", (tuple(aas),))]


# ---------------------------------------------------------------------------
# Benchmarks

BENCH_COLUMNS = (
    "joinpoints",
    "p_i",
    "rep",
    *(f"{phase}_us" for phase in PHASES),
    "total_us",
    "merge_ops",
    "conflict_groups",
)


def run_bench(
    joinpoints=range(0, 121, 20),
    p_values=(0.0, 0.33, 0.5),
    repetitions: int = 3,
    *,
    aa_count: int = 12,
    rules_per_aa: int = 2,
    seed: int = 0,
) -> list[dict]:
    """Sweep the workload grid; rows come in (p, joinpoints, rep) order.

    Every point is built and woven once as a discarded warm-up before any
    timing.  Repetitions then run outermost, one pass over the whole grid
    each, so a stretch of slow host speed lands on many points once rather
    than on every repetition of one point.  The collector stays paused for
    the timed sweep so the wall-clock columns measure the weave, not
    allocator housekeeping.
    """
    points = []
    for p in p_values:
        for j in joinpoints:
            spec = WorkloadSpec(
                seed=int(random.Random(f"{seed}:{j}:{p}").random() * 2**31),
                joinpoint_count=j,
                aa_count=aa_count,
                rules_per_aa=rules_per_aa,
                conflict_probability=p,
            )
            assembly, cascades = generate_workload(spec)
            weave_cascade(assembly, cascades)  # warm-up
            points.append((j, p, assembly, cascades, []))
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for rep in range(repetitions):
            for j, p, assembly, cascades, rows in points:
                t0 = time.perf_counter_ns()
                _, reports = weave_cascade(assembly, cascades)
                total_us = (time.perf_counter_ns() - t0) / 1000.0
                row = {"joinpoints": j, "p_i": p, "rep": rep}
                for phase in PHASES:
                    row[f"{phase}_us"] = round(sum(r.durations_us[phase] for r in reports), 3)
                row["total_us"] = round(total_us, 3)
                row["merge_ops"] = sum(r.merge_ops for r in reports)
                row["conflict_groups"] = sum(r.conflict_groups for r in reports)
                rows.append(row)
    finally:
        if gc_was_enabled:
            gc.enable()
    return [row for *_, rows in points for row in rows]


def bench_rows_to_csv(rows) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def spearman_rho(xs, ys) -> float:
    """Rank correlation; ties share averaged ranks."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            rank = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = rank
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mean = (n + 1) / 2
    num = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    den_x = sum((a - mean) ** 2 for a in rx)
    den_y = sum((b - mean) ** 2 for b in ry)
    if den_x == 0 or den_y == 0:
        return 0.0
    return num / (den_x * den_y) ** 0.5
