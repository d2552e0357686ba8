"""``weaver._weave_cycle`` against a copy of the cycle it replaced.

``reference_weave_cycle`` is the cycle that ran match, combine and the
factory aspect by aspect, charging each phase once per aspect; it is kept
as it was, but calls the weaver's functions through the module so that
the spies below see both cycles.  The phase-by-phase cycle must take the
same fresh ids in the same order, hand detection the same instances in
the same order, and give the same woven output and reports, all but
their wall clock.  A reference cycle reads reuse counts only from the
memo tables it is given, as a one-shot weave holds no groundings,
lowerings or plain bindings; every comparison runs both one-shot and on
a session memo.
"""
import time
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from aaweave import weaver
from aaweave.language import parse_aa
from aaweave.matching import FreshNames
from aaweave.model import Assembly
from aaweave.sim import WorkloadSpec, generate_workload, parse_script, run_scenario
from aaweave.weaver import PHASES, Cascade, Memo, WeaveReport


def hits(table):
    return 0 if table is None else table.hits


def reference_weave_cycle(base, pairs, cycle_index, fresh, memo):
    report = WeaveReport(cycle=cycle_index, durations_us=dict.fromkeys(PHASES, 0.0))
    durations = report.durations_us
    weaving_names = {aa.name for aa, _ in pairs}
    instances = []
    index_by_ns = {}
    instance_hits = hits(memo.instances)
    crossing = any(c.provenance is not None for c in base.components.values())

    for aa, namespace in pairs:
        mark = time.perf_counter_ns()
        index = index_by_ns.get(namespace)
        if index is None:
            index = weaver.collect_joinpoints(base, cycle_index, namespace, weaving_names)
            index_by_ns[namespace] = index
        candidates = weaver.match_pointcut(index, aa)
        mark = weaver._lap(durations, "match", mark)
        combos = weaver.combinations(candidates)
        mark = weaver._lap(durations, "combine", mark)
        if not combos:
            dry = sorted(v for v, js in candidates.items() if not js)
            report.skipped.append((aa.name, f"no joinpoint for {', '.join(dry)}"))
            continue
        for combo in combos:
            instances.append(
                weaver.instantiate_advice(aa, combo, fresh, cycle=cycle_index, namespace=namespace, memo=memo.instances)
            )
        weaver._lap(durations, "factory", mark)
        report.applied.append((aa.name, cycle_index, len(combos)))
        if crossing:
            crossed = {
                (aa.name, p.aa_name)
                for ports in candidates.values()
                for port in ports
                if (p := base.components[port.component_id].provenance) is not None and p.aa_name != aa.name
            }
            report.cross_aspect_matches.extend(sorted(crossed))
    report.instances_reused = hits(memo.instances) - instance_hits

    mark, phase = time.perf_counter_ns(), "merge"
    fold_hits, lowering_hits = memo.folds.hits, hits(memo.lowerings)
    try:
        groups, plan = weaver.detect_conflicts(base, instances, memo, cycle=cycle_index)
        folded = []
        for group in groups:
            originals = group.originals
            key = (originals, tuple(sorted([id(tree) for tree in group.trees[len(originals):]])))
            try:
                tree, stems = memo.folds.recall(
                    key, group.trees, lambda: (tree := weaver.merge_group(group), weaver.op_stems(tree))
                )
            except RecursionError:
                raise weaver.NestedTooDeeply(group.anchor) from None
            folded.append((group, tree, stems))
        report.merge_ops = sum(len(group.trees) - 1 for group in groups)
        mark, phase = weaver._lap(durations, phase, mark), "lower"
        instructions = weaver.lower(plan, folded, fresh, memo.lowerings)
        report.lowerings_reused = hits(memo.lowerings) - lowering_hits
        result = weaver.apply_instructions(base, instructions)
    except (weaver.DelegateClash, weaver.CallWithoutOriginal, weaver.NestedTooDeeply) as exc:
        failing = next(g for g in groups if g.anchor == exc.anchor)
        aspects = sorted({aa for aa, _ in failing.contributors})
        report.failure = f"{exc} (aspects: {', '.join(aspects)})"
        return base, report
    except weaver.ModelError as exc:
        report.failure = str(exc)
        return base, report
    finally:
        report.folds_reused = memo.folds.hits - fold_hits
        weaver._lap(durations, phase, mark)

    conflicts = sum(1 for g in groups if g.is_conflict())
    anchors = len(groups) + len(plan.plain_bindings)
    report.conflict_groups = conflicts
    report.conflict_fraction = conflicts / anchors if anchors else 0.0
    return result, report


def without_clock(reports):
    out = []
    for r in reports:
        d = r.to_json_dict()
        del d["durations_us"]
        out.append(d)
    return out


def run_both(weave):
    """``weave()``'s result less its wall clock, the fresh ids it took and
    the instances each cycle detected over, under the phase-by-phase cycle
    and under the reference; both must be equal.  Returns the reports."""
    runs = []
    for cycle in (weaver._weave_cycle, reference_weave_cycle):
        taken, detected = [], []

        class Recording(FreshNames):
            def fresh(self, stem):
                taken.append(super().fresh(stem))
                return taken[-1]

        def detect(base, instances, memo, cycle=0, detect_conflicts=weaver.detect_conflicts):
            detected.append(list(instances))
            return detect_conflicts(base, instances, memo, cycle=cycle)

        with mock.patch.object(weaver, "_weave_cycle", cycle), mock.patch.object(weaver, "FreshNames", Recording), \
                mock.patch.object(weaver, "detect_conflicts", detect):
            result, reports = weave()
        runs.append((result, without_clock(reports), taken, detected))
    assert runs[0] == runs[1]
    return runs[0][1]


def weave_both(base, cascades):
    """``run_both`` of a one-shot weave and of a weave on a session memo
    of its own, which must report the same; returns the reports."""
    one_shot = run_both(lambda: weaver.weave_cascade(base, cascades))
    assert run_both(lambda: weaver.weave_cascade(base, cascades, Memo())) == one_shot
    return one_shot


# A last-cycle aspect, in each namespace, that binds every generated
# relay, so its cycle sees earlier cycles' products and crosses them.
WATCH_RELAYS = parse_aa(
    "Pointcut:\n  r := /*(@type=gen.Relay).^out_1/\nAdvice:\nschema watch_relays(r):\n"
    "  tap : 'gen.Tap';\n  r -> (tap.in ; call)\n"
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    cycles=st.integers(1, 3),
    p=st.sampled_from((0.0, 0.33, 0.5)),
    namespaces=st.sampled_from((1, 2)),
)
def test_generated_cascades_weave_as_under_the_reference(seed, cycles, p, namespaces):
    spec = WorkloadSpec(seed=seed, joinpoint_count=8, aa_count=6, rules_per_aa=1, conflict_probability=p, cycles=cycles)
    base, (cascade,) = generate_workload(spec)
    ranks = [
        tuple(aa.with_namespace("b") if namespaces == 2 and k % 2 else aa for k, aa in enumerate(rank))
        for rank in cascade.cycles
    ]
    ranks.append((WATCH_RELAYS, WATCH_RELAYS.with_namespace("b")))
    reports = weave_both(base, [replace(cascade, namespace="a", cycles=tuple(ranks))])
    assert len(reports) == cycles + 1 and not any(r["failure"] for r in reports)
    assert reports[-1]["cross_aspect_matches"]


def test_skipped_and_crossing_aspects_weave_as_under_the_reference(
    fixtures_dir, hospital_base, scenario_cascade, assistance_cascade, energy_cascade
):
    rfid = parse_aa((fixtures_dir / "aa" / "perception_rfid.aa").read_text())
    (report,) = weave_both(hospital_base, [Cascade("dry", cycles=((rfid,),))])
    assert report["skipped"] == [{"aa": "obs_rfid", "reason": "no joinpoint for DecisionEntity"}]
    reports = weave_both(hospital_base, [assistance_cascade, energy_cascade])
    assert all(r["cross_aspect_matches"] for r in reports[1:]) and all(r["applied"] for r in reports)
    reports = weave_both(Assembly.empty(), [scenario_cascade])
    assert [bool(r["skipped"]) for r in reports] == [False, True, True]


def test_a_failing_cycle_fails_as_under_the_reference(fixtures_dir, hospital_base):
    dec = parse_aa((fixtures_dir / "aa" / "decision.aa").read_text())
    rfid = parse_aa((fixtures_dir / "aa" / "perception_rfid.aa").read_text())
    clash = [
        parse_aa(
            f"Pointcut:\n  s := /switch.^value_Evented_NewValue/\nAdvice:\nschema {name}(s):\n"
            f"  gate : 'g.Gate';\n  s -> (delegate({body}))\n"
        )
        for name, body in (("left", "nop"), ("right", "gate.in"))
    ]
    stray = parse_aa("Pointcut:\n  s := /brightness1.^NewValue/\nAdvice:\nschema stray(s):\n  s -> (call)\n")
    for failing in (clash, [stray]):
        reports = weave_both(hospital_base, [Cascade("c", cycles=((dec,), (rfid, *failing)))])
        assert [bool(r["failure"]) for r in reports] == [False, True]


def test_a_replay_runs_as_under_the_reference(fixtures_dir, scenario_cascade):
    script = parse_script((fixtures_dir / "hospital_script.jsonl").read_text())

    def replay():
        trace = run_scenario(Assembly.empty(), [scenario_cascade], script)
        records = [(r.event, r.triggered, r.instructions, without_clock(r.reports)) for r in trace.records]
        return (trace.final_assembly, records), trace.initial_reports

    assert [bool(r["skipped"]) for r in run_both(replay)] == [False, True, True]
