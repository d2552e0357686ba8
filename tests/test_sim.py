import json
import statistics
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaweave import matching, merge, sim, weaver
from aaweave.matching import instantiate_advice
from aaweave.merge import _lower_group as lower_group
from aaweave.merge import lower, merge_group
from aaweave.model import (
    PROVIDED,
    AddBinding,
    AddComponent,
    Component,
    PortSpec,
    apply_instructions,
    canonical_equal,
    required,
)
from aaweave.optree import map_leaves
from aaweave.sim import (
    BENCH_COLUMNS,
    EnvEvent,
    ScriptError,
    WorkloadSpec,
    bench_rows_to_csv,
    continuum_workload,
    generate_workload,
    parse_script,
    run_bench,
    run_scenario,
    spearman_rho,
)
from aaweave.language import parse_aa
from aaweave.weaver import PHASES, Cascade, union, weave_cascade


def hospital_script(fixtures_dir):
    return parse_script((fixtures_dir / "hospital_script.jsonl").read_text())


def test_empty_script_is_initial_weave(hospital_base, scenario_cascade):
    trace = run_scenario(hospital_base, [scenario_cascade], [])
    assert trace.records == []
    scratch, _ = weave_cascade(hospital_base, [scenario_cascade])
    assert trace.final_assembly == scratch


def test_hospital_script_keeps_shutter_path(fixtures_dir, scenario_cascade):
    from aaweave.model import Assembly

    trace = run_scenario(Assembly.empty(), [scenario_cascade], hospital_script(fixtures_dir))
    final = trace.final_assembly
    assert "light1" not in final.components
    # the shutter action survives the light's disappearance
    assert any(
        b.source.port_name == "ShutterManagementEvent" and b.target.component_id == "shutter1"
        for b in final.bindings
    )
    assert not any(b.target.component_id == "light1" for b in final.bindings)


def test_unselect_then_select_round_trips(fixtures_dir, hospital_base, mono_cascade):
    script = [
        EnvEvent(10, "unselect", aa_name="brightness_light"),
        EnvEvent(20, "select", aa_name="brightness_light"),
    ]
    trace = run_scenario(hospital_base, [mono_cascade], script)
    scratch, _ = weave_cascade(hospital_base, [mono_cascade])
    assert canonical_equal(trace.final_assembly, scratch)
    unselected = trace.records[0]
    assert unselected.triggered and unselected.instructions > 0


def test_same_timestamp_events_coalesce(hospital_base, scenario_cascade):
    probe = Component("probe9", "t", metadata={"type": "probe"}, ports=(PortSpec("in", PROVIDED),))
    other = Component("probe8", "t", metadata={"type": "probe"}, ports=(PortSpec("in", PROVIDED),))
    script = [
        EnvEvent(5, "appear", component=probe),
        EnvEvent(5, "appear", component=other),
        EnvEvent(5, "unselect", aa_name="dec"),
    ]
    trace = run_scenario(hospital_base, [scenario_cascade], script)
    assert [r.triggered for r in trace.records] == [False, False, True]


def test_busy_window_buffers_events(hospital_base, scenario_cascade):
    probe = Component("probe9", "t", ports=(PortSpec("in", PROVIDED),))
    script = [
        EnvEvent(0, "unselect", aa_name="dec"),
        EnvEvent(5, "appear", component=probe),  # arrives while weaving
        EnvEvent(100, "select", aa_name="dec"),
    ]
    trace = run_scenario(hospital_base, [scenario_cascade], script, weave_duration_ms=50)
    assert [r.triggered for r in trace.records] == [True, True, True]
    # but with a wider busy window the middle event coalesces differently:
    trace2 = run_scenario(hospital_base, [scenario_cascade], script, weave_duration_ms=200)
    assert [r.triggered for r in trace2.records] == [True, False, True]


def test_history_independence(fixtures_dir, scenario_cascade):
    from aaweave.model import Assembly

    trace = run_scenario(Assembly.empty(), [scenario_cascade], hospital_script(fixtures_dir))
    env = Assembly.build(
        [c for c in trace.final_assembly.components.values() if c.provenance is None],
        [b for b in trace.final_assembly.bindings if b.provenance is None],
    )
    # re-weaving the final environment from scratch gives the same result
    scratch, _ = weave_cascade(env, [scenario_cascade])
    assert canonical_equal(trace.final_assembly, scratch)


def test_script_errors():
    from aaweave.model import Assembly

    with pytest.raises(ScriptError):
        run_scenario(Assembly.empty(), [], [EnvEvent(0, "disappear", component_id="ghost")])
    with pytest.raises(ScriptError):
        run_scenario(Assembly.empty(), [], [EnvEvent(0, "select", aa_name="ghost")])
    with pytest.raises(ScriptError):
        run_scenario(
            Assembly.empty(),
            [],
            [EnvEvent(5, "select", aa_name="x"), EnvEvent(0, "select", aa_name="x")],
        )


def test_a_decreasing_script_fails_before_the_initial_weave(hospital_base, scenario_cascade):
    script = [EnvEvent(5, "unselect", aa_name="dec"), EnvEvent(0, "select", aa_name="dec")]
    with mock.patch.object(sim, "weave_cascade") as weave, pytest.raises(ScriptError, match="non-decreasing"):
        run_scenario(hospital_base, [scenario_cascade], script)
    weave.assert_not_called()


def test_parse_script_round_trip(fixtures_dir):
    events = hospital_script(fixtures_dir)
    assert len(events) == 6
    again = [json.dumps(e.to_json_dict()) for e in events]
    assert parse_script("\n".join(again)) == events


# ---------------------------------------------------------------------------
# workload generation


def test_same_seed_same_workload():
    spec = WorkloadSpec(seed=99, joinpoint_count=24, conflict_probability=0.33)
    a1, c1 = generate_workload(spec)
    a2, c2 = generate_workload(spec)
    assert a1 == a2
    assert [[aa.name for aa in rank] for rank in c1[0].cycles] == [
        [aa.name for aa in rank] for rank in c2[0].cycles
    ]


def test_zero_conflict_probability_weaves_cleanly():
    a, c = generate_workload(WorkloadSpec(seed=1, joinpoint_count=30, conflict_probability=0.0))
    _, reports = weave_cascade(a, c)
    assert sum(r.conflict_groups for r in reports) == 0


def test_joinpoint_count_equals_instance_count():
    spec = WorkloadSpec(seed=4, joinpoint_count=36, conflict_probability=0.33)
    a, c = generate_workload(spec)
    _, reports = weave_cascade(a, c)
    assert sum(n for r in reports for _, _, n in r.applied) == 36


def test_conflict_calibration_mean_over_100_seeds():
    fractions = []
    for seed in range(100):
        spec = WorkloadSpec(seed=seed, joinpoint_count=30, conflict_probability=0.33)
        a, c = generate_workload(spec)
        _, reports = weave_cascade(a, c)
        fractions.append(reports[0].conflict_fraction)
    assert 0.28 <= statistics.mean(fractions) <= 0.38


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(joinpoint_count=121)
    with pytest.raises(ValueError):
        WorkloadSpec(conflict_probability=1.5)
    with pytest.raises(ValueError):
        WorkloadSpec(aa_count=0)


def test_multi_cycle_workload():
    a, c = generate_workload(WorkloadSpec(seed=2, joinpoint_count=12, cycles=3, conflict_probability=0.33))
    assert len(c[0].cycles) == 3
    _, reports = weave_cascade(a, c)
    assert len(reports) == 3


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    cycles=st.integers(1, 3),
    p=st.sampled_from((0.0, 0.33, 0.5)),
    shuffler=st.randoms(use_true_random=False),
)
def test_weave_is_independent_of_aspect_order(seed, cycles, p, shuffler):
    spec = WorkloadSpec(seed=seed, joinpoint_count=12, aa_count=6, conflict_probability=p, cycles=cycles)
    base, cascades = generate_workload(spec)
    shuffled = [
        replace(c, cycles=tuple(tuple(shuffler.sample(rank, len(rank))) for rank in c.cycles))
        for c in cascades
    ]
    woven, reports = weave_cascade(base, cascades)
    again, _ = weave_cascade(base, shuffled)
    assert len(reports) == cycles and not any(r.failure for r in reports)
    assert canonical_equal(woven, again)


def test_continuum_workload_shape():
    assembly, cascades = continuum_workload()
    aas = [aa for rank in cascades[0].cycles for aa in rank]
    assert len(aas) == 18
    assert sum(len(aa.rules) for aa in aas) == 25
    assert len(assembly.components) == 17
    _, reports = weave_cascade(assembly, cascades)
    assert sum(n for _, _, n in reports[0].applied) == 25
    assert 0.30 <= reports[0].conflict_fraction <= 0.40


# ---------------------------------------------------------------------------
# benchmarks


def test_bench_rows_and_csv():
    rows = run_bench(joinpoints=(0, 10), p_values=(0.0, 0.33), repetitions=2)
    assert len(rows) == 8
    csv_text = bench_rows_to_csv(rows)
    assert csv_text.splitlines()[0] == ",".join(BENCH_COLUMNS)
    assert len(csv_text.splitlines()) == 9


def test_bench_zero_conflicts_has_zero_merge_ops():
    rows = run_bench(joinpoints=(20,), p_values=(0.0,), repetitions=2)
    assert all(r["merge_ops"] == 0 for r in rows)


def test_spearman_rho():
    assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert spearman_rho([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0
    assert abs(spearman_rho([1, 2, 3, 4], [10, 10, 10, 10])) == 0.0


def test_trace_is_deterministic_modulo_wall_clock(fixtures_dir, scenario_cascade):
    from aaweave.model import Assembly

    def run():
        return run_scenario(Assembly.empty(), [scenario_cascade], hospital_script(fixtures_dir))

    a, b = run(), run()
    assert a.final_assembly == b.final_assembly
    assert [(r.event, r.triggered, r.instructions) for r in a.records] == [
        (r.event, r.triggered, r.instructions) for r in b.records
    ]


def test_bench_rows_deterministic_except_timing():
    def strip(rows):
        return [
            {k: v for k, v in row.items() if not k.endswith("_us")} for row in rows
        ]

    a = run_bench(joinpoints=(0, 20), p_values=(0.33,), repetitions=2, seed=9)
    b = run_bench(joinpoints=(0, 20), p_values=(0.33,), repetitions=2, seed=9)
    assert strip(a) == strip(b)
    assert [(r["joinpoints"], r["rep"]) for r in a] == [(0, 0), (0, 1), (20, 0), (20, 1)]
    assert all(tuple(r) == BENCH_COLUMNS for r in a)
    assert BENCH_COLUMNS[3:8] == tuple(f"{phase}_us" for phase in PHASES)


def test_replay_continues_past_weave_errors(fixtures_dir, hospital_base):
    stray = parse_aa(
        "Pointcut:\n  s := /brightness1.^NewValue/\nAdvice:\nschema stray(s):\n  s -> (call)\n"
    )
    script = [EnvEvent(0, "unselect", aa_name="stray"), EnvEvent(1, "select", aa_name="stray")]
    trace = run_scenario(hospital_base, [Cascade("c", "", ((stray,),))], script)
    assert "no original interaction" in trace.initial_reports[0].failure
    assert [r.reports[0].failure is None for r in trace.records] == [True, False]
    assert trace.final_assembly == hospital_base

    # A failing re-weave keeps what is deployed: Decision1, deployed by the
    # re-weave before it, survives and the failure emits no instruction.
    dec = parse_aa((fixtures_dir / "aa" / "decision.aa").read_text())
    trace = run_scenario(hospital_base, [Cascade("c", "", ((dec, stray),))], script)
    assert trace.initial_reports[0].failure is not None
    deployed, failed = trace.records
    assert deployed.reports[0].failure is None and deployed.instructions > 0
    assert failed.reports[0].failure is not None and failed.instructions == 0
    assert "Decision1" in trace.final_assembly.components


# ---------------------------------------------------------------------------
# the session memo


def without_clock(reports):
    """Reports as dicts, less the wall clock and the memo's reuse counts."""
    out = []
    for r in reports:
        d = r.to_json_dict()
        del d["durations_us"], d["instances_reused"], d["folds_reused"], d["lowerings_reused"]
        out.append(d)
    return out


def replay_checked(base, cascades, script):
    """Replay ``script`` and check it against memo-less re-weaves.

    Every weave's instructions, each cycle's lowered instructions, in
    order, and every report (less clocks and reuse counts) and the final
    assembly must equal those of a chain of re-weaves that share no memo.
    Each distinct advice instance must be grounded, each distinct group
    folded and each distinct lowering performed, once; a reused lowering
    emits the very objects it stored.  Returns the session's memo, the
    reports of its weaves and the advice instances they used.
    """
    memos, batches, instances, groundings, folded = [], [], [], [], []
    lowered, performed = [], []

    def spy_cascade(base, cascades, memo=None):
        memos.append(memo)
        return weaver.weave_cascade(base, cascades, memo)

    def spy_reweave(current, env, cascades, selection=None, memo=None):
        memos.append(memo)
        target, instrs, reports = weaver.reweave(current, env, cascades, selection, memo)
        batches.append((env, selection, instrs, reports))
        return target, instrs, reports

    def spy_ground(*args, **kwargs):
        inst = instantiate_advice(*args, **kwargs)
        instances.append(inst)
        return inst

    def spy_map_leaves(tree, ground):
        groundings.append(tree)
        return map_leaves(tree, ground)

    def spy_fold(group):
        folded.append(group.trees)
        return merge_group(group)

    def spy_lower(plan, folded, fresh, memo=None):
        # Only a lowering that returns is recorded, with the number of
        # groups it lowered.
        before = len(performed)
        instrs = lower(plan, folded, fresh, memo)
        lowered.append((plan, instrs, len(performed) - before))
        return instrs

    def spy_lower_group(group, tree, ids):
        taken = []

        def taking():
            for cid in ids:
                taken.append(cid)
                yield cid

        fragment = lower_group(group, tree, taking())
        performed.append(((id(tree), group.anchor, group.originals, group.provenance, tuple(taken)), fragment))
        return fragment

    with mock.patch.object(sim, "weave_cascade", spy_cascade), mock.patch.object(sim, "reweave", spy_reweave), \
            mock.patch.object(weaver, "instantiate_advice", spy_ground), \
            mock.patch.object(matching, "map_leaves", spy_map_leaves), \
            mock.patch.object(weaver, "merge_group", spy_fold), mock.patch.object(weaver, "lower", spy_lower), \
            mock.patch.object(merge, "_lower_group", spy_lower_group):
        trace = run_scenario(base, cascades, script)
        memo = memos[0]
        assert memo is not None and all(m is memo for m in memos)
        session_instances, session_groundings, memo_folds = list(instances), len(groundings), list(folded)
        session_lowered, memo_performed = list(lowered), list(performed)
        folded.clear()
        lowered.clear()
        performed.clear()
        current, reports = weaver.weave_cascade(base, cascades)
        assert without_clock(reports) == without_clock(trace.initial_reports)
        for env, selection, instrs, memo_reports in batches:
            current, want, reports = weaver.reweave(current, env, cascades, selection)
            assert instrs == want
            assert without_clock(memo_reports) == without_clock(reports)
            assert not any(r.instances_reused or r.folds_reused or r.lowerings_reused for r in reports)
    assert current == trace.final_assembly
    assert [instrs for _, instrs, _ in session_lowered] == [instrs for _, instrs, _ in lowered]
    session = [trace.initial_reports, *(reports for _, _, _, reports in batches)]

    # Each distinct instance was grounded once; a reused one is the very
    # object of its first grounding.
    reused = sum(r.instances_reused for reports in session for r in reports)
    assert len(memo.instances) + reused == len(session_instances)
    assert session_groundings == sum(len(inst.grounded_rules) for _, inst in memo.instances.values())
    stored = {id(inst) for _, inst in memo.instances.values()}
    assert {id(inst) for inst in session_instances} == stored
    # Each distinct group was folded once; every other one was reused.
    assert len(memo_folds) == len(set(memo_folds)) == len(memo.folds)
    assert set(memo_folds) == set(folded)
    reused = sum(r.folds_reused for reports in session for r in reports)
    assert len(memo_folds) + reused == len(folded)
    # Each distinct lowering was performed once, under the ids it took, and
    # its instructions stored as made; a failed one stored nothing.  Every
    # other group of a lowering that returned reused one.
    stored = [(key, lowering) for key, (_, lowering) in memo.lowerings.items()]
    assert [key for key, _ in stored] == [key for key, _ in memo_performed]
    assert all(lowering is made for (_, lowering), (_, made) in zip(stored, memo_performed))
    reused = sum(r.lowerings_reused for reports in session for r in reports)
    assert sum(n for *_, n in session_lowered) + reused == sum(n for *_, n in lowered)
    # A lowering emits only stored instructions besides the adds of the
    # cycle's advice components and of its plain bindings, which are the
    # session table's.
    ops = {id(i) for _, lowering in memo.lowerings.values() for part in lowering for i in part}
    plain = {id(b) for _, b in memo.plain_bindings.values()}
    for plan, instrs, _ in session_lowered:
        advice = {id(c) for c in plan.component_adds}
        assert all(id(b) in plain for b in plan.plain_bindings)
        assert all(id(i) in ops or (type(i) is AddComponent and id(i.component) in advice)
                   or (type(i) is AddBinding and id(i.binding) in plain) for i in instrs)
    return memo, session, session_instances


@st.composite
def churn_scripts(draw, base, names):
    """Select/unselect/appear/disappear events, a few sharing a timestamp."""
    unselected, absent, script, at = set(), set(), [], 0
    for _ in range(draw(st.integers(1, 8), label="events")):
        at += draw(st.integers(0, 1), label="gap")
        moves = (
            [("unselect", n) for n in names if n not in unselected]
            + [("select", n) for n in sorted(unselected)]
            + [("disappear", cid) for cid in base.components if cid not in absent]
            + [("appear", cid) for cid in sorted(absent)]
        )
        kind, what = draw(st.sampled_from(moves), label="event")
        if kind in ("select", "unselect"):
            (unselected.discard if kind == "select" else unselected.add)(what)
            script.append(EnvEvent(at, kind, aa_name=what))
        else:
            (absent.discard if kind == "appear" else absent.add)(what)
            component = base.components[what] if kind == "appear" else None
            script.append(EnvEvent(at, kind, component=component, component_id=what))
    return script


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    spec=st.builds(
        WorkloadSpec,
        seed=st.integers(0, 2**16),
        joinpoint_count=st.integers(2, 10),
        aa_count=st.integers(1, 4),
        conflict_probability=st.sampled_from((0.33, 0.5, 1.0)),
        cycles=st.integers(1, 3),
    ),
    data=st.data(),
)
def test_a_replay_with_the_session_memo_equals_reweaving_without_it(spec, data):
    base, cascades = generate_workload(spec)
    script = data.draw(churn_scripts(base, sorted(cascades[0].aa_names())), label="script")
    replay_checked(base, cascades, script)


def test_aspects_pinned_to_their_namespace_reuse_instances(hospital_base, scenario_cascade, energy_cascade):
    # Cascades in two namespaces weave as a union in the global one, which
    # pins every aspect to its own namespace anew on each weave.
    cascades = [replace(scenario_cascade, namespace="x"), replace(energy_cascade, namespace="y")]
    first, again = union(*cascades), union(*cascades)
    assert [aa.namespace for rank in first.cycles for aa in rank] == ["x"] * 6 + ["y"]
    assert not any(a is b for a, b in zip(first.cycles[2], again.cycles[2]))
    script = [
        EnvEvent(0, "unselect", aa_name="action_light"),
        EnvEvent(1, "disappear", component_id="shutter1"),
        EnvEvent(2, "appear", component=hospital_base.components["shutter1"]),
        EnvEvent(3, "select", aa_name="action_light"),
    ]
    _, session, _ = replay_checked(hospital_base, cascades, script)
    assert all(sum(r.instances_reused for r in reports) > 0 for reports in session[1:])


def test_aspects_sharing_rules_never_share_instances(fixtures_dir, hospital_base):
    # Aspects share one rules tuple and differ in name, namespace or cycle.
    # Base components holding the first fresh ids make an aspect take, in a
    # later weave, the ids another one took before them.
    dec = parse_aa((fixtures_dir / "aa" / "decision.aa").read_text())
    twin, far = replace(dec, name="twin"), dec.with_namespace("z")
    assert twin.rules is dec.rules is far.rules
    stand_ins = [Component(cid, "test.StandIn") for cid in ("Decision1", "Timer1", "Average1")]
    base = apply_instructions(hospital_base, [AddComponent(c) for c in stand_ins])
    cases = {
        "name and namespace": (((dec, twin, far),), "twin", {("dec", "", 0), ("twin", "", 0), ("dec", "z", 0)}),
        "cycle": (((dec,), (dec,)), "dec", {("dec", "", 0), ("dec", "", 1)}),
    }
    for case, (cycles, blinking, takers) in cases.items():
        script = [
            *(EnvEvent(0, "disappear", component_id=c.id) for c in stand_ins),
            EnvEvent(1, "unselect", aa_name=blinking),
            EnvEvent(2, "select", aa_name=blinking),
        ]
        memo, session, instances = replay_checked(base, [Cascade("c", "", cycles)], script)
        assert sum(r.instances_reused for reports in session for r in reports) > 0, case
        owners: dict[int, set] = {}
        for inst in instances:
            provenance = {c.provenance for c in inst.components}
            owners.setdefault(id(inst), set()).update(provenance)
            assert {(p.aa_name, p.namespace) for p in provenance} == {(inst.aa_name, inst.namespace)}, case
        assert all(len(provenance) == 1 for provenance in owners.values()), case
        # The ids Decision2, Timer2 and Average2 went to each aspect in turn.
        took = {
            (c.provenance.aa_name, c.provenance.namespace, c.provenance.cycle)
            for _, inst in memo.instances.values()
            for c in inst.components
            if c.id == "Decision2"
        }
        assert took == takers, case


CLASHING_AAS = (
    "Pointcut:\n  s := /switch.^value_Evented_NewValue/\nAdvice:\nschema left(s):\n  s -> (delegate(nop))\n",
    "Pointcut:\n  s := /switch.^value_Evented_NewValue/\nAdvice:\nschema right(s):\n  s -> (delegate(call))\n",
)


def test_a_clash_fails_every_reweave_of_a_session_alike(fixtures_dir, hospital_base):
    # The clash stores no fold, so a second re-weave of the same selection
    # folds the group again and fails with the same report.
    dec = parse_aa((fixtures_dir / "aa" / "decision.aa").read_text())
    left, right = (parse_aa(text) for text in CLASHING_AAS)
    cascades = [Cascade("c", "", ((dec, left, right),))]
    script = [EnvEvent(0, "unselect", aa_name="left"), EnvEvent(1, "select", aa_name="left"),
              EnvEvent(2, "select", aa_name="left")]
    trace = run_scenario(hospital_base, cascades, script)
    deployed, first, second = (record.reports for record in trace.records)
    assert deployed[0].failure is None
    assert "conflicting delegates" in first[0].failure
    assert "(aspects: left, right)" in first[0].failure
    assert without_clock(first) == without_clock(second)
    assert first[0].folds_reused == second[0].folds_reused
    assert first[0].instances_reused == second[0].instances_reused > 0
    _, instrs, alone = weaver.reweave(trace.final_assembly, hospital_base, cascades)
    assert instrs == [] and without_clock(alone) == without_clock(first)


def test_a_call_without_original_fails_every_reweave_of_a_session_alike(fixtures_dir, hospital_base):
    # The failing group stores no lowering, so a second re-weave of the same
    # selection lowers it again and fails with the same report.  Its anchor,
    # zone1.^out, sorts after the switch's group, which is stored and reused.
    aas = [parse_aa((fixtures_dir / "aa" / f"{name}.aa").read_text())
           for name in ("identity_management", "brightness_light")]
    stray = parse_aa("Advice:\nschema stray():\n  zone : 'test.Zone';\n  zone.^out -> (call)\n")
    cascades = [Cascade("c", "", ((*aas, stray),))]
    script = [EnvEvent(0, "unselect", aa_name="stray"), EnvEvent(1, "select", aa_name="stray"),
              EnvEvent(2, "select", aa_name="stray")]
    memo, session, _ = replay_checked(hospital_base, cascades, script)
    initial, deployed, first, second = session
    assert deployed[0].failure is None and deployed[0].lowerings_reused > 0
    assert "no original interaction" in first[0].failure
    assert without_clock(initial) == without_clock(first) == without_clock(second)
    assert first[0].folds_reused == second[0].folds_reused > 0
    anchors = {key[1] for key in memo.lowerings}
    assert required("switch", "value_Evented_NewValue") in anchors
    assert required("zone1", "out") not in anchors
