import itertools
from unittest import mock

import pytest

import aaweave.merge as merge_module
from aaweave import matching, weaver
from aaweave.language import parse_aa
from aaweave.merge import detect_conflicts, merge_group
from aaweave.model import (
    PROVIDED,
    REQUIRED,
    AddBinding,
    AddComponent,
    Assembly,
    Binding,
    Component,
    PortSpec,
    Woven,
    apply_instructions,
    canonical_equal,
    diff,
    provided,
    required,
)
from aaweave.optree import map_leaves
from aaweave.weaver import PHASES, Cascade, Memo, MemoTable, NameCollision, reweave, union, weave_cascade, weave_cycle
from aaweave.sim import WorkloadSpec, continuum_workload, generate_workload, parse_script, run_scenario


def weave_mono(base, aas):
    woven, report = weave_cycle(base, aas)
    assert report.failure is None
    return woven, report


def test_hospital_mono_weave(fixtures_dir, hospital_base, mono_cascade):
    woven, reports = weave_cascade(hospital_base, [mono_cascade])
    report = reports[0]
    assert tuple(report.durations_us) == PHASES
    assert {aa for aa, _, _ in report.applied} == {"IdentityManagement", "brightness_light"}
    for cid in ("Decision1", "Timer1", "threshold1", "Average1", "if1"):
        assert cid in woven.components
    assert woven.components["if1"].type_name == "op.If"
    # the shared anchor was rewired into the merged tree
    anchor = required("switch", "value_Evented_NewValue")
    (root,) = [b for b in woven.bindings if b.source == anchor]
    assert root.target == provided("if1", "in")
    cond = [b for b in woven.bindings if b.source == required("if1", "cond")]
    assert [b.target for b in cond] == [provided("threshold1", "IsReached")]
    assert report.conflict_groups == 1
    assert report.merge_ops == 2


def test_empty_aspect_set_is_identity(hospital_base):
    woven, report = weave_mono(hospital_base, [])
    assert woven == hospital_base
    assert report.applied == [] and report.skipped == []


def test_base_is_never_mutated(fixtures_dir, hospital_base, mono_cascade):
    snapshot = apply_instructions(hospital_base, [])
    weave_cascade(hospital_base, [mono_cascade])
    assert hospital_base == snapshot


def test_aa_order_is_irrelevant(fixtures_dir, hospital_base):
    aas = [
        parse_aa((fixtures_dir / "aa" / name).read_text())
        for name in ("identity_management.aa", "brightness_light.aa")
    ]
    results = []
    for perm in itertools.permutations(aas):
        woven, _ = weave_mono(hospital_base, list(perm))
        results.append(woven)
    for other in results[1:]:
        assert canonical_equal(results[0], other)


def test_unapplicable_aspect_is_skipped(fixtures_dir, hospital_base):
    aa = parse_aa((fixtures_dir / "aa" / "perception_rfid.aa").read_text())
    woven, report = weave_mono(hospital_base, [aa])
    assert woven == hospital_base
    assert report.applied == []
    assert report.skipped == [("obs_rfid", "no joinpoint for DecisionEntity")]


# ---------------------------------------------------------------------------
# cascades


def test_scenario_cascade_stages(fixtures_dir, hospital_base, scenario_cascade):
    woven, reports = weave_cascade(hospital_base, [scenario_cascade])
    assert [r.cycle for r in reports] == [0, 1, 2]
    assert [aa for aa, _, _ in reports[0].applied] == ["dec"]
    assert {aa for aa, _, _ in reports[1].applied} == {"obs_rfid", "obs_switch"}
    # cycle-1 aspects bound the decision component woven at cycle 0
    rfid_links = [b for b in woven.bindings if b.source == required("rfid1", "value_Evented_NewValue")]
    assert [b.target for b in rfid_links] == [provided("Decision1", "Manage")]
    assert woven.components["Decision1"].provenance == Woven("dec", 0, "")


def test_unselecting_the_producer_starves_dependents(hospital_base, scenario_cascade):
    selection = scenario_cascade.aa_names() - {"dec"}
    target, instrs, reports = reweave(hospital_base, hospital_base, [scenario_cascade], selection)
    skipped = {aa for r in reports for aa, _ in r.skipped}
    assert skipped == {"obs_rfid", "obs_switch", "action_shutter", "action_light"}
    # the light-level aspect only needs base devices, so it still applies
    applied = {aa for r in reports for aa, _, _ in r.applied}
    assert applied == {"action_lightlevel"}


def test_cycle_products_are_not_matched_in_their_own_cycle(fixtures_dir, hospital_base):
    dec = parse_aa((fixtures_dir / "aa" / "decision.aa").read_text())
    obs = parse_aa((fixtures_dir / "aa" / "perception_rfid.aa").read_text())
    # both in one cycle: obs must not see the decision component
    cascade = Cascade("one", "", ((dec, obs),))
    _, reports = weave_cascade(hospital_base, [cascade])
    assert ("obs_rfid", "no joinpoint for DecisionEntity") in reports[0].skipped
    # split over two cycles it works
    cascade2 = Cascade("two", "", ((dec,), (obs,)))
    _, reports2 = weave_cascade(hospital_base, [cascade2])
    assert [aa for aa, _, _ in reports2[1].applied] == ["obs_rfid"]


def test_cycle_permutations_canonically_equal(hospital_base, scenario_cascade):
    base_result, _ = weave_cascade(hospital_base, [scenario_cascade])
    for perm1 in itertools.permutations(scenario_cascade.cycles[1]):
        for perm2 in itertools.permutations(scenario_cascade.cycles[2]):
            shuffled = Cascade(
                "s", "", (scenario_cascade.cycles[0], tuple(perm1), tuple(perm2))
            )
            woven, _ = weave_cascade(hospital_base, [shuffled])
            assert canonical_equal(base_result, woven)


def test_union_of_cascades(assistance_cascade, energy_cascade, hospital_base, scenario_cascade):
    u1 = union(assistance_cascade, energy_cascade)
    u2 = union(energy_cascade, assistance_cascade)
    assert len(u1.cycles) == 3
    assert [sorted(aa.name for aa in rank) for rank in u1.cycles] == [
        sorted(aa.name for aa in rank) for rank in u2.cycles
    ]
    assert union(assistance_cascade, assistance_cascade).cycles == tuple(
        tuple(sorted(rank, key=lambda aa: aa.name)) for rank in assistance_cascade.cycles
    )
    # weaving the two cascades together equals weaving their union
    woven_pair, _ = weave_cascade(hospital_base, [assistance_cascade, energy_cascade])
    woven_union, _ = weave_cascade(hospital_base, [u1])
    assert canonical_equal(woven_pair, woven_union)
    woven_swapped, _ = weave_cascade(hospital_base, [energy_cascade, assistance_cascade])
    assert canonical_equal(woven_pair, woven_swapped)


def test_union_name_collision():
    a1 = parse_aa("Advice:\nschema same():\n  x : 't1';\n")
    a2 = parse_aa("Advice:\nschema same():\n  x : 't2';\n")
    with pytest.raises(NameCollision):
        union(Cascade("a", "", ((a1,),)), Cascade("b", "", ((a2,),)))


def test_pinned_namespace_pair_weaves_as_its_union(fixtures_dir, hospital_base):
    # One aspect twice in namespace x: inherited from its cascade in c1,
    # pinned explicitly in c2, whatever c2's own namespace is.
    dec = parse_aa((fixtures_dir / "aa" / "decision.aa").read_text())
    c1 = Cascade("c1", "x", ((dec,),))
    for c2_namespace in ("", "x"):
        c2 = Cascade("c2", c2_namespace, ((dec.with_namespace("x"),),))
        woven_pair, reports = weave_cascade(hospital_base, [c1, c2])
        assert reports[0].failure is None
        assert reports[0].applied == [("dec", 0, 1)]
        assert {c.provenance.namespace for c in woven_pair.components.values() if c.provenance} == {"x"}
        woven_union, _ = weave_cascade(hospital_base, [union(c1, c2)])
        assert canonical_equal(woven_pair, woven_union)


def test_union_of_no_cascade_is_empty(hospital_base):
    empty = union()
    assert (empty.name, empty.namespace, empty.cycles) == ("", "", ())
    woven, reports = weave_cascade(hospital_base, [])
    assert woven is hospital_base and reports == []


def test_three_way_union(hospital_base, assistance_cascade, energy_cascade, mono_cascade):
    three = union(assistance_cascade, energy_cascade, mono_cascade)
    assert three.name == "assistance+energy+hospital"
    assert three.cycles == union(union(assistance_cascade, energy_cascade), mono_cascade).cycles
    for rank in three.cycles:
        assert [aa.name for aa in rank] == sorted(aa.name for aa in rank)
    woven_three, _ = weave_cascade(hospital_base, [three])
    woven_each, _ = weave_cascade(hospital_base, [mono_cascade, energy_cascade, assistance_cascade])
    assert canonical_equal(woven_three, woven_each)
    # the namespace is shared only when every cascade has it
    cascades = [Cascade(str(k), "x") for k in range(3)]
    assert union(*cascades).namespace == "x"
    assert union(*cascades, Cascade("3", "y")).namespace == ""


# ---------------------------------------------------------------------------
# re-weave

def test_reweave_unchanged_selection_is_empty(hospital_base, mono_cascade):
    woven, _ = weave_cascade(hospital_base, [mono_cascade])
    target, instrs, _ = reweave(woven, hospital_base, [mono_cascade])
    assert instrs == []
    assert target == woven


def test_withdrawal_matches_scratch_weave(hospital_base, mono_cascade):
    woven, _ = weave_cascade(hospital_base, [mono_cascade])
    target, instrs, _ = reweave(woven, hospital_base, [mono_cascade], {"IdentityManagement"})
    applied = apply_instructions(woven, instrs)
    scratch, _ = weave_cascade(
        hospital_base,
        [Cascade("m", "", tuple(tuple(a for a in rank if a.name == "IdentityManagement") for rank in mono_cascade.cycles))],
    )
    assert applied == target
    assert canonical_equal(applied, scratch)
    for gone in ("threshold1", "Average1", "if1"):
        assert gone not in applied.components


def test_adding_a_disjoint_aspect_is_purely_additive(fixtures_dir, hospital_base):
    identity = parse_aa((fixtures_dir / "aa" / "identity_management.aa").read_text())
    extra = parse_aa(
        "Pointcut:\n"
        "  b := /brightness*.^NewValue/\n"
        "Advice:\n"
        "schema watcher(b):\n"
        "  store : 'logger.Store';\n"
        "  b -> (store.Record)\n"
    )
    cascade = Cascade("m", "", ((identity, extra),))
    woven_small, _ = weave_cascade(hospital_base, [Cascade("m", "", ((identity,),))])
    target, instrs, _ = reweave(woven_small, hospital_base, [cascade])
    assert instrs and all(type(i).__name__.startswith("Add") for i in instrs)


# ---------------------------------------------------------------------------
# failure atomicity


def clashing_aas():
    a1 = parse_aa(
        "Pointcut:\n  s := /switch.^value_Evented_NewValue/\nAdvice:\nschema left(s):\n"
        "  s -> (delegate(nop))\n"
    )
    a2 = parse_aa(
        "Pointcut:\n  s := /switch.^value_Evented_NewValue/\nAdvice:\nschema right(s):\n"
        "  s -> (delegate(call))\n"
    )
    return a1, a2


# A call at an anchor that never had a binding, and a link to a port the
# base component does not declare: both fail after the merge, in lowering
# and in applying the instructions.
STRAY_CALL_AA = (
    "Pointcut:\n  s := /brightness1.^NewValue/\nAdvice:\nschema stray(s):\n  s -> (call)\n"
)
UNDECLARED_PORT_AA = (
    "Pointcut:\n  s := /brightness1.^NewValue/\n  t := /light1.SetState/\nAdvice:\n"
    "schema dangling(s, t):\n  s -> (t.Missing)\n"
)
# A bystander whose group (at rfid1) sorts after brightness1's and before
# switch's, so a failure must name the failing group's aspects, not its.
WATCH_AA = (
    "Pointcut:\n  r := /rfid1.^value_Evented_NewValue/\n  t := /shutter1.SetState/\nAdvice:\n"
    "schema watch(r, t):\n  r -> (t ; t)\n"
)


def test_merge_failure_aborts_cycle_atomically(hospital_base):
    # Each failure names what broke and the aspects behind it.
    failing = [
        (("delegate", "(aspects: left, right)"), clashing_aas()),
        (("no original interaction", "(aspects: stray)"), [parse_aa(STRAY_CALL_AA)]),
        (
            (
                "declares no provided port 'Missing'",
                "binding brightness1.^NewValue -> light1.Missing woven by 'dangling'",
            ),
            [parse_aa(UNDECLARED_PORT_AA)],
        ),
    ]
    for messages, aas in failing:
        for bystanders in ((), (parse_aa(WATCH_AA),)):
            woven, report = weave_cycle(hospital_base, [*aas, *bystanders])
            assert woven == hospital_base
            assert report.failure is not None
            for message in messages:
                assert message in report.failure
            assert tuple(report.durations_us) == PHASES


def test_cascade_failure_keeps_earlier_cycles(fixtures_dir, hospital_base):
    dec = parse_aa((fixtures_dir / "aa" / "decision.aa").read_text())
    a1, a2 = clashing_aas()
    cascade = Cascade("c", "", ((dec,), (a1, a2)))
    woven, reports = weave_cascade(hospital_base, [cascade])
    assert reports[0].failure is None
    assert reports[1].failure is not None
    assert len(reports) == 2
    assert "Decision1" in woven.components  # cycle 0 output survives


def test_a_memo_table_hit_returns_the_stored_value_and_counts_it():
    table, pin, value = MemoTable(), object(), object()
    assert table.recall(("k", 1), pin, lambda: value) is value
    assert table.hits == 0 and table == {("k", 1): (pin, value)}
    # A hit builds nothing and returns the very object stored.
    assert table.recall(("k", 1), object(), lambda: pytest.fail("built on a hit")) is value
    assert table.hits == 1 and table[("k", 1)][0] is pin


def test_a_memo_table_stores_nothing_when_build_raises():
    table = MemoTable()

    def build():
        raise RecursionError("too deep")

    with pytest.raises(RecursionError):
        table.recall("k", object(), build)
    assert table == {} and table.hits == 0
    assert table.recall("k", None, lambda: 7) == 7 and table.hits == 0


def test_every_one_shot_weave_starts_from_an_empty_memo():
    # Only a replay session shares groundings, folds and lowerings between
    # weaves: a one-shot weave, such as each weave of criterion 9's sweep,
    # gets a memo of its own, so it grounds every advice instance, and
    # folds and lowers every group it detects.
    base, cascades = generate_workload(WorkloadSpec(seed=3, joinpoint_count=12, conflict_probability=0.5, cycles=2))
    memos, instances, groundings, detected, folded, lowered = [], [], [], [], [], []

    def cycle(base, pairs, cycle_index, fresh, memo, weave_cycle=weaver._weave_cycle):
        # A weave's cycles share one memo, empty when its first cycle begins.
        if cycle_index == 0:
            assert not (memo.instances or memo.folds or memo.lowerings or memo.stamps or memo.plain_bindings)
            memos.append(memo)
        assert memo is memos[-1]
        return weave_cycle(base, pairs, cycle_index, fresh, memo)

    def ground(*args, **kwargs):
        inst = matching.instantiate_advice(*args, **kwargs)
        instances.append(inst)
        return inst

    def grounding(tree, ground):
        groundings.append(tree)
        return map_leaves(tree, ground)

    def detect(*args, **kwargs):
        groups, plan = detect_conflicts(*args, **kwargs)
        detected.extend(groups)
        return groups, plan

    def fold(group):
        folded.append(group)
        return merge_group(group)

    def lower_group(group, tree, ids, lower_group=merge_module._lower_group):
        lowered.append(group)
        return lower_group(group, tree, ids)

    # Counting the pairwise steps also catches a cache inside ``merge_group``.
    steps = mock.patch.object(merge_module, "_merge", side_effect=merge_module._merge)
    with mock.patch.object(weaver, "_weave_cycle", cycle), mock.patch.object(weaver, "instantiate_advice", ground), \
            mock.patch.object(matching, "map_leaves", grounding), mock.patch.object(weaver, "detect_conflicts", detect), \
            mock.patch.object(weaver, "merge_group", fold), mock.patch.object(merge_module, "_lower_group", lower_group), \
            steps as pairwise:
        for _ in range(2):
            for seen in (instances, groundings, detected, folded, lowered):
                seen.clear()
            pairwise.reset_mock()
            _, reports = weave_cascade(base, cascades)
            # Every Link and Rewrite of every instance went through map_leaves.
            assert len(groundings) == sum(len(inst.grounded_rules) for inst in instances) > 0
            assert len(detected) > 1 and folded == detected and lowered == detected
            assert pairwise.call_count >= sum(r.merge_ops for r in reports) > 0
            assert not any(r.instances_reused or r.folds_reused or r.lowerings_reused for r in reports)
    assert len(memos) == 2 and memos[0] is not memos[1]


def test_anchors_with_the_same_originals_and_rule_trees_share_one_fold():
    # Anchors with the same originals and the very same rule trees share
    # a fold within one weave; the weave emits what it emits when every
    # group is folded on its own, and merge_ops still counts every group.
    class NoHits(MemoTable):
        def get(self, key, default=None):
            return default

    base, cascades = continuum_workload()
    emitted, detected = [], []

    def apply(assembly, instructions):
        emitted.append(instructions)
        return apply_instructions(assembly, instructions)

    def detect(*args, **kwargs):
        groups, plan = detect_conflicts(*args, **kwargs)
        detected.append(groups)
        return groups, plan

    with mock.patch.object(weaver, "apply_instructions", apply), mock.patch.object(weaver, "detect_conflicts", detect):
        shared, shared_reports = weave_cascade(base, cascades)
        alone, alone_reports = weave_cascade(base, cascades, Memo(folds=NoHits()))
    assert [r.folds_reused for r in shared_reports] == [3]
    assert [r.folds_reused for r in alone_reports] == [0]
    assert emitted[0] == emitted[1] and shared == alone
    steps = [sum(len(g.trees) - 1 for g in groups) for groups in detected]
    assert [r.merge_ops for r in shared_reports + alone_reports] == steps


def fan_out_parts():
    """One anchor ``src.out`` bound to ``lamp.on`` and ``fan.on``, beside
    two components ``d1`` and ``d2`` that declare no required port."""
    components = [
        Component("src", "t", ports=(PortSpec("out", REQUIRED),)),
        Component("lamp", "t", ports=(PortSpec("on", PROVIDED),)),
        Component("fan", "t", ports=(PortSpec("on", PROVIDED),)),
        Component("d1", "t", ports=(PortSpec("x", PROVIDED),)),
        Component("d2", "t", ports=(PortSpec("x", PROVIDED),)),
    ]
    return components, [Binding(required("src", "out"), provided(t, "on")) for t in ("lamp", "fan")]


def test_a_fold_is_reused_whatever_order_its_rule_trees_arrive_in():
    # Each aspect rewrites one of the two ports bound to src.out, so the
    # anchor's rule trees arrive in the order the base lists its bindings.
    components, bindings = fan_out_parts()
    pointcut = "Pointcut:\n  lamp := /lamp.on/\n  fan := /fan.on/\nAdvice:\n"
    aas = (
        parse_aa(pointcut + "schema a(lamp, fan):\n  lamp -> (fan ; call)\n"),
        parse_aa(pointcut + "schema b(lamp, fan):\n  fan -> (lamp ; call)\n"),
    )
    cascades, memo = [Cascade("c", cycles=(aas,))], Memo()
    first, (first_report,) = weave_cascade(Assembly.build(components, bindings), cascades, memo)
    again, (again_report,) = weave_cascade(Assembly.build(components, bindings[::-1]), cascades, memo)
    assert first_report.failure is None and first_report.conflict_groups == 1
    assert again_report.folds_reused == again_report.conflict_groups == 1
    assert again == first


def test_the_failing_binding_does_not_depend_on_arrival_order():
    components, bindings = fan_out_parts()
    aas = [
        parse_aa(f"Pointcut:\n  d := /{d}/\n  lamp := /lamp.on/\nAdvice:\nschema {d}(d, lamp):\n  d.^{port} -> (lamp)\n")
        for d, port in (("d1", "Missing"), ("d2", "Gone"))
    ]
    failures = set()
    for ordered in (bindings, bindings[::-1]):
        for order in itertools.permutations(aas):
            _, (report,) = weave_cascade(Assembly.build(components, ordered), [Cascade("c", cycles=(order,))])
            failures.add(report.failure)
    assert failures == {"binding d1.^Missing -> lamp.on woven by 'd1': d1 declares no required port 'Missing'"}


def test_confluence_weaving_twice_changes_nothing(hospital_base, mono_cascade):
    woven, _ = weave_cascade(hospital_base, [mono_cascade])
    again, _ = weave_cascade(hospital_base, [mono_cascade])
    assert diff(woven, again) == []


# ---------------------------------------------------------------------------
# namespaces


def marker_cascade(tag: str, namespace: str) -> Cascade:
    maker = parse_aa(
        "Pointcut:\n"
        "  hub := /hub.^tick/\n"
        "Advice:\n"
        f"schema make_{tag}(hub):\n"
        "  marker : 'test.Marker';\n"
        "  hub -> (marker.in)\n"
    )
    prober = parse_aa(
        "Pointcut:\n"
        "  m := /marker[:digit:].in/\n"
        "Advice:\n"
        f"schema probe_{tag}(m):\n"
        "  probe : 'test.Probe';\n"
        "  probe.^out -> (m)\n"
    )
    return Cascade(tag, namespace, ((maker,), (prober,)))


@pytest.fixture()
def hub_base():
    from aaweave.model import Assembly, Component, PortSpec, REQUIRED

    return Assembly.build(
        [Component("hub", "test.Hub", ports=(PortSpec("tick", REQUIRED),))], []
    )


def test_private_cascades_do_not_interact(hub_base):
    ca = marker_cascade("a", "nsA")
    cb = marker_cascade("b", "nsB")
    cg = marker_cascade("g", "")
    woven, reports = weave_cascade(hub_base, [ca, cb, cg])
    probes = [b for b in woven.bindings if b.source.port_name == "out"]
    seen = {}
    for b in probes:
        prober = woven.components[b.source.component_id].provenance.aa_name
        marker = woven.components[b.target.component_id].provenance
        seen.setdefault(prober, set()).add((marker.aa_name, marker.namespace))
    # private probes see their own marker and the global one, never the
    # other private cascade's; the global probe sees only global markers
    assert seen["probe_a"] == {("make_a", "nsA"), ("make_g", "")}
    assert seen["probe_b"] == {("make_b", "nsB"), ("make_g", "")}
    assert seen["probe_g"] == {("make_g", "")}


def test_cross_aspect_matches_are_surfaced(fixtures_dir, hospital_base, scenario_cascade, assistance_cascade, energy_cascade):
    def crossed(reports):
        return [r.cross_aspect_matches for r in reports]

    full = [
        [],
        [("obs_rfid", "dec"), ("obs_switch", "dec")],
        [("action_light", "dec"), ("action_shutter", "dec")],
    ]
    assert crossed(weave_cascade(hospital_base, [scenario_cascade])[1]) == full
    assert crossed(weave_cascade(hospital_base, [assistance_cascade, energy_cascade])[1]) == full
    # The replay builds the hospital device by device and then loses
    # light1, so action_light stops matching dec's product.
    script = parse_script((fixtures_dir / "hospital_script.jsonl").read_text())
    trace = run_scenario(Assembly.empty(), [scenario_cascade], script)
    assert crossed(trace.initial_reports) == [[], [], []]
    assert [crossed(record.reports) for record in trace.records] == [
        [], [], [], [],
        full,
        [[], [("obs_rfid", "dec"), ("obs_switch", "dec")], [("action_shutter", "dec")]],
    ]


def _lamp_base():
    return Assembly.build(
        [
            *(Component(f"s{k}", "Sw", metadata={"type": "Sw"}, ports=(PortSpec("out", REQUIRED),)) for k in (1, 2)),
            Component("l", "Lamp", metadata={"type": "Lamp"}, ports=(PortSpec("in", PROVIDED),)),
        ],
        [],
    )


def _lamp_maker(name, switch):
    return parse_aa(f"Pointcut:\n  s := /{switch}.^out/\nAdvice:\nschema {name}(s):\n  lamp : 'Lamp';\n  s -> (lamp.in)\n")


_RELAY_TO_LAMPS = parse_aa(
    "Pointcut:\n  v := /*(@type=Lamp).in/\nAdvice:\nschema c(v):\n  relay : 'Relay';\n  relay.^out -> (v)\n"
)
_RELAY_TO_L = parse_aa("Pointcut:\n  v := /l.in/\nAdvice:\nschema other(v):\n  relay : 'Relay';\n  relay.^out -> (v)\n")


def test_a_cycle_whose_input_holds_nothing_woven_reports_no_cross_match():
    base = _lamp_base()
    dry = parse_aa("Pointcut:\n  v := /nowhere.in/\nAdvice:\nschema dry(v):\n  relay : 'Relay';\n  relay.^out -> (v)\n")
    _, reports = weave_cascade(base, [Cascade("c", cycles=((_lamp_maker("mk1", "s1"), dry), (_RELAY_TO_LAMPS,)))])
    assert [r.applied for r in reports] == [[("mk1", 0, 1)], [("c", 1, 2)]]
    assert [r.cross_aspect_matches for r in reports] == [[], [("c", "mk1")]]
    # Without ``mk1``, ``dry`` finds no joinpoint and cycle 1's input is
    # the base alone.
    _, reports = weave_cascade(base, [Cascade("c", cycles=((dry,), (_RELAY_TO_LAMPS,)))])
    assert [r.applied for r in reports] == [[], [("c", 1, 1)]]
    assert [r.cross_aspect_matches for r in reports] == [[], []]


def test_a_later_cycle_lists_exactly_the_producers_of_its_woven_candidates():
    base = _lamp_base()
    makers = (_lamp_maker("mk1", "s1"), _lamp_maker("mk2", "s2"), _RELAY_TO_L)
    cascade = Cascade("c", cycles=(makers, (_RELAY_TO_LAMPS,)))
    woven, reports = weave_cascade(base, [cascade])
    # ``c`` binds the base lamp and both woven ones, never ``other``'s relay.
    assert reports[1].applied == [("c", 1, 3)]
    assert [r.cross_aspect_matches for r in reports] == [[], [("c", "mk1"), ("c", "mk2")]]
    # Woven components the input already holds count from the first cycle
    # that may see them, and ``c``'s own products never count.
    _, reports = weave_cascade(woven, [Cascade("again", cycles=((), (_RELAY_TO_LAMPS,)))])
    assert [r.cross_aspect_matches for r in reports] == [[], [("c", "mk1"), ("c", "mk2")]]


def test_weave_result_keeps_assembly_invariants(hospital_base, scenario_cascade):
    woven, _ = weave_cascade(hospital_base, [scenario_cascade])
    rebuilt = Assembly.build(woven.components.values(), woven.bindings)
    assert rebuilt == woven


def test_fresh_names_do_not_depend_on_arrival_order(hospital_base, scenario_cascade):
    def timeless(report):
        d = report.to_json_dict()
        del d["durations_us"]
        return d

    spec = WorkloadSpec(seed=3, joinpoint_count=40, conflict_probability=0.5, cycles=2)
    for base, cascades in [(hospital_base, [scenario_cascade]), generate_workload(spec)]:
        woven, reports = weave_cascade(base, cascades)
        assert any(c.provenance is not None for c in woven.components.values())
        comps = sorted(base.components.values(), key=lambda c: c.id, reverse=True)
        bindings = base.bindings[::-1]
        adds = [*map(AddComponent, comps), *map(AddBinding, bindings)]
        for rebuilt in (Assembly.build(comps, bindings), apply_instructions(Assembly.empty(), adds)):
            assert list(rebuilt.components) == [c.id for c in comps]
            again, again_reports = weave_cascade(rebuilt, cascades)
            assert again == woven
            assert list(map(timeless, again_reports)) == list(map(timeless, reports))


def test_repeated_aspect_in_one_cycle_weaves_once(fixtures_dir, hospital_base):
    identity = parse_aa((fixtures_dir / "aa" / "identity_management.aa").read_text())
    once, _ = weave_cycle(hospital_base, [identity])
    twice, _ = weave_cycle(hospital_base, [identity, identity])
    assert once == twice
