import functools
import itertools
import types
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_weave import Group, detect

from aaweave import weaver
from aaweave.language import Link, Rewrite, parse_aa
from aaweave.matching import (
    AdviceInstance,
    FreshNames,
    collect_joinpoints,
    combinations,
    instantiate_advice,
    match_pointcut,
)
from aaweave.merge import (
    CallWithoutOriginal,
    DelegateClash,
    MergedPlan,
    RewriteGroup,
    detect_conflicts,
    lower,
    merge,
    merge_group,
    normalize,
    op_stems,
    _merge_cached,
)
from aaweave.model import (
    PROVIDED,
    REQUIRED,
    AddBinding,
    AddComponent,
    Assembly,
    Binding,
    Component,
    PortSpec,
    RemoveBinding,
    Woven,
    apply_instructions,
    provided,
    required,
)
from aaweave.optree import CALL, NOP, Delegate, If, Leaf, Par, Seq, sort_key
from aaweave.sim import WorkloadSpec, generate_workload
from aaweave.weaver import Memo, MemoTable

light_on = Leaf(provided("light", "on"))
shutter_open = Leaf(provided("shutter", "open"))
a, b, c = (Leaf(provided(x, "p")) for x in "abc")
c1, c2 = provided("cond1", "t"), provided("cond2", "t")
threshold = provided("threshold", "IsReached")


def rewrite_group(anchor, trees, originals=(), aa="x"):
    """A group as detection builds it for one aspect in the global namespace."""
    return RewriteGroup(anchor, tuple(trees), ((aa, ""),), originals, Woven(aa, 0, ""))


# ---------------------------------------------------------------------------
# directed merge examples


def test_nop_absorbs():
    assert merge(NOP, light_on) == NOP


def test_call_is_neutral():
    assert merge(CALL, light_on) == light_on


def test_distinct_leaves_become_parallel():
    assert merge(a, b) == Par((a, b))


def test_leaf_into_if_with_nop_and_call_branches():
    # The canonical worked example: the original interaction is absorbed in
    # the then branch and survives via call in the else branch.
    got = merge(light_on, If(threshold, NOP, CALL))
    assert got == If(threshold, NOP, light_on)


def test_equal_conditions_merge_pointwise():
    got = merge(If(c1, a, b), If(c1, c, NOP))
    assert got == If(c1, merge(a, c), NOP)


def test_unequal_conditions_nest():
    got = merge(If(c1, a, b), If(c2, c, NOP))
    expected = If(
        c1,
        If(c2, merge(a, c), NOP),
        If(c2, merge(b, c), NOP),
    )
    assert got == expected
    assert merge(If(c2, c, NOP), If(c1, a, b)) == expected


def test_idempotency_examples():
    for tree in (a, NOP, CALL, Par((a, b)), Seq((a, b)), If(c1, a, b), Delegate(a)):
        assert merge(tree, tree) == normalize(tree)


def test_seq_is_atomic():
    s1, s2 = Seq((a, b)), Seq((b, a))
    assert merge(s1, s1) == s1
    assert merge(s1, s2) == Par(tuple(sorted((s1, s2), key=sort_key)))
    assert merge(s1, c) == Par((c, s1))


# ---------------------------------------------------------------------------
# delegate behavior


def test_delegate_wins_over_plain_trees():
    d = Delegate(a)
    assert merge(d, b) == d
    assert merge(d, Seq((a, b))) == d
    assert merge(d, Par((b, c))) == d
    assert merge(NOP, d) == NOP
    assert merge(CALL, d) == d
    assert merge(If(c1, a, b), d) == If(c1, merge(a, d), merge(b, d))


def test_delegate_clash_is_symmetric_and_deterministic():
    with pytest.raises(DelegateClash) as e1:
        merge(Delegate(a), Delegate(b))
    with pytest.raises(DelegateClash) as e2:
        merge(Delegate(b), Delegate(a))
    assert str(e1.value) == str(e2.value)


def test_delegate_clash_propagates_from_group():
    group = rewrite_group(required("s", "p"), (Delegate(a), Delegate(b), c))
    with pytest.raises(DelegateClash):
        merge_group(group)


# ---------------------------------------------------------------------------
# normalize


def test_par_flattening_and_sorting():
    assert normalize(Par((Par((b, a)), c))) == Par((a, b, c))


def test_par_dedupe_collapses_to_single_child():
    assert normalize(Par((a, a))) == a


def test_call_eliminated_among_par_siblings():
    assert normalize(Par((CALL, a))) == a
    assert normalize(Par((CALL, a))) == merge(CALL, a)


def test_nop_kept_inert_inside_par():
    assert normalize(Par((NOP, a))) == Par((a, NOP))


def test_seq_flattens_but_keeps_order():
    assert normalize(Seq((Seq((b, a)), c))) == Seq((b, a, c))


@settings(max_examples=300, deadline=None)
@given(st.deferred(lambda: trees(3)))
def test_normalize_is_idempotent(tree):
    once = normalize(tree)
    assert normalize(once) == once


# ---------------------------------------------------------------------------
# law suite (random; the exhaustive corpus runs in the acceptance module)


def trees(depth: int):
    leaf = st.sampled_from([a, b, c, NOP, CALL])
    if depth == 0:
        return leaf
    sub = st.deferred(lambda: trees(depth - 1))
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from([c1, c2]), sub, sub).map(lambda t: If(*t)),
        st.lists(sub, min_size=2, max_size=3).map(lambda ch: Seq(tuple(ch))),
        st.lists(sub, min_size=2, max_size=3).map(lambda ch: Par(tuple(ch))),
    )


@settings(max_examples=400, deadline=None)
@given(st.deferred(lambda: trees(3)), st.deferred(lambda: trees(3)))
def test_merge_commutative(x, y):
    assert merge(x, y) == merge(y, x)


@settings(max_examples=400, deadline=None)
@given(st.deferred(lambda: trees(2)), st.deferred(lambda: trees(2)), st.deferred(lambda: trees(2)))
def test_merge_associative(x, y, z):
    assert merge(merge(x, y), z) == merge(x, merge(y, z))


@settings(max_examples=400, deadline=None)
@given(st.deferred(lambda: trees(3)))
def test_merge_idempotent(x):
    assert merge(x, x) == normalize(x)


@settings(max_examples=200, deadline=None)
@given(st.deferred(lambda: trees(2)))
def test_absorption_and_neutrality(x):
    assert merge(NOP, x) == NOP
    assert merge(CALL, x) == normalize(x)


def test_merge_group_fold_order_independent():
    group_trees = [a, If(c1, b, CALL), Par((b, c)), Seq((a, c)), NOP]
    for size in (3, 4, 5):
        chosen = group_trees[:size]
        results = set()
        for perm in itertools.permutations(chosen):
            folded = normalize(perm[0])
            for t in perm[1:]:
                folded = _merge_cached(folded, normalize(t))
            results.add(sort_key(folded))
        assert len(results) == 1


def test_merge_group_spec_example():
    # Two-step evaluation: the if distributes over the plain leaf, so the
    # then branch gains the original message in parallel and the else
    # branch keeps it via the neutral call.
    group = rewrite_group(required("switch", "on"), (light_on, If(threshold, shutter_open, CALL)))
    got = merge_group(group)
    assert got == If(threshold, Par((light_on, shutter_open)), light_on)


def test_merge_group_singleton():
    group = rewrite_group(required("s", "p"), (If(c1, a, b),))
    assert merge_group(group) == If(c1, a, b)


# ---------------------------------------------------------------------------
# conflict detection


def _hospital_instances(fixtures_dir, hospital_base):
    instances = []
    fresh = FreshNames(taken=hospital_base.components)
    for name in ("identity_management.aa", "brightness_light.aa"):
        aa = parse_aa((fixtures_dir / "aa" / name).read_text())
        jps = collect_joinpoints(hospital_base, 0, "")
        for combo in combinations(match_pointcut(jps, aa)):
            instances.append(instantiate_advice(aa, combo, fresh, namespace="", memo=MemoTable()))
    return instances


def test_shared_anchor_groups(fixtures_dir, hospital_base):
    instances = _hospital_instances(fixtures_dir, hospital_base)
    groups, plan = detect_conflicts(hospital_base, instances, Memo())
    conflicts = [g for g in groups if g.is_conflict()]
    assert len(conflicts) == 1
    (group,) = conflicts
    assert group.anchor == required("switch", "value_Evented_NewValue")
    # base binding leaf + identity's link + brightness's rewrite tree
    assert len(group.trees) == 3
    assert {aa for aa, _ in group.contributors} == {"IdentityManagement", "brightness_light"}


def test_disjoint_rules_are_plain(fixtures_dir, hospital_base):
    instances = _hospital_instances(fixtures_dir, hospital_base)
    groups, plan = detect_conflicts(hospital_base, instances, Memo())
    assert len(plan.plain_bindings) == 6
    assert len(plan.component_adds) == 4


def test_instantiations_never_conflict(fixtures_dir, hospital_base):
    instances = _hospital_instances(fixtures_dir, hospital_base)
    groups, plan = detect_conflicts(hospital_base, instances, Memo())
    added = {c.id for c in plan.component_adds}
    assert added == {"Decision1", "Timer1", "threshold1", "Average1"}
    # adding a component is never itself an anchor
    assert not {g.anchor.component_id for g in groups} & added


def in_canonical_order(groups, plain_bindings, components):
    """A detection's result in the form ``reference_weave.detect`` returns,
    with each group's rule trees sorted by ``sort_key`` and the components
    by id: no result depends on their order, so only these two lists may
    come out in another one."""
    groups = [
        Group(g.anchor, g.trees[: len(g.originals)] + tuple(sorted(g.trees[len(g.originals):], key=sort_key)),
              g.contributors, g.originals, g.provenance)
        for g in groups
    ]
    return groups, plain_bindings, sorted(components, key=lambda comp: comp.id)


def fan_in_assembly():
    """Two anchors ``a1.out`` and ``a2.out`` bound to ``t.in``, beside
    bindings that arrive elsewhere or leave other ports of ``a1``."""
    return Assembly.build(
        [
            Component("a1", "t", ports=(PortSpec("out", REQUIRED), PortSpec("aux", REQUIRED))),
            Component("a2", "t", ports=(PortSpec("out", REQUIRED),)),
            Component("x", "t", ports=(PortSpec("out", REQUIRED),)),
            Component("t", "t", ports=(PortSpec("in", PROVIDED), PortSpec("idle", PROVIDED))),
            Component("u", "t", ports=(PortSpec("in", PROVIDED),)),
        ],
        [
            Binding(required("a1", "out"), provided("t", "in")),
            Binding(required("a2", "out"), provided("t", "in")),
            Binding(required("a1", "aux"), provided("u", "in")),
            Binding(required("x", "out"), provided("u", "in")),
        ],
    )


def instance(aa, *rules):
    return AdviceInstance(aa, "", (), rules)


def test_a_rewrite_groups_each_anchor_with_its_own_originals():
    base = fan_in_assembly()
    tree = If(threshold, light_on, CALL)
    instances = [
        instance("r", Rewrite(provided("t", "in"), tree)),
        # Nothing arrives at these ports: no anchor, no contributor.
        instance("idle", Rewrite(provided("t", "idle"), shutter_open),
                 Rewrite(provided("nowhere", "in"), shutter_open)),
    ]
    groups, plan = detect_conflicts(base, instances, Memo())
    target = provided("t", "in")
    assert groups == [
        RewriteGroup(required(a, "out"), (Leaf(target), tree), (("r", ""),), (target,), Woven("r", 0, ""))
        for a in ("a1", "a2")
    ]
    assert plan == MergedPlan()
    assert in_canonical_order(groups, [], []) == in_canonical_order(*detect(base, instances))


def test_an_anchors_trees_are_its_originals_then_every_rule_tree():
    base = apply_instructions(fan_in_assembly(), [AddBinding(Binding(required("a1", "out"), provided("u", "in")))])
    anchor = required("a1", "out")
    rules = [
        ("r1", Rewrite(provided("u", "in"), a)),
        ("l", Link(anchor, b)),
        ("r2", Rewrite(provided("t", "in"), c)),
        ("r3", Rewrite(provided("u", "in"), light_on)),
    ]
    instances = [instance(aa, rule) for aa, rule in rules]
    groups, plan = detect_conflicts(base, instances, Memo(), cycle=1)
    (group,) = [g for g in groups if g.anchor == anchor]
    originals = (provided("t", "in"), provided("u", "in"))
    assert group.originals == originals
    assert group.trees[:2] == tuple(map(Leaf, originals))
    # The rule trees come in no order the fold depends on.
    assert Counter(group.trees[2:]) == Counter((a, b, c, light_on))
    got = in_canonical_order(groups, plan.plain_bindings, plan.component_adds)
    assert got == in_canonical_order(*detect(base, instances, cycle=1))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), cycles=st.integers(1, 3), p=st.sampled_from((0.0, 0.33, 0.5)))
def test_detect_agrees_with_full_binding_maps(seed, cycles, p):
    spec = WorkloadSpec(seed=seed, joinpoint_count=12, aa_count=6, conflict_probability=p, cycles=cycles)
    base, cascades = generate_workload(spec)
    seen = []

    def spy(assembly, instances, memo, cycle=0):
        groups, plan = detect_conflicts(assembly, instances, memo, cycle=cycle)
        got = in_canonical_order(groups, plan.plain_bindings, plan.component_adds)
        seen.append(got == in_canonical_order(*detect(assembly, instances, cycle)))
        return groups, plan

    with mock.patch.object(weaver, "detect_conflicts", spy):
        weaver.weave_cascade(base, cascades)
    assert seen and all(seen)


def test_grounding_builds_the_normal_form(hospital_base):
    aa = parse_aa(
        "Pointcut:\n  s := /switch.^value_Evented_NewValue/\n  t := /light1.SetState/\n"
        "Advice:\nschema n(s, t):\n  s -> (t ; (t ; t) || call || t)\n"
    )
    raw = aa.rules[0].tree
    assert raw != normalize(raw)  # the parser keeps source order
    (combo,) = combinations(match_pointcut(collect_joinpoints(hospital_base, 0, ""), aa))
    (rule,) = instantiate_advice(aa, combo, FreshNames(), namespace="", memo=MemoTable()).grounded_rules
    leaf = Leaf(provided("light1", "SetState"))
    assert rule.tree == Par((leaf, Seq((leaf, leaf, leaf))))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), cycles=st.integers(1, 3), p=st.sampled_from((0.33, 0.5)))
def test_rewrite_groups_hold_normal_trees(seed, cycles, p):
    spec = WorkloadSpec(seed=seed, joinpoint_count=12, aa_count=6, conflict_probability=p, cycles=cycles)
    base, cascades = generate_workload(spec)
    groups = []

    def spy(group):
        groups.append(group)
        return merge_group(group)

    with mock.patch.object(weaver, "merge_group", spy):
        weaver.weave_cascade(base, cascades)
    assert groups
    for group in groups:
        assert all(tree == normalize(tree) for tree in group.trees)
        assert merge_group(group) == functools.reduce(merge, map(normalize, group.trees))


def test_aaweave_merge_is_the_module():
    import aaweave.merge as m

    assert isinstance(m, types.ModuleType)
    assert m.merge_group is merge_group


# ---------------------------------------------------------------------------
# lowering


def anchor_assembly():
    return Assembly.build(
        [
            Component("switch", "t", ports=(PortSpec("value", REQUIRED),)),
            Component("light", "t", ports=(PortSpec("on", PROVIDED),)),
            Component("threshold", "t", ports=(PortSpec("IsReached", PROVIDED),)),
        ],
        [Binding(required("switch", "value"), provided("light", "on"))],
    )


def lower_pairs(plan, pairs, fresh):
    """``lower`` of ``(group, tree)`` pairs through a memo of its own."""
    return lower(plan, [(group, tree, op_stems(tree)) for group, tree in pairs], fresh, MemoTable())


def test_lower_single_plain_binding():
    base = anchor_assembly()
    plan = MergedPlan()
    plan.plain_bindings.append(Binding(required("switch", "value"), provided("threshold", "IsReached")))
    instrs = lower(plan, [], FreshNames(taken=base.components), MemoTable())
    assert instrs == [AddBinding(plan.plain_bindings[0])]


def test_lower_if_nop_call_tree():
    base = anchor_assembly()
    anchor = required("switch", "value")
    tree = merge(Leaf(provided("light", "on")), If(provided("threshold", "IsReached"), NOP, CALL))
    group = rewrite_group(anchor, (tree,), (provided("light", "on"),), "brightness_light")
    instrs = lower_pairs(MergedPlan(), [(group, tree)], FreshNames(taken=base.components))
    adds_c = [i.component.id for i in instrs if isinstance(i, AddComponent)]
    assert adds_c == ["if1", "nop1"]
    assert RemoveBinding(anchor, provided("light", "on")) in instrs
    bindings = {(i.binding.source.key(), i.binding.target.key()) for i in instrs if isinstance(i, AddBinding)}
    assert (anchor.key(), provided("if1", "in").key()) in bindings
    assert (required("if1", "cond").key(), provided("threshold", "IsReached").key()) in bindings
    assert (required("if1", "out_then").key(), provided("nop1", "in").key()) in bindings
    assert (required("if1", "out_else").key(), provided("light", "on").key()) in bindings
    woven = apply_instructions(base, instrs)
    assert woven.components["if1"].type_name == "op.If"
    assert woven.components["nop1"].type_name == "op.Nop"


def test_lower_par_fan_out():
    base = anchor_assembly()
    anchor = required("switch", "value")
    tree = Par((Leaf(provided("light", "on")), Leaf(provided("threshold", "IsReached"))))
    group = rewrite_group(anchor, (tree,), (provided("light", "on"),))
    instrs = lower_pairs(MergedPlan(), [(group, tree)], FreshNames(taken=base.components))
    woven = apply_instructions(base, instrs)
    par = woven.components["par1"]
    assert par.type_name == "op.Par"
    outs = [b for b in woven.bindings if b.source.component_id == "par1"]
    assert len(outs) == 2


def test_lower_root_standing_for_the_originals_emits_nothing():
    anchor = required("switch", "value")
    on, reached = provided("light", "on"), provided("threshold", "IsReached")
    # a root call over the originals, and a root leaf equal to the sole one
    for tree, originals in ((CALL, (on, reached)), (Leaf(on), (on,))):
        group = rewrite_group(anchor, (tree,), originals)
        assert lower_pairs(MergedPlan(), [(group, tree)], FreshNames()) == []


def test_lower_root_leaf_replaces_every_original():
    anchor = required("switch", "value")
    on, reached, shut = provided("light", "on"), provided("threshold", "IsReached"), provided("shutter", "open")
    group = rewrite_group(anchor, (Leaf(shut),), (on, reached))
    assert lower_pairs(MergedPlan(), [(group, Leaf(shut))], FreshNames()) == [
        RemoveBinding(anchor, on),
        RemoveBinding(anchor, reached),
        AddBinding(Binding(anchor, shut, Woven("x", 0, ""))),
    ]


def test_call_without_original_raises():
    anchor = required("switch", "value")
    tree = Seq((Leaf(provided("light", "on")), CALL))
    with pytest.raises(CallWithoutOriginal):
        lower_pairs(MergedPlan(), [(rewrite_group(anchor, (tree,)), tree)], FreshNames())


def test_op_stems_follow_the_order_lowering_names_ops():
    tree = If(threshold, Seq((Par((a, b)), CALL)), Delegate(NOP))
    group = rewrite_group(required("switch", "value"), (tree,), (provided("light", "on"),))
    instrs = lower_pairs(MergedPlan(), [(group, tree)], FreshNames())
    ids = [i.component.id for i in instrs if isinstance(i, AddComponent)]
    assert ids == ["if1", "seq1", "par1", "delegate1", "nop1"]
    assert op_stems(tree) == ("if", "seq", "par", "delegate", "nop")
    assert op_stems(CALL) == op_stems(a) == ()


def test_groups_sharing_a_folded_tree_get_lowerings_of_their_own():
    # One folded tree object at two anchors, then again at the first
    # anchor with other originals and with another stamp: each lowering
    # takes the same fresh ids, but only a repeat of a whole key hits.
    on, reached, shut = provided("light", "on"), provided("threshold", "IsReached"), provided("shutter", "open")
    switch, dimmer = required("switch", "value"), required("dimmer", "value")
    tree = Seq((Leaf(shut), CALL))
    stems = op_stems(tree)
    calls = [
        [rewrite_group(switch, (tree,), (on,)), rewrite_group(dimmer, (tree,), (on,))],
        [rewrite_group(switch, (tree,), (reached,))],
        [rewrite_group(switch, (tree,), (on,), aa="y")],
    ]
    memo = MemoTable()
    first = []
    for groups in calls:
        want = lower(MergedPlan(), [(g, tree, stems) for g in groups], FreshNames(), MemoTable())
        got = lower(MergedPlan(), [(g, tree, stems) for g in groups], FreshNames(), memo)
        assert got == want
        first.append(got)
    assert len(memo) == 4
    assert [i.component.id for i in first[0] if isinstance(i, AddComponent)] == ["seq1", "seq2"]
    assert {(i.source, i.target) for i in first[1] if isinstance(i, RemoveBinding)} == {(switch, reached)}
    # Repeats hit and emit the very instructions stored.
    for groups, before in zip(calls, first):
        again = lower(MergedPlan(), [(g, tree, stems) for g in groups], FreshNames(), memo)
        assert again == before
        assert all(i is j for i, j in zip(again, before))
    assert len(memo) == 4


def test_lowering_soundness_on_hospital(fixtures_dir, hospital_base):
    instances = _hospital_instances(fixtures_dir, hospital_base)
    groups, plan = detect_conflicts(hospital_base, instances, Memo())
    instrs = lower_pairs(plan, [(g, merge_group(g)) for g in groups], FreshNames(taken=hospital_base.components))
    woven = apply_instructions(hospital_base, instrs)  # validates invariants
    assert "if1" in woven.components


def test_lowering_keeps_each_groups_stamp(fixtures_dir, hospital_base):
    instances = _hospital_instances(fixtures_dir, hospital_base)
    assert {inst.namespace for inst in instances} == {""}
    groups, plan = detect_conflicts(hospital_base, instances, Memo(), cycle=2)
    linked_by: dict = {}
    for inst in instances:
        for rule in inst.grounded_rules:
            if isinstance(rule, Link):
                linked_by.setdefault(rule.source, set()).add(inst.aa_name)
    assert plan.plain_bindings
    for b in plan.plain_bindings:
        assert b.provenance == Woven("+".join(sorted(linked_by[b.source])), 2, "")
    assert groups
    for group in groups:
        assert group.provenance == Woven("+".join(sorted({aa for aa, _ in group.contributors})), 2, "")
        instrs = lower_pairs(MergedPlan(), [(group, merge_group(group))], FreshNames(taken=hospital_base.components))
        added = [i.component if isinstance(i, AddComponent) else i.binding for i in instrs if not isinstance(i, RemoveBinding)]
        assert added
        assert all(x.provenance == group.provenance for x in added), group.anchor
