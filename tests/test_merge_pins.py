"""``merge.detect_conflicts``, ``merge.lower`` and ``merge._joint_provenance``
against copies of the code they replaced.

``reference_detect`` is the detection that sorted its anchors by
``PortRef.key``, looked every anchor up in a map of outgoing bindings and
stamped every anchor through the general joint provenance; it is kept as
it was, minus its memo.  ``reference_build`` is lowering's recursion as it
was, one call per leaf and one comprehension per port.  The fast code
must return the very same groups, plain bindings and instructions, in the
same order, with the same ids and provenance.
"""
import itertools
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaweave import weaver
from aaweave.language import Link, parse_aa
from aaweave.matching import FreshNames
from aaweave.merge import (
    CallWithoutOriginal,
    DelegateClash,
    MergedPlan,
    RewriteGroup,
    _joint_provenance,
    _op_children,
    _op_shape,
    detect_conflicts,
    lower,
    merge_group,
    normalize,
    op_stems,
)
from aaweave.model import (
    PROVIDED,
    REQUIRED,
    AddBinding,
    AddComponent,
    Binding,
    Component,
    PortRef,
    RemoveBinding,
    Woven,
    provided,
    required,
)
from aaweave.optree import CALL, NOP, Call, Delegate, If, Leaf, Par, Seq
from aaweave.sim import WorkloadSpec, generate_workload
from aaweave.weaver import Cascade, MemoTable, weave_cascade


def reference_joint_provenance(contributors, cycle: int) -> Woven:
    names = sorted({aa for aa, _ in contributors})
    namespaces = {ns for _, ns in contributors}
    ns = namespaces.pop() if len(namespaces) == 1 else ""
    return Woven("+".join(names) if names else "base", cycle, ns)


def reference_detect(base, instances, cycle=0):
    plan = MergedPlan()
    per_anchor, per_target = {}, {}
    for inst in instances:
        who = (inst.aa_name, inst.namespace)
        plan.component_adds.extend(inst.components)
        for rule in inst.grounded_rules:
            if type(rule) is Link:
                per_anchor.setdefault(rule.source, []).append((rule.tree, who))
            else:
                per_target.setdefault(rule.target, []).append((rule.tree, who))

    target_ids = {t.component_id for t in per_target}
    for b in base.by_endpoints.values():
        if b.target.component_id in target_ids:
            arriving = per_target.get(b.target)
            if arriving is not None:
                per_anchor.setdefault(b.source, []).extend(arriving)

    outgoing = {}
    anchor_ids = {a.component_id for a in per_anchor}
    for b in base.by_endpoints.values():
        if b.source.component_id in anchor_ids and b.source in per_anchor:
            outgoing.setdefault(b.source, []).append(b.target)

    groups = []
    for anchor in sorted(per_anchor, key=PortRef.key):
        entries = per_anchor[anchor]
        contributors = (entries[0][1],) if len(entries) == 1 else tuple(sorted({who for _, who in entries}))
        prov = reference_joint_provenance(contributors, cycle)
        originals = outgoing.get(anchor)
        if originals is None:
            tree = entries[0][0]
            if len(entries) == 1 and type(tree) is Leaf:
                plan.plain_bindings.append(Binding(anchor, tree.target, prov))
                continue
            originals = ()
        else:
            originals = tuple(sorted(originals, key=PortRef.key))
        trees = [Leaf(target) for target in originals]
        trees.extend(t for t, _ in entries)
        groups.append(RewriteGroup(anchor, tuple(trees), contributors, originals, prov))
    return groups, plan


def reference_build(node, group, ids, adds, binds):
    kind = type(node)
    if kind is Leaf:
        return (node.target,)
    if kind is Call:
        if not group.originals:
            raise CallWithoutOriginal(group.anchor)
        return group.originals
    children = _op_children(node)
    type_name, outs, ports = _op_shape(kind, len(children))
    cid, prov = next(ids), group.provenance
    adds.append(AddComponent(Component(cid, type_name, metadata={"type": type_name}, ports=ports, provenance=prov)))
    targets = [(node.cond,)] if kind is If else []
    targets.extend([reference_build(child, group, ids, adds, binds) for child in children])
    for port, ends in zip(outs, targets):
        source = PortRef(cid, port, REQUIRED)
        binds.extend([AddBinding(Binding(source, end, prov)) for end in ends])
    return (PortRef(cid, "in", PROVIDED),)


def reference_lower(folded, fresh):
    adds, removes, binds = [], [], []
    for group, tree, stems in folded:
        ids = iter([fresh.fresh(stem) for stem in stems])
        group_adds, group_binds = [], []
        roots = reference_build(tree, group, ids, group_adds, group_binds)
        if roots == group.originals:
            continue
        anchor, prov = group.anchor, group.provenance
        group_binds.extend([AddBinding(Binding(anchor, root, prov)) for root in roots])
        adds.extend(group_adds)
        removes.extend([RemoveBinding(anchor, o) for o in group.originals])
        binds.extend(group_binds)
    return [*adds, *removes, *binds]


# ---------------------------------------------------------------------------
# detection


def split_namespaces(cascade, namespaces: int):
    """The cascade in namespace ``a``, every second aspect of a rank
    pinned to ``b`` when two namespaces are asked for."""
    cycles = tuple(
        tuple(aa.with_namespace("b") if namespaces == 2 and k % 2 else aa for k, aa in enumerate(rank))
        for rank in cascade.cycles
    )
    return replace(cascade, namespace="a", cycles=cycles)


def detect_against_reference(base, cascades):
    """Weave, checking each cycle's detection against the reference;
    return the results compared."""
    seen = []

    def spy(assembly, instances, memo, cycle=0):
        got = detect_conflicts(assembly, instances, memo, cycle=cycle)
        want = reference_detect(assembly, instances, cycle=cycle)
        assert got[0] == want[0]
        assert got[1] == want[1]
        seen.append(got)
        return got

    with mock.patch.object(weaver, "detect_conflicts", spy):
        weave_cascade(base, cascades)
    return seen


# A last-cycle aspect that binds every generated relay, so detection runs
# over woven components and bindings too: no generated aspect matches one.
WATCH_RELAYS = parse_aa(
    "Pointcut:\n  r := /*(@type=gen.Relay).^out_1/\nAdvice:\nschema watch_relays(r):\n"
    "  tap : 'gen.Tap';\n  r -> (tap.in ; call)\n"
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    cycles=st.integers(1, 3),
    p=st.sampled_from((0.0, 0.33, 0.5)),
    namespaces=st.sampled_from((1, 2)),
)
def test_detect_equals_the_reference_in_order(seed, cycles, p, namespaces):
    spec = WorkloadSpec(seed=seed, joinpoint_count=12, aa_count=6, conflict_probability=p, cycles=cycles)
    base, (cascade,) = generate_workload(spec)
    cascade = split_namespaces(cascade, namespaces)
    cascade = replace(cascade, cycles=(*cascade.cycles, (WATCH_RELAYS, WATCH_RELAYS.with_namespace("b"))))
    seen = detect_against_reference(base, [cascade])
    assert len(seen) == cycles + 1
    assert any(plan.plain_bindings for _, plan in seen)
    if p:
        assert any(groups for groups, _ in seen[:-1])
    # Every spec here has link-only aspects, so relays to watch: the last
    # cycle's groups are the relays' woven bindings, each with its call.
    last, _ = seen[-1]
    assert last and all(g.anchor.component_id.startswith("relay") and g.originals for g in last)


def test_detect_equals_the_reference_on_anchors_shared_across_namespaces(fixtures_dir, hospital_base):
    identity, brightness = (
        parse_aa((fixtures_dir / "aa" / name).read_text()) for name in ("identity_management.aa", "brightness_light.aa")
    )
    seen = detect_against_reference(hospital_base, [Cascade("shared", "a", ((identity, brightness.with_namespace("b")),))])
    shared = [g for groups, _ in seen for g in groups if len({ns for _, ns in g.contributors}) > 1]
    assert shared and all(g.provenance.namespace == "" for g in shared)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_joint_provenance_equals_the_general_formula(k):
    pool = sorted((aa, ns) for aa in ("p", "q", "r") for ns in ("", "a", "b"))
    for contributors in itertools.combinations(pool, k):
        for cycle in (0, 2):
            assert _joint_provenance(contributors, cycle) == reference_joint_provenance(contributors, cycle)


# ---------------------------------------------------------------------------
# lowering

_PORTS = [provided(c, p) for c in ("x", "y") for p in ("in", "alt")] + [required("z", "q")]
_CONDS = [provided("cond1", "t"), provided("cond2", "t")]


def _random_tree(rng: random.Random, depth: int):
    kind = rng.choice(["leaf", "leaf", "nop", "call"] + ["delegate", "if", "seq", "par"] * (depth > 0))
    if kind == "leaf":
        return Leaf(rng.choice(_PORTS))
    if kind == "nop":
        return NOP
    if kind == "call":
        return CALL
    if kind == "delegate":
        return Delegate(_random_tree(rng, depth - 1))
    if kind == "if":
        return If(rng.choice(_CONDS), _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    children = tuple(_random_tree(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    return Seq(children) if kind == "seq" else Par(children)


def _random_folded(rng: random.Random, anchor):
    """A group at ``anchor`` and its folded tree, or None on a clash."""
    originals = tuple(sorted(rng.sample(_PORTS, rng.randint(0, 2)), key=PortRef.key))
    rules = [normalize(_random_tree(rng, 4)) for _ in range(rng.randint(1, 3))]
    aa, ns = rng.choice(("p", "q")), rng.choice(("", "a"))
    group = RewriteGroup(
        anchor, (*map(Leaf, originals), *rules), ((aa, ns),), originals, Woven(aa, rng.randint(0, 2), ns)
    )
    try:
        return group, merge_group(group)
    except DelegateClash:
        return None


def test_lower_equals_the_reference_on_random_folded_trees():
    rng = random.Random(20261020)
    kinds, failures = set(), 0
    for _ in range(1500):
        drawn = [_random_folded(rng, required(f"s{k}", "out")) for k in range(rng.randint(1, 3))]
        folded = [(group, tree, op_stems(tree)) for group, tree in filter(None, drawn)]
        for _, tree, _ in folded:
            kinds.add(type(tree))
        try:
            want = reference_lower(folded, FreshNames(taken=["if1"]))
        except CallWithoutOriginal as exc:
            with pytest.raises(CallWithoutOriginal) as raised:
                lower(MergedPlan(), folded, FreshNames(taken=["if1"]), MemoTable())
            assert raised.value.anchor == exc.anchor
            failures += 1
            continue
        got = lower(MergedPlan(), folded, FreshNames(taken=["if1"]), MemoTable())
        assert got == want
    assert kinds >= {Leaf, If, Seq, Par, Delegate} and failures
