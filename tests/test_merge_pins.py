"""``merge.detect_conflicts`` against ``reference_weave.detect``, the spec's
detection, cycle by cycle through whole weaves.

The program must return the spec's groups in the spec's anchor order,
with the same originals, contributors and provenance, and the same plain
bindings and component adds in the same order; only each group's rule
trees may come in another order, which no fold depends on.
"""
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_weave import WATCH_RELAYS, Group, detect

from aaweave import weaver
from aaweave.language import parse_aa
from aaweave.merge import detect_conflicts
from aaweave.optree import sort_key
from aaweave.sim import WorkloadSpec, generate_workload
from aaweave.weaver import Cascade, weave_cascade


def rule_trees_sorted(groups):
    return [
        Group(g.anchor, (*g.trees[: len(g.originals)], *sorted(g.trees[len(g.originals):], key=sort_key)),
              g.contributors, g.originals, g.provenance)
        for g in groups
    ]


def detect_against_reference(base, cascades):
    """Weave, checking each cycle's detection against the spec's; return
    the program's detections."""
    seen = []

    def spy(assembly, instances, memo, cycle=0):
        groups, plan = detect_conflicts(assembly, instances, memo, cycle=cycle)
        want_groups, want_plain, want_components = detect(assembly, instances, cycle)
        assert rule_trees_sorted(groups) == rule_trees_sorted(want_groups)
        assert plan.plain_bindings == want_plain and plan.component_adds == want_components
        seen.append((groups, plan))
        return groups, plan

    with mock.patch.object(weaver, "detect_conflicts", spy):
        weave_cascade(base, cascades)
    return seen


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
    ranks = [
        tuple(aa.with_namespace("b") if namespaces == 2 and k % 2 else aa for k, aa in enumerate(rank))
        for rank in cascade.cycles
    ]
    ranks.append((WATCH_RELAYS, WATCH_RELAYS.with_namespace("b")))
    seen = detect_against_reference(base, [replace(cascade, namespace="a", cycles=tuple(ranks))])
    assert len(seen) == cycles + 1
    assert any(plan.plain_bindings for _, plan in seen)
    if p:
        assert any(groups for groups, _ in seen[:-1])
    # Every spec here has link-only aspects, so relays to watch: the last
    # cycle's groups are the relays' woven bindings, each with its call.
    last, _ = seen[-1]
    assert last and all(g.anchor.component_id.startswith("relay") and g.originals for g in last)


def test_detect_equals_the_reference_on_anchors_shared_across_namespaces(weaves_as_the_spec, fixtures_dir, hospital_base):
    identity, brightness = (
        parse_aa((fixtures_dir / "aa" / name).read_text()) for name in ("identity_management.aa", "brightness_light.aa")
    )
    cascades = [Cascade("shared", "a", ((identity, brightness.with_namespace("b")),))]
    seen = detect_against_reference(hospital_base, cascades)
    shared = [g for groups, _ in seen for g in groups if len({ns for _, ns in g.contributors}) > 1]
    assert shared and all(g.provenance.namespace == "" for g in shared)
    (facts,) = weaves_as_the_spec(hospital_base, cascades)
    assert facts.failure is None and facts.conflict_groups
