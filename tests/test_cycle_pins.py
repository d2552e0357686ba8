"""Weave cycles against ``reference_weave``, the spec of a whole weave.

Each check weaves one-shot and on a fresh session memo through the
``weaves_as_the_spec`` fixture: the same woven assembly, fresh ids and
all, and the same report facts, for generated cascades that cross
namespaces and cycles, for aspects that are skipped or match what other
aspects wove, and for cycles that fail after a good one.
"""
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_weave import WATCH_RELAYS

from aaweave.language import parse_aa
from aaweave.model import Assembly
from aaweave.sim import WorkloadSpec, generate_workload
from aaweave.weaver import Cascade


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    cycles=st.integers(1, 3),
    rules=st.integers(1, 2),
    p=st.sampled_from((0.0, 0.33, 0.5)),
    namespaces=st.sampled_from((1, 2)),
)
def test_generated_cascades_weave_as_under_the_reference(weaves_as_the_spec, seed, cycles, rules, p, namespaces):
    spec = WorkloadSpec(seed=seed, joinpoint_count=10, aa_count=6, rules_per_aa=rules, conflict_probability=p, cycles=cycles)
    base, (cascade,) = generate_workload(spec)
    # Every second aspect of a rank in a namespace of its own, and a last
    # cycle that watches the relays in each namespace, so it crosses.
    ranks = [
        tuple(aa.with_namespace("b") if namespaces == 2 and k % 2 else aa for k, aa in enumerate(rank))
        for rank in cascade.cycles
    ]
    ranks.append((WATCH_RELAYS, WATCH_RELAYS.with_namespace("b")))
    facts = weaves_as_the_spec(base, [replace(cascade, namespace="a", cycles=tuple(ranks))])
    assert len(facts) == cycles + 1 and not any(f.failure for f in facts)
    assert facts[-1].cross_aspect_matches and facts[-1].conflict_groups


def test_skipped_and_crossing_aspects_weave_as_under_the_reference(
    weaves_as_the_spec, fixtures_dir, hospital_base, scenario_cascade, assistance_cascade, energy_cascade
):
    rfid = parse_aa((fixtures_dir / "aa" / "perception_rfid.aa").read_text())
    (facts,) = weaves_as_the_spec(hospital_base, [Cascade("dry", cycles=((rfid,),))])
    assert facts.skipped == [("obs_rfid", "no joinpoint for DecisionEntity")] and not facts.applied
    facts = weaves_as_the_spec(hospital_base, [assistance_cascade, energy_cascade])
    assert all(f.cross_aspect_matches for f in facts[1:]) and all(f.applied for f in facts)
    facts = weaves_as_the_spec(Assembly.empty(), [scenario_cascade])
    assert [bool(f.skipped) for f in facts] == [False, True, True]


def test_a_failing_cycle_fails_as_under_the_reference(weaves_as_the_spec, fixtures_dir, hospital_base):
    # A clash in lowering and a stray call, each in a second cycle beside
    # an aspect that weaves.
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
        facts = weaves_as_the_spec(hospital_base, [Cascade("c", cycles=((dec,), (rfid, *failing)))])
        assert [f.failure is not None for f in facts] == [False, True]
