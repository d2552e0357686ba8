import itertools
import random
import time
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aaweave.model import (
    PROVIDED,
    REQUIRED,
    AddBinding,
    AddComponent,
    Assembly,
    Binding,
    Component,
    DanglingBinding,
    DuplicateBinding,
    DuplicateComponent,
    PortSpec,
    RemoveBinding,
    RemoveComponent,
    UnknownComponent,
    Woven,
    apply_instructions,
    assembly_from_json,
    assembly_to_json,
    canonical_equal,
    diff,
    export,
    provided,
    required,
)
from aaweave.sim import WorkloadSpec, generate_workload
from aaweave.weaver import weave_cascade


def comp(cid, *ports, prov=None):
    return Component(cid, f"type.{cid}", ports=tuple(ports), provenance=prov)


def switch_light():
    return Assembly.build(
        [
            comp("switch", PortSpec("value_Evented_NewValue", REQUIRED)),
            comp("light", PortSpec("SetState", PROVIDED)),
        ],
        [],
    )


def test_add_component_to_empty():
    out = apply_instructions(Assembly.empty(), [AddComponent(comp("switch"))])
    assert set(out.components) == {"switch"}
    assert out.bindings == ()


def test_add_binding_directions_follow_port_notation():
    base = switch_light()
    b = Binding(required("switch", "value_Evented_NewValue"), provided("light", "SetState"))
    out = apply_instructions(base, [AddBinding(b)])
    assert out.bindings == (b,)


def test_remove_component_cascades_bindings():
    base = apply_instructions(
        switch_light(),
        [AddBinding(Binding(required("switch", "value_Evented_NewValue"), provided("light", "SetState")))],
    )
    out = apply_instructions(base, [RemoveComponent("switch")])
    expected = Assembly.build([comp("light", PortSpec("SetState", PROVIDED))], [])
    assert out == expected


def test_apply_errors():
    base = switch_light()
    with pytest.raises(UnknownComponent):
        apply_instructions(base, [RemoveComponent("nope")])
    with pytest.raises(DuplicateComponent):
        apply_instructions(base, [AddComponent(comp("switch"))])
    with pytest.raises(DanglingBinding):
        apply_instructions(base, [AddBinding(Binding(required("switch", "bogus"), provided("light", "SetState")))])
    with pytest.raises(DanglingBinding):
        # wrong direction on the target side
        apply_instructions(base, [AddBinding(Binding(required("switch", "value_Evented_NewValue"), required("light", "SetState")))])
    good = Binding(required("switch", "value_Evented_NewValue"), provided("light", "SetState"))
    with pytest.raises(DuplicateBinding):
        apply_instructions(base, [AddBinding(good), AddBinding(good)])


def test_woven_components_accept_undeclared_ports():
    woven = comp("Decision1", PortSpec("SetTime", PROVIDED), prov=Woven("dec", 0))
    base = Assembly.build([woven, comp("rfid", PortSpec("out", REQUIRED))], [])
    out = apply_instructions(
        base, [AddBinding(Binding(required("rfid", "out"), provided("Decision1", "Manage")))]
    )
    assert out.components["Decision1"].has_port("Manage", PROVIDED)
    # base components stay closed
    with pytest.raises(DanglingBinding):
        apply_instructions(base, [AddBinding(Binding(required("rfid", "out"), provided("rfid", "Manage")))])


def test_component_ports_are_a_canonical_set():
    pa, pb, ra = PortSpec("a", PROVIDED), PortSpec("b", PROVIDED), PortSpec("a", REQUIRED)
    c = comp("x", ra, pb, pa)
    assert c == comp("x", pb, pa, ra, pb)
    assert c != comp("x", pa, pb)
    assert c.ports == (pa, pb, ra)
    assert c.with_port(PortSpec("0", REQUIRED)).ports == (pa, pb, PortSpec("0", REQUIRED), ra)
    assert c.with_port(pb).ports == (pa, pb, ra)


# ---------------------------------------------------------------------------
# diff


def random_assembly(rng: random.Random) -> Assembly:
    comps = []
    for i in range(rng.randint(0, 6)):
        ports = [PortSpec("in", PROVIDED), PortSpec("out", REQUIRED)]
        prov = Woven(f"aa{rng.randint(0, 2)}", rng.randint(0, 2)) if rng.random() < 0.4 else None
        comps.append(
            Component(
                f"c{i}",
                f"t{rng.randint(0, 3)}",
                properties={"p": rng.randint(0, 3)},
                ports=tuple(ports),
                provenance=prov,
            )
        )
    bindings = []
    seen = set()
    for _ in range(rng.randint(0, 8)):
        if not comps:
            break
        a, b = rng.choice(comps), rng.choice(comps)
        key = (a.id, b.id)
        if key in seen:
            continue
        seen.add(key)
        bindings.append(Binding(required(a.id, "out"), provided(b.id, "in")))
    return Assembly.build(comps, bindings)


def test_diff_identity(hospital_base):
    assert diff(hospital_base, hospital_base) == []


def test_diff_single_add():
    c = comp("c")
    assert diff(Assembly.empty(), Assembly.build([c], [])) == [AddComponent(c)]


def test_diff_round_trip_200_random_pairs():
    rng = random.Random(7)
    for _ in range(200):
        a, b = random_assembly(rng), random_assembly(rng)
        assert apply_instructions(a, diff(a, b)) == b


def test_diff_orders_removals_before_additions():
    rng = random.Random(11)
    for _ in range(50):
        a, b = random_assembly(rng), random_assembly(rng)
        kinds = [type(i).__name__ for i in diff(a, b)]
        order = {"RemoveBinding": 0, "RemoveComponent": 1, "AddComponent": 2, "AddBinding": 3}
        ranks = [order[k] for k in kinds]
        assert ranks == sorted(ranks)


# ---------------------------------------------------------------------------
# canonical equality


def wired(decision_id: str) -> Assembly:
    return Assembly.build(
        [
            comp("rfid", PortSpec("out", REQUIRED)),
            Component(
                decision_id,
                "DecisionEntity",
                ports=(PortSpec("Manage", PROVIDED),),
                provenance=Woven("dec", 0),
            ),
        ],
        [Binding(required("rfid", "out"), provided(decision_id, "Manage"))],
    )


def test_canonical_equal_self(hospital_base):
    assert canonical_equal(hospital_base, hospital_base)


def test_canonical_equal_forgives_fresh_suffix():
    assert canonical_equal(wired("Decision1"), wired("Decision2"))


def test_canonical_equal_sees_binding_differences():
    a = wired("Decision1")
    b = Assembly.build(list(a.components.values()), [])
    assert not canonical_equal(a, b)


def test_canonical_equal_requires_same_aspect():
    a = wired("Decision1")
    moved = [
        c if c.provenance is None else Component(c.id, c.type_name, c.properties, c.metadata, c.ports, Woven("other", 0))
        for c in a.components.values()
    ]
    b = Assembly.build(moved, a.bindings)
    assert not canonical_equal(a, b)


# ---------------------------------------------------------------------------
# export


def test_json_round_trip(hospital_base):
    assert assembly_from_json(assembly_to_json(hospital_base)) == hospital_base


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_json_round_trip_random(seed):
    a = random_assembly(random.Random(seed))
    assert assembly_from_json(assembly_to_json(a)) == a


def test_export_empty_json():
    doc = export(Assembly.empty(), "json")
    assert '"components": []' in doc and '"bindings": []' in doc


def test_export_dot_counts():
    base = apply_instructions(
        switch_light(),
        [AddBinding(Binding(required("switch", "value_Evented_NewValue"), provided("light", "SetState")))],
    )
    dot = export(base, "dot")
    assert dot.count("[label=") == 3  # 2 nodes + 1 edge
    assert '"switch" -> "light"' in dot


def test_apply_output_survives_revalidation():
    rng = random.Random(23)
    for _ in range(40):
        a, b = random_assembly(rng), random_assembly(rng)
        out = apply_instructions(a, diff(a, b))
        assert Assembly.build(out.components.values(), out.bindings) == out


_POOL = tuple(f"c{i}" for i in range(7)) + ("n0", "n1")


def _instruction(state: Assembly, data) -> object:
    """One instruction that applies cleanly to ``state``."""
    present = sorted(state.components)
    held = {b.endpoints() for b in state.bindings}

    def ports(c, direction, extra):
        # A woven component also takes a port it does not declare yet.
        return [p.name for p in c.ports if p.direction == direction] + ([extra] if c.provenance else [])

    links = [
        (s, sp, t, tp)
        for s in present
        for sp in ports(state.components[s], REQUIRED, "x")
        for t in present
        for tp in ports(state.components[t], PROVIDED, "y")
        if (s, sp, t, tp) not in held
    ]
    kinds = [k for k, ok in (("add", len(present) < len(_POOL)), ("remove", present),
                             ("link", links), ("unlink", held)) if ok]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "add":
        cid = data.draw(st.sampled_from([c for c in _POOL if c not in state.components]), label="id")
        prov = data.draw(st.none() | st.just(Woven("w", 0)), label="provenance")
        ports = (PortSpec("in", PROVIDED), PortSpec("out", REQUIRED))
        return AddComponent(Component(cid, "t", ports=ports, provenance=prov))
    if kind == "remove":
        return RemoveComponent(data.draw(st.sampled_from(present), label="id"))
    if kind == "link":
        s, sp, t, tp = data.draw(st.sampled_from(links), label="link")
        prov = data.draw(st.none() | st.just(Woven("w", 1)), label="provenance")
        return AddBinding(Binding(required(s, sp), provided(t, tp), prov))
    s, sp, t, tp = data.draw(st.sampled_from(sorted(held)), label="unlink")
    return RemoveBinding(required(s, sp), provided(t, tp))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9), data=st.data())
def test_binding_map_travels_with_the_assembly(seed, data):
    current = random_assembly(random.Random(seed))
    state, instructions = current, []
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        instructions.append(_instruction(state, data))
        state = apply_instructions(state, instructions[-1:])
    result = apply_instructions(current, instructions)
    assert result == state
    for a in (current, state, result):
        assert a.by_endpoints() == {b.endpoints(): b for b in a.bindings}
        assert list(a.bindings) == sorted(a.bindings, key=Binding.endpoints)
    assert apply_instructions(current, diff(current, result)) == result
    assert apply_instructions(result, diff(result, current)) == current


def test_remove_missing_binding_raises():
    from aaweave.model import UnknownBinding

    base = switch_light()
    with pytest.raises(UnknownBinding):
        apply_instructions(
            base,
            [RemoveBinding(required("switch", "value_Evented_NewValue"), provided("light", "SetState"))],
        )


def test_canonical_equal_distinguishes_same_stem_wiring():
    def relay(cid):
        return Component(cid, "relay", ports=(PortSpec("out", REQUIRED),), provenance=Woven("ln", 0))

    def build(t1, t2):
        return Assembly.build(
            [comp("devA", PortSpec("in", PROVIDED)), comp("devB", PortSpec("in", PROVIDED)), relay("relay1"), relay("relay2")],
            [
                Binding(required("relay1", "out"), provided(t1, "in")),
                Binding(required("relay2", "out"), provided(t2, "in")),
            ],
        )

    # swapping targets is still a valid renaming (relay1 <-> relay2) ...
    assert canonical_equal(build("devA", "devB"), build("devB", "devA"))
    # ... but genuinely different wiring is not
    assert not canonical_equal(build("devA", "devB"), build("devA", "devA"))


def _renamed(assembly: Assembly, rename: dict[str, str]) -> Assembly:
    def ref(r):
        return replace(r, component_id=rename.get(r.component_id, r.component_id))

    return Assembly.build(
        [replace(c, id=rename.get(c.id, c.id)) for c in assembly.components.values()],
        [replace(b, source=ref(b.source), target=ref(b.target)) for b in assembly.bindings],
    )


def brute_force_equal(a: Assembly, b: Assembly) -> bool:
    """``canonical_equal`` by its definition: try every bijection between
    the woven components that keeps stem, type, aspect, properties and
    metadata, and compare the bindings under it."""
    def label(c):
        return (c.id.rstrip("0123456789"), c.type_name, c.provenance.aa_name, c.properties, c.metadata)

    def keys(assembly, rename):
        return {
            (rename.get(s, s), sp, rename.get(t, t), tp, bd.provenance)
            for bd in assembly.bindings
            for s, sp, t, tp in [bd.endpoints()]
        }

    base_a, base_b = ({cid: c for cid, c in x.components.items() if c.provenance is None} for x in (a, b))
    woven_a, woven_b = ([c for c in x.components.values() if c.provenance is not None] for x in (a, b))
    if base_a != base_b or len(woven_a) != len(woven_b):
        return False
    target = keys(b, {})
    return any(
        all(label(x) == label(y) for x, y in zip(woven_a, perm))
        and keys(a, {x.id: y.id for x, y in zip(woven_a, perm)}) == target
        for perm in itertools.permutations(woven_b)
    )


_SMALL_PORTS = (PortSpec("i", PROVIDED), PortSpec("j", PROVIDED), PortSpec("o", REQUIRED))
_PROVENANCES = (None, Woven("x"), Woven("y"))


@st.composite
def small_weaves(draw) -> Assembly:
    """Two base components, up to six woven ones, and bindings among them.

    In a uniform weave every woven component has the same label and every
    binding the same ports and provenance, so only the wiring tells woven
    components apart and the search must pin some of them.
    """
    uniform = draw(st.booleans())

    def pick(options):
        return options[0] if uniform else draw(st.sampled_from(options))

    comps = [Component(f"b{k}", "B", ports=_SMALL_PORTS) for k in range(2)]
    for k in range(draw(st.integers(0, 6))):
        comps.append(Component(
            f"{pick('uv')}{k}", "T", properties={"k": pick((0, 1))}, ports=_SMALL_PORTS, provenance=Woven(pick("xy")),
        ))
    ids = st.sampled_from([c.id for c in comps])
    bindings = {}
    for s, t in draw(st.lists(st.tuples(ids, ids), max_size=12)):
        port = pick("ij")
        bindings[s, t, port] = Binding(required(s, "o"), provided(t, port), pick(_PROVENANCES))
    return Assembly.build(comps, bindings.values())


def _perturbed(assembly: Assembly, draw) -> Assembly:
    """``assembly`` with one binding retargeted or re-stamped, or one woven
    component's aspect or property changed."""
    comps, bindings = dict(assembly.components), list(assembly.bindings)
    woven = [cid for cid, c in comps.items() if c.provenance is not None]
    kinds = (["retarget", "restamp"] if bindings else []) + (["aspect", "property"] if woven else [])
    assume(kinds)
    kind = draw(st.sampled_from(kinds))
    if kind in ("retarget", "restamp"):
        i = draw(st.integers(0, len(bindings) - 1))
        b = bindings[i]
        if kind == "retarget":
            b = replace(b, target=replace(b.target, component_id=draw(st.sampled_from(sorted(comps)))))
            assume(b.endpoints() not in assembly.by_endpoints())
        else:
            b = replace(b, provenance=draw(st.sampled_from(_PROVENANCES + (Woven("x", 1),))))
        bindings[i] = b
    else:
        c = comps[draw(st.sampled_from(woven))]
        if kind == "aspect":
            comps[c.id] = replace(c, provenance=Woven(draw(st.sampled_from("xyz"))))
        else:
            comps[c.id] = replace(c, properties={"k": draw(st.integers(0, 2))})
    return Assembly.build(comps.values(), bindings)


@settings(max_examples=300, deadline=None)
@given(a=small_weaves(), numbers=st.permutations(range(10, 16)), perturb=st.booleans(), data=st.data())
def test_canonical_equal_agrees_with_brute_force(a, numbers, perturb, data):
    b = _perturbed(a, data.draw) if perturb else a
    woven = [cid for cid, c in b.components.items() if c.provenance is not None]
    b = _renamed(b, {cid: cid.rstrip("0123456789") + str(n) for cid, n in zip(woven, numbers)})
    expected = brute_force_equal(a, b)
    assert perturb or expected
    assert canonical_equal(a, b) == expected
    assert canonical_equal(b, a) == expected


def test_canonical_equal_pins_what_refinement_cannot_split():
    # Every relay has one binding in and one out, so colour refinement alone
    # cannot tell two triangles from a hexagon, nor pair the relays of two
    # triangles.
    def rings(*rings):
        relays = [Component(f"relay{k}", "T", ports=(PortSpec("i", PROVIDED), PortSpec("o", REQUIRED)),
                            provenance=Woven("x")) for ring in rings for k in ring]
        return Assembly.build(relays, [
            Binding(required(f"relay{k}", "o"), provided(f"relay{ring[(n + 1) % len(ring)]}", "i"))
            for ring in rings for n, k in enumerate(ring)
        ])

    triangles = rings((0, 1, 2), (3, 4, 5))
    assert canonical_equal(triangles, rings((5, 4, 3), (2, 1, 0)))
    assert canonical_equal(triangles, rings((0, 4, 2), (3, 1, 5)))
    assert not canonical_equal(triangles, rings((0, 1, 2, 3, 4, 5)))


def test_canonical_equal_forgives_a_reversed_numbering_of_a_large_weave():
    woven, _ = weave_cascade(*generate_workload(WorkloadSpec(seed=1, joinpoint_count=40, conflict_probability=0.5)))
    stems: dict[str, list[str]] = {}
    for cid, c in woven.components.items():
        if c.provenance is not None:
            stems.setdefault(cid.rstrip("0123456789"), []).append(cid)
    renamed = _renamed(woven, {x: y for ids in stems.values() for x, y in zip(ids, reversed(ids))})
    assert renamed.bindings != woven.bindings
    start = time.perf_counter()
    assert canonical_equal(woven, renamed)
    assert time.perf_counter() - start < 2


def test_canonical_equal_pairs_many_unlinked_twins():
    twins = [Component(f"twin{k}", "T", provenance=Woven("x")) for k in range(1500)]
    renamed = [replace(c, id=f"twin{k + 1500}") for k, c in enumerate(twins)]
    assert canonical_equal(Assembly.build(twins, []), Assembly.build(renamed, []))
