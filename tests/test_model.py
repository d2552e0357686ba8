import dataclasses
import itertools
import json
import random
import time
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aaweave import language, matching, model, optree, sim
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
    PortRef,
    PortSet,
    PortSpec,
    RemoveBinding,
    RemoveComponent,
    UnknownComponent,
    Woven,
    apply_instructions,
    assembly_from_json,
    assembly_to_json,
    canonical_equal,
    canonical_ports,
    diff,
    provided,
    required,
    to_dot,
    to_json_dict,
)
from aaweave.cli import load_cascade_manifest
from aaweave.sim import WorkloadSpec, generate_workload
from aaweave.weaver import reweave, weave_cascade
from test_fingerprints import load_workloads


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


def test_a_removed_id_comes_back_without_its_bindings():
    link = Binding(required("switch", "value_Evented_NewValue"), provided("light", "SetState"))
    base = apply_instructions(switch_light(), [AddBinding(link)])
    switch, light = base.components["switch"], base.components["light"]
    assert apply_instructions(base, [RemoveComponent("light"), AddComponent(light)]).bindings == ()
    relinked = replace(link, provenance=Woven("w", 1))
    back = [RemoveComponent("light"), RemoveComponent("switch"), AddComponent(light), AddComponent(switch)]
    assert apply_instructions(base, [*back, AddBinding(relinked)]).bindings == (relinked,)
    with pytest.raises(DuplicateBinding):
        apply_instructions(base, [*back, AddBinding(relinked), AddBinding(link)])
    with pytest.raises(UnknownComponent):
        apply_instructions(base, [RemoveComponent("light"), RemoveComponent("light")])


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
    assert Component("y", "t", ports=c.ports).ports is c.ports  # already canonical: kept as it is


def test_port_tuples_in_any_order_give_one_port_set():
    pa, pb, ra = PortSpec("a", PROVIDED), PortSpec("b", PROVIDED), PortSpec("a", REQUIRED)
    sets = [canonical_ports(order) for order in itertools.permutations((pa, pb, ra))]
    sets += [canonical_ports([ra, pa, pb, pa]), canonical_ports({pa, pb, ra}), comp("x", pb, ra, pa).ports]
    first = sets[0]
    assert type(first) is PortSet and first == (pa, pb, ra)
    assert all(s is first for s in sets)
    assert first.pairs == {("a", PROVIDED), ("b", PROVIDED), ("a", REQUIRED)}
    # A copy in the same order is still looked up, not kept.
    assert canonical_ports(tuple(first)) is first
    assert canonical_ports([pa]) is not first


def test_a_component_keeps_the_port_set_it_is_given():
    ports = canonical_ports([PortSpec("in", PROVIDED), PortSpec("out", REQUIRED)])
    for c in (
        Component("x", "t", ports=ports),
        replace(Component("y", "t", ports=ports), id="z"),
        Component("w", "t", ports=ports, provenance=Woven("a", 0)),
    ):
        assert c.ports is ports
    # Every component's ports are a port set, however they were given.
    for given_ports in ((), [PortSpec("in", PROVIDED)], (PortSpec("in", PROVIDED),)):
        assert type(Component("x", "t", ports=given_ports).ports) is PortSet
    loaded = assembly_from_json(assembly_to_json(Assembly.build([comp("x", *ports)], [])))
    assert type(loaded.components["x"].ports) is PortSet


def test_with_port_gives_a_canonical_port_set_holding_the_port():
    c = comp("x", PortSpec("b", PROVIDED), PortSpec("a", REQUIRED))
    for spec in (PortSpec("a", PROVIDED), PortSpec("z", REQUIRED), PortSpec("b", PROVIDED)):
        grown = c.with_port(spec)
        assert type(grown.ports) is PortSet
        assert grown.ports is canonical_ports([*c.ports, spec])
        assert list(grown.ports) == sorted({*c.ports, spec}, key=lambda p: (p.direction, p.name))
        assert grown.has_port(spec.name, spec.direction)


def test_parsing_again_adds_no_port_set(fixtures_dir):
    text = (fixtures_dir / "aa" / "identity_management.aa").read_text()
    first = language.parse_aa(text)
    size = model._interned.cache_info().currsize
    for _ in range(1000):
        again = language.parse_aa(text)
    assert model._interned.cache_info().currsize == size
    locals_ = [(a, b) for a, b in zip(first.rules, again.rules) if isinstance(a, language.Instantiate)]
    assert locals_
    for a, b in locals_:
        assert type(a.ports) is PortSet and a.ports is b.ports


def test_components_with_equal_ports_share_one_port_index():
    pa, ra = PortSpec("in", PROVIDED), PortSpec("out", REQUIRED)
    x, y = comp("x", ra, pa), comp("y", pa, ra, prov=Woven("a", 0))
    other = comp("z", pa)
    for c in (x, y, other):
        assert c.has_port("in", PROVIDED) and not c.has_port("in", REQUIRED)
    assert x.ports.pairs is y.ports.pairs
    assert other.ports.pairs is not x.ports.pairs

    # Declaring a port on a woven component gives it an index that holds
    # the port; the component it replaced keeps the shared one.
    base = Assembly.build([y, comp("rfid", PortSpec("tick", REQUIRED))], [])
    out = apply_instructions(base, [AddBinding(Binding(required("rfid", "tick"), provided("y", "Manage")))])
    assert out.components["y"].has_port("Manage", PROVIDED)
    assert not y.has_port("Manage", PROVIDED) and not x.has_port("Manage", PROVIDED)
    # A base component with the shared index still rejects an undeclared port.
    base = Assembly.build([x, comp("rfid", PortSpec("tick", REQUIRED))], [])
    with pytest.raises(DanglingBinding, match="declares no provided port 'Manage'"):
        apply_instructions(base, [AddBinding(Binding(required("rfid", "tick"), provided("x", "Manage")))])


# ---------------------------------------------------------------------------
# value types


def test_value_types_behave_as_frozen_slots_dataclasses():
    found = []
    for module in (language, matching, model, optree):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                if cls.__dataclass_params__.frozen and "__slots__" in vars(cls):
                    found.append(cls)
    wanted = {"PortRef", "Binding", "AddBinding", "AddComponent", "AdviceInstance", "If", "Leaf", "PortExpr", "Link"}
    assert wanted <= {c.__name__ for c in found}
    for cls in found:
        # Built by ``value``: its __init__ stores through the slots.
        assert cls.__init__.__code__.co_filename == f"<value {cls.__qualname__}>", cls
        fs = dataclasses.fields(cls)
        assert cls.__match_args__ == tuple(f.name for f in fs)
        args = [f"{f.name}-{cls.__name__}" for f in fs]
        obj = cls(*args)
        assert obj == cls(**{f.name: a for f, a in zip(fs, args)})
        assert hash(obj) == hash(cls(*args))
        assert repr(obj) == f"{cls.__qualname__}({', '.join(f'{f.name}={a!r}' for f, a in zip(fs, args))})"
        assert not hasattr(obj, "__dict__")
        for f in fs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, "other")
            changed = replace(obj, **{f.name: "other"})
            assert getattr(changed, f.name) == "other"
            assert changed != obj and all(getattr(changed, g.name) == getattr(obj, g.name) for g in fs if g is not f)
        required_args = [a for f, a in zip(fs, args) if f.default is dataclasses.MISSING]
        bare = cls(*required_args)
        for f in fs:
            if f.default is not dataclasses.MISSING:
                assert getattr(bare, f.name) == f.default, (cls, f.name)


def test_value_rejects_fields_its_init_cannot_store():
    class Listed:
        items: list = dataclasses.field(default_factory=list)

    class Posted:
        x: int

        def __post_init__(self):
            pass

    for cls in (Listed, Posted):
        with pytest.raises(TypeError):
            model.value(cls)


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
        prov = Woven(f"aa{rng.randint(0, 1)}", rng.randint(0, 1)) if rng.random() < 0.5 else None
        bindings.append(Binding(required(a.id, "out"), provided(b.id, "in"), prov))
    return Assembly.build(comps, bindings)


def diff_by_equality(current: Assembly, target: Assembly) -> list:
    """The reference for ``diff``: compare whole components and bindings."""
    cur_b, tgt_b = current.by_endpoints, target.by_endpoints
    removed = {cid for cid, c in current.components.items() if target.components.get(cid) != c}
    added = {cid for cid, c in target.components.items() if current.components.get(cid) != c}

    def cascaded(key):
        return key[0] in removed or key[2] in removed

    return [
        *(RemoveBinding(b.source, b.target) for k, b in sorted(cur_b.items()) if tgt_b.get(k) != b and not cascaded(k)),
        *(RemoveComponent(cid) for cid in sorted(removed)),
        *(AddComponent(target.components[cid]) for cid in sorted(added)),
        *(AddBinding(b) for k, b in sorted(tgt_b.items()) if cur_b.get(k) != b or cascaded(k)),
    ]


def test_diff_identity(hospital_base):
    assert diff(hospital_base, hospital_base) == []


def test_diff_single_add():
    c = comp("c")
    assert diff(Assembly.empty(), Assembly.build([c], [])) == [AddComponent(c)]


def test_diff_of_a_provenance_change_replaces_the_binding():
    link = Binding(required("switch", "value_Evented_NewValue"), provided("light", "SetState"))
    for before, after in ((None, Woven("w", 0)), (Woven("w", 0), Woven("w", 1)), (Woven("w", 1), None)):
        current = apply_instructions(switch_light(), [AddBinding(replace(link, provenance=before))])
        target = apply_instructions(switch_light(), [AddBinding(replace(link, provenance=after))])
        assert diff(current, target) == [
            RemoveBinding(link.source, link.target),
            AddBinding(replace(link, provenance=after)),
        ]
    # Equal provenances in distinct objects: nothing to do.
    assert diff(current, apply_instructions(switch_light(), [AddBinding(replace(link, provenance=Woven("w", 1)))])) == []


def test_diff_round_trip_200_random_pairs():
    rng = random.Random(7)
    for _ in range(200):
        a = random_assembly(rng)
        # A second assembly, and a copy of the first whose bindings drew
        # their provenances again.
        redrawn = Assembly.build(a.components.values(), [
            replace(x, provenance=rng.choice((None, Woven("aa0", 0), Woven("aa1", 0)))) for x in a.bindings
        ])
        for b in (random_assembly(rng), redrawn):
            instrs = diff(a, b)
            assert instrs == diff_by_equality(a, b)
            assert apply_instructions(a, instrs) == b


def test_diff_orders_removals_before_additions():
    rng = random.Random(11)
    for _ in range(50):
        a, b = random_assembly(rng), random_assembly(rng)
        kinds = [type(i).__name__ for i in diff(a, b)]
        order = {"RemoveBinding": 0, "RemoveComponent": 1, "AddComponent": 2, "AddBinding": 3}
        ranks = [order[k] for k in kinds]
        assert ranks == sorted(ranks)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    spec=st.builds(
        WorkloadSpec,
        seed=st.integers(0, 2**16),
        joinpoint_count=st.integers(2, 10),
        aa_count=st.integers(1, 4),
        conflict_probability=st.sampled_from((0.0, 0.33, 0.5)),
        cycles=st.integers(1, 3),
    ),
    data=st.data(),
)
def test_every_reweave_diff_applies_and_touches_only_what_changed(spec, data):
    base, cascades = generate_workload(spec)
    names = sorted(cascades[0].aa_names())
    unselected, absent, script, at = set(), set(), [], 0
    for _ in range(data.draw(st.integers(1, 8), label="events")):
        at += data.draw(st.integers(0, 1), label="gap")
        moves = (
            [("unselect", n) for n in names if n not in unselected]
            + [("select", n) for n in sorted(unselected)]
            + [("disappear", cid) for cid in base.components if cid not in absent]
            + [("appear", cid) for cid in sorted(absent)]
        )
        kind, what = data.draw(st.sampled_from(moves), label="event")
        if kind in ("select", "unselect"):
            (unselected.discard if kind == "select" else unselected.add)(what)
            script.append(sim.EnvEvent(at, kind, aa_name=what))
        else:
            (absent.discard if kind == "appear" else absent.add)(what)
            script.append(sim.EnvEvent(at, kind, component=base.components[what] if kind == "appear" else None,
                                       component_id=what))
    steps = []

    def spy(current, *args):
        target, instrs, reports = reweave(current, *args)
        steps.append((current, target, instrs))
        return target, instrs, reports

    with mock.patch.object(sim, "reweave", spy):
        sim.run_scenario(base, cascades, script)
    assert steps
    for current, target, instrs in steps:
        assert instrs == diff_by_equality(current, target)
        assert apply_instructions(current, instrs) == target
        cur_b, tgt_b = current.by_endpoints, target.by_endpoints
        removed = {i.component_id for i in instrs if type(i) is RemoveComponent}
        for i in instrs:
            if type(i) is RemoveComponent:
                assert current.components[i.component_id] != target.components.get(i.component_id)
            elif type(i) is AddComponent:
                assert current.components.get(i.component.id) != i.component
            elif type(i) is RemoveBinding:
                key = (i.source.component_id, i.source.port_name, i.target.component_id, i.target.port_name)
                assert cur_b[key] != tgt_b.get(key)
            else:
                # An equal binding is added back only when a removed
                # component's cascade took it away.
                key = i.binding.endpoints()
                assert cur_b.get(key) != i.binding or {key[0], key[2]} & removed


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


@pytest.mark.parametrize(
    "literal,message",
    [("NaN", "NaN is not a JSON number"), ("Infinity", "Infinity is not a JSON number"), ("1e400", "number 1e400 is out of range")],
)
def test_json_numbers_that_do_not_write_back_are_rejected(literal, message):
    text = '{"components": [{"id": "a", "metadata": {"x": %s}}]}' % literal
    with pytest.raises(ValueError, match=message):
        assembly_from_json(text)


def test_export_empty_json():
    doc = assembly_to_json(Assembly.empty())
    assert '"components": []' in doc and '"bindings": []' in doc


def stdlib_json(a: Assembly) -> str:
    """The spec of ``assembly_to_json``."""
    return json.dumps(to_json_dict(a), indent=2)


# Characters the encoder escapes or passes: non-ASCII, a quote, a backslash,
# control characters, DEL, U+2028 and a lone surrogate; strings may be empty.
_TEXT = st.text(st.sampled_from('aZ0_+.é中😀"\\\n\t\x00\x1f\x7f\u2028\ud800'), max_size=4)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | st.floats()
    | st.sampled_from([-0.0, 1e16, 5e-324, float("nan"), float("-inf")]) | _TEXT
)
_LISTS = st.lists(_SCALARS, max_size=3)
_VALUES = _SCALARS | _LISTS | st.dictionaries(_TEXT, _SCALARS | _LISTS, max_size=3)
_MAPS = st.dictionaries(_TEXT, _VALUES, max_size=3)
_STAMPS = st.none() | st.builds(Woven, st.sampled_from(["a", "b", "a+b", "a+b+c"]) | _TEXT, st.integers(0, 2**70), _TEXT)
_PORTS = st.lists(st.builds(PortSpec, _TEXT, st.sampled_from([PROVIDED, REQUIRED])), max_size=3)


@st.composite
def exported_assemblies(draw) -> Assembly:
    ids = draw(st.lists(_TEXT, unique=True, max_size=5))
    comps = [Component(cid, draw(_TEXT), draw(_MAPS), draw(_MAPS), draw(_PORTS), draw(_STAMPS)) for cid in ids]
    ends = {d: [PortRef(c.id, p.name, d) for c in comps for p in c.ports if p.direction == d] for d in (PROVIDED, REQUIRED)}
    pairs = []
    if ends[PROVIDED] and ends[REQUIRED]:
        pairs = draw(st.lists(st.tuples(st.sampled_from(ends[REQUIRED]), st.sampled_from(ends[PROVIDED])), unique=True, max_size=6))
    return Assembly.build(comps, [Binding(s, t, draw(_STAMPS)) for s, t in pairs])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=exported_assemblies())
def test_the_writer_writes_what_json_dumps_writes(a):
    assert assembly_to_json(a) == stdlib_json(a)


def test_the_writer_writes_what_json_dumps_writes_on_fixtures_and_workloads(fixtures_dir, hospital_base):
    tricky = Assembly.build(
        [
            Component(
                'é"\\\n\u2028', "", {"": -0.0, "big": 2**90, "f": 1e16, "tiny": 5e-324, "l": [1, [], {}], "d": {"k": "v\x00"}},
                {"b": True, "n": None}, (PortSpec("\ud800", REQUIRED),), Woven("a+b", 2, "ns"),
            ),
            Component("x", "t", {}, {}, (), None),
            Component("y", "t", {}, {}, (PortSpec("in", PROVIDED),)),
        ],
        [Binding(required('é"\\\n\u2028', "\ud800"), provided("y", "in"), Woven("a+b"))],
    )
    cases = [Assembly.empty(), tricky]
    cases += [assembly_from_json(p.read_text(encoding="utf-8")) for p in sorted(fixtures_dir.glob("*_base.json"))]
    for manifest in sorted(fixtures_dir.glob("*.cascade.json")):
        cases.append(weave_cascade(hospital_base, [load_cascade_manifest(str(manifest))])[0])
    workloads = load_workloads()
    for name in ("merge-deep", "match-wide", "replay-churn"):
        base, cascades = workloads.generated_inputs(name, 0)
        cases += [base, weave_cascade(base, cascades)[0]]
    assert sum(1 for a in cases if any(c.provenance for c in a.components.values())) == 8
    for a in cases:
        assert assembly_to_json(a) == stdlib_json(a)


def test_export_dot_counts():
    base = apply_instructions(
        switch_light(),
        [AddBinding(Binding(required("switch", "value_Evented_NewValue"), provided("light", "SetState")))],
    )
    dot = to_dot(base)
    assert dot.count("[label=") == 3  # 2 nodes + 1 edge
    assert '"switch" -> "light"' in dot


def test_dot_escapes_quotes_and_backslashes():
    # A quote, a trailing backslash and a backslash-n inside a type name:
    # each is text, and only the line between id and type is a newline.
    ports = (PortSpec('o"ut', REQUIRED), PortSpec("in\\", PROVIDED))
    a = Assembly.build(
        [Component('a"b', 'type"x', ports=ports), Component("c\\", r"t\n", ports=ports)],
        [Binding(required('a"b', 'o"ut'), provided("c\\", "in\\"))],
    )
    assert to_dot(a).splitlines()[3:] == [
        r'  "a\"b" [label="a\"b\ntype\"x"];',
        r'  "c\\" [label="c\\\nt\\n"];',
        r'  "a\"b" -> "c\\" [label="o\"ut -> in\\"];',
        "}",
    ]


def _arrivals(a: Assembly, rng: random.Random) -> list:
    """Instructions that build ``a`` from nothing, in a random order that
    adds each binding after both of its components."""
    pending = [AddComponent(c) for c in a.components.values()]
    waiting = list(a.by_endpoints.values())
    present, out = set(), []
    while pending or waiting:
        ready = [b for b in waiting if {b.source.component_id, b.target.component_id} <= present]
        ins = rng.choice(pending + [AddBinding(b) for b in ready])
        if type(ins) is AddComponent:
            pending.remove(ins)
            present.add(ins.component.id)
        else:
            waiting.remove(ins.binding)
        out.append(ins)
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9), order=st.randoms(use_true_random=False))
def test_arrival_order_cannot_be_seen(seed, order):
    a = random_assembly(random.Random(seed))
    comps, bindings = list(a.components.values()), list(a.bindings)
    order.shuffle(comps)
    order.shuffle(bindings)
    built = Assembly.build(comps, bindings)
    applied = apply_instructions(Assembly.empty(), _arrivals(a, order))
    for other in (built, applied):
        assert other == a
        assert other.bindings == a.bindings
        assert assembly_to_json(other) == assembly_to_json(a)
        assert to_dot(other) == to_dot(a)


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
        assert all(k == b.endpoints() for k, b in a.by_endpoints.items())
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


def apply_by_reference(assembly: Assembly, instructions) -> Assembly:
    """``apply_instructions`` for component and binding adds as it was
    before admission took one inline check: every end of every binding
    through ``_admit_endpoint``."""
    comps, bindings = dict(assembly.components), dict(assembly.by_endpoints)
    for ins in instructions:
        if type(ins) is AddComponent:
            c = ins.component
            if c.id in comps:
                raise DuplicateComponent(f"component {c.id!r} already present")
            comps[c.id] = c
            continue
        b = ins.binding
        try:
            model._admit_endpoint(comps, b.source, REQUIRED)
            model._admit_endpoint(comps, b.target, PROVIDED)
            if b.endpoints() in bindings:
                raise DuplicateBinding("already present")
        except model.ModelError as exc:
            by = f" woven by {b.provenance.aa_name!r}" if b.provenance else ""
            raise type(exc)(f"binding {b.source} -> {b.target}{by}: {exc}") from None
        bindings[b.endpoints()] = b
    return Assembly(comps, bindings)


_SIDES = tuple(itertools.product(("p", "q"), (PROVIDED, REQUIRED)))


@st.composite
def admission_batches(draw):
    """A small assembly of base (``b*``) and woven (``w*``) components, and
    a batch of component and binding adds over it: ends on unknown
    components (``x``), in the wrong direction, on undeclared ports of
    either kind of component, and repeated components and bindings.  Ends
    are drawn mostly in the right direction, so many batches apply."""
    def component(cid):
        sides = draw(st.lists(st.sampled_from(_SIDES), min_size=1, max_size=4, unique=True), label=f"{cid} ports")
        prov = Woven("w", 0) if cid.startswith("w") else None
        return Component(cid, "t", ports=tuple(PortSpec(n, d) for n, d in sides), provenance=prov)

    def end(direction):
        cid = draw(st.sampled_from(("b1", "b1", "b2", "w1", "w1", "w2", "x")), label="id")
        if draw(st.integers(0, 7), label="wrong direction") == 0:
            direction = REQUIRED if direction == PROVIDED else PROVIDED
        return model.PortRef(cid, draw(st.sampled_from(("p", "q")), label="port"), direction)

    assembly = Assembly.build([component(cid) for cid in ("b1", "b2", "w1")], [])
    batch = []
    for _ in range(draw(st.integers(1, 10), label="instructions")):
        kind = draw(st.sampled_from(("component", "binding", "binding", "binding", "repeat")), label="kind")
        adds = [i for i in batch if type(i) is AddBinding]
        if kind == "component":
            batch.append(AddComponent(component(draw(st.sampled_from(("w2", "w2", "w2", "b1")), label="id"))))
        elif kind == "repeat" and adds:
            batch.append(draw(st.sampled_from(adds), label="repeated"))
        else:
            prov = draw(st.sampled_from((None, Woven("a", 1))), label="provenance")
            batch.append(AddBinding(Binding(end(REQUIRED), end(PROVIDED), prov)))
    return assembly, batch


def _outcome(apply, assembly, batch):
    try:
        return apply(assembly, batch)
    except model.ModelError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=admission_batches())
def test_admission_agrees_with_admitting_every_end(case):
    # The inline check admits what every end's ``_admit_endpoint`` admits,
    # declares the same ports and raises the same error with the same text.
    assembly, batch = case
    assert _outcome(apply_instructions, assembly, batch) == _outcome(apply_by_reference, assembly, batch)


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
            assume(b.endpoints() not in assembly.by_endpoints)
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
