from hypothesis import given, settings
from hypothesis import strategies as st
from reference_weave import joinpoints, scan

from aaweave.language import (
    DIGIT,
    STAR,
    AspectOfAssembly,
    Link,
    MetadataFilter,
    Pattern,
    PointcutRule,
    literal,
    parse_aa,
)
from aaweave.matching import (
    FreshNames,
    collect_joinpoints,
    combinations,
    instantiate_advice,
    match_pointcut,
)
from aaweave.model import PROVIDED, REQUIRED, Assembly, Component, PortSpec, Woven
from aaweave.weaver import MemoTable


def dev(cid, type_tag="dev", prov=None, **metadata):
    return Component(
        cid,
        type_tag,
        metadata={"type": type_tag, **metadata},
        ports=(PortSpec("in", PROVIDED), PortSpec("out", REQUIRED)),
        provenance=prov,
    )


def jp_by_port(jps):
    return {(port.component_id, port.port_name, port.direction) for port in jps}


# ---------------------------------------------------------------------------
# joinpoint collection and visibility


def test_base_assembly_contributes_all_ports():
    base = Assembly.build([dev("a"), dev("b")], [])
    jps = collect_joinpoints(base, 0, "")
    assert len(jps) == 4
    assert jp_by_port(jps) == {
        ("a", "in", PROVIDED),
        ("a", "out", REQUIRED),
        ("b", "in", PROVIDED),
        ("b", "out", REQUIRED),
    }


def test_earlier_cycle_same_namespace_is_visible():
    woven = dev("Decision1", prov=Woven("dec", 0, "ns"))
    base = Assembly.build([woven], [])
    assert jp_by_port(collect_joinpoints(base, 1, "ns"))
    assert list(collect_joinpoints(base, 1, "other")) == []
    # global-namespace products are matchable by everyone
    glob = Assembly.build([dev("Decision1", prov=Woven("dec", 0, ""))], [])
    assert jp_by_port(collect_joinpoints(glob, 1, "other"))


def test_current_cycle_products_are_never_matchable():
    woven = dev("Decision1", prov=Woven("dec", 1, ""))
    base = Assembly.build([woven], [])
    assert list(collect_joinpoints(base, 1, "")) == []
    assert list(collect_joinpoints(base, 2, "")) != []


def test_currently_weaving_aspects_are_excluded():
    woven = dev("Decision1", prov=Woven("dec", 0, ""))
    base = Assembly.build([woven], [])
    assert list(collect_joinpoints(base, 1, "", currently_weaving={"dec"})) == []


# ---------------------------------------------------------------------------
# pointcut matching


LIGHT_AA = (
    "Pointcut:\n"
    "  light := /*(@type=light&energyConsumption<50).*/\n"
    "Advice:\n"
    "schema s(light):\n"
    "  light.SetState -> (nop)\n"
)


def test_metadata_filter_separates_candidates():
    aa = parse_aa(LIGHT_AA)
    frugal = dev("light1", "light", energyConsumption=40)
    hungry = dev("light2", "light", energyConsumption=60)
    jps = collect_joinpoints(Assembly.build([frugal, hungry], []), 0, "")
    got = match_pointcut(jps, aa)
    assert {port.component_id for port in got["light"]} == {"light1"}


def test_component_wildcard_matches_every_port():
    src = "Pointcut:\n  Rfid := /rfid.*/\nAdvice:\nschema s(Rfid):\n  Rfid.^out -> (Rfid.in)\n"
    aa = parse_aa(src)
    jps = collect_joinpoints(Assembly.build([dev("rfid1", "rfid")], []), 0, "")
    got = match_pointcut(jps, aa)
    assert len(got["Rfid"]) == 2  # both ports of rfid1


def test_empty_assembly_matches_nothing():
    aa = parse_aa(LIGHT_AA)
    got = match_pointcut(collect_joinpoints(Assembly.empty(), 0, ""), aa)
    assert got == {"light": []}


DIRECTIONS = (PROVIDED, REQUIRED)
# Ids that differ only in ASCII case (``Hub``), or only in the case of a
# non-ASCII letter (``DÉV1``, ``dÉv1``), which the ASCII case-blind
# pattern ``dév1`` does not match although ``str.lower()`` equates them.
_NAMES = ("dev1", "Dev1", "DEV1", "dev12", "light1", "Light2", "hub", "Hub", "x", "dév1", "DÉV1", "dÉv1")
_KEYS = ("type", "level")
# Few values, so that components share them: strings differing in case or
# reading as numbers, and numbers equal across int, float and bool.
_STRINGS = st.sampled_from(("light", "Light", "10"))
_VALUES = _STRINGS | st.sampled_from((10, 10.0, 1.5, -2, 1, True, False))
_NUMBERS = st.sampled_from((10, 1.5, -2, 0, 1.0))
_PORTS = st.lists(
    st.builds(PortSpec, st.sampled_from(("in", "In", "out", "SetState", "set1")), st.sampled_from(DIRECTIONS)),
    min_size=1,
    max_size=4,
)
_ASPECT_NAMES = ("a0", "a1", "dec")
_NAMESPACES = ("", "ns", "other")
_PROVENANCE = st.none() | st.builds(
    Woven, st.sampled_from(_ASPECT_NAMES), st.integers(0, 2), st.sampled_from(_NAMESPACES)
)
_COMPONENTS = st.lists(
    st.builds(
        lambda cid, ports, metadata, prov: Component(cid, "t", metadata=metadata, ports=tuple(ports), provenance=prov),
        st.sampled_from(_NAMES),
        _PORTS,
        st.fixed_dictionaries({}, optional={"type": _STRINGS | _VALUES, "level": _VALUES}),
        _PROVENANCE,
    ),
    min_size=3,
    max_size=len(_NAMES),
    unique_by=lambda c: c.id,
)
_ATOMS = st.one_of(
    st.just((STAR,)),
    st.sampled_from(
        (
            (literal("dev"), DIGIT),
            (literal("DEV"), STAR),
            (literal("light"), STAR),
            (STAR, literal("1")),
            (literal("in"),),
            (literal("set"), DIGIT),
            (STAR, literal("state")),
            # All literals: matched through the index's name table.
            (literal("hub"),),
            (literal("HUB"),),
            (literal("dé"), literal("v1")),
            (literal("DEV1"),),
            (literal("dev"), literal("1")),
        )
    ),
    st.lists(
        st.sampled_from((literal("dev"), literal("light"), literal("1"), literal("in"), literal("HUB"), STAR, DIGIT)),
        max_size=3,
    ).map(tuple),
)


def _rules(components):
    """Rules whose filters mostly name a key and value some component
    holds, so that they select something."""
    held = [MetadataFilter(k, "eq", v) for c in components for k, v in c.metadata.items()]
    held = st.sampled_from(held) if held else st.nothing()
    filters = st.one_of(
        held,
        held,  # drawn twice as often as either kind below
        st.builds(MetadataFilter, st.sampled_from(_KEYS), st.just("eq"), _VALUES),
        st.builds(MetadataFilter, st.sampled_from(_KEYS), st.sampled_from(("lt", "gt")), _NUMBERS),
    )
    return st.builds(
        lambda atoms, port_atoms, required, filters: (Pattern(atoms, port_atoms, required), tuple(filters)),
        _ATOMS,
        st.one_of(st.none(), _ATOMS),
        st.booleans(),
        st.lists(filters, max_size=2),
    )


@settings(max_examples=300, deadline=None)
@given(
    components=_COMPONENTS,
    cycle=st.integers(0, 3),
    namespace=st.sampled_from(_NAMESPACES),
    weaving=st.frozensets(st.sampled_from(_ASPECT_NAMES)),
    data=st.data(),
)
def test_index_matches_the_reference_scan(components, cycle, namespace, weaving, data):
    assembly = Assembly.build(components, [])
    index = collect_joinpoints(assembly, cycle, namespace, weaving)
    listed = joinpoints(assembly, cycle, namespace, weaving)
    assert list(index) == listed
    assert len(index) == len(listed)
    aspects = data.draw(st.lists(st.lists(_rules(components), min_size=1, max_size=3), min_size=1, max_size=4))
    for n, rules in enumerate(aspects):
        pointcut = tuple(PointcutRule(f"v{i}", pattern, filters) for i, (pattern, filters) in enumerate(rules))
        aa = AspectOfAssembly(f"a{n}", pointcut, tuple(r.variable for r in pointcut), ())
        want = {rule.variable: scan(assembly, listed, rule) for rule in pointcut}
        assert match_pointcut(index, aa) == want


def test_index_matches_the_reference_scan_on_the_fixtures(fixtures_dir, hospital_base):
    index = collect_joinpoints(hospital_base, 0, "")
    jps = joinpoints(hospital_base, 0, "")
    assert list(index) == jps
    for path in sorted((fixtures_dir / "aa").glob("*.aa")):
        aa = parse_aa(path.read_text(), path=path.name)
        want = {rule.variable: scan(hospital_base, jps, rule) for rule in aa.pointcut}
        assert match_pointcut(index, aa) == want, path.name


# ---------------------------------------------------------------------------
# combinations


def fake_jp(cid):
    base = Assembly.build([dev(cid)], [])
    return next(iter(collect_joinpoints(base, 0, "")))


def test_cartesian_product():
    a1, a2, b1 = fake_jp("a1"), fake_jp("a2"), fake_jp("b1")
    got = combinations({"A": [a1, a2], "B": [b1]})
    assert [(c["A"].component_id, c["B"].component_id) for c in got] == [
        ("a1", "b1"),
        ("a2", "b1"),
    ]


def test_empty_candidate_kills_all_combinations():
    assert combinations({"A": [fake_jp("a1")], "B": []}) == []


def test_count_law_k_to_the_n():
    jps = [fake_jp(f"c{i}") for i in range(3)]
    got = combinations({"A": list(jps), "B": list(jps)})
    assert len(got) == 9


def test_no_variables_yields_one_empty_combination():
    got = combinations({})
    assert got == [{}]


# ---------------------------------------------------------------------------
# advice factory


def test_fig2_style_instance(fixtures_dir, hospital_base):
    aa = parse_aa((fixtures_dir / "aa" / "identity_management.aa").read_text())
    jps = collect_joinpoints(hospital_base, 0, "")
    combos = combinations(match_pointcut(jps, aa))
    assert len(combos) == 1
    inst = instantiate_advice(aa, combos[0], FreshNames(taken=hospital_base.components), namespace="", memo=MemoTable())
    assert [c.id for c in inst.components] == ["Decision1", "Timer1"]
    assert len(inst.grounded_rules) == 5
    link = inst.grounded_rules[2]
    assert isinstance(link, Link)
    assert link.source.component_id == "switch"
    assert link.source.direction == REQUIRED


def test_zero_param_schema_gives_one_instance(fixtures_dir):
    aa = parse_aa((fixtures_dir / "aa" / "decision.aa").read_text())
    combos = combinations(match_pointcut(collect_joinpoints(Assembly.empty(), 0, ""), aa))
    assert len(combos) == 1
    inst = instantiate_advice(aa, combos[0], FreshNames(), namespace="", memo=MemoTable())
    assert [c.id for c in inst.components] == ["Decision1", "Timer1", "Average1"]


def test_locals_take_their_fresh_ids_in_declaration_order():
    class Recording(FreshNames):
        def fresh(self, stem):
            asked.append(stem)
            return super().fresh(stem)

    asked, memo = [], MemoTable()
    aa = parse_aa("Advice:\nschema s():\n  zeta : 'T';\n  alpha : 'T';\n  zeta.^out -> (alpha.in)\n")
    inst = instantiate_advice(aa, {}, Recording(), namespace="", memo=memo)
    assert asked == ["zeta", "alpha"]
    assert [c.id for c in inst.components] == ["zeta1", "alpha1"]
    (key,) = memo
    assert key[-2:] == ("zeta1", "alpha1")


def test_two_combinations_get_disjoint_fresh_names(fixtures_dir, hospital_base):
    aa = parse_aa((fixtures_dir / "aa" / "brightness_light.aa").read_text())
    jps = collect_joinpoints(hospital_base, 0, "")
    combos = combinations(match_pointcut(jps, aa))
    fresh = FreshNames(taken=hospital_base.components)
    a = instantiate_advice(aa, combos[0], fresh, namespace="", memo=MemoTable())
    b = instantiate_advice(aa, combos[0], fresh, namespace="", memo=MemoTable())
    ids_a = {c.id for c in a.components}
    ids_b = {c.id for c in b.components}
    assert ids_a == {"threshold1", "Average1"}
    assert ids_b == {"threshold2", "Average2"}
    assert not (ids_a & ids_b)


def test_a_grounding_hit_returns_the_stored_instance(fixtures_dir, hospital_base):
    aa = parse_aa((fixtures_dir / "aa" / "brightness_light.aa").read_text())
    combo = combinations(match_pointcut(collect_joinpoints(hospital_base, 0, ""), aa))[0]
    memo = MemoTable()
    first = instantiate_advice(aa, combo, FreshNames(taken=hospital_base.components), namespace="", memo=memo)
    again = instantiate_advice(aa, dict(combo), FreshNames(taken=hospital_base.components), namespace="", memo=memo)
    assert again is first
    assert [entry[1] for entry in memo.values()] == [first]
    # Other fresh ids are another instance.
    fresh = FreshNames(taken=hospital_base.components)
    fresh.fresh("threshold")
    other = instantiate_advice(aa, combo, fresh, namespace="", memo=memo)
    assert other is not first and len(memo) == 2


def test_fresh_names_skip_taken_ids():
    fresh = FreshNames(taken={"light1", "light2"})
    assert fresh.fresh("light") == "light3"
    assert fresh.fresh("light") == "light4"


def test_inferred_ports_follow_advice_usage(fixtures_dir, hospital_base):
    aa = parse_aa((fixtures_dir / "aa" / "identity_management.aa").read_text())
    jps = collect_joinpoints(hospital_base, 0, "")
    inst = instantiate_advice(
        aa, combinations(match_pointcut(jps, aa))[0], FreshNames(taken=hospital_base.components), namespace="", memo=MemoTable()
    )
    decision = next(c for c in inst.components if c.id == "Decision1")
    assert decision.has_port("SetTime", PROVIDED)
    assert decision.has_port("Manage", PROVIDED)
    assert decision.has_port("ShutterManagementEvent", REQUIRED)
    assert decision.has_port("LightManagementEvent", REQUIRED)


def test_determinism_same_inputs_same_instances(fixtures_dir, hospital_base):
    aa = parse_aa((fixtures_dir / "aa" / "identity_management.aa").read_text())
    def build():
        jps = collect_joinpoints(hospital_base, 0, "")
        combos = combinations(match_pointcut(jps, aa))
        fresh = FreshNames(taken=hospital_base.components)
        return [instantiate_advice(aa, c, fresh, namespace="", memo=MemoTable()) for c in combos]
    assert build() == build()
