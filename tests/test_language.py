from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaweave.language import (
    DIGIT,
    KEYWORDS,
    STAR,
    SYMBOLS,
    AaSyntaxError,
    Instantiate,
    Link,
    MetadataFilter,
    NegationRejected,
    Pattern,
    PointcutRule,
    PortExpr,
    Rewrite,
    UnboundVariable,
    _tokenize,
    literal,
    parse_aa,
    parse_operator_expr,
    parse_pattern,
    print_aa,
    print_operator_expr,
)
from aaweave.model import PROVIDED, REQUIRED, PortSpec
from aaweave.optree import CALL, NOP, Delegate, If, Leaf, Par, Seq


def load(fixtures_dir, name):
    return parse_aa((fixtures_dir / "aa" / name).read_text(), path=name)


# ---------------------------------------------------------------------------
# fixture corpus


def test_identity_management_shape(fixtures_dir):
    aa = load(fixtures_dir, "identity_management.aa")
    assert aa.name == "IdentityManagement"
    assert len(aa.pointcut) == 4
    kinds = [type(r).__name__ for r in aa.rules]
    assert kinds.count("Instantiate") == 2
    assert kinds.count("Link") == 5
    assert kinds.count("Rewrite") == 0
    assert aa.advice_params == ("Shutter", "RFid", "light", "switch")


def test_brightness_light_shape(fixtures_dir):
    aa = load(fixtures_dir, "brightness_light.aa")
    kinds = [type(r).__name__ for r in aa.rules]
    assert kinds.count("Instantiate") == 2
    assert kinds.count("Link") == 2
    assert kinds.count("Rewrite") == 1
    rewrite = next(r for r in aa.rules if isinstance(r, Rewrite))
    assert rewrite.target == PortExpr("light")
    assert rewrite.tree == If(
        PortExpr("threshold", "IsReached"), Leaf(PortExpr("Shutter")), CALL
    )
    threshold = next(r for r in aa.rules if isinstance(r, Instantiate))
    assert threshold.init_props == {"threshold": 10}


def test_zero_parameter_schema(fixtures_dir):
    aa = load(fixtures_dir, "decision.aa")
    assert aa.name == "dec"
    assert aa.advice_params == ()
    assert aa.pointcut == ()
    assert len(aa.rules) == 4


def test_whole_corpus_parses(fixtures_dir):
    for path in sorted((fixtures_dir / "aa").glob("*.aa")):
        aa = parse_aa(path.read_text(), path=path.name)
        assert aa.rules


# ---------------------------------------------------------------------------
# operator expressions


def test_call_alone():
    assert parse_operator_expr("call") == CALL


def test_if_expression():
    got = parse_operator_expr("if (t.IsReached) {Shutter} else {call}")
    assert got == If(PortExpr("t", "IsReached"), Leaf(PortExpr("Shutter")), CALL)


def test_seq_binds_tighter_than_par():
    got = parse_operator_expr("a.p ; b.q || c.r")
    assert got == Par(
        (Seq((Leaf(PortExpr("a", "p")), Leaf(PortExpr("b", "q")))), Leaf(PortExpr("c", "r")))
    )


def test_parentheses_group():
    got = parse_operator_expr("a.p ; (b.q || c.r)")
    assert got == Seq(
        (Leaf(PortExpr("a", "p")), Par((Leaf(PortExpr("b", "q")), Leaf(PortExpr("c", "r")))))
    )


def test_delegate_and_nop():
    got = parse_operator_expr("delegate(nop ; a.p)")
    assert got == Delegate(Seq((NOP, Leaf(PortExpr("a", "p")))))


def test_operator_print_round_trip():
    for text in (
        "call",
        "nop",
        "a.p ; b.q || c.r",
        "(a.p || b.q) ; c.r",
        "if (t.IsReached) {a.p ; nop} else {delegate(b.^q)}",
    ):
        tree = parse_operator_expr(text)
        assert parse_operator_expr(print_operator_expr(tree)) == tree


# ---------------------------------------------------------------------------
# patterns


def test_trailing_dot_star_is_component_wildcard():
    p = parse_pattern("/rfid.*/")
    assert p == Pattern((literal("rfid"), STAR))
    assert p.matches_component("rfid1")
    assert p.matches_port("anything", "required")


def test_digit_class_both_spellings():
    single = parse_pattern("/light[:digit:].SetState/")
    double = parse_pattern("/light[[:digit:]].SetState/")
    assert single == double == Pattern((literal("light"), DIGIT), (literal("SetState"),), False)
    assert single.matches_component("light1")
    assert not single.matches_component("light12")
    assert single.matches_port("SetState", "provided")
    assert not single.matches_port("SetState", "required")


def test_star_with_port():
    p = parse_pattern("/Shutter*.SetState/")
    assert p == Pattern((literal("Shutter"), STAR), (literal("SetState"),), False)
    assert p.matches_component("shutter1")  # case-insensitive


def test_required_port_pattern():
    p = parse_pattern("/switch.^value_Evented_NewValue/")
    assert p.port_required
    assert p.matches_port("value_Evented_NewValue", "required")
    assert not p.matches_port("value_Evented_NewValue", "provided")


def test_pattern_errors():
    with pytest.raises(AaSyntaxError):
        parse_pattern("//")
    with pytest.raises(AaSyntaxError):
        parse_pattern("/a[:dig/")
    with pytest.raises(AaSyntaxError):
        parse_pattern("no slashes")


def test_filters_parse_and_evaluate():
    src = (
        "Pointcut:\n"
        "  light := /*(@type=light&energyConsumption<50).*/\n"
        "Advice:\n"
        "schema s(light):\n"
        "  light.SetState -> (nop)\n"
    )
    aa = parse_aa(src)
    rule = aa.pointcut[0]
    assert rule.filters == (
        MetadataFilter("type", "eq", "light"),
        MetadataFilter("energyConsumption", "lt", 50),
    )
    assert all(f.evaluate({"type": "light", "energyConsumption": 40}) for f in rule.filters)
    assert not rule.filters[1].evaluate({"type": "light", "energyConsumption": 60})


# ---------------------------------------------------------------------------
# diagnostics and grammar review


def test_syntax_error_carries_position():
    with pytest.raises(AaSyntaxError) as err:
        parse_aa("Advice:\nschema x():\n  a -> b\n", path="bad.aa")
    assert err.value.path == "bad.aa"
    assert err.value.line == 3
    assert "bad.aa:3:" in str(err.value)


def test_unbound_variable():
    src = "Advice:\nschema x():\n  ghost.p -> (nop)\n"
    with pytest.raises(UnboundVariable):
        parse_aa(src)


def test_param_pointcut_mismatch():
    src = "Pointcut:\n  a := /x.p/\nAdvice:\nschema s(a, b):\n  a -> (nop)\n"
    with pytest.raises(UnboundVariable):
        parse_aa(src)


def test_negation_is_rejected_everywhere():
    with pytest.raises(NegationRejected):
        parse_aa("Advice:\nschema x():\n  !a -> (nop)\n")
    with pytest.raises(NegationRejected):
        parse_aa("Pointcut:\n  a := /x(@t!=1).p/\nAdvice:\nschema s(a):\n  a -> (nop)\n")


def test_token_set_has_no_negation_or_deletion():
    assert "!" not in SYMBOLS
    assert not any(k in ("remove", "delete", "not", "unbind", "suppress") for k in KEYWORDS)


def test_print_parse_round_trip(fixtures_dir):
    for path in sorted((fixtures_dir / "aa").glob("*.aa")):
        aa = parse_aa(path.read_text(), path=path.name)
        again = parse_aa(print_aa(aa), path=path.name)
        assert again == aa, path.name


def test_parser_infers_the_ports_of_advice_locals(fixtures_dir):
    def ports(name, local):
        (rule,) = (r for r in load(fixtures_dir, name).rules if isinstance(r, Instantiate) and r.local_name == local)
        return rule.ports

    assert ports("identity_management.aa", "Decision") == (
        PortSpec("Manage", PROVIDED),
        PortSpec("SetTime", PROVIDED),
        PortSpec("LightManagementEvent", REQUIRED),
        PortSpec("ShutterManagementEvent", REQUIRED),
    )
    # IsReached appears only as an if condition.
    assert ports("brightness_light.aa", "threshold") == (PortSpec("IsReached", PROVIDED), PortSpec("SetValue", PROVIDED))
    assert ports("decision.aa", "Average") == ()


def test_tokenizer_reads_the_symbol_set():
    tokens = _tokenize(" ".join(SYMBOLS), None)
    assert tuple(t.kind for t in tokens[:-1]) == SYMBOLS


_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
# A filter value holding '&' (it separates filters), '/' (it ends the
# pattern) or a newline (it ends the line) cannot be printed.
UNPRINTABLE = "&/\n"
_FILTER_STRINGS = st.text(
    st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from(UNPRINTABLE)), max_size=8
)
_FILTERS = st.one_of(
    st.builds(MetadataFilter, _IDENT, st.just("eq"), _FILTER_STRINGS),
    st.builds(
        MetadataFilter,
        _IDENT,
        st.sampled_from(("eq", "lt", "gt")),
        st.one_of(st.integers(), st.floats(allow_nan=False)),
    ),
)


@settings(max_examples=300, deadline=None)
@given(filters=st.lists(_FILTERS, min_size=1, max_size=3))
def test_filters_print_parse_round_trip(filters):
    aa = parse_aa("Pointcut:\n  a := /x.p/\nAdvice:\nschema s(a):\n  a -> (nop)\n")
    (rule,) = aa.pointcut
    aa = replace(aa, pointcut=(PointcutRule(rule.variable, rule.pattern, tuple(filters)),))
    unprintable = [f for f in filters if isinstance(f.value, str) and set(f.value) & set(UNPRINTABLE)]
    if unprintable:
        with pytest.raises(ValueError) as raised:
            print_aa(aa)
        assert f"{unprintable[0].key!r}: value {unprintable[0].value!r}" in str(raised.value)
        return
    again = parse_aa(print_aa(aa))
    assert again == aa
    for f, g in zip(aa.pointcut[0].filters, again.pointcut[0].filters):
        assert type(f.value) is type(g.value)


_STRINGS = st.text(st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from("'\"")), max_size=8)
_PROPERTY_VALUES = st.one_of(
    _STRINGS, st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.booleans()
)


@settings(max_examples=300, deadline=None)
@given(type_name=_STRINGS, props=st.dictionaries(_IDENT, _PROPERTY_VALUES, max_size=3))
def test_local_properties_print_parse_round_trip(type_name, props):
    aa = parse_aa("Advice:\nschema s():\n  x : 'T';\n")
    aa = replace(aa, rules=(replace(aa.rules[0], type_name=type_name, init_props=props),))
    both_quotes = [text for text in (type_name, *props.values()) if isinstance(text, str) and {"'", '"'} <= set(text)]
    if both_quotes:
        with pytest.raises(ValueError) as raised:
            print_aa(aa)
        assert "local 'x'" in str(raised.value)
        assert f"{both_quotes[0]!r} holds both quote kinds" in str(raised.value)
        return
    (again,) = parse_aa(print_aa(aa)).rules
    assert again == aa.rules[0]
    for key, value in props.items():
        assert type(again.init_props[key]) is type(value)


def _port_exprs():
    base = _IDENT.filter(lambda name: name not in KEYWORDS)
    bare = st.builds(PortExpr, base)
    with_port = st.builds(PortExpr, base, _IDENT, st.booleans())
    return st.one_of(bare, with_port)


def _op_trees():
    leaf = st.one_of(st.builds(Leaf, _port_exprs()), st.just(NOP), st.just(CALL))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(Delegate, sub),
            st.builds(If, _port_exprs(), sub, sub),
            st.builds(Seq, st.lists(sub, min_size=2, max_size=3).map(tuple)),
            st.builds(Par, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        ),
        max_leaves=12,
    )


@settings(max_examples=300, deadline=None)
@given(tree=_op_trees())
def test_operator_expressions_print_parse_round_trip(tree):
    assert parse_operator_expr(print_operator_expr(tree)) == tree


def test_corpus_reaches_every_construct(fixtures_dir):
    from aaweave.optree import Delegate as DelegateNode, If as IfNode, Par as ParNode, Seq as SeqNode

    node_kinds = set()
    rule_kinds = set()
    atom_kinds = set()
    filter_ops = set()

    def walk(tree):
        node_kinds.add(type(tree).__name__)
        match tree:
            case IfNode(then=a, orelse=b):
                walk(a)
                walk(b)
            case SeqNode(children=ch) | ParNode(children=ch):
                for c in ch:
                    walk(c)
            case DelegateNode(child=c):
                walk(c)

    for path in sorted((fixtures_dir / "aa").glob("*.aa")):
        aa = parse_aa(path.read_text(), path=path.name)
        for pc in aa.pointcut:
            for atom in pc.pattern.component_atoms + (pc.pattern.port_atoms or ()):
                atom_kinds.add(atom[0])
            filter_ops.update(f.op for f in pc.filters)
        for rule in aa.rules:
            rule_kinds.add(type(rule).__name__)
            if not isinstance(rule, Instantiate):
                walk(rule.tree)

    assert node_kinds == {"Leaf", "Nop", "Call", "Delegate", "If", "Seq", "Par"}
    assert rule_kinds == {"Instantiate", "Link", "Rewrite"}
    assert atom_kinds == {"lit", "star", "digit"}
    assert filter_ops == {"eq", "lt", "gt"}
