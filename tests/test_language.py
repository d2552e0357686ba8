import math
from dataclasses import replace

import pytest
import reference_weave
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aaweave.language import (
    DIGIT,
    KEYWORDS,
    STAR,
    SYMBOLS,
    AaSyntaxError,
    AspectOfAssembly,
    Instantiate,
    Link,
    MetadataFilter,
    NegationRejected,
    Pattern,
    PointcutRule,
    PortExpr,
    Rewrite,
    UnboundVariable,
    _parse_filter_value,
    _Parser,
    _tokenize,
    literal,
    parse_aa,
    parse_operator_expr,
    parse_pattern,
    parse_pattern_with_filters,
    print_aa,
    print_operator_expr,
    print_pattern,
)
from aaweave.model import PROVIDED, REQUIRED, PortSpec, canonical_ports
from aaweave.optree import CALL, NOP, Delegate, If, Leaf, Par, Seq, iter_refs
from aaweave.weaver import Cascade


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
    assert single.matches_component("LIGHT3")
    assert not single.matches_component("light12")
    assert not single.matches_component("light\u0663")  # ARABIC-INDIC DIGIT THREE
    assert single.matches_port("SetState", "provided")
    assert not single.matches_port("SetState", "required")


def test_star_with_port():
    p = parse_pattern("/Shutter*.SetState/")
    assert p == Pattern((literal("Shutter"), STAR), (literal("SetState"),), False)
    assert p.matches_component("shutter1")  # case-insensitive
    assert not parse_pattern("/sensor/").matches_component("\u017fensor")  # LATIN SMALL LONG S folds to s


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


_X, _P, _T1 = literal("x"), literal("p"), (MetadataFilter("t", "eq", 1),)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("/x.p/", (Pattern((_X,), (_P,)), ())),
        ("/x./", "pattern '/x./' has an empty port part"),
        ("/x.^p/", (Pattern((_X,), (_P,), True), ())),
        ("/x.^/", "pattern '/x.^/' has an empty port part"),
        ("/x.^*/", (Pattern((_X,), (STAR,), True), ())),
        ("/x..*/", (Pattern((_X,), (STAR,)), ())),
        ("/x(@t=1)..*/", (Pattern((_X,), (STAR,)), _T1)),
        ("/x.*(@t=1)/", (Pattern((_X, STAR)), _T1)),
        ("/(@t=1).*/", (Pattern((STAR,)), _T1)),
        ("/x(@t=1).p/", (Pattern((_X,), (_P,)), _T1)),
        ("/x(@k='a(b)')/", (Pattern((_X,)), (MetadataFilter("k", "eq", "a(b)"),))),
        ("/x(@k=1)(j=2)/", (Pattern((_X,)), (MetadataFilter("k", "eq", "1)(j=2"),))),
        ("/x(@k=1/", "unbalanced filter parentheses in pattern 'x(@k=1'"),
        ("/x)(@k=1/", "unbalanced filter parentheses in pattern 'x)(@k=1'"),
        ("/x(@k=1)p/", "expected '.' before port part in pattern 'x(@k=1)p'"),
        ("/x(@k=1) .p/", "expected '.' before port part in pattern 'x(@k=1) .p'"),
        ("/.p/", "pattern '/.p/' has an empty component part"),
        ("/(@k='a(b)')/", "pattern \"/(@k='a(b)')/\" has an empty component part"),
        ("/x.p.q/", "unexpected character '.' in pattern 'p.q'"),
        ("/a.b(@t=1)/", "unexpected character '.' in pattern 'a.b'"),
        ("/x()/", "empty metadata filter"),
        ("/ /", "empty pattern"),
    ],
)
def test_pattern_parts(text, expected):
    """Filters run from the first '(' to the last ')'; without a '(' the
    component part ends at the first '.'; a trailing '.*' widens the
    component part."""
    if isinstance(expected, str):
        with pytest.raises(AaSyntaxError) as err:
            parse_pattern_with_filters(text)
        assert type(err.value) is AaSyntaxError and err.value.message == expected
    else:
        assert parse_pattern_with_filters(text) == expected


@pytest.mark.parametrize(
    "src, expected",
    [
        ("a := /x.p/", [("IDENT", "a", 1, 1), (":=", ":=", 1, 3), ("PATTERN", "/x.p/", 1, 6), ("EOF", "", 1, 11)]),
        (
            "a :=  # c\n /x(@k='a(b)')/",
            [("IDENT", "a", 1, 1), (":=", ":=", 1, 3), ("PATTERN", "/x(@k='a(b)')/", 2, 2), ("EOF", "", 2, 16)],
        ),
        ("/x/", (1, 1, "unexpected character '/'")),
        ("a /x/", (1, 3, "unexpected character '/'")),
        ("a := /x/ /y/", (1, 10, "unexpected character '/'")),
        ("a := /x", (1, 6, "unterminated pattern")),
        ("a :=\n  /x\n/", (2, 3, "unterminated pattern")),
    ],
)
def test_tokenizer_reads_a_pattern_only_after_assignment(src, expected):
    if isinstance(expected, tuple):
        with pytest.raises(AaSyntaxError) as err:
            _tokenize(src, None)
        assert type(err.value) is AaSyntaxError and (err.value.line, err.value.col, err.value.message) == expected
    else:
        assert [(t.kind, t.value, t.line, t.col) for t in _tokenize(src, None)] == expected


def test_blanks_between_literals_and_a_lone_star_port_read_back():
    assert parse_pattern("/light 1.Set\tState/") == Pattern((literal("light1"),), (literal("SetState"),))
    aa = parse_aa("Pointcut:\n  v := /x..*/\nAdvice:\nschema s(v):\n  v -> (nop)\n")
    assert aa.pointcut[0].pattern == Pattern((literal("x"),), (STAR,))
    assert print_pattern(aa.pointcut[0].pattern) == "/x..*/"
    assert parse_aa(print_aa(aa)) == aa


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
    # Numbers compare exactly, however large: no float conversion overflows.
    big = MetadataFilter("k", "eq", 10**400)
    assert big.evaluate({"k": 10**400}) and not big.evaluate({"k": 5.0})
    assert MetadataFilter("k", "eq", 5).evaluate({"k": 5.0})


def filtered(value_text: str):
    return parse_aa(f"Pointcut:\n  a := /x(@k={value_text}).p/\nAdvice:\nschema s(a):\n  a -> (nop)\n")


def test_a_nan_filter_value_reads_as_a_string():
    # So does every number the tokenizer would not read as one.
    for text in ("nan", "NaN", "-nan", "inf", "infinity", "1e3", "+5", "1_000", "5.", ".5"):
        aa = filtered(text)
        assert aa.pointcut[0].filters == (MetadataFilter("k", "eq", text),)
        assert parse_aa(print_aa(aa)) == aa
    for value in (math.nan, math.inf, -math.inf):
        unspellable = replace(aa.pointcut[0], filters=(MetadataFilter("k", "lt", value),))
        with pytest.raises(ValueError, match=f"metadata filter 'k': value {value!r} cannot be printed"):
            print_aa(replace(aa, pointcut=(unspellable,)))


def test_a_non_ascii_digit_filter_value_reads_as_a_string():
    aa = filtered("\u0663")  # ARABIC-INDIC DIGIT THREE, which the tokenizer rejects
    assert aa.pointcut[0].filters == (MetadataFilter("k", "eq", "\u0663"),)
    assert parse_aa(print_aa(aa)) == aa
    assert filtered("3").pointcut[0].filters[0].value == 3


# ---------------------------------------------------------------------------
# diagnostics and grammar review


def test_syntax_error_carries_position():
    with pytest.raises(AaSyntaxError) as err:
        parse_aa("Advice:\nschema x():\n  a -> b\n", path="bad.aa")
    assert err.value.path == "bad.aa"
    assert err.value.line == 3
    assert "bad.aa:3:" in str(err.value)


def test_a_string_spanning_lines_advances_the_line_count():
    src = "Advice:\nschema s():\n  x : 'a\nb';\n  $\n"
    with pytest.raises(AaSyntaxError, match="unexpected character '\\$'") as err:
        parse_aa(src, "f.aa")
    assert str(err.value).startswith("f.aa:5:3: ")


def test_eof_after_a_comment_is_at_the_end_of_the_line():
    with pytest.raises(AaSyntaxError) as err:
        parse_aa("# only a comment", "f.aa")
    assert str(err.value) == "f.aa:1:17: expected 'Advice', found 'EOF'"


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


def _token_number(text: str):
    """What the tokenizer and parser read ``text`` as when it is one
    number token; None when it is not."""
    try:
        tokens = _tokenize(text, None)
    except AaSyntaxError:
        return None
    if [t.kind for t in tokens] != ["NUMBER", "EOF"]:
        return None
    return _Parser(tokens, None).parse_value()


def _token_letter(ch: str) -> bool:
    try:
        return len(ch) == 1 and ch != "_" and [t.kind for t in _tokenize(ch, None)] == ["IDENT", "EOF"]
    except AaSyntaxError:
        return False


# Characters whose case folding (Unicode's, not ASCII's) meets an ASCII letter.
_FOLD_PARTNERS = {"s": "\u017f", "S": "\u017f", "k": "\u212a", "K": "\u212a", "i": "\u0130", "I": "\u0131"}
_FOLD_PARTNERS.update({v: k for k, v in _FOLD_PARTNERS.items()})
_ODD_CHARS = st.sampled_from("sSkKiIzZ_0975\u017f\u212a\u0130\u0131\u00df\u01c5\u0663\u00b2\uff11\u00e9")
# Filter value text without what ends or trims one ('&', whitespace) or
# starts a comment for the tokenizer ('#').
_NUMBERISH = st.lists(
    st.one_of(
        st.sampled_from([*"0123456789-.+eE_xX'", "inf", "nan", "Infinity"]),
        _ODD_CHARS,
        st.characters(exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp"), exclude_characters="#&"),
    ),
    min_size=1,
    max_size=6,
).map("".join)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=_NUMBERISH, a=_ODD_CHARS | st.characters(exclude_categories=("Cs",)), data=st.data())
def test_filters_patterns_and_tokenizer_agree_on_numbers_digits_and_letters(text, a, data):
    # A number: a filter value reads as one exactly when it is one number
    # token, and as the same value.
    got, want = _parse_filter_value(text, 1, 1, None), _token_number(text)
    if want is None:
        assert isinstance(got, str), text
    else:
        assert (got, type(got)) == (want, type(want)), text
    # A digit: what ``[:digit:]`` matches is a one-digit number token.
    assert Pattern((DIGIT,)).matches_component(a) == (_token_number(a) is not None), a
    # A letter: a literal matches another character only when both are
    # letters the tokenizer reads in a name and fold to one ASCII letter.
    b = data.draw(
        st.sampled_from([a, a.upper(), a.lower(), a.swapcase(), _FOLD_PARTNERS.get(a, a)]) | st.characters(),
        label="other",
    )
    folds = _token_letter(a) and _token_letter(b) and a.lower() == b.lower()
    assert Pattern((literal(a),)).matches_component(b) == (a == b or folds), (a, b)


@settings(max_examples=300, deadline=None)
@given(filters=st.lists(_FILTERS, min_size=1, max_size=3))
def test_filters_print_parse_round_trip(filters):
    aa = parse_aa("Pointcut:\n  a := /x.p/\nAdvice:\nschema s(a):\n  a -> (nop)\n")
    (rule,) = aa.pointcut
    aa = replace(aa, pointcut=(PointcutRule(rule.variable, rule.pattern, tuple(filters)),))
    unprintable = [
        f for f in filters
        if isinstance(f.value, str) and set(f.value) & set(UNPRINTABLE) or f.value in (math.inf, -math.inf)
    ]
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


def test_a_non_finite_property_cannot_be_printed():
    aa = parse_aa("Advice:\nschema s():\n  x : 'T' (p = 1.0);\n")
    aa = replace(aa, rules=(replace(aa.rules[0], init_props={"p": math.inf}),))
    with pytest.raises(ValueError, match="local 'x' property 'p': value inf is not finite and cannot be printed"):
        print_aa(aa)


def test_an_out_of_range_number_is_a_syntax_error_at_the_literal():
    # A float literal that overflows, and an int with more digits than
    # ``int`` converts, as a local's property and as a filter value.
    for literal_text in (f"1{'0' * 400}.0", f"-1{'0' * 400}.5", "7" * 5000):
        with pytest.raises(AaSyntaxError, match="out of range") as raised:
            parse_aa(f"Advice:\nschema s():\n  x : 'T' (p = {literal_text});\n", path="big.aa")
        assert (raised.value.path, raised.value.line, raised.value.col) == ("big.aa", 3, 16)
        with pytest.raises(AaSyntaxError, match="out of range") as raised:
            filtered(literal_text)
        assert raised.value.line == 2
    (local,) = parse_aa(f"Advice:\nschema s():\n  x : 'T' (p = {'7' * 4000});\n").rules
    assert local.init_props == {"p": int("7" * 4000)}


_NAMES = _IDENT.filter(lambda name: name not in KEYWORDS)


def _port_exprs():
    bare = st.builds(PortExpr, _NAMES)
    with_port = st.builds(PortExpr, _NAMES, _IDENT, st.booleans())
    return st.one_of(bare, with_port)


def _op_trees(port_exprs=None):
    if port_exprs is None:
        port_exprs = _port_exprs()
    leaf = st.one_of(st.builds(Leaf, port_exprs), st.just(NOP), st.just(CALL))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(Delegate, sub),
            st.builds(If, port_exprs, sub, sub),
            st.builds(Seq, st.lists(sub, min_size=2, max_size=3).map(tuple)),
            st.builds(Par, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        ),
        max_leaves=12,
    )


# Atoms with blanks between them; a port part may be a lone star, `..*`.
_ATOM = r"( ?([A-Za-z0-9_]+|\*|\[:digit:\]))"
_PATTERNS = st.from_regex(rf"{_ATOM}{{1,3}}(\.\^?{_ATOM}{{1,3}}|\.\.\*)?", fullmatch=True).map(
    lambda t: parse_pattern(f"/{t}/")
)
# Mostly printable filters and type names, so most aspects round-trip.
_ASPECT_FILTERS = st.one_of(
    st.builds(MetadataFilter, _IDENT, st.sampled_from(("eq", "lt", "gt")), st.integers() | st.floats()),
    st.builds(MetadataFilter, _IDENT, st.just("eq"), _IDENT | _FILTER_STRINGS),
)
_TYPE_NAMES = _IDENT | _STRINGS
# Port expressions and trees over name slots "0".."3"; ``_resolve`` binds
# each slot to one of an aspect's names.
_SLOT = st.sampled_from("0123")
_SLOT_EXPRS = st.one_of(st.builds(PortExpr, _SLOT), st.builds(PortExpr, _SLOT, _IDENT, st.booleans()))
_SLOT_TREES = _op_trees(_SLOT_EXPRS)


def _resolve(expr: PortExpr, names, bare_ok) -> PortExpr:
    base = names[int(expr.base) % len(names)]
    if expr.port is None and base not in bare_ok:
        return PortExpr(base, "p")
    return replace(expr, base=base)


def _map_refs(tree, fn):
    match tree:
        case Leaf(target=t):
            return Leaf(fn(t))
        case If(cond=c, then=a, orelse=b):
            return If(fn(c), _map_refs(a, fn), _map_refs(b, fn))
        case Seq(children=ch):
            return Seq(tuple(_map_refs(c, fn) for c in ch))
        case Par(children=ch):
            return Par(tuple(_map_refs(c, fn) for c in ch))
        case Delegate(child=c):
            return Delegate(_map_refs(c, fn))
    return tree


@st.composite
def _aspects(draw, patterns=_PATTERNS, filters=st.lists(_ASPECT_FILTERS, max_size=2), trees=_SLOT_TREES):
    """Whole aspects whose references all resolve, with each local's ports
    as the parser infers them (see ``Instantiate``)."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    cut = draw(st.integers(0, len(names)))
    variables, locals_ = names[:cut], names[cut:]
    pointcut = tuple(
        PointcutRule(v, draw(patterns), tuple(draw(filters))) for v in variables
    )
    by_variable = {r.variable: r.pattern for r in pointcut}
    # Only a pointcut variable may stand bare; on the left it also needs a
    # port part, which decides whether the rule links or rewrites.
    sided = {v for v, pattern in by_variable.items() if pattern.port_atoms is not None}
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = _resolve(draw(_SLOT_EXPRS), names, sided)
        tree = _map_refs(draw(trees), lambda e: _resolve(e, names, by_variable))
        required = lhs.required if lhs.port is not None else by_variable[lhs.base].port_required
        rules.append((Link if required else Rewrite)(lhs, tree))
    ports = {name: set() for name in locals_}
    for rule in rules:
        lhs = rule.source if isinstance(rule, Link) else rule.target
        if lhs.base in ports:
            ports[lhs.base].add(PortSpec(lhs.port, REQUIRED if lhs.required else PROVIDED))
        for ref in iter_refs(rule.tree):
            if ref.base in ports:
                ports[ref.base].add(PortSpec(ref.port, PROVIDED))
    for name in locals_:
        props = draw(st.dictionaries(_IDENT, _PROPERTY_VALUES | st.floats(), max_size=2))
        rules.append(Instantiate(name, draw(_TYPE_NAMES), props, canonical_ports(ports[name])))
    order = draw(st.lists(st.integers(), min_size=len(rules), max_size=len(rules)))
    rules = [rule for _, _, rule in sorted(zip(order, range(len(rules)), rules))]
    # The schema may list its parameters in another order than the pointcut.
    return AspectOfAssembly(draw(_IDENT), pointcut, tuple(reversed(variables)), tuple(rules))


def _unprintable(aa) -> bool:
    """Whether ``print_aa`` must refuse ``aa``: a filter value holding '&',
    '/' or a newline or being NaN or infinite, a local's text holding both
    quotes, or a property that is NaN or infinite."""
    for rule in aa.pointcut:
        for f in rule.filters:
            if isinstance(f.value, str) and set(f.value) & set(UNPRINTABLE):
                return True
            if isinstance(f.value, float) and not math.isfinite(f.value):
                return True
    values = [v for r in aa.rules if isinstance(r, Instantiate) for v in (r.type_name, *r.init_props.values())]
    return any(
        isinstance(v, str) and {"'", '"'} <= set(v) or isinstance(v, float) and not math.isfinite(v) for v in values
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(aa=_aspects())
def test_whole_aspects_print_parse_round_trip(aa):
    if _unprintable(aa):
        with pytest.raises(ValueError, match="cannot be printed"):
            print_aa(aa)
        return
    assert parse_aa(print_aa(aa)) == aa


# Patterns that pick out a few ports of what the hospital fixture's
# aspects weave over its base, mostly of woven components, which declare
# any port bound to them, and trees over provided ports only, so that
# many drawn aspects weave without a fault.
_HOSPITAL_PATTERNS = st.sampled_from(
    (
        "/switch.^value_Evented_NewValue/", "/Decision1.Manage/", "/Decision1.^*/", "/*.in/",
        "/par[:digit:].^out_1/", "/if1.^out*/", "/threshold1.IsReached/", "/Average1/",
    )
).map(parse_pattern)
_PROVIDED_TREES = _op_trees(st.one_of(st.builds(PortExpr, _SLOT), st.builds(PortExpr, _SLOT, st.sampled_from(("p", "q")))))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    aspects=st.lists(
        _aspects(_HOSPITAL_PATTERNS, st.just(()), trees=_PROVIDED_TREES),
        min_size=1,
        max_size=3,
        unique_by=lambda aa: aa.name,
    )
)
def test_drawn_aspects_weave_as_the_spec(weaves_as_the_spec, hospital_base, mono_cascade, aspects):
    # A second cycle over what the hospital fixture's aspects wove, with
    # few enough combinations per aspect to weave fast.
    (first_cycle,) = mono_cascade.cycles
    first, _ = reference_weave.weave(hospital_base, [[(aa, "") for aa in first_cycle]])
    seen = reference_weave.joinpoints(first, 1, "", {aa.name for aa in aspects})
    assume(all(math.prod(len(reference_weave.scan(first, seen, r)) for r in aa.pointcut) <= 16 for aa in aspects))
    weaves_as_the_spec(hospital_base, [Cascade("drawn", cycles=(first_cycle, tuple(aspects)))])


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
