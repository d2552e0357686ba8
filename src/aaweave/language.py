"""Grammar and parser for the adaptation-aspect DSL.

An aspect source has an optional pointcut section and an advice section::

    Pointcut:
      Shutter := /shutter*.SetState/
      light   := /*(@type=light&energyConsumption<50).*/
    Advice:
    schema identity_management(Shutter, light):
      Decision : 'beans.DecisionEntity';
      Decision.^LightManagementEvent -> (light)

Pointcut patterns use a closed dialect of three atoms: literals, ``*``
(any sequence, also spelled ``.*``) and a single-digit class (spelled
``[:digit:]`` or ``[[:digit:]]``, ASCII digits only).  Matching ignores
the case of ASCII letters alone.  Metadata
filters sit in parentheses after the component part and are a conjunction
joined by ``&``.

Advice rules are either instantiations (``name : 'type' (prop=value)``) or
arrow rules ``portExpr -> (opExpr)``.  The arrow's left-hand side decides
the rule kind: a required port creates a link, a provided port rewrites the
links already arriving there.  Operator expressions support ``if/else``,
``;`` (sequence, binds tighter), ``||`` (parallel), ``nop``, ``call`` and
``delegate(...)``.  Comments run from ``#`` to end of line.

The grammar deliberately owns no deletion or negation construct; any
negation spelling is rejected outright.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from decimal import Decimal
from functools import lru_cache

from .model import PROVIDED, REQUIRED, PortSet, PortSpec, canonical_ports, parse_number, value
from .optree import CALL, NOP, Call, Delegate, If, Leaf, Nop, OperatorTree, Par, Seq, iter_refs, par_of, seq_of

# Tokens the grammar is built from, in the order the tokenizer tries them
# (multi-character symbols first); reviewed by tests to prove there is no
# negation or deletion vocabulary.
SYMBOLS = (":=", "->", "||", "(", ")", "{", "}", ":", ";", ",", ".", "^", "=", "<", ">", "&", "@")
KEYWORDS = ("Pointcut", "Advice", "schema", "if", "else", "nop", "call", "delegate", "true", "false")


class AaSyntaxError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0, path: str | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.path = path

    def __str__(self) -> str:
        where = self.path or "<aa>"
        return f"{where}:{self.line}:{self.col}: {self.message}"


class UnboundVariable(AaSyntaxError):
    pass


class NegationRejected(AaSyntaxError):
    pass


# ---------------------------------------------------------------------------
# Pattern dialect

STAR = ("star",)
DIGIT = ("digit",)


def literal(text: str) -> tuple:
    return ("lit", text)


@value
class Pattern:
    component_atoms: tuple
    port_atoms: tuple | None = None
    port_required: bool = False

    def matches_component(self, name: str) -> bool:
        return _atoms_regex(self.component_atoms).fullmatch(name) is not None

    def matches_port(self, name: str, direction: str) -> bool:
        if self.port_atoms is None:
            return True
        want = "required" if self.port_required else "provided"
        if direction != want:
            return False
        return _atoms_regex(self.port_atoms).fullmatch(name) is not None


@lru_cache(maxsize=4096)
def _atoms_regex(atoms: tuple) -> re.Pattern:
    parts = []
    for atom in atoms:
        if atom == STAR:
            parts.append(".*")
        elif atom == DIGIT:
            parts.append(r"\d")
        else:
            parts.append(re.escape(atom[1]))
    # ASCII only, like the tokenizer: ``\d`` is [0-9] and case folding
    # maps no other letter onto an ASCII one (``ſ`` is not ``s``).
    return re.compile("".join(parts), re.IGNORECASE | re.ASCII)


@value
class MetadataFilter:
    key: str
    op: str  # "eq", "lt" or "gt"
    value: str | int | float

    def evaluate(self, metadata: dict) -> bool:
        if self.key not in metadata:
            return False
        have = metadata[self.key]
        if self.op == "eq":
            # Python compares an int and a float exactly, with no overflow.
            return have == self.value
        if not isinstance(have, (int, float)) or isinstance(have, bool):
            return False
        if self.op == "lt":
            return have < self.value
        return have > self.value


@value
class PointcutRule:
    variable: str
    pattern: Pattern
    filters: tuple[MetadataFilter, ...] = ()

    def accepts_component(self, component_id: str, metadata: dict) -> bool:
        """The component half of matching: the component pattern, then
        every metadata filter."""
        if not self.pattern.matches_component(component_id):
            return False
        for f in self.filters:
            if not f.evaluate(metadata):
                return False
        return True


# Whitespace, then at most one atom: a digit class, a star or a literal,
# which may hold whitespace between its runs of word characters.
_ATOM = re.compile(r"\s*(?:(\[\[:digit:\]\]|\[:digit:\])|(\.?\*)|(\w+(?:\s+\w+)*))?")


def _scan_atoms(text: str, line: int, col: int, path) -> tuple:
    """The atoms of one pattern part, read one ``_ATOM`` match at a time.
    Its ``\\s`` and ``\\w`` are the ``str.isspace`` and ``str.isalnum``-or-``_``
    classes: whitespace between atoms is skipped, and a literal is a run of
    word characters that may hold non-ASCII letters and digits.  Literals
    with only whitespace between them are one literal, as ``print_pattern``
    writes them."""
    atoms: list[tuple] = []
    i = 0
    while True:
        m = _ATOM.match(text, i)
        i = m.end()
        if m.lastindex == 1:
            atoms.append(DIGIT)
        elif m.lastindex == 2:
            atoms.append(STAR)
        elif m.lastindex == 3:
            atoms.append(literal("".join(m.group(3).split())))
        elif i == len(text):
            return tuple(atoms)
        elif text[i] == "[":
            raise AaSyntaxError(f"unterminated or unknown character class in pattern {text!r}", line, col, path)
        elif text[i] == "!":
            raise NegationRejected("negation is not expressible in patterns", line, col, path)
        else:
            raise AaSyntaxError(f"unexpected character {text[i]!r} in pattern {text!r}", line, col, path)


# A pattern's text in parts.  With a '(': the component part before the
# first '(', the filters up to the last ')' (so a filter value may hold
# parentheses) and the rest.  Without one: the component part up to the
# first '.' and the rest.  A '(' with no ')' after it matches neither.
_PARTS = re.compile(r"([^(]*)\((.*)\)(.*)|([^(.]*)([^(]*)", re.DOTALL)


_FILTER_RE = re.compile(r"\s*@?\s*([A-Za-z_][A-Za-z0-9_]*)\s*(=|<|>|!=?)\s*([^&]*?)\s*$")


def _parse_filters(text: str, line: int, col: int, path) -> tuple[MetadataFilter, ...]:
    out = []
    for clause in text.split("&"):
        if not clause.strip():
            raise AaSyntaxError("empty metadata filter", line, col, path)
        m = _FILTER_RE.match(clause)
        if not m:
            raise AaSyntaxError(f"cannot parse metadata filter {clause.strip()!r}", line, col, path)
        key, op_text, value_text = m.groups()
        if op_text.startswith("!"):
            raise NegationRejected("negative metadata filters are not expressible", line, col, path)
        op = {"=": "eq", "<": "lt", ">": "gt"}[op_text]
        value = _parse_filter_value(value_text, line, col, path)
        if op in ("lt", "gt") and not isinstance(value, (int, float)):
            raise AaSyntaxError(f"ordering filter on {key!r} needs a numeric value", line, col, path)
        out.append(MetadataFilter(key, op, value))
    return tuple(out)


def _parse_filter_value(text: str, line: int, col: int, path):
    text = text.strip()
    if not text:
        raise AaSyntaxError("missing filter value", line, col, path)
    if text[0] in "'\"" and text[-1] == text[0] and len(text) >= 2:
        return text[1:-1]
    # A number is spelled as the tokenizer reads one; anything else (``1e3``,
    # ``+5``, ``1_000``, ``inf``, ``nan``, a non-ASCII digit) is a string.
    if _NUMBER.fullmatch(text):
        return _number_value(text, line, col, path)
    return text


def parse_pattern(text: str, path: str | None = None) -> Pattern:
    """Parse a ``/.../``-delimited pattern with no filter section."""
    pattern, filters = parse_pattern_with_filters(text, path)
    if filters:
        raise AaSyntaxError("metadata filters are not allowed here", 1, 1, path)
    return pattern


def parse_pattern_with_filters(text: str, path: str | None = None, line: int = 1, col: int = 1) -> tuple[Pattern, tuple[MetadataFilter, ...]]:
    raw = text.strip()
    if not (raw.startswith("/") and raw.endswith("/") and len(raw) >= 2):
        raise AaSyntaxError(f"pattern must be delimited by slashes: {text!r}", line, col, path)
    raw = raw[1:-1].strip()
    if not raw:
        raise AaSyntaxError("empty pattern", line, col, path)
    parts = _PARTS.fullmatch(raw)
    if parts is None:
        raise AaSyntaxError(f"unbalanced filter parentheses in pattern {raw!r}", line, col, path)
    comp_text, filter_text, rest = parts.group(1, 2, 3) if parts[2] is not None else (parts[4], None, parts[5])
    if rest and rest[0] != ".":
        raise AaSyntaxError(f"expected '.' before port part in pattern {raw!r}", line, col, path)
    port_text = rest[1:] if rest else None
    if port_text == "*":
        # A lone trailing `.*` is a component wildcard, not a port constraint.
        comp_text, port_text = comp_text + "*", None
    comp_atoms = _scan_atoms(comp_text, line, col, path)
    if not comp_atoms:
        raise AaSyntaxError(f"pattern {text!r} has an empty component part", line, col, path)
    filters = _parse_filters(filter_text, line, col, path) if filter_text is not None else ()
    if port_text is None:
        return Pattern(comp_atoms), filters
    port_required = port_text.startswith("^")
    if port_required:
        port_text = port_text[1:]
    port_atoms = _scan_atoms(port_text, line, col, path)
    if not port_atoms:
        raise AaSyntaxError(f"pattern {text!r} has an empty port part", line, col, path)
    return Pattern(comp_atoms, port_atoms, port_required), filters


# ---------------------------------------------------------------------------
# Advice AST


@value
class PortExpr:
    """A source-level port reference: pointcut variable or advice-local name."""

    base: str
    port: str | None = None
    required: bool = False

    def key(self) -> tuple:
        return (self.base, self.port or "", self.required)

    def __str__(self) -> str:
        if self.port is None:
            return self.base
        mark = "^" if self.required else ""
        return f"{self.base}.{mark}{self.port}"


@dataclass(frozen=True)
class Instantiate:
    """An advice-local component.  The parser infers ``ports`` from how the
    advice's arrows touch it: the left side of a link is required; the left
    side of a rewrite and every reference in a tree are provided.  Ports
    that only later aspects mention surface when their bindings apply.
    The parser's ``ports`` is a ``PortSet``, which every component the
    factory builds from it keeps."""

    local_name: str
    type_name: str
    init_props: dict = field(default_factory=dict)
    ports: PortSet = ()


@value
class Link:
    source: PortExpr  # a PortRef once grounded, as are the tree's refs
    tree: OperatorTree


@value
class Rewrite:
    target: PortExpr  # a PortRef once grounded, as are the tree's refs
    tree: OperatorTree


AdviceRule = Instantiate | Link | Rewrite


@dataclass(frozen=True)
class AspectOfAssembly:
    name: str
    pointcut: tuple[PointcutRule, ...]
    advice_params: tuple[str, ...]
    rules: tuple[AdviceRule, ...]
    namespace: str | None = None

    def with_namespace(self, namespace: str | None) -> "AspectOfAssembly":
        return replace(self, namespace=namespace)


# ---------------------------------------------------------------------------
# Tokenizer


@value
class _Token:
    kind: str  # IDENT, NUMBER, STRING, PATTERN, symbol text, or EOF
    value: str
    line: int
    col: int


# Numbers and names are ASCII only: any other letter or digit outside a
# string or pattern is an unexpected character.
_NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")
# Blanks and a comment, then at most one token, whose kind is the name of
# the group that took it.  A match that takes none stops at the character
# at fault.  A pattern closes on its own line.
_TOKEN = re.compile(
    rf"[ \t\r]*(?:#[^\n]*)?(?:(?P<NEWLINE>\n)|(?P<NUMBER>{_NUMBER.pattern})|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    rf"|(?P<STRING>'[^']*'|\"[^\"]*\")|(?P<PATTERN>/[^/\n]*/)|(?P<SYMBOL>{'|'.join(map(re.escape, SYMBOLS))})"
    rf"|(?P<EOF>\Z))?"
)


def _number_value(text: str, line: int, col: int, path) -> int | float:
    """``parse_number``, with an out-of-range number a syntax error at the literal."""
    try:
        return parse_number(text)
    except ValueError as exc:
        raise AaSyntaxError(str(exc), line, col, path) from None


def _tokenize(text: str, path: str | None) -> list[_Token]:
    """The tokens of ``text``, ending in EOF.  A string runs to the next
    quote of its own kind and may span lines; the positions of what follows
    count its newlines.  A pattern is a token only right after ``:=``.  A
    column counts characters from 1."""
    tokens: list[_Token] = []
    line, line_start, i = 1, 0, 0
    while True:
        m = _TOKEN.match(text, i)
        kind, i = m.lastgroup, m.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, i
            continue
        start = m.start(kind) if kind else i
        col = start - line_start + 1
        if kind is None or kind == "PATTERN" and (not tokens or tokens[-1].kind != ":="):
            ch = text[start]
            if ch == "!":
                raise NegationRejected("negation syntax is not part of the language", line, col, path)
            if ch == "/" and tokens and tokens[-1].kind == ":=":
                raise AaSyntaxError("unterminated pattern", line, col, path)
            problem = "unterminated string" if ch in "'\"" else f"unexpected character {ch!r}"
            raise AaSyntaxError(problem, line, col, path)
        word = m.group(kind)
        if kind == "STRING":
            tokens.append(_Token(kind, word[1:-1], line, col))
            if "\n" in word:
                line, line_start = line + word.count("\n"), start + word.rfind("\n") + 1
            continue
        tokens.append(_Token(word if kind == "SYMBOL" else kind, word, line, col))
        if kind == "EOF":
            return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token], path: str | None):
        self.tokens = tokens
        self.path = path
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def peek(self) -> _Token:
        return self.tokens[min(self.pos + 1, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.cur
        raise AaSyntaxError(message, tok.line, tok.col, self.path)

    def expect(self, kind: str, what: str | None = None) -> _Token:
        if self.cur.kind != kind:
            self.fail(f"expected {what or kind!r}, found {self.cur.value or self.cur.kind!r}")
        return self.advance()

    def expect_ident(self, value: str | None = None) -> _Token:
        tok = self.expect("IDENT", value)
        if value is not None and tok.value != value:
            self.fail(f"expected {value!r}, found {tok.value!r}", tok)
        return tok

    def at_ident(self, value: str) -> bool:
        return self.cur.kind == "IDENT" and self.cur.value == value

    # -- grammar productions ------------------------------------------------

    def parse_aa(self) -> AspectOfAssembly:
        pointcut: list[PointcutRule] = []
        if self.at_ident("Pointcut"):
            self.advance()
            self.expect(":")
            while self.cur.kind == "IDENT" and self.cur.value != "Advice" and self.peek().kind == ":=":
                pointcut.append(self.parse_pointcut_rule())
        self.expect_ident("Advice")
        self.expect(":")
        self.expect_ident("schema")
        name = self.expect("IDENT", "schema name").value
        self.expect("(")
        params: list[str] = []
        if self.cur.kind == "IDENT":
            params.append(self.advance().value)
            while self.cur.kind == ",":
                self.advance()
                params.append(self.expect("IDENT", "parameter name").value)
        self.expect(")")
        self.expect(":")
        rules: list[tuple[AdviceRule, _Token]] = []
        while self.cur.kind != "EOF":
            rules.append(self.parse_advice_rule())
        if not rules:
            self.fail("advice needs at least one rule")
        return self._assemble(name, pointcut, params, rules)

    def parse_pointcut_rule(self) -> PointcutRule:
        var = self.expect("IDENT").value
        self.expect(":=")
        tok = self.expect("PATTERN")
        pattern, filters = parse_pattern_with_filters(tok.value, self.path, tok.line, tok.col)
        return PointcutRule(var, pattern, filters)

    def parse_advice_rule(self) -> tuple[AdviceRule, _Token]:
        start = self.cur
        if self.cur.kind != "IDENT":
            self.fail(f"expected an advice rule, found {self.cur.value or self.cur.kind!r}")
        if self.peek().kind == ":":
            local = self.advance().value
            self.advance()  # ':'
            type_name = self.expect("STRING", "quoted type name").value
            props: dict = {}
            if self.cur.kind == "(":
                self.advance()
                while True:
                    key = self.expect("IDENT", "property name").value
                    self.expect("=")
                    props[key] = self.parse_value()
                    if self.cur.kind != ",":
                        break
                    self.advance()
                self.expect(")")
            if self.cur.kind == ";":
                self.advance()
            return Instantiate(local, type_name, props), start
        lhs = self.parse_port_expr()
        self.expect("->")
        self.expect("(")
        tree = self.parse_op_expr()
        self.expect(")")
        # Rule kind is resolved once the pointcut is known; carry the raw side.
        return Link(lhs, tree), start

    def parse_value(self):
        tok = self.cur
        if tok.kind == "NUMBER":
            self.advance()
            return _number_value(tok.value, tok.line, tok.col, self.path)
        if tok.kind == "STRING":
            self.advance()
            return tok.value
        if tok.kind == "IDENT":
            self.advance()
            if tok.value in ("true", "false"):
                return tok.value == "true"
            return tok.value
        self.fail("expected a property value")

    def parse_port_expr(self) -> PortExpr:
        base = self.expect("IDENT", "port expression").value
        if self.cur.kind != ".":
            return PortExpr(base)
        self.advance()
        req = False
        if self.cur.kind == "^":
            self.advance()
            req = True
        port = self.expect("IDENT", "port name").value
        return PortExpr(base, port, req)

    def parse_op_expr(self) -> OperatorTree:
        children = [self.parse_op_seq()]
        while self.cur.kind == "||":
            self.advance()
            children.append(self.parse_op_seq())
        return par_of(children)

    def parse_whole_op_expr(self) -> OperatorTree:
        tree = self.parse_op_expr()
        self.expect("EOF", "end of expression")
        return tree

    def parse_op_seq(self) -> OperatorTree:
        children = [self.parse_op_atom()]
        while self.cur.kind == ";":
            self.advance()
            children.append(self.parse_op_atom())
        return seq_of(children)

    def parse_op_atom(self) -> OperatorTree:
        if self.at_ident("if"):
            self.advance()
            self.expect("(")
            cond = self.parse_port_expr()
            self.expect(")")
            self.expect("{")
            then = self.parse_op_expr()
            self.expect("}")
            self.expect_ident("else")
            self.expect("{")
            orelse = self.parse_op_expr()
            self.expect("}")
            return If(cond, then, orelse)
        if self.at_ident("nop"):
            self.advance()
            return NOP
        if self.at_ident("call"):
            self.advance()
            return CALL
        if self.at_ident("delegate"):
            self.advance()
            self.expect("(")
            child = self.parse_op_expr()
            self.expect(")")
            return Delegate(child)
        if self.cur.kind == "(":
            self.advance()
            tree = self.parse_op_expr()
            self.expect(")")
            return tree
        if self.cur.kind == "IDENT":
            return Leaf(self.parse_port_expr())
        self.fail(f"expected an operator expression, found {self.cur.value or self.cur.kind!r}")

    # -- post-parse resolution ----------------------------------------------

    def _assemble(
        self,
        name: str,
        pointcut: list[PointcutRule],
        params: list[str],
        raw_rules: list[tuple[AdviceRule, _Token]],
    ) -> AspectOfAssembly:
        variables = [r.variable for r in pointcut]
        if len(set(variables)) != len(variables):
            self.fail(f"duplicate pointcut variable in aspect {name!r}")
        if set(variables) != set(params):
            missing = sorted(set(variables) ^ set(params))
            tok = raw_rules[0][1]
            raise UnboundVariable(
                f"schema parameters and pointcut variables disagree on {missing}",
                tok.line,
                tok.col,
                self.path,
            )
        locals_seen: list[str] = []
        for rule, tok in raw_rules:
            if isinstance(rule, Instantiate):
                if rule.local_name in locals_seen or rule.local_name in params:
                    raise AaSyntaxError(
                        f"instantiation name {rule.local_name!r} is not unique", tok.line, tok.col, self.path
                    )
                locals_seen.append(rule.local_name)
        by_var = {r.variable: r for r in pointcut}
        known = set(params) | set(locals_seen)
        local_ports: dict[str, set[PortSpec]] = {name: set() for name in locals_seen}

        def check_expr(expr: PortExpr, direction: str, tok: _Token):
            if expr.base not in known:
                raise UnboundVariable(
                    f"{expr.base!r} is neither a pointcut variable nor an instantiated component",
                    tok.line,
                    tok.col,
                    self.path,
                )
            ports = local_ports.get(expr.base)
            if ports is not None:
                if expr.port is None:
                    self.fail(f"reference to {expr.base!r} needs an explicit port", tok)
                ports.add(PortSpec(expr.port, direction))

        rules: list[AdviceRule] = []
        for rule, tok in raw_rules:
            if isinstance(rule, Instantiate):
                rules.append(rule)
                continue
            # A local's left side names its port, so ``^`` alone decides
            # whether the rule is a link (required) or a rewrite (provided).
            check_expr(rule.source, REQUIRED if rule.source.required else PROVIDED, tok)
            for ref in iter_refs(rule.tree):
                check_expr(ref, PROVIDED, tok)
            rules.append(self._classify(rule.source, rule.tree, by_var, locals_seen, tok))
        rules = [
            replace(r, ports=canonical_ports(local_ports[r.local_name])) if isinstance(r, Instantiate) else r
            for r in rules
        ]
        return AspectOfAssembly(name, tuple(pointcut), tuple(params), tuple(rules))

    def _classify(self, lhs: PortExpr, tree, by_var, locals_seen, tok) -> AdviceRule:
        if lhs.port is not None:
            return Link(lhs, tree) if lhs.required else Rewrite(lhs, tree)
        if lhs.base in locals_seen:
            self.fail(f"rule on {lhs.base!r} needs an explicit port", tok)
        pattern = by_var[lhs.base].pattern
        if pattern.port_atoms is None:
            self.fail(
                f"cannot infer the direction of {lhs.base!r}: give the pointcut a port part or write {lhs.base}.port",
                tok,
            )
        return Link(lhs, tree) if pattern.port_required else Rewrite(lhs, tree)


def _parse(text: str, path: str | None, production):
    """``production`` run on a parser over ``text``.  Nesting deeper than
    the interpreter's stack allows is a syntax error at the token the
    parser stopped at."""
    parser = _Parser(_tokenize(text, path), path)
    try:
        return production(parser)
    except RecursionError:
        pass  # failing outside the handler chains no RecursionError
    parser.fail("expression nested too deeply")


def parse_aa(text: str, path: str | None = None) -> AspectOfAssembly:
    """Parse one aspect source into its structured form."""
    return _parse(text, path, _Parser.parse_aa)


def parse_operator_expr(text: str, path: str | None = None) -> OperatorTree:
    return _parse(text, path, _Parser.parse_whole_op_expr)


# ---------------------------------------------------------------------------
# Printer


def print_pattern(pattern: Pattern, filters: tuple[MetadataFilter, ...] = ()) -> str:
    def atoms_text(atoms) -> str:
        out = []
        for atom in atoms:
            if atom == STAR:
                out.append("*")
            elif atom == DIGIT:
                out.append("[:digit:]")
            else:
                out.append(atom[1])
        return "".join(out)

    text = atoms_text(pattern.component_atoms)
    if filters:
        text += "(" + "&".join(_filter_text(f) for f in filters) + ")"
    if pattern.port_atoms is not None:
        port = ("^" if pattern.port_required else "") + atoms_text(pattern.port_atoms)
        # A port part `*` would read back as the trailing `.*` that widens
        # the component part; `.*` is the same star.
        text += "." + (".*" if port == "*" else port)
    return f"/{text}/"


def _filter_text(f: MetadataFilter) -> str:
    op = {"eq": "=", "lt": "<", "gt": ">"}[f.op]
    value = f.value
    # '&' separates filters, '/' ends the pattern and a newline ends the
    # line; the dialect has no escape for them, quoted or not.  Nor does it
    # spell a NaN or an infinity.
    unprintable = isinstance(value, str) and any(ch in value for ch in "&/\n")
    if unprintable or (isinstance(value, float) and not math.isfinite(value)):
        raise ValueError(f"metadata filter {f.key!r}: value {value!r} cannot be printed")
    if isinstance(value, str):
        # Quote a string unless it is a plain word that reads back as itself.
        if not re.fullmatch(r"[A-Za-z0-9_.:-]+", value) or _NUMBER.fullmatch(value):
            value = f"'{value}'"
    else:
        value = _value_text(value, f"metadata filter {f.key!r}: value")
    return f"@{f.key}{op}{value}"


def print_operator_expr(tree: OperatorTree) -> str:
    match tree:
        case Leaf(target=t):
            return str(t)
        case If(cond=c, then=a, orelse=b):
            return f"if ({c}) {{{print_operator_expr(a)}}} else {{{print_operator_expr(b)}}}"
        case Seq(children=ch):
            return " ; ".join(_seq_child(c) for c in ch)
        case Par(children=ch):
            return " || ".join(_par_child(c) for c in ch)
        case Delegate(child=c):
            return f"delegate({print_operator_expr(c)})"
        case Nop():
            return "nop"
        case Call():
            return "call"
    raise TypeError(f"not an operator tree: {tree!r}")


def _seq_child(tree) -> str:
    text = print_operator_expr(tree)
    return f"({text})" if isinstance(tree, (Par, Seq)) else text


def _par_child(tree) -> str:
    text = print_operator_expr(tree)
    return f"({text})" if isinstance(tree, Par) else text


def _quoted(text: str, what: str) -> str:
    # A string ends at the next quote of its own kind and has no escape.
    quote = '"' if "'" in text else "'"
    if quote in text:
        raise ValueError(f"{what} {text!r} holds both quote kinds and cannot be printed")
    return f"{quote}{text}{quote}"


def _value_text(value, what: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{what} {value!r} is not finite and cannot be printed")
        # The lexer reads no exponent, and reads a number as a float only with a '.'.
        text = format(Decimal(repr(value)), "f")
        return text if "." in text else text + ".0"
    if isinstance(value, int):
        return str(value)
    return _quoted(value, what)


def print_aa(aa: AspectOfAssembly) -> str:
    """Print an aspect so that ``parse_aa`` reads it back as an equal value.

    Raises ``ValueError`` for what the dialect cannot spell: a filter value
    holding '&', '/' or a newline, a NaN or infinite filter value, a type
    name or string property holding both quote kinds, or a property that
    is NaN or infinite.
    """
    lines: list[str] = []
    if aa.pointcut:
        lines.append("Pointcut:")
        for rule in aa.pointcut:
            lines.append(f"  {rule.variable} := {print_pattern(rule.pattern, rule.filters)}")
    lines.append("Advice:")
    lines.append(f"schema {aa.name}({', '.join(aa.advice_params)}):")
    for rule in aa.rules:
        match rule:
            case Instantiate(local_name=n, type_name=t, init_props=props):
                text = f"  {n} : {_quoted(t, f'local {n!r}: type name')}"
                if props:
                    text += " (" + ", ".join(
                        f"{k} = {_value_text(v, f'local {n!r} property {k!r}: value')}" for k, v in props.items()
                    ) + ")"
                lines.append(text + ";")
            case Link(source=s, tree=tree):
                lines.append(f"  {s} -> ({print_operator_expr(tree)})")
            case Rewrite(target=t, tree=tree):
                lines.append(f"  {t} -> ({print_operator_expr(tree)})")
    return "\n".join(lines) + "\n"
