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

One ``finditer`` pass of one expression lexes a source into flat lists of
token kinds, texts and offsets; a line and column are worked out from an
offset only when a position is reported, and lines end at ``\n`` alone,
so a CRLF source reads and reports as its LF copy.  The recursive-descent
parser reads those lists by index and allows ``MAX_NESTING`` levels of
``if``, ``delegate`` and parentheses, however deep its caller's stack.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from decimal import Decimal
from functools import lru_cache

from .model import PROVIDED, REQUIRED, PortSet, PortSpec, canonical_ports, parse_number, value
from .optree import CALL, NOP, Call, Delegate, If, Leaf, Nop, OperatorTree, Par, Seq

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


# Numbers and names are ASCII only: any other letter or digit outside a
# string or pattern is an unexpected character.
_NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")
# Blanks and comments, then one token.  The group that takes the token
# names its kind; a symbol's group has no name, for its text is its kind.
# A character no other group takes is an ERROR, so the matches of one
# ``finditer`` tile the text and the last is EOF.  No two kinds start with
# the same character (a number's '-' is followed by a digit, the arrow's by
# '>'), so the order of the groups, names first as the most frequent, and
# the possessive repeats, which never give back, only save time.  \w is
# ASCII's.  A pattern closes on its own line.
_SYMBOL = "|".join(
    [*(re.escape(s) for s in SYMBOLS if len(s) > 1), f"[{re.escape(''.join(s for s in SYMBOLS if len(s) == 1))}]"]
)
_TOKEN = re.compile(
    rf"[ \t\r\n]*+(?:#[^\n]*+[ \t\r\n]*+)*+(?:(?P<IDENT>[A-Za-z_]\w*+)|({_SYMBOL})|(?P<NUMBER>{_NUMBER.pattern})"
    rf"|(?P<STRING>'[^']*+'|\"[^\"]*+\")|(?P<PATTERN>/[^/\n]*+/)|(?P<EOF>\Z)|(?P<ERROR>.))",
    re.ASCII | re.DOTALL,
)


def _number_value(text: str, line: int, col: int, path) -> int | float:
    """``parse_number``, with an out-of-range number a syntax error at the literal."""
    try:
        return parse_number(text)
    except ValueError as exc:
        raise AaSyntaxError(str(exc), line, col, path) from None


def _position(text: str, offset: int) -> tuple[int, int]:
    """The line and column of ``offset`` in ``text``, both counted from 1.
    Lines end at ``\\n`` alone, so a ``\\r`` before one is the last column
    of its line and a CRLF source reports what its LF copy does."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str, path: str | None) -> tuple[list[str], list[str], list[int]]:
    """The kinds, texts and offsets of the tokens of ``text``, ending in
    EOF.  A kind is IDENT, NUMBER, STRING, PATTERN, EOF or a symbol's text;
    a string's text keeps its quotes.  A string runs to the next quote of
    its own kind and may span lines.  A pattern is a token only right
    after ``:=``."""
    kinds, texts, offsets = [], [], []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        word = m[group]
        kinds.append(m.lastgroup or word)
        texts.append(word)
        offsets.append(m.start(group))
    if kinds[-2:] == ["EOF", "EOF"]:
        # A last match that takes blanks is followed by an empty one.
        del kinds[-1], texts[-1], offsets[-1]
    # The first ERROR, or pattern not right after ``:=``, is the lexical error.
    first = kinds.index("ERROR") if "ERROR" in kinds else len(kinds)
    i = 0
    for _ in range(kinds.count("PATTERN")):
        i = kinds.index("PATTERN", i) + 1
        if kinds[i - 2] != ":=":
            first = min(first, i - 1)
            break
    if first == len(kinds):
        return kinds, texts, offsets
    line, col = _position(text, offsets[first])
    ch = text[offsets[first]]
    if ch == "!":
        raise NegationRejected("negation syntax is not part of the language", line, col, path)
    if ch == "/" and kinds[first - 1 : first] == [":="]:
        raise AaSyntaxError("unterminated pattern", line, col, path)
    problem = "unterminated string" if ch in "'\"" else f"unexpected character {ch!r}"
    raise AaSyntaxError(problem, line, col, path)


# ---------------------------------------------------------------------------
# Parser

# The deepest nesting of ``if``, ``delegate`` and parentheses an operator
# expression may have.  It is at least 251, so that two 250-deep aspects
# parse and fail their weave's fold, not the parser.  Each level takes
# three of the parser's frames (atom, expression, sequence), so a 256-deep
# parse needs about 780 of CPython's default limit of 1,000 frames and
# leaves about 200 to its caller: pytest calls a test 33 frames deep.
# Counting levels gives one verdict per source, whatever the depth of the
# caller's stack or the recursion limit it set.
MAX_NESTING = 256


class _Parser:
    """Recursive descent over the flat token lists of one source.  ``pos``
    indexes the current token; a production reads the lists at and after
    it and leaves ``pos`` past what it took.  A keyword's or a symbol's
    text is no other token's, so productions test ``texts`` for those and
    ``kinds`` for the rest.  ``depth`` counts the ``if``s, ``delegate``s
    and parentheses open at ``pos``."""

    __slots__ = ("text", "path", "kinds", "texts", "offsets", "pos", "depth", "refs")

    def __init__(self, text: str, path: str | None):
        self.text = text
        self.path = path
        self.kinds, self.texts, self.offsets = _tokenize(text, path)
        self.pos = 0
        self.depth = 0
        self.refs: list[PortExpr] = []  # the port expressions read, in order

    def where(self, pos: int) -> tuple[int, int]:
        return _position(self.text, self.offsets[pos])

    def fail(self, message: str, pos: int | None = None, error=AaSyntaxError):
        raise error(message, *self.where(self.pos if pos is None else pos), self.path)

    def found(self, pos: int) -> str:
        """The token at ``pos`` as an error names it: its text, a string's
        without quotes, or its kind when that is empty."""
        text = self.texts[pos]
        if self.kinds[pos] == "STRING":
            text = text[1:-1]
        return text or self.kinds[pos]

    def expected(self, what: str, pos: int):
        self.fail(f"expected {what!r}, found {self.found(pos)!r}", pos)

    def expect(self, pos: int, *words: str) -> int:
        """The index past the keywords and symbols ``words``, read from ``pos``."""
        for word in words:
            if self.texts[pos] != word:
                self.expected(word, pos)
            pos += 1
        return pos

    # -- grammar productions ------------------------------------------------

    def parse_aa(self) -> AspectOfAssembly:
        kinds, texts = self.kinds, self.texts
        pointcut: list[PointcutRule] = []
        pos = 0
        if texts[0] == "Pointcut":
            pos = self.expect(1, ":")
            while kinds[pos] == "IDENT" and texts[pos] != "Advice" and texts[pos + 1] == ":=":
                if kinds[pos + 2] != "PATTERN":
                    self.expected("PATTERN", pos + 2)
                pattern, filters = parse_pattern_with_filters(texts[pos + 2], self.path, *self.where(pos + 2))
                pointcut.append(PointcutRule(texts[pos], pattern, filters))
                pos += 3
        pos = self.expect(pos, "Advice", ":", "schema")
        if kinds[pos] != "IDENT":
            self.expected("schema name", pos)
        name = texts[pos]
        pos = self.expect(pos + 1, "(")
        params: list[str] = []
        if kinds[pos] == "IDENT":
            params.append(texts[pos])
            pos += 1
            while texts[pos] == ",":
                if kinds[pos + 1] != "IDENT":
                    self.expected("parameter name", pos + 1)
                params.append(texts[pos + 1])
                pos += 2
        self.pos = self.expect(pos, ")", ":")
        rules: list[tuple[AdviceRule, int, list[PortExpr]]] = []
        while kinds[self.pos] != "EOF":
            rules.append(self.parse_advice_rule())
        if not rules:
            self.fail("advice needs at least one rule")
        return self._assemble(name, pointcut, params, rules)

    def parse_advice_rule(self) -> tuple[AdviceRule, int, list[PortExpr]]:
        """A rule, the index of its first token and the port expressions
        it reads, its left side first."""
        kinds, texts, start = self.kinds, self.texts, self.pos
        if kinds[start] != "IDENT":
            self.fail(f"expected an advice rule, found {self.found(start)!r}", start)
        if texts[start + 1] != ":":
            refs = self.refs = []
            lhs = self.parse_port_expr()
            pos = self.pos
            if texts[pos] != "->":
                self.expected("->", pos)
            if texts[pos + 1] != "(":
                self.expected("(", pos + 1)
            self.pos = pos + 2
            tree = self.parse_op_expr()
            pos = self.pos
            if texts[pos] != ")":
                self.expected(")", pos)
            self.pos = pos + 1
            # Rule kind is resolved once the pointcut is known; carry the raw side.
            return Link(lhs, tree), start, refs
        if kinds[start + 2] != "STRING":
            self.expected("quoted type name", start + 2)
        pos = start + 3
        props: dict = {}
        if texts[pos] == "(":
            while True:
                if kinds[pos + 1] != "IDENT":
                    self.expected("property name", pos + 1)
                self.pos = self.expect(pos + 2, "=")
                props[texts[pos + 1]] = self.parse_value()
                pos = self.pos
                if texts[pos] != ",":
                    break
            pos = self.expect(pos, ")")
        self.pos = pos + (texts[pos] == ";")
        return Instantiate(texts[start], texts[start + 2][1:-1], props), start, []

    def parse_value(self):
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        self.pos = pos + 1
        if kind == "NUMBER":
            return _number_value(text, *self.where(pos), self.path)
        if kind == "STRING":
            return text[1:-1]
        if kind == "IDENT":
            return text == "true" if text in ("true", "false") else text
        self.fail("expected a property value", pos)

    def parse_port_expr(self) -> PortExpr:
        kinds, texts, pos = self.kinds, self.texts, self.pos
        if kinds[pos] != "IDENT":
            self.expected("port expression", pos)
        if texts[pos + 1] != ".":
            self.pos = pos + 1
            expr = PortExpr(texts[pos])
        else:
            required = texts[pos + 2] == "^"
            port = pos + 2 + required
            if kinds[port] != "IDENT":
                self.expected("port name", port)
            self.pos = port + 1
            expr = PortExpr(texts[pos], texts[port], required)
        self.refs.append(expr)
        return expr

    def parse_op_expr(self) -> OperatorTree:
        tree = self.parse_op_seq()
        if self.texts[self.pos] != "||":
            return tree
        children = [tree]
        while self.texts[self.pos] == "||":
            self.pos += 1
            children.append(self.parse_op_seq())
        return Par(tuple(children))

    def parse_whole_op_expr(self) -> OperatorTree:
        tree = self.parse_op_expr()
        if self.kinds[self.pos] != "EOF":
            self.expected("end of expression", self.pos)
        return tree

    def parse_op_seq(self) -> OperatorTree:
        tree = self.parse_op_atom()
        if self.texts[self.pos] != ";":
            return tree
        children = [tree]
        while self.texts[self.pos] == ";":
            self.pos += 1
            children.append(self.parse_op_atom())
        return Seq(tuple(children))

    def parse_op_atom(self) -> OperatorTree:
        texts, pos = self.texts, self.pos
        word = texts[pos]
        if word == "nop" or word == "call":
            self.pos = pos + 1
            return NOP if word == "nop" else CALL
        if word != "if" and word != "delegate" and word != "(":
            if self.kinds[pos] != "IDENT":
                self.fail(f"expected an operator expression, found {self.found(pos)!r}", pos)
            return Leaf(self.parse_port_expr())
        if self.depth == MAX_NESTING:
            self.fail("expression nested too deeply", pos)
        self.depth += 1
        if word == "(":
            self.pos = pos + 1
            tree = self.parse_op_expr()
            close = ")"
        else:
            if texts[pos + 1] != "(":
                self.expected("(", pos + 1)
            self.pos = pos + 2
            if word == "delegate":
                tree = Delegate(self.parse_op_expr())
                close = ")"
            else:
                cond = self.parse_port_expr()
                pos = self.pos
                if texts[pos] != ")":
                    self.expected(")", pos)
                if texts[pos + 1] != "{":
                    self.expected("{", pos + 1)
                self.pos = pos + 2
                then = self.parse_op_expr()
                self.pos = self.expect(self.pos, "}", "else", "{")
                tree = If(cond, then, self.parse_op_expr())
                close = "}"
        pos = self.pos
        if texts[pos] != close:
            self.expected(close, pos)
        self.pos = pos + 1
        self.depth -= 1
        return tree

    # -- post-parse resolution ----------------------------------------------

    def _assemble(
        self,
        name: str,
        pointcut: list[PointcutRule],
        params: list[str],
        raw_rules: list[tuple[AdviceRule, int, list[PortExpr]]],
    ) -> AspectOfAssembly:
        by_var = {r.variable: r for r in pointcut}
        if len(by_var) != len(pointcut):
            self.fail(f"duplicate pointcut variable in aspect {name!r}")
        if by_var.keys() != set(params):
            missing = sorted(by_var.keys() ^ set(params))
            message = f"schema parameters and pointcut variables disagree on {missing}"
            self.fail(message, raw_rules[0][1], UnboundVariable)
        # The advice locals, each with the ports the arrows touch it by.
        local_ports: dict[str, set[PortSpec]] = {}
        for rule, pos, _ in raw_rules:
            if isinstance(rule, Instantiate):
                if rule.local_name in local_ports or rule.local_name in by_var:
                    self.fail(f"instantiation name {rule.local_name!r} is not unique", pos)
                local_ports[rule.local_name] = set()
        rules: list[AdviceRule] = []
        for rule, pos, refs in raw_rules:
            if isinstance(rule, Instantiate):
                rules.append(rule)
                continue
            # A local's left side names its port, so ``^`` alone decides
            # whether the rule is a link (required) or a rewrite (provided).
            direction = REQUIRED if rule.source.required else PROVIDED
            for expr in refs:
                ports = local_ports.get(expr.base)
                if ports is not None:
                    if expr.port is None:
                        self.fail(f"reference to {expr.base!r} needs an explicit port", pos)
                    ports.add(PortSpec(expr.port, direction))
                elif expr.base not in by_var:
                    message = f"{expr.base!r} is neither a pointcut variable nor an instantiated component"
                    self.fail(message, pos, UnboundVariable)
                direction = PROVIDED  # every reference in the tree
            rules.append(self._classify(rule, by_var, local_ports, pos))
        if local_ports:
            rules = [
                Instantiate(r.local_name, r.type_name, r.init_props, canonical_ports(local_ports[r.local_name]))
                if isinstance(r, Instantiate) else r
                for r in rules
            ]
        return AspectOfAssembly(name, tuple(pointcut), tuple(params), tuple(rules))

    def _classify(self, rule: Link, by_var, local_ports, pos) -> AdviceRule:
        """The raw ``rule`` as the link or the rewrite it is."""
        lhs = rule.source
        if lhs.port is not None:
            required = lhs.required
        else:
            if lhs.base in local_ports:
                self.fail(f"rule on {lhs.base!r} needs an explicit port", pos)
            pattern = by_var[lhs.base].pattern
            if pattern.port_atoms is None:
                self.fail(
                    f"cannot infer the direction of {lhs.base!r}: "
                    f"give the pointcut a port part or write {lhs.base}.port",
                    pos,
                )
            required = pattern.port_required
        return rule if required else Rewrite(lhs, rule.tree)


def _parse(text: str, path: str | None, production):
    """``production`` run on a parser over ``text``.  Nesting deeper than
    ``MAX_NESTING`` is a syntax error at the token that opens the level too
    many; should the caller's stack run out first, so is that, at the token
    the parser stopped at."""
    parser = _Parser(text, path)
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
