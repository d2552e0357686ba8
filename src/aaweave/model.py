"""Component-assembly data model and elementary reconfiguration instructions.

An assembly is a set of black-box components with typed, directional ports,
plus bindings from required ports to provided ports, kept in two maps with
no order of their own (see :class:`Assembly`).  The weaver never executes
components; it only rewires them, so everything here is a plain immutable
value object and every operation returns a fresh assembly.

Component ids are unique.  Components carry a provenance: ``None`` for the
base application, or :class:`Woven` for elements stamped by the weaver.
Woven components are treated as open black boxes: binding one of their
undeclared ports implicitly declares it (the port always existed on the
underlying type; the model just learns about it lazily).  Base components
have closed port sets and reject unknown ports.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import lru_cache
from itertools import groupby

PROVIDED = "provided"
REQUIRED = "required"

Value = str | int | float | bool


class ModelError(Exception):
    """Base class for assembly-model failures."""


class UnknownComponent(ModelError):
    pass


class DuplicateComponent(ModelError):
    pass


class DanglingBinding(ModelError):
    pass


class DuplicateBinding(ModelError):
    pass


class UnknownBinding(ModelError):
    pass


def value(cls):
    """``dataclass(frozen=True, slots=True)`` with a faster ``__init__``.

    The dataclass's own frozen ``__init__`` stores every field through
    ``object.__setattr__``; this one calls each slot's descriptor, which
    halves the cost of building a small value.  Everything else is the
    dataclass's: assignment raises ``FrozenInstanceError``, and equality,
    hashing, ``repr``, ``__match_args__``, keyword arguments, defaults and
    ``dataclasses.replace`` behave as before.  Fields must be plain
    ``__init__`` arguments with at most a plain default.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"value type {cls.__qualname__} cannot have __post_init__")
    params, stores, closure = ["self"], [], {}
    for f in fields(cls):
        if not f.init or f.kw_only or f.default_factory is not MISSING:
            raise TypeError(f"value field {cls.__qualname__}.{f.name} needs a plain default or none")
        closure[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            closure[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        stores.append(f"        _set_{f.name}(self, {f.name})")
    # Setters reach the body as closure cells and defaults as parameter
    # defaults, the way the dataclass's own generated methods get theirs.
    source = "\n".join([
        f"def make({', '.join(closure)}):",
        f"    def __init__({', '.join(params)}):",
        *(stores or ["        pass"]),
        "    return __init__",
    ])
    namespace: dict = {}
    exec(compile(source, f"<value {cls.__qualname__}>", "exec"), namespace)
    init = namespace["make"](**closure)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@value
class Woven:
    """Provenance stamp for elements produced by a weave."""

    aa_name: str
    cycle: int = 0
    namespace: str = ""


@value
class PortSpec:
    name: str
    direction: str  # PROVIDED or REQUIRED


class PortSet(tuple):
    """A port set as the tuple of its ports in the one order every
    component keeps, by direction, then name, with no repeats.

    It carries ``pairs``, the frozenset of its ports' ``(name,
    direction)`` pairs, which ``Component.has_port`` reads.  Being a
    tuple, it compares, hashes, prints and exports as one; adding to it
    or slicing it gives a plain tuple.  Get one from ``canonical_ports``,
    which hands out one object per distinct set.
    """

    def __new__(cls, ports):
        self = super().__new__(cls, sorted(set(ports), key=lambda p: (p.direction, p.name)))
        self.pairs = frozenset((p.name, p.direction) for p in self)
        return self


def canonical_ports(ports) -> PortSet:
    """The ``PortSet`` of ``ports``, in any order and with any repeats.

    A ``PortSet`` comes back as it is.  Any other port collection is
    looked up by value, so equal port sets are one object with one
    index, however often they are built; the lookup keeps a bounded
    number of sets.
    """
    if type(ports) is PortSet:
        return ports
    return _interned(frozenset(ports))


@lru_cache(maxsize=1 << 16)
def _interned(ports: frozenset[PortSpec]) -> PortSet:
    return PortSet(ports)


@dataclass(frozen=True)
class Component:
    """A black box.  Its ports are a ``PortSet``, kept in one canonical
    order, so equality, export and joinpoint order never depend on how
    the caller listed them.  ``__post_init__`` keeps a ``PortSet`` it is
    given, such as the parser's ``Instantiate.ports`` or lowering's op
    shapes, and passes any other collection through ``canonical_ports``."""

    id: str
    type_name: str
    properties: dict[str, Value] = field(default_factory=dict)
    metadata: dict[str, Value] = field(default_factory=dict)
    ports: PortSet = ()
    provenance: Woven | None = None

    def __post_init__(self):
        if type(self.ports) is not PortSet:
            object.__setattr__(self, "ports", canonical_ports(self.ports))

    def has_port(self, name: str, direction: str) -> bool:
        return (name, direction) in self.ports.pairs

    def with_port(self, spec: PortSpec) -> "Component":
        return replace(self, ports=self.ports + (spec,))


@value
class PortRef:
    component_id: str
    port_name: str
    direction: str

    def key(self) -> tuple[str, str, str]:
        return (self.component_id, self.port_name, self.direction)

    def __str__(self) -> str:
        mark = "^" if self.direction == REQUIRED else ""
        return f"{self.component_id}.{mark}{self.port_name}"


def provided(component_id: str, port_name: str) -> PortRef:
    return PortRef(component_id, port_name, PROVIDED)


def required(component_id: str, port_name: str) -> PortRef:
    return PortRef(component_id, port_name, REQUIRED)


@value
class Binding:
    """A directed link from a required port to a provided port."""

    source: PortRef
    target: PortRef
    provenance: Woven | None = None

    def endpoints(self) -> tuple[str, str, str, str]:
        return (
            self.source.component_id,
            self.source.port_name,
            self.target.component_id,
            self.target.port_name,
        )


@dataclass(frozen=True)
class Assembly:
    """Components by id and bindings by ``Binding.endpoints()``.

    The two maps are the assembly, in whatever order their elements
    arrived.  Equality compares the maps, so that order never shows; a
    reader that needs one imposes it: ``bindings`` lists the bindings in
    endpoint order, matching takes components in id order
    (``collect_joinpoints``), and the exporters write both sorted.  Read
    the maps, never mutate them.
    """

    components: dict[str, Component]
    by_endpoints: dict[tuple[str, str, str, str], Binding]

    @staticmethod
    def empty() -> "Assembly":
        return Assembly({}, {})

    @staticmethod
    def build(components, bindings) -> "Assembly":
        """Validate; raises ModelError on broken invariants."""
        comps: dict[str, Component] = {}
        for c in components:
            if c.id in comps:
                raise DuplicateComponent(f"duplicate component id {c.id!r}")
            comps[c.id] = c
        by_endpoints: dict[tuple, Binding] = {}
        for b in bindings:
            _check_endpoint(comps, b.source, REQUIRED)
            _check_endpoint(comps, b.target, PROVIDED)
            key = b.endpoints()
            if key in by_endpoints:
                raise DuplicateBinding(f"duplicate binding {b.source} -> {b.target}")
            by_endpoints[key] = b
        return Assembly(comps, by_endpoints)

    @property
    def bindings(self) -> tuple[Binding, ...]:
        """The bindings in endpoint order: the order of their keys."""
        by = self.by_endpoints
        return tuple([by[k] for k in sorted(by)])


def _check_endpoint(comps: dict[str, Component], ref: PortRef, expected: str) -> None:
    if ref.direction != expected:
        raise DanglingBinding(f"{ref} must be a {expected} port")
    c = comps.get(ref.component_id)
    if c is None:
        raise DanglingBinding(f"{ref} refers to unknown component")
    if not c.has_port(ref.port_name, ref.direction):
        raise DanglingBinding(f"{ref.component_id} declares no {ref.direction} port {ref.port_name!r}")


# ---------------------------------------------------------------------------
# Elementary instructions


@value
class AddComponent:
    component: Component


@value
class RemoveComponent:
    component_id: str


@value
class AddBinding:
    binding: Binding


@value
class RemoveBinding:
    source: PortRef
    target: PortRef


Instruction = AddComponent | RemoveComponent | AddBinding | RemoveBinding


def apply_instructions(assembly: Assembly, instructions) -> Assembly:
    """Apply instructions in order, returning a new assembly.

    ``RemoveComponent`` cascades to every binding incident to the component.
    ``AddBinding`` onto an undeclared port of a woven component declares the
    port; base components reject unknown ports with :class:`DanglingBinding`.

    A binding add is admitted by one inline check of both ends: each
    component exists and declares the port in the end's direction, which
    is the right one, and the endpoint key is new.  Only a binding that
    fails it goes through :func:`_admit_endpoint`, which declares a woven
    component's port or raises, so that function stays the one definition
    of admission and of its messages.
    """
    comps = dict(assembly.components)
    bindings = dict(assembly.by_endpoints)
    # Dispatch once per run of instructions of one type, most frequent
    # first: a weave's instructions are mostly binding adds.
    for kind, run in groupby(instructions, type):
        if kind is AddBinding:
            for ins in run:
                b = ins.binding
                s, t = b.source, b.target
                key = (s.component_id, s.port_name, t.component_id, t.port_name)
                sc, tc = comps.get(s.component_id), comps.get(t.component_id)
                if (
                    sc is None or tc is None or key in bindings
                    or s.direction != REQUIRED or (s.port_name, REQUIRED) not in sc.ports.pairs
                    or t.direction != PROVIDED or (t.port_name, PROVIDED) not in tc.ports.pairs
                ):
                    try:
                        _admit_endpoint(comps, s, REQUIRED)
                        _admit_endpoint(comps, t, PROVIDED)
                        if key in bindings:
                            raise DuplicateBinding("already present")
                    except ModelError as exc:
                        by = f" woven by {b.provenance.aa_name!r}" if b.provenance else ""
                        raise type(exc)(f"binding {s} -> {t}{by}: {exc}") from None
                bindings[key] = b
        elif kind is AddComponent:
            for ins in run:
                c = ins.component
                if c.id in comps:
                    raise DuplicateComponent(f"component {c.id!r} already present")
                comps[c.id] = c
        elif kind is RemoveBinding:
            for ins in run:
                s, t = ins.source, ins.target
                key = (s.component_id, s.port_name, t.component_id, t.port_name)
                if key not in bindings:
                    raise UnknownBinding(f"no binding {s} -> {t}")
                del bindings[key]
        elif kind is RemoveComponent:
            # The whole run's bindings go in one pass over the map.
            gone = set()
            for ins in run:
                cid = ins.component_id
                if cid not in comps:
                    raise UnknownComponent(f"cannot remove unknown component {cid!r}")
                del comps[cid]
                gone.add(cid)
            bindings = {k: b for k, b in bindings.items() if k[0] not in gone and k[2] not in gone}
        else:
            raise ModelError(f"unknown instruction {next(run)!r}")
    # The loop validated each mutation, so assemble directly instead of
    # paying Assembly.build's re-validation pass.
    return Assembly(comps, bindings)


def _admit_endpoint(comps: dict[str, Component], ref: PortRef, expected: str) -> None:
    if ref.direction != expected:
        raise DanglingBinding(f"{ref} must be a {expected} port")
    c = comps.get(ref.component_id)
    if c is None:
        raise DanglingBinding(f"{ref} refers to unknown component")
    if not c.has_port(ref.port_name, ref.direction):
        if c.provenance is None:
            raise DanglingBinding(
                f"{ref.component_id} declares no {ref.direction} port {ref.port_name!r}"
            )
        comps[c.id] = c.with_port(PortSpec(ref.port_name, ref.direction))


def diff(current: Assembly, target: Assembly) -> list[Instruction]:
    """Instructions turning ``current`` into ``target``.

    Removals come before additions; bindings are removed before their
    components and components added before their bindings.  Bindings that
    die with a removed component are left to the cascade, which keeps the
    instruction list short.

    A component or binding that is the same object on both sides is
    unchanged without a compare.  Two bindings under one endpoint key
    differ at most in their provenance, which is all it compares: the key
    fixes both ports' components and names, and ``Assembly.build`` and
    ``apply_instructions`` fix their directions (source required, target
    provided).
    """
    cur_c, tgt_c = current.components, target.components
    cur_b, tgt_b = current.by_endpoints, target.by_endpoints

    # One pass over ``current`` finds what goes and what changed; the pass
    # over ``target`` then needs membership tests only.
    removed_ids = set()
    for cid, c in cur_c.items():
        other = tgt_c.get(cid)
        if other is not c and other != c:
            removed_ids.add(cid)
    remove_b, changed_b = [], set()
    for k, b in cur_b.items():
        other = tgt_b.get(k)
        if other is not None:
            if other is b or other.provenance == b.provenance:
                continue
            changed_b.add(k)
        if k[0] not in removed_ids and k[2] not in removed_ids:
            remove_b.append(k)  # else the component's removal cascades to it

    added_ids = [cid for cid in tgt_c if cid in removed_ids or cid not in cur_c]
    add_b = [
        k for k in tgt_b
        if k[0] in removed_ids or k[2] in removed_ids or k in changed_b or k not in cur_b
    ]
    out: list[Instruction] = [RemoveBinding(cur_b[k].source, cur_b[k].target) for k in sorted(remove_b)]
    out.extend(RemoveComponent(cid) for cid in sorted(removed_ids))
    out.extend(AddComponent(tgt_c[cid]) for cid in sorted(added_ids))
    out.extend(AddBinding(tgt_b[k]) for k in sorted(add_b))
    return out


# ---------------------------------------------------------------------------
# Canonical equality up to fresh-name renaming


def canonical_equal(a: Assembly, b: Assembly) -> bool:
    """Order-insensitive equality that forgives fresh-name renaming.

    Base components must match exactly.  Woven components may be renamed as
    long as they agree on stem, type, originating aspect, properties and
    metadata, and the whole binding structure is isomorphic under the
    renaming.  Ports are not compared directly; bindings pin down the ones
    that matter.
    """
    sides = (a, b)
    base = [{cid: c for cid, c in s.components.items() if c.provenance is None} for s in sides]
    if base[0] != base[1] or len(a.components) != len(b.components) or len(a.by_endpoints) != len(b.by_endpoints):
        return False
    # Each component's bindings as (direction, own port, peer port, peer id, provenance).
    links = [{cid: [] for cid in s.components} for s in sides]
    for s, adj in zip(sides, links):
        for bd in s.by_endpoints.values():
            src, tgt, prov = bd.source, bd.target, bd.provenance
            adj[src.component_id].append((REQUIRED, src.port_name, tgt.port_name, tgt.component_id, prov))
            adj[tgt.component_id].append((PROVIDED, tgt.port_name, src.port_name, src.component_id, prov))

    def wiring(side: int, rename: dict[str, str]) -> set[tuple]:
        return {(rename.get(cid, cid), *link[:3], rename.get(link[3], link[3]), link[4])
                for cid, adj in links[side].items() for link in adj}

    def refine(colours: list[dict]) -> list[dict]:
        # Colour refinement over both sides at once: woven components, on
        # either side, that share a colour and a multiset of (binding, peer
        # colour) share the next colour.  A base component's colour is its
        # id.  Provenances do not sort, so a multiset is a frozenset of
        # Counter items.
        count = len({col for cols in colours for col in cols.values()})
        while True:
            labels: dict[tuple, int] = {}
            colours = [
                {cid: labels.setdefault((col, frozenset(Counter(
                    (d, p, q, cols.get(peer, peer), prov) for d, p, q, peer, prov in adj[cid]
                ).items())), len(labels)) for cid, col in cols.items()}
                for cols, adj in zip(colours, links)
            ]
            if len(labels) == count:
                return colours
            count = len(labels)

    start: dict[tuple, int] = {}
    colours = [
        {cid: start.setdefault((cid.rstrip("0123456789"), c.type_name, c.provenance.aa_name,
                                frozenset(c.properties.items()), frozenset(c.metadata.items())), len(start))
         for cid, c in s.components.items() if c.provenance is not None}
        for s in sides
    ]
    target = wiring(1, {})
    # Depth-first search: each entry is a colouring and the (a id, b id)
    # pairs that take fresh colours of their own before it is refined.
    stack = [(colours, [])]
    while stack:
        colours, pins = stack.pop()
        colours = refine([{**cols, **{pin[side]: -1 - i for i, pin in enumerate(pins)}}
                          for side, cols in enumerate(colours)])
        cells: dict[int, tuple[list[str], list[str]]] = {}
        for side, cols in enumerate(colours):
            for cid, col in cols.items():
                cells.setdefault(col, ([], []))[side].append(cid)
        if any(len(xs) != len(ys) for xs, ys in cells.values()):
            continue
        split = next(((xs, ys) for xs, ys in cells.values() if len(xs) > 1), None)
        if split is None:
            if wiring(0, {xs[0]: ys[0] for xs, ys in cells.values()}) == target:
                return True
            continue
        xs, ys = split
        # Members with the same bindings to the same peers trade places under
        # an automorphism (bindings among them, if any, join every pair), so
        # any pairing of them holds; others are pinned to each candidate.
        first = Counter(links[0][xs[0]])
        if all(Counter(links[0][x]) == first for x in xs):
            stack.append((colours, list(zip(xs, ys))))
        else:
            stack.extend((colours, [(xs[0], y)]) for y in ys)
    return False


# ---------------------------------------------------------------------------
# Serialization


def parse_number(text: str) -> int | float:
    """The value of a numeral: a float with a '.', else an int; a
    ``ValueError`` that shows one out of range.  The aspect language reads
    its numbers with it, and :func:`load_json` its integers."""
    try:
        number = float(text) if "." in text else int(text)
    except ValueError:  # more digits than ``int`` converts
        number = math.inf
    return _finite(number, text) if isinstance(number, float) else number


def _finite(number: float, text: str) -> float:
    """``number``, read from ``text``, unless it is infinite or NaN."""
    if not math.isfinite(number):
        shown = text if len(text) <= 24 else f"{text[:12]}... ({len(text)} characters)"
        raise ValueError(f"number {shown} is out of range")
    return number


def _no_constant(text: str):
    raise ValueError(f"{text} is not a JSON number")


def load_json(text: str):
    """The JSON document ``text``, read strictly: ``NaN``, ``Infinity`` and
    ``-Infinity``, a float out of range (``1e400``) and an integer too long
    to convert raise ``ValueError``, so every number read is finite and
    writes back as JSON."""
    return json.loads(
        text, parse_int=parse_number, parse_float=lambda t: _finite(float(t), t), parse_constant=_no_constant
    )


def _provenance_to_json(p: Woven | None) -> dict:
    if p is None:
        return {"kind": "base"}
    return {"kind": "woven", "aa": p.aa_name, "cycle": p.cycle, "namespace": p.namespace}


def _provenance_from_json(d: dict | None, what: str) -> Woven | None:
    kind = "base" if d is None else _typed(d, dict, what).get("kind", "base")
    if kind == "base":
        return None
    if kind != "woven":
        raise ModelError(f"{what} kind must be 'base' or 'woven', not {kind!r}")
    cycle = d.get("cycle", 0)
    if type(cycle) is not int:
        raise ModelError(f"{what} cycle must be an integer, not {cycle!r}")
    namespace = _typed(d.get("namespace", ""), str, f"{what} namespace")
    return Woven(_typed(d.get("aa"), str, f"{what} aa"), cycle, namespace)


def component_to_json(c: Component) -> dict:
    return {
        "id": c.id,
        "type": c.type_name,
        "properties": dict(sorted(c.properties.items())),
        "metadata": dict(sorted(c.metadata.items())),
        "ports": [{"name": p.name, "direction": p.direction} for p in c.ports],
        "provenance": _provenance_to_json(c.provenance),
    }


_JSON_NOUNS = {str: "a string", dict: "an object", list: "a list"}


def _typed(value, kind: type, what: str):
    """``value`` if it is a ``kind``; names and ids are compared and sorted
    against each other, so any other type fails here, not mid-weave."""
    if not isinstance(value, kind):
        raise ModelError(f"{what} must be {_JSON_NOUNS[kind]}, not {value!r}")
    return value


def _required(d: dict, key: str, kind: type, what: str):
    """``d[key]``, which the object ``what`` must have, if it is a ``kind``."""
    if key not in d:
        raise ModelError(f'{what}: missing "{key}"')
    return _typed(d[key], kind, f"{what} {key}")


def _port_from_json(d, what: str) -> PortSpec:
    d = _typed(d, dict, what)
    direction = _required(d, "direction", str, what)
    if direction not in (PROVIDED, REQUIRED):
        raise ModelError(f"{what} direction must be {PROVIDED!r} or {REQUIRED!r}, not {direction!r}")
    return PortSpec(_required(d, "name", str, what), direction)


def component_from_json(d, what: str = "component") -> Component:
    d = _typed(d, dict, what)
    ports = _typed(d.get("ports", []), list, f"{what} ports")
    return Component(
        id=_required(d, "id", str, what),
        type_name=_typed(d.get("type", ""), str, f"{what} type"),
        properties=dict(_typed(d.get("properties", {}), dict, f"{what} properties")),
        metadata=dict(_typed(d.get("metadata", {}), dict, f"{what} metadata")),
        ports=tuple(_port_from_json(p, f"{what} port {k}") for k, p in enumerate(ports)),
        provenance=_provenance_from_json(d.get("provenance"), f"{what} provenance"),
    )


def to_json_dict(assembly: Assembly) -> dict:
    return {
        "components": [component_to_json(c) for _, c in sorted(assembly.components.items())],
        "bindings": [
            {
                "source": {"component": b.source.component_id, "port": b.source.port_name},
                "target": {"component": b.target.component_id, "port": b.target.port_name},
                "provenance": _provenance_to_json(b.provenance),
            }
            for b in assembly.bindings
        ],
    }


def _endpoint_from_json(d: dict, key: str, direction: str, what: str) -> PortRef:
    d, what = _required(d, key, dict, what), f"{what} {key}"
    return PortRef(_required(d, "component", str, what), _required(d, "port", str, what), direction)


def _binding_from_json(d, what: str) -> Binding:
    d = _typed(d, dict, what)
    return Binding(
        _endpoint_from_json(d, "source", REQUIRED, what),
        _endpoint_from_json(d, "target", PROVIDED, what),
        _provenance_from_json(d.get("provenance"), f"{what} provenance"),
    )


def from_json_dict(d) -> Assembly:
    """The assembly a JSON document describes; an error names the entry
    at fault by its index, such as ``binding 3 source``, and the field."""
    if not isinstance(d, dict):
        raise ModelError(f"an assembly must be an object, not {type(d).__name__}")
    components = _typed(d.get("components", []), list, '"components"')
    bindings = _typed(d.get("bindings", []), list, '"bindings"')
    return Assembly.build(
        [component_from_json(c, f"component {k}") for k, c in enumerate(components)],
        [_binding_from_json(b, f"binding {k}") for k, b in enumerate(bindings)],
    )


_quote = json.encoder.encode_basestring_ascii  # the C escaper json.dumps writes every string with


def _value_json(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` nested where each line of the
    enclosing document starts with ``indent``.  A string or an ``int`` is
    written directly, as the encoder writes it; anything else goes through
    ``json.dumps`` and is re-indented, which is exact because ``json.dumps``
    never writes a raw newline inside a string."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _map_json(d: dict) -> str:
    """A component's properties or metadata as ``component_to_json`` lists
    them, keys sorted, at a component field's depth."""
    if not d:
        return "{}"
    pairs = ",\n        ".join(f"{_quote(k)}: {_value_json(v, '        ')}" for k, v in sorted(d.items()))
    return "{\n        " + pairs + "\n      }"


def _provenance_json(p: Woven | None) -> str:
    """``_provenance_to_json(p)`` at a component or binding field's depth."""
    if p is None:
        return '{\n        "kind": "base"\n      }'
    return (
        f'{{\n        "kind": "woven",\n        "aa": {_quote(p.aa_name)},\n'
        f'        "cycle": {_value_json(p.cycle, "        ")},\n        "namespace": {_quote(p.namespace)}\n      }}'
    )


def _json_list(blocks: list[str], indent: str) -> str:
    """A list of written blocks, closed at ``indent``."""
    return "[\n" + ",\n".join(blocks) + "\n" + indent + "]" if blocks else "[]"


def assembly_to_json(assembly: Assembly) -> str:
    """``json.dumps(to_json_dict(assembly), indent=2)``, byte for byte.

    ``indent`` makes ``json.dumps`` use its pure-Python encoder, so this
    writes the same text block by block instead, without building
    ``to_json_dict``: components in id order, then ``Assembly.bindings``,
    every string escaped by the encoder's own C function.  A field or a
    property or metadata key the model types as a string must be one;
    anything else raises ``TypeError``.
    """
    comps = assembly.components
    components = []
    for cid in sorted(comps):
        c = comps[cid]
        ports = [
            f'        {{\n          "name": {_quote(p.name)},\n          "direction": {_quote(p.direction)}\n        }}'
            for p in c.ports
        ]
        components.append(
            f'    {{\n      "id": {_quote(c.id)},\n      "type": {_quote(c.type_name)},\n'
            f'      "properties": {_map_json(c.properties)},\n      "metadata": {_map_json(c.metadata)},\n'
            f'      "ports": {_json_list(ports, "      ")},\n'
            f'      "provenance": {_provenance_json(c.provenance)}\n    }}'
        )
    bindings = [
        f'    {{\n      "source": {{\n        "component": {_quote(b.source.component_id)},\n'
        f'        "port": {_quote(b.source.port_name)}\n      }},\n'
        f'      "target": {{\n        "component": {_quote(b.target.component_id)},\n'
        f'        "port": {_quote(b.target.port_name)}\n      }},\n'
        f'      "provenance": {_provenance_json(b.provenance)}\n    }}'
        for b in assembly.bindings
    ]
    return f'{{\n  "components": {_json_list(components, "  ")},\n  "bindings": {_json_list(bindings, "  ")}\n}}'


def assembly_from_json(text: str) -> Assembly:
    """The assembly in JSON ``text``, read as :func:`load_json` reads it."""
    return from_json_dict(load_json(text))


def to_dot(assembly: Assembly) -> str:
    def q(text: str) -> str:  # escaped for a quoted DOT string
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph assembly {", "  rankdir=LR;", '  node [shape=box, fontname="monospace"];']
    for cid, c in sorted(assembly.components.items()):
        lines.append(f'  "{q(cid)}" [label="{q(cid)}\\n{q(c.type_name)}"];')
    for b in assembly.bindings:
        s, t = b.source, b.target
        label = q(f"{s.port_name} -> {t.port_name}")
        lines.append(f'  "{q(s.component_id)}" -> "{q(t.component_id)}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
