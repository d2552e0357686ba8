"""Component-assembly data model and elementary reconfiguration instructions.

An assembly is a set of black-box components with typed, directional ports,
plus bindings from required ports to provided ports.  The weaver never
executes components; it only rewires them, so everything here is a plain
immutable value object and every operation returns a fresh assembly.

Component ids are unique.  Components carry a provenance: ``None`` for the
base application, or :class:`Woven` for elements stamped by the weaver.
Woven components are treated as open black boxes: binding one of their
undeclared ports implicitly declares it (the port always existed on the
underlying type; the model just learns about it lazily).  Base components
have closed port sets and reject unknown ports.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace

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


@dataclass(frozen=True, slots=True)
class Woven:
    """Provenance stamp for elements produced by a weave."""

    aa_name: str
    cycle: int = 0
    namespace: str = ""


@dataclass(frozen=True, slots=True)
class PortSpec:
    name: str
    direction: str  # PROVIDED or REQUIRED


def canonical_ports(ports) -> tuple[PortSpec, ...]:
    """A port set in the one order every component keeps: by direction, then name."""
    return tuple(sorted(set(ports), key=lambda p: (p.direction, p.name)))


@dataclass(frozen=True)
class Component:
    id: str
    type_name: str
    properties: dict[str, Value] = field(default_factory=dict)
    metadata: dict[str, Value] = field(default_factory=dict)
    ports: tuple[PortSpec, ...] = ()
    provenance: Woven | None = None

    def __post_init__(self):
        # Ports are a set kept in one canonical order, so equality, export
        # and joinpoint order never depend on how the caller listed them.
        object.__setattr__(self, "ports", canonical_ports(self.ports))

    def has_port(self, name: str, direction: str) -> bool:
        cache = self.__dict__.get("_port_index")
        if cache is None:
            cache = frozenset((p.name, p.direction) for p in self.ports)
            object.__setattr__(self, "_port_index", cache)
        return (name, direction) in cache

    def with_port(self, spec: PortSpec) -> "Component":
        return replace(self, ports=self.ports + (spec,))


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    """Components by id, in id order, and bindings in endpoint order.

    ``by_endpoints()`` keys the bindings by ``Binding.endpoints()``.  The
    map is built once per assembly and kept on the instance, the way
    ``Component`` keeps its port index; ``apply_instructions`` and
    ``build`` hand the map they worked on to their result, so a chain of
    weaves never re-keys its bindings.  The map is shared: read it, never
    mutate it.
    """

    components: dict[str, Component]
    bindings: tuple[Binding, ...]

    @staticmethod
    def empty() -> "Assembly":
        return Assembly({}, ())

    @staticmethod
    def build(components, bindings) -> "Assembly":
        """Canonicalize and validate; raises ModelError on broken invariants."""
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
        return _assembled(comps, by_endpoints)

    def by_endpoints(self) -> dict[tuple[str, str, str, str], Binding]:
        cache = self.__dict__.get("_by_endpoints")
        if cache is None:
            cache = {b.endpoints(): b for b in self.bindings}
            object.__setattr__(self, "_by_endpoints", cache)
        return cache


def _assembled(comps: dict[str, Component], by_endpoints: dict[tuple, Binding]) -> Assembly:
    """An assembly in canonical order that keeps ``by_endpoints`` as its map.

    Sorting the keys orders the bindings by their endpoints with tuple
    compares alone.
    """
    assembly = Assembly(
        {cid: comps[cid] for cid in sorted(comps)},
        tuple([by_endpoints[k] for k in sorted(by_endpoints)]),
    )
    object.__setattr__(assembly, "_by_endpoints", by_endpoints)
    return assembly


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


@dataclass(frozen=True)
class AddComponent:
    component: Component


@dataclass(frozen=True, slots=True)
class RemoveComponent:
    component_id: str


@dataclass(frozen=True, slots=True)
class AddBinding:
    binding: Binding


@dataclass(frozen=True, slots=True)
class RemoveBinding:
    source: PortRef
    target: PortRef


Instruction = AddComponent | RemoveComponent | AddBinding | RemoveBinding


def apply_instructions(assembly: Assembly, instructions) -> Assembly:
    """Apply instructions in order, returning a new assembly.

    ``RemoveComponent`` cascades to every binding incident to the component.
    ``AddBinding`` onto an undeclared port of a woven component declares the
    port; base components reject unknown ports with :class:`DanglingBinding`.
    """
    comps = dict(assembly.components)
    bindings = dict(assembly.by_endpoints())
    for ins in instructions:
        match ins:
            case AddComponent(component=c):
                if c.id in comps:
                    raise DuplicateComponent(f"component {c.id!r} already present")
                comps[c.id] = c
            case RemoveComponent(component_id=cid):
                if cid not in comps:
                    raise UnknownComponent(f"cannot remove unknown component {cid!r}")
                del comps[cid]
                bindings = {
                    k: b
                    for k, b in bindings.items()
                    if b.source.component_id != cid and b.target.component_id != cid
                }
            case AddBinding(binding=b):
                key = b.endpoints()
                try:
                    _admit_endpoint(comps, b.source, REQUIRED)
                    _admit_endpoint(comps, b.target, PROVIDED)
                    if key in bindings:
                        raise DuplicateBinding("already present")
                except ModelError as exc:
                    by = f" woven by {b.provenance.aa_name!r}" if b.provenance else ""
                    raise type(exc)(f"binding {b.source} -> {b.target}{by}: {exc}") from None
                bindings[key] = b
            case RemoveBinding(source=s, target=t):
                key = (s.component_id, s.port_name, t.component_id, t.port_name)
                if key not in bindings:
                    raise UnknownBinding(f"no binding {s} -> {t}")
                del bindings[key]
            case _:
                raise ModelError(f"unknown instruction {ins!r}")
    # The loop validated each mutation, so assemble directly instead of
    # paying Assembly.build's re-validation pass.
    return _assembled(comps, bindings)


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
    """
    cur_b = current.by_endpoints()
    tgt_b = target.by_endpoints()

    removed_ids = {
        cid
        for cid, c in current.components.items()
        if cid not in target.components or target.components[cid] != c
    }
    added_ids = {
        cid
        for cid, c in target.components.items()
        if cid not in current.components or current.components[cid] != c
    }

    def touches(key: tuple, ids: set[str]) -> bool:
        return key[0] in ids or key[2] in ids

    remove_b = sorted(
        k for k, b in cur_b.items() if tgt_b.get(k) != b and not touches(k, removed_ids)
    )
    add_b = sorted(
        k for k, b in tgt_b.items() if cur_b.get(k) != b or touches(k, removed_ids)
    )
    out: list[Instruction] = []
    out.extend(RemoveBinding(cur_b[k].source, cur_b[k].target) for k in remove_b)
    out.extend(RemoveComponent(cid) for cid in sorted(removed_ids))
    out.extend(AddComponent(target.components[cid]) for cid in sorted(added_ids))
    out.extend(AddBinding(tgt_b[k]) for k in add_b)
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
    if base[0] != base[1] or len(a.components) != len(b.components) or len(a.bindings) != len(b.bindings):
        return False
    # Each component's bindings as (direction, own port, peer port, peer id, provenance).
    links = [{cid: [] for cid in s.components} for s in sides]
    for s, adj in zip(sides, links):
        for bd in s.bindings:
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


def _provenance_to_json(p: Woven | None) -> dict:
    if p is None:
        return {"kind": "base"}
    return {"kind": "woven", "aa": p.aa_name, "cycle": p.cycle, "namespace": p.namespace}


def _provenance_from_json(d: dict | None) -> Woven | None:
    if d is None or _object(d, "provenance").get("kind", "base") == "base":
        return None
    return Woven(d["aa"], int(d.get("cycle", 0)), d.get("namespace", ""))


def component_to_json(c: Component) -> dict:
    return {
        "id": c.id,
        "type": c.type_name,
        "properties": dict(sorted(c.properties.items())),
        "metadata": dict(sorted(c.metadata.items())),
        "ports": [{"name": p.name, "direction": p.direction} for p in c.ports],
        "provenance": _provenance_to_json(c.provenance),
    }


def _text(value, what: str) -> str:
    """``value`` if it is a string; names and ids are compared and sorted
    against each other, so any other type fails here, not mid-weave."""
    if not isinstance(value, str):
        raise ModelError(f"{what} must be a string, not {value!r}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ModelError(f"{what} must be an object, not {value!r}")
    return value


def _port_from_json(d: dict) -> PortSpec:
    direction = d["direction"]
    if direction not in (PROVIDED, REQUIRED):
        raise ModelError(f"port direction must be {PROVIDED!r} or {REQUIRED!r}, not {direction!r}")
    return PortSpec(_text(d["name"], "port name"), direction)


def component_from_json(d: dict) -> Component:
    ports = d.get("ports", [])
    if not isinstance(ports, list):
        raise ModelError(f"component ports must be a list, not {ports!r}")
    return Component(
        id=_text(d["id"], "component id"),
        type_name=_text(d.get("type", ""), "component type"),
        properties=dict(_object(d.get("properties", {}), "component properties")),
        metadata=dict(_object(d.get("metadata", {}), "component metadata")),
        ports=tuple(_port_from_json(_object(p, "a port")) for p in ports),
        provenance=_provenance_from_json(d.get("provenance")),
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


def _endpoint_from_json(d: dict, direction: str) -> PortRef:
    return PortRef(_text(d["component"], "binding component"), _text(d["port"], "binding port"), direction)


def from_json_dict(d: dict) -> Assembly:
    comps = [component_from_json(cd) for cd in d.get("components", ())]
    bindings = [
        Binding(
            source=_endpoint_from_json(bd["source"], REQUIRED),
            target=_endpoint_from_json(bd["target"], PROVIDED),
            provenance=_provenance_from_json(bd.get("provenance")),
        )
        for bd in d.get("bindings", ())
    ]
    return Assembly.build(comps, bindings)


def assembly_to_json(assembly: Assembly, indent: int | None = 2) -> str:
    return json.dumps(to_json_dict(assembly), indent=indent, sort_keys=False)


def assembly_from_json(text: str) -> Assembly:
    return from_json_dict(json.loads(text))


def to_dot(assembly: Assembly) -> str:
    lines = ["digraph assembly {", "  rankdir=LR;", '  node [shape=box, fontname="monospace"];']
    for cid, c in sorted(assembly.components.items()):
        lines.append(f'  "{cid}" [label="{cid}\\n{c.type_name}"];')
    for b in assembly.bindings:
        label = f"{b.source.port_name} -> {b.target.port_name}"
        lines.append(f'  "{b.source.component_id}" -> "{b.target.component_id}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export(assembly: Assembly, format: str) -> str:
    """Render the assembly as ``json`` (lossless) or ``dot`` (for graphviz)."""
    if format == "json":
        return assembly_to_json(assembly)
    if format == "dot":
        return to_dot(assembly)
    raise ValueError(f"unknown export format {format!r}")
