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


def _stem(component_id: str) -> str:
    return component_id.rstrip("0123456789")


def _woven_signature(assembly: Assembly, c: Component) -> tuple:
    # One hop of neighborhood refinement keeps same-stem siblings apart
    # (peer identity is its id for base components, its stem for woven
    # ones, both stable under renaming), so the matcher rarely backtracks.
    def peer_key(peer_id: str) -> tuple:
        peer = assembly.components[peer_id]
        if peer.provenance is None:
            return ("base", peer.id)
        return ("woven", _stem(peer.id), peer.type_name)

    neighborhood = []
    for b in assembly.bindings:
        if b.source.component_id == c.id:
            neighborhood.append(("out", b.source.port_name, b.target.port_name, peer_key(b.target.component_id)))
        if b.target.component_id == c.id:
            neighborhood.append(("in", b.target.port_name, b.source.port_name, peer_key(b.source.component_id)))
    return (
        _stem(c.id),
        c.type_name,
        c.provenance.aa_name if c.provenance else "",
        tuple(sorted(c.properties.items())),
        tuple(sorted(c.metadata.items())),
        tuple(sorted(neighborhood)),
    )


def canonical_equal(a: Assembly, b: Assembly) -> bool:
    """Order-insensitive equality that forgives fresh-name renaming.

    Base components must match exactly.  Woven components may be renamed as
    long as they agree on stem, type, originating aspect, properties and
    metadata, and the whole binding structure is isomorphic under the
    renaming.  Ports are not compared directly; bindings pin down the ones
    that matter.
    """
    a_base = {cid: c for cid, c in a.components.items() if c.provenance is None}
    b_base = {cid: c for cid, c in b.components.items() if c.provenance is None}
    if a_base != b_base:
        return False

    a_woven = [c for c in a.components.values() if c.provenance is not None]
    b_woven = [c for c in b.components.values() if c.provenance is not None]
    if len(a_woven) != len(b_woven) or len(a.bindings) != len(b.bindings):
        return False

    groups_a: dict[tuple, list[str]] = {}
    groups_b: dict[tuple, list[str]] = {}
    for c in a_woven:
        groups_a.setdefault(_woven_signature(a, c), []).append(c.id)
    for c in b_woven:
        groups_b.setdefault(_woven_signature(b, c), []).append(c.id)
    if set(groups_a) != set(groups_b):
        return False
    if any(len(groups_a[s]) != len(groups_b[s]) for s in groups_a):
        return False

    def binding_key(bd: Binding, rename: dict[str, str]) -> tuple:
        return (
            rename.get(bd.source.component_id, bd.source.component_id),
            bd.source.port_name,
            rename.get(bd.target.component_id, bd.target.component_id),
            bd.target.port_name,
            bd.provenance,
        )

    b_multiset = sorted(binding_key(bd, {}) for bd in b.bindings)

    # Backtrack over per-signature assignments; groups are tiny in practice.
    slots: list[tuple[str, list[str]]] = []
    for sig in sorted(groups_a):
        for aid in sorted(groups_a[sig]):
            slots.append((aid, sorted(groups_b[sig])))

    used: set[str] = set()
    rename: dict[str, str] = {}

    def assign(i: int) -> bool:
        if i == len(slots):
            return sorted(binding_key(bd, rename) for bd in a.bindings) == b_multiset
        aid, candidates = slots[i]
        for bid in candidates:
            if bid in used:
                continue
            used.add(bid)
            rename[aid] = bid
            if assign(i + 1):
                return True
            used.discard(bid)
            del rename[aid]
        return False

    return assign(0)


# ---------------------------------------------------------------------------
# Serialization


def _provenance_to_json(p: Woven | None) -> dict:
    if p is None:
        return {"kind": "base"}
    return {"kind": "woven", "aa": p.aa_name, "cycle": p.cycle, "namespace": p.namespace}


def _provenance_from_json(d: dict | None) -> Woven | None:
    if d is None or d.get("kind", "base") == "base":
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


def _port_from_json(d: dict) -> PortSpec:
    direction = d["direction"]
    if direction not in (PROVIDED, REQUIRED):
        raise ModelError(f"port direction must be {PROVIDED!r} or {REQUIRED!r}, not {direction!r}")
    return PortSpec(_text(d["name"], "port name"), direction)


def component_from_json(d: dict) -> Component:
    return Component(
        id=_text(d["id"], "component id"),
        type_name=_text(d.get("type", ""), "component type"),
        properties=dict(d.get("properties", {})),
        metadata=dict(d.get("metadata", {})),
        ports=tuple(_port_from_json(p) for p in d.get("ports", ())),
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
