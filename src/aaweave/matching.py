"""Joinpoint collection, pointcut matching and the advice factory.

A joinpoint is one port of one component, with the component's metadata
along for filter evaluation.  A cycle matches against a
``JoinpointIndex`` of the components it may see: the index groups their
ports by component and builds a ``Joinpoint`` only for a port some rule
matches, so a woven assembly with thousands of ports costs one pass over
its components.  Matching an aspect yields candidate joinpoints per
variable; the cartesian product of the candidates gives the combinations
(plain ``{variable: joinpoint}`` dicts) and every combination turns into
one grounded advice instance, with fresh names for instantiated components.
The factory reads everything else straight from the parsed advice: its
rules in order and the ports the parser inferred for each local.

Visibility encodes the staging rules for cascades: base components are
always eligible, woven components only when they were woven in a strictly
earlier cycle and their namespace is the global one or the requester's
own.  Nothing woven in the current cycle is ever matchable.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .language import AspectOfAssembly, Instantiate, Link, PointcutRule, PortExpr, Rewrite
from .model import PROVIDED, REQUIRED, Component, PortRef, Woven, value
from .optree import OperatorTree, map_leaves

GLOBAL_NAMESPACE = ""


@value
class Joinpoint:
    port: PortRef
    metadata: dict
    provenance: Woven | None = None


@value
class Visibility:
    cycle_index: int = 0
    requesting_namespace: str = GLOBAL_NAMESPACE


# One choice of joinpoint per pointcut variable.
Combination = dict[str, Joinpoint]


@value
class GroundLink:
    source: PortRef
    tree: OperatorTree


@value
class GroundRewrite:
    target: PortRef
    tree: OperatorTree


@dataclass(frozen=True)
class AdviceInstance:
    aa_name: str
    namespace: str
    combination: Combination
    components: tuple[Component, ...]
    grounded_rules: tuple[GroundLink | GroundRewrite, ...]


class FreshNames:
    """Per-stem counters for fresh component ids, skipping taken ids."""

    def __init__(self, taken=()):
        self._taken = set(taken)
        self._counters: dict[str, int] = {}

    def fresh(self, stem: str) -> str:
        n = self._counters.get(stem, 0)
        while True:
            n += 1
            candidate = f"{stem}{n}"
            if candidate not in self._taken:
                break
        self._counters[stem] = n
        self._taken.add(candidate)
        return candidate


def collect_joinpoints(assembly, vis: Visibility, currently_weaving=frozenset()) -> JoinpointIndex:
    """The joinpoints of every component ``vis`` lets a cycle match, as an
    index over those components in id order.  Fresh ids follow that order,
    and an assembly keeps none, so this is where it is imposed."""
    groups = []
    for cid, c in sorted(assembly.components.items()):
        p = c.provenance
        if p is not None:
            if p.aa_name in currently_weaving:
                continue
            if p.cycle >= vis.cycle_index:
                continue
            if p.namespace not in (GLOBAL_NAMESPACE, vis.requesting_namespace):
                continue
        groups.append((cid, c.metadata, c))
    return JoinpointIndex(groups)


class JoinpointIndex:
    """Joinpoints grouped by component, prepared for matching many pointcut rules.

    ``collect_joinpoints`` builds it; it is all ``match_pointcut`` takes.
    Each group is ``(cid, metadata, owner)``: a component's id, its
    metadata and the component itself, whose ports and provenance make up
    the group's joinpoints.  A rule's component pattern and metadata
    filters run once per group, and only the ports of accepted groups meet
    the port pattern; a ``Joinpoint`` is built only for a port that passes.
    A rule with an equality filter on a string value visits only the
    groups that a per-key table lists under that value: exactly the groups
    the filter accepts.  Every other rule scans all groups.  Tables are
    built on first use, so their cost lands in matching, not in the
    caller.  Results are kept per (pattern, filters), so a rule repeated
    verbatim across aspects is matched once.

    ``len()`` is the number of joinpoints (ports) and iterating yields them
    all, in group order: components by id, each one's ports in order.
    """

    def __init__(self, groups: list[tuple[str, dict, Component]]):
        self._groups = groups
        self._size = sum(len(owner.ports) for _, _, owner in groups)
        self._tables: dict[str, dict[str, list]] = {}
        self._matched: dict[tuple, list[Joinpoint]] = {}

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        for cid, metadata, owner in self._groups:
            for p in owner.ports:
                yield Joinpoint(PortRef(cid, p.name, p.direction), metadata, owner.provenance)

    def _groups_with(self, key: str, value: str) -> list:
        table = self._tables.get(key)
        if table is None:
            table = {}
            for group in self._groups:
                have = group[1].get(key)
                if isinstance(have, str):
                    table.setdefault(have, []).append(group)
            self._tables[key] = table
        return table.get(value, [])

    def candidates(self, rule: PointcutRule) -> list[Joinpoint]:
        """The joinpoints ``rule`` matches, in index order."""
        key = (rule.pattern, rule.filters)
        matched = self._matched.get(key)
        if matched is None:
            groups = self._groups
            for f in rule.filters:
                if f.op == "eq" and isinstance(f.value, str):
                    groups = self._groups_with(f.key, f.value)
                    break
            matches_port = rule.pattern.matches_port
            matched = [
                Joinpoint(PortRef(cid, p.name, p.direction), metadata, owner.provenance)
                for cid, metadata, owner in groups
                if rule.accepts_component(cid, metadata)
                for p in owner.ports
                if matches_port(p.name, p.direction)
            ]
            self._matched[key] = matched
        return matched


def match_pointcut(index: JoinpointIndex, aa: AspectOfAssembly) -> dict[str, list[Joinpoint]]:
    """Candidate joinpoints per pointcut variable, in index order.

    Aspects matched through one index share its tables and results.
    """
    return {rule.variable: index.candidates(rule) for rule in aa.pointcut}


def combinations(candidates: dict[str, list[Joinpoint]]) -> list[Combination]:
    """Full cartesian product over variables; empty when any variable is dry.

    An aspect with no variables yields exactly one empty combination.
    """
    variables = sorted(candidates)
    return [dict(zip(variables, choice)) for choice in itertools.product(*(candidates[v] for v in variables))]


def instantiate_advice(
    aa: AspectOfAssembly,
    combination: Combination,
    fresh: FreshNames,
    *,
    cycle: int = 0,
    namespace: str | None = None,
    memo: dict,
) -> AdviceInstance:
    """Ground one combination: substitute variables, allocate fresh ids.

    Every ``Instantiate`` gets a fresh id, in rule order, and becomes a
    component with the ports the parser inferred; every arrow becomes one
    ``GroundLink`` or ``GroundRewrite``, in rule order.

    ``memo`` maps all that grounding reads to the components and grounded
    rules it made, in one flat tuple: the identity of ``aa.rules`` (each
    entry holds the tuple, so its id is not reused while the entry lives),
    the aspect's name, namespace and cycle, the combination's variables,
    the fields of their ports and the fresh ids.  The ids are allocated
    first, so a hit names exactly what a miss would and returns the very
    objects made before.
    """
    ns = namespace if namespace is not None else (aa.namespace or GLOBAL_NAMESPACE)
    rules = aa.rules
    inits = [rule for rule in rules if type(rule) is Instantiate]
    local_ids = {rule.local_name: fresh.fresh(rule.local_name) for rule in inits}
    # Strings cache their hash and ``PortRef``s do not, so the ports enter
    # the key field by field.  The rules fix the number of ids, so the
    # key's length fixes where each part ends.
    parts = [id(rules), aa.name, ns, cycle, *combination]
    for jp in combination.values():
        port = jp.port
        parts += (port.component_id, port.port_name, port.direction)
    parts += local_ids.values()
    key = tuple(parts)
    hit = memo.get(key)
    if hit is not None:
        return AdviceInstance(aa.name, ns, combination, hit[1], hit[2])
    prov = Woven(aa.name, cycle, ns)

    def ground(expr: PortExpr) -> PortRef:
        local = local_ids.get(expr.base)
        if local is not None:
            return PortRef(local, expr.port, REQUIRED if expr.required else PROVIDED)
        jp = combination[expr.base].port
        if expr.port is None:
            return jp
        return PortRef(jp.component_id, expr.port, REQUIRED if expr.required else PROVIDED)

    grounded = []
    for rule in rules:
        kind = type(rule)
        if kind is Link:
            grounded.append(GroundLink(ground(rule.source), map_leaves(rule.tree, ground)))
        elif kind is Rewrite:
            grounded.append(GroundRewrite(ground(rule.target), map_leaves(rule.tree, ground)))
    components = tuple(
        Component(
            id=local_ids[rule.local_name],
            type_name=rule.type_name,
            properties=dict(rule.init_props),
            metadata={"type": rule.type_name},
            ports=rule.ports,
            provenance=prov,
        )
        for rule in inits
    )
    grounded = tuple(grounded)
    memo[key] = (rules, components, grounded)
    return AdviceInstance(aa.name, ns, combination, components, grounded)
