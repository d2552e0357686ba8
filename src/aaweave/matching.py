"""Joinpoint collection, pointcut matching and the advice factory.

A joinpoint is one port of one component, named by a ``PortRef``.  A
cycle matches against a ``JoinpointIndex`` of the components it may see:
the index groups their ports by component, runs filters on each group's
metadata and builds a ``PortRef`` only for a port some rule matches, so a
woven assembly with thousands of ports costs one pass over its
components.  Matching an aspect yields candidate ports per variable; the
cartesian product of the candidates gives the combinations (plain
``{variable: port}`` dicts) and every combination turns into one grounded
advice instance, with fresh names for instantiated components.  The
factory reads everything else straight from the parsed advice: its rules
in order and the ports the parser inferred for each local.  A grounded
rule is the parsed ``Link`` or ``Rewrite`` with ``PortRef``s in place of
port expressions, as a grounded tree is the parsed tree over ports.

``collect_joinpoints`` encodes the staging rules for cascades: base
components are always eligible, woven components only when they were
woven in a strictly earlier cycle and their namespace is the global one
or the requester's own.  Nothing woven in the current cycle is ever
matchable.
"""
from __future__ import annotations

import itertools
from .language import AspectOfAssembly, Instantiate, Link, PointcutRule, PortExpr, Rewrite
from .model import PROVIDED, REQUIRED, Component, PortRef, Woven, value
from .optree import map_leaves

GLOBAL_NAMESPACE = ""


# One choice of joinpoint (port) per pointcut variable.
Combination = dict[str, PortRef]


@value
class AdviceInstance:
    aa_name: str
    namespace: str
    components: tuple[Component, ...]
    grounded_rules: tuple[Link | Rewrite, ...]


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


def collect_joinpoints(assembly, cycle: int, namespace: str, currently_weaving=frozenset()) -> JoinpointIndex:
    """The joinpoints of every component that cycle ``cycle``, weaving for
    ``namespace``, may match, as an index over those components in id
    order.  Components woven by an aspect in ``currently_weaving`` are left
    out.  Fresh ids follow that order, and an assembly keeps none, so this
    is where it is imposed."""
    return JoinpointIndex([
        c
        for _, c in sorted(assembly.components.items())
        if (p := c.provenance) is None
        or (p.aa_name not in currently_weaving and p.cycle < cycle and p.namespace in (GLOBAL_NAMESPACE, namespace))
    ])


class JoinpointIndex:
    """Joinpoints grouped by component, prepared for matching many pointcut rules.

    ``collect_joinpoints`` builds it; it is all ``match_pointcut`` takes.
    Each group is one component, whose ports are the group's joinpoints.
    A rule's component pattern and metadata filters run once per group,
    on the component's id and metadata, and only the ports of accepted
    groups meet the port pattern; a ``PortRef`` is built only for a port
    that passes.  A rule with an equality filter on a string value visits
    only the groups that a per-key table lists under that value: exactly
    the groups the filter accepts.  A rule without one whose component
    pattern is all literals visits only the groups a name table lists
    under the literals' text, lower-cased: a superset of the groups the
    pattern accepts, since an id the ASCII case-blind pattern matches
    equals that text after ``str.lower()``, and each listed group still
    goes through ``accepts_component``.  Every other rule scans all
    groups.  Tables are built on first use, so their cost lands in
    matching, not in the caller.  Results are kept per (pattern,
    filters), so a rule repeated verbatim across aspects is matched once.

    ``len()`` is the number of joinpoints and iterating yields each one's
    ``PortRef``, in group order: components by id, each one's ports in
    order.
    """

    def __init__(self, groups: list[Component]):
        self._groups = groups
        self._size = sum(len(c.ports) for c in groups)
        self._tables: dict[str, dict[str, list]] = {}
        self._names: dict[str, list] | None = None
        self._matched: dict[tuple, list[PortRef]] = {}

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        for c in self._groups:
            for p in c.ports:
                yield PortRef(c.id, p.name, p.direction)

    def _groups_with(self, key: str, value: str) -> list:
        table = self._tables.get(key)
        if table is None:
            table = {}
            for c in self._groups:
                have = c.metadata.get(key)
                if isinstance(have, str):
                    table.setdefault(have, []).append(c)
            self._tables[key] = table
        return table.get(value, [])

    def _groups_named(self, name: str) -> list:
        table = self._names
        if table is None:
            table = self._names = {}
            for c in self._groups:
                table.setdefault(c.id.lower(), []).append(c)
        return table.get(name, [])

    def candidates(self, rule: PointcutRule) -> list[PortRef]:
        """The ports ``rule`` matches, in index order."""
        key = (rule.pattern, rule.filters)
        matched = self._matched.get(key)
        if matched is None:
            groups = self._groups
            for f in rule.filters:
                if f.op == "eq" and isinstance(f.value, str):
                    groups = self._groups_with(f.key, f.value)
                    break
            else:
                atoms = rule.pattern.component_atoms
                if all(atom[0] == "lit" for atom in atoms):
                    groups = self._groups_named("".join(atom[1] for atom in atoms).lower())
            matches_port = rule.pattern.matches_port
            matched = [
                PortRef(c.id, p.name, p.direction)
                for c in groups
                if rule.accepts_component(c.id, c.metadata)
                for p in c.ports
                if matches_port(p.name, p.direction)
            ]
            self._matched[key] = matched
        return matched


def match_pointcut(index: JoinpointIndex, aa: AspectOfAssembly) -> dict[str, list[PortRef]]:
    """Candidate ports per pointcut variable, in index order.

    Aspects matched through one index share its tables and results.
    """
    return {rule.variable: index.candidates(rule) for rule in aa.pointcut}


def combinations(candidates: dict[str, list[PortRef]]) -> list[Combination]:
    """Full cartesian product over variables, one ``{variable: port}``
    dict per choice; empty when any variable is dry.

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
    namespace: str,
    memo,
) -> AdviceInstance:
    """Ground one combination: substitute variables, allocate fresh ids.

    Every ``Instantiate`` gets a fresh id, in rule order, and becomes a
    component with the ports the parser inferred; every ``Link`` and
    ``Rewrite`` becomes the same rule over ``PortRef``s, in rule order.

    ``memo`` is the weave's instances, which pin ``aa.rules``; the key
    holds the aspect's name, namespace and cycle, the combination's
    variables and the fields of their ports besides.
    """
    rules = aa.rules
    inits = [rule for rule in rules if type(rule) is Instantiate]
    local_ids = {rule.local_name: fresh.fresh(rule.local_name) for rule in inits}
    # Strings cache their hash and ``PortRef``s do not, so the ports enter
    # the key field by field.  The rules fix the number of ids, so the
    # key's length fixes where each part ends.
    parts = [id(rules), aa.name, namespace, cycle, *combination]
    for port in combination.values():
        parts += (port.component_id, port.port_name, port.direction)
    parts += local_ids.values()

    def build() -> AdviceInstance:
        def ground(expr: PortExpr) -> PortRef:
            cid = local_ids.get(expr.base)
            if cid is None:
                port = combination[expr.base]
                if expr.port is None:
                    return port
                cid = port.component_id
            return PortRef(cid, expr.port, REQUIRED if expr.required else PROVIDED)

        grounded = []
        for rule in rules:
            kind = type(rule)
            if kind is Link:
                grounded.append(Link(ground(rule.source), map_leaves(rule.tree, ground)))
            elif kind is Rewrite:
                grounded.append(Rewrite(ground(rule.target), map_leaves(rule.tree, ground)))
        prov = Woven(aa.name, cycle, namespace)
        components = tuple([
            Component(
                id=local_ids[rule.local_name],
                type_name=rule.type_name,
                properties=dict(rule.init_props),
                metadata={"type": rule.type_name},
                ports=rule.ports,
                provenance=prov,
            )
            for rule in inits
        ])
        return AdviceInstance(aa.name, namespace, components, tuple(grounded))

    return memo.recall(tuple(parts), rules, build)
