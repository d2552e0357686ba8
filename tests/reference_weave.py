"""A plain weaver: the executable spec of a whole weave, in the paper's terms.

Each cycle matches every port of every component it may see against each
pointcut rule, enumerates the combinations, grounds each one, groups the
grounded rules by anchor, folds each group with the public ``merge`` in
``sort_key`` order (a ``nop`` met first absorbs delegates that would
clash, so the order decides whether they do), lowers each folded tree, an
op taking its fresh id before its children, and rebuilds its whole output
through ``Assembly.build``.  It keeps no memo, index or name table, and
shares with the program only the model's types, the parser,
``FreshNames``, ``merge`` and the tree order, so the program's weave must
equal the spec's, fresh ids and all.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from functools import reduce

from aaweave.language import Instantiate, Link, Rewrite, parse_aa
from aaweave.matching import FreshNames
from aaweave.merge import CallWithoutOriginal, DelegateClash, merge
from aaweave.model import PROVIDED, REQUIRED, Assembly, Binding, Component, ModelError, PortRef, PortSpec, Woven
from aaweave.optree import Call, Delegate, If, Leaf, Nop, Par, Seq, normalize, sort_key

# A last-cycle aspect that binds every relay a generated link-only aspect
# wove, so that its cycle crosses earlier cycles' products: no generated
# aspect matches a woven component.
WATCH_RELAYS = parse_aa(
    "Pointcut:\n  r := /*(@type=gen.Relay).^out_1/\nAdvice:\nschema watch_relays(r):\n"
    "  tap : 'gen.Tap';\n  r -> (tap.in ; call)\n"
)


# One combination's advice, and the trees at one anchor, with the fields
# of ``AdviceInstance`` and ``RewriteGroup``.
Instance = namedtuple("Instance", "aa_name namespace components grounded_rules")
Group = namedtuple("Group", "anchor trees contributors originals provenance")
# What a cycle's report states.  A failing cycle states no counts, and its
# failure as the exception type and, for one at an anchor, the anchor's text.
CycleFacts = namedtuple(
    "CycleFacts",
    "applied skipped cross_aspect_matches conflict_groups conflict_fraction merge_ops failure",
    defaults=(None,) * 4,
)


class _Failed(Exception):
    pass


def weave(base: Assembly, cycles) -> tuple[Assembly, list[CycleFacts]]:
    """Weave ``cycles``, lists of ``(aspect, namespace)`` pairs in weaving
    order, over ``base``.  A failing cycle ends the weave, and the assembly
    it was given stands."""
    fresh = FreshNames(taken=base.components)
    current, facts = base, []
    for index, pairs in enumerate(cycles):
        current, cycle_facts = weave_cycle(current, pairs, index, fresh)
        facts.append(cycle_facts)
        if cycle_facts.failure:
            break
    return current, facts


def weave_cycle(assembly: Assembly, pairs, cycle: int, fresh: FreshNames) -> tuple[Assembly, CycleFacts]:
    weaving = {aa.name for aa, _ in pairs}
    applied, skipped, crossed, instances = [], [], [], []
    for aa, namespace in pairs:
        seen = joinpoints(assembly, cycle, namespace, weaving)
        candidates = {rule.variable: scan(assembly, seen, rule) for rule in aa.pointcut}
        variables = sorted(candidates)
        combos = [dict(zip(variables, ports)) for ports in itertools.product(*(candidates[v] for v in variables))]
        if not combos:
            skipped.append((aa.name, f"no joinpoint for {', '.join(v for v in variables if not candidates[v])}"))
            continue
        applied.append((aa.name, cycle, len(combos)))
        producers = {assembly.components[port.component_id].provenance for c in combos for port in c.values()}
        crossed.extend(sorted({(aa.name, p.aa_name) for p in producers if p is not None and p.aa_name != aa.name}))
        instances.extend(ground(aa, combo, namespace, cycle, fresh) for combo in combos)

    groups, plain, components = detect(assembly, instances, cycle)
    try:
        folded = [(group, fold(group)) for group in groups]
        removed, bindings = set(), list(plain)
        for group, tree in folded:
            lower(group, tree, fresh, components, removed, bindings)
        woven = rebuild(assembly, components, removed, bindings)
    except _Failed as failed:
        return assembly, CycleFacts(applied, skipped, crossed, failure=failed.args)
    conflicts = sum(1 for g in groups if len(g.trees) > 1)
    fraction = conflicts / (len(groups) + len(plain)) if groups or plain else 0.0
    return woven, CycleFacts(applied, skipped, crossed, conflicts, fraction, sum(len(g.trees) - 1 for g in groups))


def joinpoints(assembly: Assembly, cycle: int, namespace: str, weaving=frozenset()) -> list[PortRef]:
    """Every port of every component that cycle ``cycle``, weaving for
    ``namespace``, may see, in component id order: base components, and
    components an aspect not in ``weaving`` wove in an earlier cycle, in
    the global namespace or in ``namespace``."""

    def visible(p):
        return p is None or (p.aa_name not in weaving and p.cycle < cycle and p.namespace in ("", namespace))

    return [
        PortRef(c.id, port.name, port.direction)
        for c in sorted(assembly.components.values(), key=lambda c: c.id)
        if visible(c.provenance)
        for port in c.ports
    ]


def scan(assembly: Assembly, joinpoints, rule) -> list[PortRef]:
    """The joinpoints that meet the component pattern, the port pattern and
    direction, and every filter on their component's metadata."""
    return [
        port
        for port in joinpoints
        if rule.pattern.matches_component(port.component_id)
        and rule.pattern.matches_port(port.port_name, port.direction)
        and all(f.evaluate(assembly.components[port.component_id].metadata) for f in rule.filters)
    ]


def ground(aa, combination, namespace: str, cycle: int, fresh: FreshNames) -> Instance:
    """``aa``'s advice over ``combination``: each instantiated component
    under a fresh id, taken in rule order, and each link and rewrite over
    the ports it names, its tree in normal form."""
    ids = {r.local_name: fresh.fresh(r.local_name) for r in aa.rules if type(r) is Instantiate}

    def port(expr) -> PortRef:
        direction = REQUIRED if expr.required else PROVIDED
        if expr.base in ids:
            return PortRef(ids[expr.base], expr.port, direction)
        bound = combination[expr.base]
        return bound if expr.port is None else PortRef(bound.component_id, expr.port, direction)

    def tree(node):
        match node:
            case Leaf(target=t):
                return Leaf(port(t))
            case If(cond=c, then=a, orelse=b):
                return If(port(c), tree(a), tree(b))
            case Delegate(child=c):
                return Delegate(tree(c))
            case Seq(children=ch) | Par(children=ch):
                return type(node)(tuple(map(tree, ch)))
        return node

    stamp = Woven(aa.name, cycle, namespace)
    components, rules = [], []
    for r in aa.rules:
        if type(r) is Instantiate:
            local = Component(ids[r.local_name], r.type_name, dict(r.init_props), {"type": r.type_name}, r.ports, stamp)
            components.append(local)
        elif type(r) is Link:
            rules.append(Link(port(r.source), normalize(tree(r.tree))))
        else:
            rules.append(Rewrite(port(r.target), normalize(tree(r.tree))))
    return Instance(aa.name, namespace, tuple(components), tuple(rules))


def joint_provenance(contributors, cycle: int) -> Woven:
    """The stamp of what an anchor's contributors weave together: their
    names joined by '+', in the namespace they share, else the global one."""
    namespaces = {ns for _, ns in contributors}
    names = "+".join(sorted({aa for aa, _ in contributors}))
    return Woven(names, cycle, namespaces.pop() if len(namespaces) == 1 else "")


def detect(assembly: Assembly, instances, cycle: int = 0) -> tuple[list[Group], list[Binding], list[Component]]:
    """Group the instances' rules by anchor: a link at its source, a
    rewrite at the source of every binding arriving at its target.  An
    anchor's trees are the leaves of its originals (the targets of the
    bindings leaving it, in port order), then its rule trees.  Returns the
    groups in anchor order, the plain bindings (anchors holding one leaf
    and no original) and the instances' components."""
    incoming, outgoing = {}, {}
    for b in assembly.by_endpoints.values():
        incoming.setdefault(b.target, []).append(b)
        outgoing.setdefault(b.source, []).append(b.target)
    per_anchor, components = {}, []
    for inst in instances:
        who = (inst.aa_name, inst.namespace)
        components.extend(inst.components)
        for rule in inst.grounded_rules:
            anchors = [rule.source] if type(rule) is Link else [b.source for b in incoming.get(rule.target, ())]
            for anchor in anchors:
                per_anchor.setdefault(anchor, []).append((rule.tree, who))
    groups, plain = [], []
    for anchor in sorted(per_anchor, key=PortRef.key):
        entries = per_anchor[anchor]
        originals = tuple(sorted(outgoing.get(anchor, ()), key=PortRef.key))
        trees = (*map(Leaf, originals), *(tree for tree, _ in entries))
        contributors = tuple(sorted({who for _, who in entries}))
        stamp = joint_provenance(contributors, cycle)
        if len(trees) == 1 and type(trees[0]) is Leaf and not originals:
            plain.append(Binding(anchor, trees[0].target, stamp))
        else:
            groups.append(Group(anchor, trees, contributors, originals, stamp))
    return groups, plain, components


def fold(group: Group):
    try:
        return reduce(merge, sorted(group.trees, key=sort_key))
    except DelegateClash:
        raise _Failed(DelegateClash, str(group.anchor)) from None


_STEMS = {Nop: "nop", If: "if", Seq: "seq", Par: "par", Delegate: "delegate"}


def lower(group: Group, tree, fresh: FreshNames, components: list, removed: set, bindings: list) -> None:
    """Add the op components and the bindings ``group``'s folded ``tree``
    stands for, and the anchor's original bindings to ``removed``, unless
    the tree stands for exactly those originals."""
    stamp = group.provenance

    def ends(node) -> tuple[PortRef, ...]:
        """The provided ports a parent binds to for ``node``."""
        kind = type(node)
        if kind is Leaf:
            return (node.target,)
        if kind is Call:
            if not group.originals:
                raise _Failed(CallWithoutOriginal, str(group.anchor))
            return group.originals
        cid = fresh.fresh(_STEMS[kind])
        if kind is If:
            outs = [("cond", (node.cond,)), ("out_then", ends(node.then)), ("out_else", ends(node.orelse))]
        else:
            children = () if kind is Nop else (node.child,) if kind is Delegate else node.children
            outs = [(f"out_{k}", ends(child)) for k, child in enumerate(children, start=1)]
        ports = [PortSpec("in", PROVIDED), *(PortSpec(out, REQUIRED) for out, _ in outs)]
        op = f"op.{kind.__name__}"
        components.append(Component(cid, op, metadata={"type": op}, ports=ports, provenance=stamp))
        bindings.extend(Binding(PortRef(cid, out, REQUIRED), end, stamp) for out, targets in outs for end in targets)
        return (PortRef(cid, "in", PROVIDED),)

    roots = ends(tree)
    if roots != group.originals:
        removed.update((group.anchor, original) for original in group.originals)
        bindings.extend(Binding(group.anchor, root, stamp) for root in roots)


def rebuild(assembly: Assembly, components: list, removed: set, bindings: list) -> Assembly:
    """``assembly`` with ``components`` and ``bindings`` added and the
    ``removed`` (source, target) bindings gone.  A woven component is an
    open black box: a new binding at a port it does not declare declares
    it."""
    comps = [*assembly.components.values(), *components]
    at = {c.id: k for k, c in enumerate(comps)}
    for b in bindings:
        for ref, direction in ((b.source, REQUIRED), (b.target, PROVIDED)):
            k = at.get(ref.component_id)
            if k is not None and ref.direction == direction and comps[k].provenance is not None:
                if not comps[k].has_port(ref.port_name, direction):
                    comps[k] = comps[k].with_port(PortSpec(ref.port_name, direction))
    kept = [b for b in assembly.by_endpoints.values() if (b.source, b.target) not in removed]
    try:
        return Assembly.build(comps, [*kept, *bindings])
    except ModelError:
        raise _Failed(ModelError, None) from None


# How a report's failure at an anchor starts, by the exception behind it.
_AT_ANCHOR = {"conflicting delegates at ": DelegateClash, "call at ": CallWithoutOriginal}


def observed(woven: Assembly, reports) -> tuple[Assembly, list[CycleFacts]]:
    """A program weave's output and reports, as :func:`weave` gives them."""
    facts = []
    for r in reports:
        if r.failure is None:
            counts = (r.conflict_groups, r.conflict_fraction, r.merge_ops)
            facts.append(CycleFacts(r.applied, r.skipped, r.cross_aspect_matches, *counts))
            continue
        failure = next(
            ((kind, r.failure[len(start):].split(" ")[0].removesuffix(":"))
             for start, kind in _AT_ANCHOR.items() if r.failure.startswith(start)),
            (ModelError, None),
        )
        facts.append(CycleFacts(r.applied, r.skipped, r.cross_aspect_matches, failure=failure))
    return woven, facts
