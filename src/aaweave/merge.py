"""Symmetric composition of conflicting rules and lowering to instructions.

Rules land on anchors (the required port on the left of a link, or the
sources of the links a rewrite intercepts).  When several trees meet at one
anchor they are folded with the pairwise ``merge`` operator, written x ⊗ y
below.  The operator is commutative, associative and idempotent over
normalized trees, which is what makes weaving order-independent.

Rule table, top priority first:

  1. nop ⊗ x                      = nop                  (absorbing)
  2. call ⊗ x                     = x                    (neutral)
  3. delegate(a) ⊗ delegate(a)    = delegate(a)
     delegate(a) ⊗ delegate(b)    = DelegateClash        (a != b; symmetric)
  4. if(c,a,b) ⊗ if(c,x,y)        = if(c, a⊗x, b⊗y)
     if(c1,..) ⊗ if(c2,..)        = the lower condition hoists outside and
                                     the other tree distributes into both
                                     branches (c1 != c2)
  5. if(c,a,b) ⊗ x                = if(c, a⊗x, b⊗x)      (x not nop/call/if)
  6. delegate(a) ⊗ x              = delegate(a)          (x a leaf/seq/par)
  7. anything else                = parallel union, normalized; equal seqs
                                     and equal leaves collapse by idempotency

Rule 4's unequal-condition case orders the two conditions canonically so
both argument orders build the same nesting.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .language import Link
from .model import (
    PROVIDED,
    REQUIRED,
    AddBinding,
    AddComponent,
    Assembly,
    Binding,
    Component,
    Instruction,
    PortRef,
    PortSet,
    PortSpec,
    RemoveBinding,
    Woven,
    canonical_ports,
)
from .optree import NOP, Call, Delegate, If, Leaf, Nop, OperatorTree, Par, Seq, normalize, par_normal, sort_key


class DelegateClash(Exception):
    """Two delegates with different children met at one anchor."""

    def __init__(self, anchor, a, b):
        lo, hi = sorted((repr(a), repr(b)))
        where = f" at {anchor}" if anchor is not None else ""
        super().__init__(f"conflicting delegates{where}: {lo} vs {hi}")
        self.anchor = anchor
        self.a = a
        self.b = b


class CallWithoutOriginal(Exception):
    """A call leaf survived at an anchor that never had a binding."""

    def __init__(self, anchor):
        super().__init__(f"call at {anchor} has no original interaction to stand for")
        self.anchor = anchor


class NestedTooDeeply(Exception):
    """Folding or lowering the trees at one anchor ran out of stack."""

    def __init__(self, anchor):
        super().__init__(f"the merged tree at {anchor} is nested too deeply")
        self.anchor = anchor


# ---------------------------------------------------------------------------
# The ⊗ operator


def merge(a: OperatorTree, b: OperatorTree) -> OperatorTree:
    """Pairwise symmetric merge; arguments are normalized first."""
    return _merge(normalize(a), normalize(b), None)


@lru_cache(maxsize=1 << 16)
def _merge_cached(a: OperatorTree, b: OperatorTree) -> OperatorTree:
    return _merge(a, b, None)


def _merge(a: OperatorTree, b: OperatorTree, anchor) -> OperatorTree:
    if isinstance(a, Nop) or isinstance(b, Nop):
        return NOP
    if isinstance(a, Call):
        return b
    if isinstance(b, Call):
        return a
    if isinstance(a, Delegate) and isinstance(b, Delegate):
        if a.child == b.child:
            return a
        raise DelegateClash(anchor, a.child, b.child)
    a_if, b_if = isinstance(a, If), isinstance(b, If)
    if a_if and b_if:
        if a.cond == b.cond:
            return If(a.cond, _merge(a.then, b.then, anchor), _merge(a.orelse, b.orelse, anchor))
        lo, hi = (a, b) if a.cond.key() <= b.cond.key() else (b, a)
        return If(lo.cond, _merge(lo.then, hi, anchor), _merge(lo.orelse, hi, anchor))
    if a_if:
        return If(a.cond, _merge(a.then, b, anchor), _merge(a.orelse, b, anchor))
    if b_if:
        return If(b.cond, _merge(b.then, a, anchor), _merge(b.orelse, a, anchor))
    if isinstance(a, Delegate):
        return a
    if isinstance(b, Delegate):
        return b
    # Leaf, Seq and Par remain: a parallel union resolves them, and its
    # dedup step realizes idempotency for equal leaves and equal seqs.
    return par_normal([a, b])


@dataclass(frozen=True)
class RewriteGroup:
    """All trees that landed on one shared anchor, each in normal form (the
    leaves of its originals first, then its rule trees in no order a fold
    depends on), with the anchor's originals in port order and the
    provenance of all lowering adds for it; one shape from detect to lower."""

    anchor: PortRef
    trees: tuple[OperatorTree, ...]
    contributors: tuple[tuple[str, str], ...]  # sorted (aa_name, namespace) pairs
    originals: tuple[PortRef, ...]
    provenance: Woven

    def is_conflict(self) -> bool:
        return len(self.trees) > 1


def merge_group(group: RewriteGroup) -> OperatorTree:
    """Fold ⊗ over the group's trees in canonical order."""
    trees = sorted(group.trees, key=sort_key)
    result = trees[0]
    for tree in trees[1:]:
        result = _merge(result, tree, group.anchor)
    return result


# ---------------------------------------------------------------------------
# Conflict detection over grounded instances


@dataclass
class MergedPlan:
    """What a cycle adds besides its rewrite groups."""

    component_adds: list[Component] = field(default_factory=list)
    plain_bindings: list[Binding] = field(default_factory=list)


def detect_conflicts(base: Assembly, instances, memo, cycle: int = 0) -> tuple[list[RewriteGroup], MergedPlan]:
    """Group grounded rules by anchor.

    Link rules anchor at their required source port.  Rewrite rules anchor
    at the source of every binding currently arriving at the rewritten
    port; a rewrite of a port nothing arrives at contributes nothing.  The
    intercepted bindings join their groups as leaves, so the original
    interaction takes part in the merge and ``call`` keeps it alive.
    Instantiations never conflict and pass through as component adds.

    Anchors that end up with a single leaf are plain new links; everything
    else is a :class:`RewriteGroup` for :func:`merge_group`, in anchor
    order.  Both carry their contributors' joint provenance in ``cycle``.
    An anchor's trees are its originals' leaves, in port order, then its
    rule trees in no order that the result depends on.

    ``memo`` is the weave's :class:`~aaweave.weaver.Memo`: its ``stamps``
    hand out that provenance and its ``plain_bindings`` the plain links,
    so a re-weave of a replay session emits the very objects it deployed.
    A one-shot weave's memo has no ``plain_bindings``, as no other anchor
    of the weave holds the same leaf; it builds each plain link without a
    key.

    Only two kinds of base binding are looked at: those arriving at a
    rewritten port and those leaving an anchor.  A binding whose
    component id rules it out is passed over before any port is hashed.
    Their order does not matter: only anchors and originals are sorted.
    """
    plan = MergedPlan()
    # An anchor's entry is ``[anchor, trees and contributors, originals]``
    # under its ``(component_id, port_name, direction)``, which strings
    # hash without a call and which sorts the anchors.
    per_anchor: dict[tuple[str, str, str], list] = {}
    per_target: dict[PortRef, list[tuple[OperatorTree, tuple[str, str]]]] = {}
    target, landed = None, None
    for inst in instances:
        who = (inst.aa_name, inst.namespace)
        plan.component_adds.extend(inst.components)
        for rule in inst.grounded_rules:
            if type(rule) is Link:
                s = rule.source
                per_anchor.setdefault((s.component_id, s.port_name, s.direction), [s, [], []])[1].append((rule.tree, who))
                continue
            # Rules that rewrite a pointcut variable's own port share the
            # joinpoint's PortRef object, so a run of them hashes it once.
            if rule.target is not target:
                target = rule.target
                landed = per_target.setdefault(target, [])
            landed.append((rule.tree, who))

    target_ids = {t.component_id for t in per_target}
    for b in base.by_endpoints.values():
        if b.target.component_id in target_ids:
            arriving = per_target.get(b.target)
            if arriving is not None:
                s = b.source
                per_anchor.setdefault((s.component_id, s.port_name, s.direction), [s, [], []])[1].extend(arriving)

    anchor_ids = {cid for cid, _, _ in per_anchor}
    for b in base.by_endpoints.values():
        s = b.source
        if s.component_id in anchor_ids:
            at = per_anchor.get((s.component_id, s.port_name, s.direction))
            if at is not None:
                at[2].append(b.target)

    groups: list[RewriteGroup] = []
    stamps, plain = memo.stamps, memo.plain_bindings
    for key in sorted(per_anchor):
        anchor, entries, originals = per_anchor[key]
        contributors = (entries[0][1],) if len(entries) == 1 else tuple(sorted({who for _, who in entries}))
        prov = stamps.get((contributors, cycle))
        if prov is None:
            prov = stamps[contributors, cycle] = _joint_provenance(contributors, cycle)
        if not originals:
            tree = entries[0][0]
            if len(entries) == 1 and type(tree) is Leaf:
                if plain is None:
                    plan.plain_bindings.append(Binding(anchor, tree.target, prov))
                    continue
                # The entry pins the leaf and its binding holds the anchor
                # and the stamp, so no id in a live key is reused.
                plan.plain_bindings.append(
                    plain.recall((id(anchor), id(tree), id(prov)), tree, lambda: Binding(anchor, tree.target, prov))
                )
                continue
            originals = ()
        else:
            originals = tuple(sorted(originals, key=PortRef.key))
        trees = [Leaf(target) for target in originals]
        trees.extend(t for t, _ in entries)
        groups.append(RewriteGroup(anchor, tuple(trees), contributors, originals, prov))
    return groups, plan


# ---------------------------------------------------------------------------
# Lowering merged trees to elementary instructions

# The op component's type name and the stem of its fresh id, by node type.
_OPS = {
    Nop: ("op.Nop", "nop"),
    If: ("op.If", "if"),
    Seq: ("op.Seq", "seq"),
    Par: ("op.Par", "par"),
    Delegate: ("op.Delegate", "delegate"),
}


@lru_cache(maxsize=256)
def _op_shape(kind: type, arity: int) -> tuple[str, tuple[str, ...], PortSet]:
    """An op's type name, out port names and ``PortSet``.

    Every op of one kind and arity shares these objects, so its port names
    are made once and its components keep the one shared ``PortSet``, index
    and all.  A ``Par``'s arity grows with the input, so the cache has a
    bound; an op shape it drops is made again, and ``canonical_ports``
    still hands back the shared ``PortSet``.
    """
    type_name = _OPS[kind][0]
    outs = ("cond", "out_then", "out_else") if kind is If else tuple(f"out_{k}" for k in range(1, arity + 1))
    ports = canonical_ports([PortSpec("in", PROVIDED), *(PortSpec(name, REQUIRED) for name in outs)])
    return type_name, outs, ports


def _op_children(node: OperatorTree) -> tuple[OperatorTree, ...]:
    """The subtrees of an op node, in the order lowering visits them."""
    kind = type(node)
    if kind is If:
        return (node.then, node.orelse)
    if kind is Par or kind is Seq:
        return node.children
    if kind is Delegate:
        return (node.child,)
    if kind is Nop:
        return ()
    raise TypeError(f"not an operator tree: {node!r}")


def op_stems(tree: OperatorTree) -> tuple[str, ...]:
    """The stems of the fresh ids lowering gives ``tree``'s ops, in the
    order it takes them: each op before its children."""
    stems, stack = [], [tree]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is not Leaf and kind is not Call:
            children = _op_children(node)
            stems.append(_OPS[kind][1])
            stack.extend(reversed(children))
    return tuple(stems)


def _build(node: OperatorTree, group: RewriteGroup, ids, adds: list, binds: list) -> tuple[PortRef, ...]:
    """Lower ``node`` into ``adds`` and ``binds``, the instructions adding
    its op components and their bindings, each op taking the next of
    ``ids``; return the provided ports a parent should bind to for it."""
    kind = type(node)
    if kind is Leaf:
        return (node.target,)
    if kind is Call:
        if not group.originals:
            raise CallWithoutOriginal(group.anchor)
        return group.originals
    children = _op_children(node)
    type_name, outs, ports = _op_shape(kind, len(children))
    cid, prov = next(ids), group.provenance
    adds.append(AddComponent(Component(cid, type_name, metadata={"type": type_name}, ports=ports, provenance=prov)))
    # A leaf child binds to its target without a call of its own.  The
    # comprehension stays: its frame is part of what one op level costs
    # the stack, which sets how deep a tree may nest before it fails.
    targets = [(node.cond,)] if kind is If else []
    targets.extend([
        (child.target,) if type(child) is Leaf else _build(child, group, ids, adds, binds) for child in children
    ])
    for port, ends in zip(outs, targets):
        source = PortRef(cid, port, REQUIRED)
        if len(ends) == 1:
            binds.append(AddBinding(Binding(source, ends[0], prov)))
        else:
            binds.extend([AddBinding(Binding(source, end, prov)) for end in ends])
    return (PortRef(cid, "in", PROVIDED),)


Lowering = tuple[tuple[AddComponent, ...], tuple[RemoveBinding, ...], tuple[AddBinding, ...]]


def _lower_group(group: RewriteGroup, tree: OperatorTree, ids) -> Lowering:
    """The instructions ``group``'s folded ``tree`` lowers to: the adds of
    its op components, the removals of the anchor's original bindings and
    the adds of its bindings.  ``ids`` is an iterator over the ops' fresh
    ids, taken in the order of ``op_stems(tree)``.  All three are empty
    when the tree stands for exactly the group's originals."""
    adds: list[AddComponent] = []
    binds: list[AddBinding] = []
    roots = _build(tree, group, ids, adds, binds)
    if roots == group.originals:
        return (), (), ()
    anchor, prov = group.anchor, group.provenance
    binds.extend([AddBinding(Binding(anchor, root, prov)) for root in roots])
    return tuple(adds), tuple([RemoveBinding(anchor, o) for o in group.originals]), tuple(binds)


def lower(plan: MergedPlan, folded, fresh, memo) -> list[Instruction]:
    """Turn a plan and its folded groups, in anchor order, into component
    adds, removals and binding adds.  Within a kind the order is anchor
    order (plain bindings first, a group's bindings in build order), so the
    first binding that fails to apply is deterministic; nothing else reads
    the order, as ``apply_instructions`` stores maps.

    Operator nodes become synthetic components typed ``op.*`` with one
    provided ``in`` port and a required port per child; an op takes its
    fresh id before its children do.  The anchor's former bindings are
    redirected into the tree root.  Call leaves reconnect the group's
    originals and fail with :class:`CallWithoutOriginal` when there were
    none.  All a group adds carries the group's provenance.  An anchor
    whose tree lowers to exactly its originals emits nothing.

    ``folded`` holds ``(group, tree, stems)`` triples, ``stems`` being
    ``op_stems(tree)``.  ``memo`` is a replay session's lowerings, which
    pin the tree and store each group's instructions as
    :func:`_lower_group` made them, so a hit emits them as they are.  A
    one-shot weave passes ``None``: no other group of it takes the same
    fresh ids, so it lowers without a key.  A tree too deep for the stack
    raises :class:`NestedTooDeeply`.
    """
    adds: list[AddComponent] = list(map(AddComponent, plan.component_adds))
    removes: list[RemoveBinding] = []
    binds: list[AddBinding] = list(map(AddBinding, plan.plain_bindings))
    for group, tree, stems in folded:
        ids = tuple([fresh.fresh(stem) for stem in stems])
        try:
            if memo is None:
                group_adds, group_removes, group_binds = _lower_group(group, tree, iter(ids))
            else:
                key = (id(tree), group.anchor, group.originals, group.provenance, ids)
                group_adds, group_removes, group_binds = memo.recall(
                    key, tree, lambda: _lower_group(group, tree, iter(ids))
                )
        except RecursionError:
            raise NestedTooDeeply(group.anchor) from None
        adds.extend(group_adds)
        removes.extend(group_removes)
        binds.extend(group_binds)
    return [*adds, *removes, *binds]


def _joint_provenance(contributors, cycle: int) -> Woven:
    if len(contributors) == 1:
        ((aa, ns),) = contributors
        return Woven(aa, cycle, ns)
    names = sorted({aa for aa, _ in contributors})
    namespaces = {ns for _, ns in contributors}
    ns = namespaces.pop() if len(namespaces) == 1 else ""
    return Woven("+".join(names) if names else "base", cycle, ns)
