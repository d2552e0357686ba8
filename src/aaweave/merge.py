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

from .matching import GroundLink, GroundRewrite
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
    PortSpec,
    RemoveBinding,
    Woven,
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
    """All trees that landed on one shared anchor, each in normal form, with
    the anchor's original destinations (in port order) and the provenance
    of everything lowering adds for it; one shape from detect to lower."""

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


def detect_conflicts(base: Assembly, instances, cycle: int = 0) -> tuple[list[RewriteGroup], MergedPlan]:
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
    """
    per_anchor: dict[PortRef, list[tuple[OperatorTree, tuple[str, str]]]] = {}
    plan = MergedPlan()

    incoming: dict[PortRef, list[Binding]] = {}
    outgoing: dict[PortRef, list[PortRef]] = {}
    for b in base.bindings:
        incoming.setdefault(b.target, []).append(b)
        outgoing.setdefault(b.source, []).append(b.target)

    for inst in instances:
        who = (inst.aa_name, inst.namespace)
        plan.component_adds.extend(inst.components)
        for rule in inst.grounded_rules:
            if isinstance(rule, GroundLink):
                per_anchor.setdefault(rule.source, []).append((rule.tree, who))
            elif isinstance(rule, GroundRewrite):
                for b in incoming.get(rule.target, ()):
                    per_anchor.setdefault(b.source, []).append((rule.tree, who))

    groups: list[RewriteGroup] = []
    for anchor in sorted(per_anchor, key=PortRef.key):
        entries = per_anchor[anchor]
        originals = tuple(sorted(outgoing.get(anchor, ()), key=PortRef.key))
        trees = [Leaf(target) for target in originals]
        trees.extend(t for t, _ in entries)
        contributors = tuple(sorted({who for _, who in entries}))
        prov = _joint_provenance(contributors, cycle)
        if len(trees) == 1 and isinstance(trees[0], Leaf) and not originals:
            plan.plain_bindings.append(Binding(anchor, trees[0].target, prov))
            continue
        groups.append(RewriteGroup(anchor, tuple(trees), contributors, originals, prov))
    plan.component_adds.sort(key=lambda c: c.id)
    return groups, plan


# ---------------------------------------------------------------------------
# Lowering merged trees to elementary instructions

_OP_TYPES = {Nop: "op.Nop", If: "op.If", Seq: "op.Seq", Par: "op.Par", Delegate: "op.Delegate"}
_OP_STEMS = {Nop: "nop", If: "if", Seq: "seq", Par: "par", Delegate: "delegate"}


def lower(plan: MergedPlan, folded, fresh) -> list[Instruction]:
    """Turn a plan and its ``(group, folded tree)`` pairs, in anchor order,
    into ordered add/remove instructions.

    Operator nodes become synthetic components typed ``op.*`` with one
    provided ``in`` port and a required port per child; the anchor's former
    bindings are redirected into the tree root.  Call leaves reconnect the
    group's originals and fail with :class:`CallWithoutOriginal` when there
    were none.  All a group adds carries the group's provenance.  An anchor
    whose tree lowers to exactly its originals emits nothing.
    """
    op_adds: list[AddComponent] = []
    removes: list[RemoveBinding] = []
    adds = [AddBinding(b) for b in plan.plain_bindings]

    for group, tree in folded:
        anchor, originals, prov = group.anchor, group.originals, group.provenance
        roots = _TreeBuilder(anchor, originals, prov, fresh, op_adds, adds).build(tree)
        if tuple(roots) == originals:
            continue
        removes.extend(RemoveBinding(anchor, o) for o in originals)
        adds.extend(AddBinding(Binding(anchor, root, prov)) for root in roots)

    out: list[Instruction] = [AddComponent(c) for c in plan.component_adds]
    out.extend(op_adds)
    out.extend(sorted(removes, key=lambda i: (i.source.key(), i.target.key())))
    out.extend(sorted(adds, key=lambda i: i.binding.endpoints()))
    return out


def _joint_provenance(contributors, cycle: int) -> Woven:
    names = sorted({aa for aa, _ in contributors})
    namespaces = {ns for _, ns in contributors}
    ns = namespaces.pop() if len(namespaces) == 1 else ""
    return Woven("+".join(names) if names else "base", cycle, ns)


class _TreeBuilder:
    def __init__(self, anchor, originals, prov, fresh, op_adds, adds):
        self.anchor = anchor
        self.originals = originals
        self.prov = prov
        self.fresh = fresh
        self.op_adds = op_adds
        self.adds = adds

    def build(self, tree: OperatorTree) -> list[PortRef]:
        """Return the provided ports a parent should bind to for this node."""
        match tree:
            case Leaf(target=t):
                return [t]
            case Call():
                if not self.originals:
                    raise CallWithoutOriginal(self.anchor)
                return list(self.originals)
            case Nop():
                comp = self._op_component(tree, ())
                return [PortRef(comp.id, "in", PROVIDED)]
            case If(cond=c, then=a, orelse=b):
                comp = self._op_component(tree, ("cond", "out_then", "out_else"))
                self._bind(comp.id, "cond", [c])
                self._bind(comp.id, "out_then", self.build(a))
                self._bind(comp.id, "out_else", self.build(b))
                return [PortRef(comp.id, "in", PROVIDED)]
            case Seq(children=ch) | Par(children=ch):
                outs = tuple(f"out_{k}" for k in range(1, len(ch) + 1))
                comp = self._op_component(tree, outs)
                for name, child in zip(outs, ch):
                    self._bind(comp.id, name, self.build(child))
                return [PortRef(comp.id, "in", PROVIDED)]
            case Delegate(child=c):
                comp = self._op_component(tree, ("out_1",))
                self._bind(comp.id, "out_1", self.build(c))
                return [PortRef(comp.id, "in", PROVIDED)]
        raise TypeError(f"not an operator tree: {tree!r}")

    def _op_component(self, tree, out_ports) -> Component:
        kind = type(tree)
        ports = [PortSpec("in", PROVIDED)]
        ports.extend(PortSpec(name, REQUIRED) for name in out_ports)
        comp = Component(
            id=self.fresh.fresh(_OP_STEMS[kind]),
            type_name=_OP_TYPES[kind],
            metadata={"type": _OP_TYPES[kind]},
            ports=tuple(ports),
            provenance=self.prov,
        )
        self.op_adds.append(AddComponent(comp))
        return comp

    def _bind(self, comp_id: str, port: str, targets) -> None:
        source = PortRef(comp_id, port, REQUIRED)
        for target in targets:
            self.adds.append(AddBinding(Binding(source, target, self.prov)))
