"""Operator-tree nodes for rule right-hand sides.

A tree describes what flows out of one anchor port: plain message leaves,
conditional dispatch, ordered sequences, unordered parallel fan-out, the
absorbing ``nop``, the neutral ``call`` (stands for the interaction the
anchor already had) and ``delegate`` (claims the anchor exclusively).

Leaves and conditions hold either a source-level port expression or, after
grounding, a concrete :class:`~aaweave.model.PortRef`.  Both carry a
``key()`` method so trees can be ordered canonically.

Trees have one normal form: sequences flat, parallel nodes flat, sorted by
:func:`sort_key` and deduplicated, no neutral call among parallel
siblings, no single-child wrappers.  :func:`map_leaves` builds it, so a
grounded tree is normal; the parser keeps source order instead.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Any, Union

from .model import value


@value
class Leaf:
    target: Any


@value
class Nop:
    pass


@value
class Call:
    pass


@value
class Delegate:
    child: "OperatorTree"


@value
class If:
    cond: Any
    then: "OperatorTree"
    orelse: "OperatorTree"


@value
class Seq:
    children: tuple["OperatorTree", ...]


@value
class Par:
    children: tuple["OperatorTree", ...]


OperatorTree = Union[Leaf, Nop, Call, Delegate, If, Seq, Par]

NOP = Nop()
CALL = Call()

# Canonical variant order: Leaf < Nop < Call < Delegate < If < Seq < Par.
_RANK = {Leaf: 0, Nop: 1, Call: 2, Delegate: 3, If: 4, Seq: 5, Par: 6}


@lru_cache(maxsize=1 << 20)
def sort_key(tree: OperatorTree) -> tuple:
    """Total structural order over trees; injective on well-formed trees."""
    rank = _RANK[type(tree)]
    match tree:
        case Leaf(target=t):
            return (rank, t.key())
        case Nop() | Call():
            return (rank,)
        case Delegate(child=c):
            return (rank, sort_key(c))
        case If(cond=c, then=a, orelse=b):
            return (rank, c.key(), sort_key(a), sort_key(b))
        case Seq(children=ch) | Par(children=ch):
            return (rank, tuple(sort_key(c) for c in ch))
    raise TypeError(f"not an operator tree: {tree!r}")


def seq_of(children) -> OperatorTree:
    children = tuple(children)
    return children[0] if len(children) == 1 else Seq(children)


def par_of(children) -> OperatorTree:
    children = tuple(children)
    return children[0] if len(children) == 1 else Par(children)


def seq_normal(children) -> OperatorTree:
    """Sequence of normal trees, splicing in any Seq among them."""
    flat: list[OperatorTree] = []
    for child in children:
        flat.extend(child.children if isinstance(child, Seq) else (child,))
    return flat[0] if len(flat) == 1 else Seq(tuple(flat))


def par_normal(children) -> OperatorTree:
    """Parallel union of normal trees, splicing in any Par among them."""
    uniq: dict[tuple, OperatorTree] = {}
    for child in children:
        for item in child.children if isinstance(child, Par) else (child,):
            uniq.setdefault(sort_key(item), item)
    items = [uniq[k] for k in sorted(uniq)]
    if len(items) > 1:
        items = [c for c in items if not isinstance(c, Call)]
    return items[0] if len(items) == 1 else Par(tuple(items))


def map_leaves(tree: OperatorTree, fn) -> OperatorTree:
    """The normal form of the tree with ``fn`` applied to every leaf target
    and condition."""
    # Dispatch on the exact type, most frequent first, which costs half of
    # what a match over class patterns does.
    kind = type(tree)
    if kind is If:
        return If(fn(tree.cond), map_leaves(tree.then, fn), map_leaves(tree.orelse, fn))
    if kind is Call or kind is Nop:
        return tree
    if kind is Leaf:
        return Leaf(fn(tree.target))
    if kind is Par:
        return par_normal([map_leaves(c, fn) for c in tree.children])
    if kind is Seq:
        return seq_normal(map_leaves(c, fn) for c in tree.children)
    if kind is Delegate:
        return Delegate(map_leaves(tree.child, fn))
    raise TypeError(f"not an operator tree: {tree!r}")


def normalize(tree: OperatorTree) -> OperatorTree:
    """The tree's normal form."""
    return map_leaves(tree, _same)


def _same(ref):
    return ref


def iter_refs(tree: OperatorTree):
    """Yield every leaf target and condition in the tree."""
    match tree:
        case Leaf(target=t):
            yield t
        case Nop() | Call():
            return
        case Delegate(child=c):
            yield from iter_refs(c)
        case If(cond=c, then=a, orelse=b):
            yield c
            yield from iter_refs(a)
            yield from iter_refs(b)
        case Seq(children=ch) | Par(children=ch):
            for c in ch:
                yield from iter_refs(c)
