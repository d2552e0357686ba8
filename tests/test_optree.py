"""``optree.sort_key`` against the match-based key function it replaced.

``reference_key`` is that function as it was, minus its cache.  The keys
order every ``Par`` and every fold, so the fast one must return the very
same tuples on every tree, normal or not, grounded or source-level.
"""
import importlib.util
import random
from pathlib import Path

import pytest

from aaweave.language import Link, Rewrite, parse_aa
from aaweave.model import provided, required
from aaweave.optree import CALL, NOP, Call, Delegate, If, Leaf, Nop, Par, Seq, normalize, sort_key

# The acceptance module's exhaustive corpus and its atoms, loaded by path
# so that no test module has to be importable by name.
_spec = importlib.util.spec_from_file_location("acceptance_corpus", Path(__file__).with_name("test_acceptance.py"))
_acceptance = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_acceptance)
CONDS, LEAVES = _acceptance.CONDS, _acceptance.LEAVES

_RANK = {Leaf: 0, Nop: 1, Call: 2, Delegate: 3, If: 4, Seq: 5, Par: 6}


def reference_key(tree) -> tuple:
    rank = _RANK[type(tree)]
    match tree:
        case Leaf(target=t):
            return (rank, t.key())
        case Nop() | Call():
            return (rank,)
        case Delegate(child=c):
            return (rank, reference_key(c))
        case If(cond=c, then=a, orelse=b):
            return (rank, c.key(), reference_key(a), reference_key(b))
        case Seq(children=ch) | Par(children=ch):
            return (rank, tuple(reference_key(c) for c in ch))
    raise TypeError(f"not an operator tree: {tree!r}")


_REFS = LEAVES + [Leaf(required("d", "q")), Leaf(provided("d", "q"))]


def _random_tree(rng: random.Random, depth: int):
    """Any tree, normal or not: single-child and nested Seq/Par, calls
    among parallel siblings and delegates anywhere."""
    kind = rng.choice(["leaf", "nop", "call"] + ["delegate", "if", "seq", "par"] * (depth > 0))
    if kind == "leaf":
        return rng.choice(_REFS)
    if kind == "nop":
        return NOP
    if kind == "call":
        return CALL
    if kind == "delegate":
        return Delegate(_random_tree(rng, depth - 1))
    if kind == "if":
        return If(rng.choice(CONDS), _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    children = tuple(_random_tree(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    return Seq(children) if kind == "seq" else Par(children)


def _subtrees(tree):
    yield tree
    match tree:
        case Delegate(child=c):
            yield from _subtrees(c)
        case If(then=a, orelse=b):
            yield from _subtrees(a)
            yield from _subtrees(b)
        case Seq(children=ch) | Par(children=ch):
            for c in ch:
                yield from _subtrees(c)


def _parsed_trees(fixtures_dir):
    """Every tree and subtree of the fixture aspects, leaves unground."""
    for path in sorted((fixtures_dir / "aa").glob("*.aa")):
        for rule in parse_aa(path.read_text(), path=str(path)).rules:
            if isinstance(rule, (Link, Rewrite)):
                yield from _subtrees(rule.tree)


def test_keys_equal_the_match_based_spec(fixtures_dir):
    rng = random.Random(20261020)
    drawn = [_random_tree(rng, 5) for _ in range(2000)]
    parsed = list(_parsed_trees(fixtures_dir))
    assert {type(t) for t in drawn} == set(_RANK)
    assert {type(t) for t in parsed} == set(_RANK)
    for tree in [*_acceptance._exhaustive_corpus(), *drawn, *map(normalize, drawn), *parsed, *map(normalize, parsed)]:
        assert sort_key(tree) == reference_key(tree), tree


@pytest.mark.parametrize(
    "thing",
    [None, 42, (NOP,), provided("a", "p"), Par((LEAVES[0], 42)), If(CONDS[0], NOP, "x"), Delegate([CALL])],
)
def test_a_non_tree_raises_type_error(thing):
    with pytest.raises(TypeError, match="not an operator tree"):
        sort_key(thing)
