"""``optree.sort_key``: the key layout its docstring gives, and its errors.

The keys order every ``Par`` and every fold, so each variant's key is
pinned exactly: its rank, Leaf < Nop < Call < Delegate < If < Seq < Par,
then its reference keys and its subtrees' keys, all tuples.
"""
import pytest

from aaweave.language import PortExpr
from aaweave.model import provided, required
from aaweave.optree import CALL, NOP, Delegate, If, Leaf, Par, Seq, sort_key

A, B, COND = provided("a", "p"), required("b", "q"), provided("c1", "t")


def test_keys_follow_the_documented_layout():
    cases = [
        (Leaf(A), (0, ("a", "p", "provided"))),
        (Leaf(PortExpr("x", "p", True)), (0, ("x", "p", True))),
        (NOP, (1,)),
        (CALL, (2,)),
        (Delegate(Leaf(B)), (3, (0, ("b", "q", "required")))),
        (If(COND, NOP, Delegate(CALL)), (4, ("c1", "t", "provided"), (1,), (3, (2,)))),
        (Seq((Leaf(B), NOP, Leaf(A))), (5, ((0, B.key()), (1,), (0, A.key())))),
        (Par((Seq((CALL,)), Par((NOP,)))), (6, ((5, ((2,),)), (6, ((1,),))))),
    ]
    for tree, key in cases:
        assert sort_key(tree) == key, tree


@pytest.mark.parametrize(
    "thing",
    [None, 42, (NOP,), provided("a", "p"), Par((Leaf(A), 42)), If(COND, NOP, "x"), Delegate([CALL])],
)
def test_a_non_tree_raises_type_error(thing):
    with pytest.raises(TypeError, match="not an operator tree"):
        sort_key(thing)
