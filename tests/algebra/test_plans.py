"""Unit tests for plan trees and join splits."""

from repro.algebra.expressions import SubExpression
from repro.algebra.plans import (
    JoinNode,
    JoinSplit,
    Leaf,
    internal_ses,
    leaves,
    subtrees,
    tree_ses,
)


def sample_tree():
    return JoinNode(
        JoinNode(Leaf("A"), Leaf("B"), ("x",)),
        Leaf("C"),
        ("y",),
    )


class TestPlanTree:
    def test_leaf_se(self):
        assert Leaf("A").se == SubExpression.of("A")

    def test_join_node_se_unions(self):
        assert sample_tree().se == SubExpression.of("A", "B", "C")

    def test_subtrees_postorder(self):
        ses = [t.se for t in subtrees(sample_tree())]
        assert ses == [
            SubExpression.of("A"),
            SubExpression.of("B"),
            SubExpression.of("A", "B"),
            SubExpression.of("C"),
            SubExpression.of("A", "B", "C"),
        ]

    def test_tree_ses_and_internal_ses(self):
        tree = sample_tree()
        assert len(tree_ses(tree)) == 5
        assert internal_ses(tree) == [
            SubExpression.of("A", "B"),
            SubExpression.of("A", "B", "C"),
        ]

    def test_leaves_and_joins(self):
        tree = sample_tree()
        assert [leaf.name for leaf in leaves(tree)] == ["A", "B", "C"]
        assert len(internal_ses(tree)) == 2


class TestJoinSplit:
    def test_canonical_side_order(self):
        s1 = JoinSplit(SubExpression.of("B"), SubExpression.of("A"), ("k",))
        s2 = JoinSplit(SubExpression.of("A"), SubExpression.of("B"), ("k",))
        assert s1 == s2
        assert s1.left == SubExpression.of("A")

    def test_key_sorted(self):
        s = JoinSplit(SubExpression.of("A"), SubExpression.of("B"), ("z", "a"))
        assert s.key == ("a", "z")
