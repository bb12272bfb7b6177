"""Join-plan trees and the per-SE plan sets of Definition 1.

A *plan* for an SE specifies how to evaluate it from smaller SEs:
``p_e : op(e_1, ..., e_k)`` (Definition 1).  For joins inside an optimizable
block this is a binary tree whose leaves are block inputs.  We keep two
representations:

- :class:`PlanTree` / :class:`Leaf` -- a concrete join tree (used for the
  initial plan, for executing re-ordered plans and for the baseline's
  coverage schedules);
- :class:`JoinSplit` -- one way of composing an SE from two smaller SEs with
  a join key (the optimizer's dynamic-programming view, ``P_e``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from repro.algebra.expressions import SubExpression


@dataclass(frozen=True)
class Leaf:
    """A block input occurrence in a join tree."""

    name: str

    @property
    def se(self) -> SubExpression:
        return SubExpression.of(self.name)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class JoinNode:
    """An inner join-tree node joining two subtrees on ``key`` attributes."""

    left: "PlanTree"
    right: "PlanTree"
    key: tuple[str, ...]

    @property
    def se(self) -> SubExpression:
        return self.left.se.union(self.right.se)

    def __repr__(self) -> str:
        key = ",".join(self.key)
        return f"({self.left!r} |x|_{key} {self.right!r})"


PlanTree = Union[Leaf, JoinNode]


@dataclass(frozen=True)
class JoinSplit:
    """One plan for an SE: join ``left`` and ``right`` on ``key``.

    ``left`` and ``right`` are canonicalized so that ``left < right`` in SE
    order; an equi-join is symmetric so nothing is lost.
    """

    left: SubExpression
    right: SubExpression
    key: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.right < self.left:
            left, right = self.right, self.left
            object.__setattr__(self, "left", left)
            object.__setattr__(self, "right", right)
        object.__setattr__(self, "key", tuple(sorted(self.key)))


def subtrees(tree: PlanTree) -> Iterator[PlanTree]:
    """All subtrees, leaves included, in post-order."""
    if isinstance(tree, JoinNode):
        yield from subtrees(tree.left)
        yield from subtrees(tree.right)
    yield tree


def tree_ses(tree: PlanTree) -> list[SubExpression]:
    """The SEs produced at every stage of the tree (the observable SEs)."""
    return [node.se for node in subtrees(tree)]


def internal_ses(tree: PlanTree) -> list[SubExpression]:
    """SEs of the inner join nodes only (excluding leaves)."""
    return [node.se for node in subtrees(tree) if isinstance(node, JoinNode)]


def leaves(tree: PlanTree) -> list[Leaf]:
    """The tree's leaves (block inputs), left to right."""
    return [node for node in subtrees(tree) if isinstance(node, Leaf)]

