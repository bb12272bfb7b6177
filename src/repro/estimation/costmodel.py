"""Operator and plan cost models (the Step-7 consumer of the statistics).

Section 3.1: *"The most important factors determining the cost of any
operator ... are the cardinalities of the inputs.  Thus, for a given plan,
if the cardinalities of the outputs at all intermediate stages of the plan
are determined, the cost of any operator in the plan and therefore the
total cost of the plan could be computed."*

The metric is C_out, the sum of intermediate-result sizes used throughout
the join-ordering literature.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.algebra.expressions import AnySE, SubExpression
from repro.algebra.plans import JoinNode, PlanTree, subtrees


class CostModelError(KeyError):
    """Raised when a plan references an SE with no cardinality estimate."""


@dataclass
class PlanCostModel:
    """Costs join trees from SE cardinalities.

    ``cardinalities`` maps every SE to its (estimated or true) size.
    """

    cardinalities: dict[AnySE, float]

    def size(self, se: AnySE) -> float:
        try:
            return float(self.cardinalities[se])
        except KeyError:
            raise CostModelError(f"no cardinality estimate for {se!r}") from None

    def join_cost(self, left: SubExpression, right: SubExpression) -> float:
        return self.size(left.union(right))

    def tree_cost(self, tree: PlanTree) -> float:
        """Total plan cost: every join node's cost, final emit included."""
        total = 0.0
        for node in subtrees(tree):
            if isinstance(node, JoinNode):
                total += self.join_cost(node.left.se, node.right.se)
        return total
