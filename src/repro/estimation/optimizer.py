"""Cost-based plan selection (Section 3.2.7).

A classic dynamic-programming join-order optimizer over each block's
connected subsets: because the statistics framework guarantees a
cardinality for *every* SE, the optimizer can cost every candidate plan --
which is the whole point of the paper.  Bushy trees are considered; cross
products never (the enumeration only yields connected splits).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.blocks import Block, BlockAnalysis
from repro.algebra.expressions import AnySE
from repro.algebra.plans import JoinNode, Leaf, PlanTree
from repro.estimation.costmodel import PlanCostModel


@dataclass
class OptimizedPlan:
    """The chosen tree for one block, with its estimated cost.

    ``confidence`` records the provenance of the cardinalities behind the
    choice: ``"observed"`` (tonight's instrumented run), ``"catalog"``
    (its usable entries), ``"prior"`` (its stale, expired or low-quality
    entries), ``"independence"`` (the no-
    statistics baseline) or ``"none"`` (unoptimizable this cycle -- the
    tree is the block's fallback plan, costs are NaN).
    """

    block: Block
    tree: PlanTree
    cost: float
    initial_cost: float
    confidence: str

    @property
    def improved(self) -> bool:
        return self.cost < self.initial_cost


class PlanOptimizer:
    """DP join-order optimization per optimizable block."""

    def __init__(
        self,
        analysis: BlockAnalysis,
        cardinalities: dict[AnySE, float],
    ):
        self.analysis = analysis
        self.model = PlanCostModel(cardinalities)

    def optimize_block(self, block: Block, confidence: str) -> OptimizedPlan:
        """The block's plan, labelled ``confidence``: the cheapest tree, or
        the initial plan of a pinned block.

        A block on a degraded rung that the cardinalities cannot cost keeps
        its initial plan with NaN costs and confidence ``"none"``.  An
        ``"observed"`` block that cannot be costed raises: tonight's
        selection guaranteed every cardinality it needs.
        """
        try:
            if block.pinned:
                tree = block.initial_tree
                cost = initial_cost = self.model.tree_cost(tree)
            else:
                cost, tree = self._cheapest(block)
                initial_cost = self.model.tree_cost(block.initial_tree)
        except (KeyError, ValueError):
            if confidence == "observed":
                raise
            nan = float("nan")
            return OptimizedPlan(block, block.initial_tree, nan, nan, "none")
        return OptimizedPlan(block, tree, cost, initial_cost, confidence)

    def _cheapest(self, block: Block) -> tuple[float, PlanTree]:
        """Dynamic programming over the block's connected subsets."""
        best: dict[frozenset[str], tuple[float, PlanTree]] = {}
        for name in block.inputs:
            best[frozenset({name})] = (0.0, Leaf(name))

        ses = sorted(block.join_ses(), key=lambda se: (len(se), sorted(se.relations)))
        for se in ses:
            if len(se) == 1:
                continue
            candidates: list[tuple[float, PlanTree]] = []
            for split in block.graph.splits_for(se):
                left = best.get(split.left.relations)
                right = best.get(split.right.relations)
                if left is None or right is None:
                    continue
                cost = (
                    left[0]
                    + right[0]
                    + self.model.join_cost(split.left, split.right)
                )
                candidates.append(
                    (cost, JoinNode(left[1], right[1], split.key))
                )
            if not candidates:
                raise ValueError(f"no plan for {se!r} in block {block.name}")
            best[se.relations] = min(candidates, key=lambda c: c[0])

        full = block.join_se
        if len(full) == 1:
            return 0.0, Leaf(full.base_name)
        return best[full.relations]

    def optimize(
        self, confidence: dict[str, str] | None = None
    ) -> dict[str, OptimizedPlan]:
        """Every block's plan; ``confidence`` labels the blocks on a
        degraded rung, and every other block is ``"observed"``."""
        confidence = confidence or {}
        return {
            block.name: self.optimize_block(
                block, confidence.get(block.name, "observed")
            )
            for block in self.analysis.blocks
        }
