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
    confidence: str = "observed"

    @property
    def improved(self) -> bool:
        return self.cost < self.initial_cost


class PlanOptimizer:
    """DP join-order optimization per optimizable block."""

    def __init__(
        self,
        analysis: BlockAnalysis,
        cardinalities: dict[AnySE, float],
        metric: str = "cout",
    ):
        self.analysis = analysis
        self.model = PlanCostModel(cardinalities, metric=metric)

    def optimize_block(self, block: Block) -> OptimizedPlan:
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
            tree: PlanTree = Leaf(full.base_name)
            cost = 0.0
        else:
            cost, tree = best[full.relations]
        return OptimizedPlan(
            block=block,
            tree=tree,
            cost=cost,
            initial_cost=self.model.tree_cost(block.initial_tree),
        )

    def optimize_or_fallback(
        self,
        block: Block,
        fallback_tree: PlanTree | None = None,
        confidence: str = "observed",
    ) -> OptimizedPlan:
        """Like per-block optimization, but degradation-safe.

        When the cardinalities cannot cost the block (statistics lost to a
        failed run and no fallback estimates either), the block keeps
        ``fallback_tree`` (default: its initial plan) with NaN costs and
        confidence ``"none"`` instead of raising.
        """
        tree = fallback_tree or block.initial_tree
        try:
            if block.pinned:
                cost = self.model.tree_cost(block.initial_tree)
                plan = OptimizedPlan(
                    block=block,
                    tree=block.initial_tree,
                    cost=cost,
                    initial_cost=cost,
                )
            else:
                plan = self.optimize_block(block)
            plan.confidence = confidence
            return plan
        except (KeyError, ValueError):
            return OptimizedPlan(
                block=block,
                tree=tree,
                cost=float("nan"),
                initial_cost=float("nan"),
                confidence="none",
            )

    def optimize(self) -> dict[str, OptimizedPlan]:
        """Best plan per block; pinned blocks keep their initial plan."""
        plans: dict[str, OptimizedPlan] = {}
        for block in self.analysis.blocks:
            if block.pinned:
                cost = self.model.tree_cost(block.initial_tree)
                plans[block.name] = OptimizedPlan(
                    block=block,
                    tree=block.initial_tree,
                    cost=cost,
                    initial_cost=cost,
                )
            else:
                plans[block.name] = self.optimize_block(block)
        return plans

