"""Physical implementation selection -- the [21] extension of Step 7.

The paper's Step 7 picks the join *order*; Tziovara, Vassiliadis & Simitsis
("Deciding the physical implementation of ETL workflows", cited as [21])
extend the decision to the physical operator for each logical join.  With
the learned cardinalities in hand that choice is straightforward cost
arithmetic, so the library includes it: per join node, pick among

- **hash join**: build the smaller side, probe the larger;
- **sort-merge join**: sort whichever inputs are not already sorted on the
  key, then merge (sorted-ness propagates: the merge output is sorted on
  the key, which later merge joins on the same key exploit);
- **nested-loop join**: quadratic fallback, only wins on tiny inputs.

Cost formulas are the textbook ones in abstract row units; the point here
is not IO modelling but that the framework's statistics make *every*
physical alternative costable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.algebra.blocks import BlockAnalysis
from repro.algebra.expressions import AnySE
from repro.algebra.plans import Leaf, PlanTree


class JoinAlgorithm(Enum):
    """The physical join implementations the planner chooses among."""

    HASH = "hash"
    SORT_MERGE = "sort-merge"
    NESTED_LOOP = "nested-loop"


@dataclass(frozen=True)
class PhysicalJoin:
    """One join node's physical decision."""

    se: AnySE
    algorithm: JoinAlgorithm
    cost: float
    output_sorted_on: tuple[str, ...]


@dataclass
class PhysicalPlan:
    """A join tree annotated with physical operator choices."""

    tree: PlanTree
    joins: list[PhysicalJoin] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return sum(j.cost for j in self.joins)

    def algorithm_for(self, se: AnySE) -> JoinAlgorithm:
        for join in self.joins:
            if join.se == se:
                return join.algorithm
        raise KeyError(f"no physical decision for {se!r}")

    def describe(self) -> str:
        lines = [f"physical plan cost = {self.total_cost:g}"]
        for join in self.joins:
            lines.append(
                f"  {join.se!r}: {join.algorithm.value} (cost {join.cost:g})"
            )
        return "\n".join(lines)


@dataclass
class PhysicalCostModel:
    """Abstract per-row costs of the three join implementations."""

    cardinalities: dict[AnySE, float]
    hash_build_factor: float = 1.5
    sort_factor: float = 1.0  # multiplies n*log2(n)
    merge_factor: float = 1.0
    nested_factor: float = 0.25  # per inner-pair probe

    def size(self, se: AnySE) -> float:
        return float(self.cardinalities[se])

    def hash_cost(self, left: float, right: float, out: float) -> float:
        build, probe = sorted((left, right))
        return self.hash_build_factor * build + probe + out

    def sort_cost(self, n: float) -> float:
        if n <= 1:
            return 0.0
        return self.sort_factor * n * math.log2(max(n, 2.0))

    def merge_cost(self, left: float, right: float, out: float) -> float:
        return self.merge_factor * (left + right) + out

    def nested_cost(self, left: float, right: float, out: float) -> float:
        return self.nested_factor * left * right + out


class PhysicalPlanner:
    """Bottom-up physical operator selection with sort-order propagation."""

    def __init__(self, model: PhysicalCostModel):
        self.model = model

    def plan(self, tree: PlanTree) -> PhysicalPlan:
        joins: list[PhysicalJoin] = []
        self._visit(tree, joins)
        return PhysicalPlan(tree=tree, joins=joins)

    def _visit(self, node: PlanTree, joins: list[PhysicalJoin]) -> tuple[str, ...]:
        """Returns the key the node's output is sorted on ('' = unsorted)."""
        if isinstance(node, Leaf):
            return ()  # base inputs arrive unsorted
        left_sorted = self._visit(node.left, joins)
        right_sorted = self._visit(node.right, joins)
        left_n = self.model.size(node.left.se)
        right_n = self.model.size(node.right.se)
        out_n = self.model.size(node.se)
        key = tuple(node.key)

        hash_cost = self.model.hash_cost(left_n, right_n, out_n)
        sort_cost = self.model.merge_cost(left_n, right_n, out_n)
        if left_sorted != key:
            sort_cost += self.model.sort_cost(left_n)
        if right_sorted != key:
            sort_cost += self.model.sort_cost(right_n)
        nested_cost = self.model.nested_cost(left_n, right_n, out_n)

        best = min(
            (hash_cost, JoinAlgorithm.HASH),
            (sort_cost, JoinAlgorithm.SORT_MERGE),
            (nested_cost, JoinAlgorithm.NESTED_LOOP),
            key=lambda pair: pair[0],
        )
        joins.append(
            PhysicalJoin(
                se=node.se,
                algorithm=best[1],
                cost=best[0],
                output_sorted_on=key if best[1] is JoinAlgorithm.SORT_MERGE else (),
            )
        )
        return key if best[1] is JoinAlgorithm.SORT_MERGE else ()


def physical_plans(
    analysis: BlockAnalysis,
    cardinalities: dict[AnySE, float],
    trees: dict[str, PlanTree] | None = None,
) -> dict[str, PhysicalPlan]:
    """Physical decisions for every block's (chosen or initial) tree."""
    trees = trees or {}
    planner = PhysicalPlanner(PhysicalCostModel(cardinalities))
    out: dict[str, PhysicalPlan] = {}
    for block in analysis.blocks:
        tree = trees.get(block.name, block.initial_tree)
        out[block.name] = planner.plan(tree)
    return out
