"""Exploration/exploitation baseline (XPLUS-style, [8]).

Section 2: *"exploring the cardinalities of all the sub-expressions might
be an overkill and to strike a balance, XPLUS introduces experts which
control the trade-off between exploration of the search space (to determine
cardinalities of different sub-expressions) and exploitation of
cardinalities of the known sub-expressions."*

This baseline learns only from trivial observations (plan-point
cardinalities, like pay-as-you-go) but chooses each run's plan adaptively:

- unknown SE sizes are estimated with the independence assumption over the
  already-known base cardinalities;
- a run *explores* when some plan still reveals unknown SEs at an estimated
  cost within ``alpha`` times the best-known plan's cost (bounded regret);
- otherwise it *exploits* the estimated-cheapest plan.

Compared in the benches against this paper's approach, which needs exactly
one instrumented run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.blocks import Block, BlockAnalysis
from repro.algebra.expressions import AnySE, SubExpression
from repro.algebra.plans import PlanTree, internal_ses
from repro.engine.backend import BackendExecutor, WorkflowRun
from repro.engine.table import Table

#: cap on enumerated candidate plans per block (8-way joins explode)
MAX_CANDIDATE_TREES = 512


@dataclass
class ExplorationStep:
    """One run's decision and outcome."""

    index: int
    trees: dict[str, PlanTree]
    explored: bool
    executed_cost: float
    newly_covered: int


@dataclass
class ExploreExploitSession:
    """Adaptive plan selection from passively observed cardinalities."""

    analysis: BlockAnalysis
    alpha: float = 1.5
    known: dict[AnySE, float] = field(default_factory=dict)
    history: list[ExplorationStep] = field(default_factory=list)
    _candidates: dict[str, list[PlanTree]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for block in self.analysis.blocks:
            if block.pinned or block.n_way <= 2:
                self._candidates[block.name] = [block.initial_tree]
            else:
                self._candidates[block.name] = block.graph.enumerate_trees(
                    limit=MAX_CANDIDATE_TREES
                )

    # ------------------------------------------------------------------
    # estimation from what is known so far
    # ------------------------------------------------------------------
    def estimate(self, block: Block, se: SubExpression) -> float:
        if se in self.known:
            return self.known[se]
        if len(se) == 1:
            return self.known.get(se, 1000.0)
        # independence over known (or default) base sizes
        size = 1.0
        for name in se.relations:
            size *= self.estimate(block, SubExpression.of(name))
        catalog = self.analysis.workflow.catalog
        for edge in block.graph.edges:
            if edge.u in se.relations and edge.v in se.relations:
                try:
                    size /= float(catalog.domain_size(edge.attr))
                except Exception:
                    size /= 100.0
        return max(size, 1.0)

    def plan_cost(self, block: Block, tree: PlanTree) -> float:
        return sum(self.estimate(block, se) for se in internal_ses(tree))

    def unknown_ses(self, tree: PlanTree) -> int:
        return sum(1 for se in internal_ses(tree) if se not in self.known)

    # ------------------------------------------------------------------
    def choose_trees(self) -> tuple[dict[str, PlanTree], bool]:
        """Pick this run's plans; returns (trees, explored?)."""
        trees: dict[str, PlanTree] = {}
        explored = False
        for block in self.analysis.blocks:
            candidates = self._candidates[block.name]
            best_cost = min(self.plan_cost(block, t) for t in candidates)
            budget = self.alpha * best_cost + 1.0
            explorers = [
                (self.plan_cost(block, t), -self.unknown_ses(t), i, t)
                for i, t in enumerate(candidates)
                if self.unknown_ses(t) > 0
                and self.plan_cost(block, t) <= budget
            ]
            if explorers:
                # most unknowns revealed, cheapest first among ties
                _cost, _neg, _i, tree = min(
                    explorers, key=lambda e: (e[1], e[0], e[2])
                )
                trees[block.name] = tree
                explored = True
            else:
                _cost, _i, tree = min(
                    (self.plan_cost(block, t), i, t)
                    for i, t in enumerate(candidates)
                )
                trees[block.name] = tree
        return trees, explored

    def run(self, sources: dict[str, Table]) -> ExplorationStep:
        trees, explored = self.choose_trees()
        run: WorkflowRun = BackendExecutor(self.analysis).run(
            sources, trees=trees
        )
        before = len(self.known)
        self.known.update(run.se_sizes)
        executed_cost = 0.0
        for block in self.analysis.blocks:
            tree = trees.get(block.name, block.initial_tree)
            executed_cost += sum(
                run.se_sizes.get(se, 0) for se in internal_ses(tree)
            )
        step = ExplorationStep(
            index=len(self.history),
            trees=trees,
            explored=explored,
            executed_cost=executed_cost,
            newly_covered=len(self.known) - before,
        )
        self.history.append(step)
        return step

    # ------------------------------------------------------------------
    @property
    def fully_explored(self) -> bool:
        for block in self.analysis.blocks:
            for se in block.join_ses():
                if len(se) > 1 and se not in self.known:
                    return False
        return True

    def cumulative_cost(self) -> float:
        return sum(step.executed_cost for step in self.history)
