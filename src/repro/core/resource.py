"""Optimization under resource constraints (Section 6.1).

When the memory budget cannot hold the optimal statistics set, the plan can
be re-ordered across *multiple* executions so that statistics unobservable
in one plan become observable in another.  Pure pay-as-you-go (trivial
CSSs only) is one extreme; the paper's refinement mixes trivial CSSs with
cheap histograms, "depending on the available memory, thus reducing the
number of plan re-orderings".

:class:`ConstrainedPlanner` implements that mix:

1. if the optimal selection already fits the budget, one execution of the
   initial plan suffices;
2. otherwise it builds execution rounds greedily: each round picks plan
   re-orderings targeting the still-uncovered SEs (via the coverage
   scheduler), observes their trivial counters, and spends any remaining
   budget on the cheapest statistics plans that unlock more coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.blocks import BlockAnalysis
from repro.algebra.expressions import RejectJoinSE, RejectSE, SubExpression
from repro.algebra.index import SEIndex
from repro.algebra.plans import PlanTree, tree_ses, subtrees, JoinNode
from repro.baselines.payg import CoverageScheduler
from repro.core import select_statistics
from repro.core.costs import INFINITE, CostModel
from repro.core.css import CssCatalog
from repro.core.statistics import Statistic


@dataclass
class ExecutionStep:
    """One execution: the plan trees to run and the statistics to observe."""

    trees: dict[str, PlanTree]
    observe: list[Statistic]
    memory: float


@dataclass
class ConstrainedSchedule:
    """A multi-execution observation schedule fitting a memory budget."""

    steps: list[ExecutionStep]
    budget: float
    covered: set[Statistic] = field(default_factory=set)

    @property
    def executions(self) -> int:
        return len(self.steps)

    @property
    def peak_memory(self) -> float:
        return max((s.memory for s in self.steps), default=0.0)


class ConstrainedPlanner:
    """Builds a :class:`ConstrainedSchedule` for a memory budget.

    ``free`` (zero-cost statistics, Section 6.2) and ``time_limit`` apply
    to the single-execution optimum only; the multi-execution fallback
    costs every statistic as if it had to be observed.
    """

    def __init__(
        self,
        analysis: BlockAnalysis,
        catalog: CssCatalog,
        cost_model: CostModel,
        budget: float,
        solver: str = "ilp",
        free: set[Statistic] | None = None,
        time_limit: float | None = None,
    ):
        self.analysis = analysis
        self.catalog = catalog
        self.cost_model = cost_model
        self.budget = budget
        self.solver = solver
        self.free = free
        self.time_limit = time_limit
        self.index = SEIndex(analysis)

    # ------------------------------------------------------------------
    def plan(self) -> ConstrainedSchedule:
        optimal = select_statistics(
            self.catalog,
            self.cost_model,
            free=self.free,
            solver=self.solver,
            time_limit=self.time_limit,
        )
        if optimal.total_cost <= self.budget:
            trees = {b.name: b.initial_tree for b in self.analysis.blocks}
            free = self.free or set()
            step = ExecutionStep(
                trees=trees,
                observe=[s for s in optimal.observed if s not in free],
                memory=optimal.total_cost,
            )
            return ConstrainedSchedule(
                steps=[step],
                budget=self.budget,
                covered=set(self.catalog.required),
            )
        return self._multi_run()

    # ------------------------------------------------------------------
    def _multi_run(self) -> ConstrainedSchedule:
        computable: set[Statistic] = set()
        steps: list[ExecutionStep] = []
        first_round = True
        while True:
            uncovered = self.catalog.required - computable
            if not uncovered:
                break
            trees = self._round_trees(uncovered, use_initial=first_round)
            first_round = False
            observe, memory = self._round_observations(
                trees, uncovered, computable
            )
            if not observe:
                raise ValueError(
                    f"budget {self.budget} cannot make progress: even a "
                    "single counter does not fit"
                )
            steps.append(ExecutionStep(trees, observe, memory))
            computable = self.catalog.closure(
                computable | set(observe)
            )
            if len(steps) > 4 * len(self.catalog.required) + 8:
                raise RuntimeError(
                    "constrained schedule failed to converge"
                )  # pragma: no cover - safety net
        return ConstrainedSchedule(
            steps=steps, budget=self.budget, covered=computable
        )

    def _round_trees(
        self, uncovered: set[Statistic], use_initial: bool
    ) -> dict[str, PlanTree]:
        """Plans for this round: target uncovered SEs block by block."""
        trees: dict[str, PlanTree] = {}
        for block in self.analysis.blocks:
            if use_initial or block.pinned:
                trees[block.name] = block.initial_tree
                continue
            targets = [
                stat.se
                for stat in uncovered
                if isinstance(stat.se, SubExpression)
                and 1 < len(stat.se) < block.n_way
                and stat.se.relations <= set(block.inputs)
            ]
            if not targets:
                trees[block.name] = block.initial_tree
                continue
            scheduler = CoverageScheduler(block, targets)
            family = scheduler._laminar_family(set(targets))
            trees[block.name] = scheduler._tree_with(family)
        return trees

    def _observable_in(self, stat: Statistic, trees: dict[str, PlanTree]) -> bool:
        se = stat.se
        if isinstance(se, RejectJoinSE):
            return False
        if isinstance(se, RejectSE):
            block = self.index.block_of(se)
            tree = trees[block.name]
            want_key = (se.key,) if isinstance(se.key, str) else tuple(se.key)
            found = any(
                isinstance(node, JoinNode)
                and {node.left.se, node.right.se} == {se.source, se.against}
                and tuple(node.key) == want_key
                for node in subtrees(tree)
            )
            if not found:
                return False
        else:
            block = self.index.block_of(se)
            if len(se) > 1:
                if se not in tree_ses(trees[block.name]):
                    return False
            # stage SEs are observable under any tree
        return set(stat.attrs) <= set(self.index.se_attrs(se))

    def _round_observations(
        self,
        trees: dict[str, PlanTree],
        uncovered: set[Statistic],
        computable: set[Statistic],
    ) -> tuple[list[Statistic], float]:
        """Greedy: trivial counters first, then cheap unlocking statistics."""
        observe: list[Statistic] = []
        spent = 0.0

        # 1. trivial CSSs of uncovered SEs observable under this round's plan
        for stat in sorted(uncovered, key=lambda s: s.sort_key()):
            cost = self.cost_model.cost(stat)
            if not self._observable_in(stat, trees):
                continue
            if spent + cost <= self.budget:
                observe.append(stat)
                spent += cost

        # 2. spend leftover budget on statistics plans that unlock coverage
        known = self.catalog.closure(computable | set(observe))
        improved = True
        while improved:
            improved = False
            remaining = sorted(
                self.catalog.required - known, key=lambda s: s.sort_key()
            )
            best: tuple[float, list[Statistic]] | None = None
            for stat in remaining:
                plan = self._cheapest_stat_plan(stat, known, trees, set())
                if plan is None:
                    continue
                cost, stats = plan
                if spent + cost > self.budget:
                    continue
                if best is None or cost < best[0]:
                    best = (cost, stats)
            if best is not None:
                cost, stats = best
                observe.extend(stats)
                spent += cost
                known = self.catalog.closure(computable | set(observe))
                improved = True
        return observe, spent

    def _cheapest_stat_plan(
        self,
        stat: Statistic,
        known: set[Statistic],
        trees: dict[str, PlanTree],
        visiting: set[Statistic],
    ) -> tuple[float, list[Statistic]] | None:
        if stat in known:
            return 0.0, []
        if stat in visiting:
            return None
        visiting = visiting | {stat}
        best: tuple[float, list[Statistic]] | None = None
        if self._observable_in(stat, trees):
            cost = self.cost_model.cost(stat)
            if cost < INFINITE:
                best = (cost, [stat])
        for css in self.catalog.css_for(stat):
            total = 0.0
            stats: list[Statistic] = []
            feasible = True
            acquired: set[Statistic] = set()
            for member in css.inputs:
                sub = self._cheapest_stat_plan(
                    member, known | acquired, trees, visiting
                )
                if sub is None:
                    feasible = False
                    break
                total += sub[0]
                stats.extend(sub[1])
                acquired.update(sub[1])
                acquired.add(member)
            if feasible and (best is None or total < best[0]):
                best = (total, stats)
        return best


def plan_constrained(
    analysis: BlockAnalysis,
    catalog: CssCatalog,
    cost_model: CostModel,
    budget: float,
    solver: str = "ilp",
    free: set[Statistic] | None = None,
    time_limit: float | None = None,
) -> ConstrainedSchedule:
    """Convenience wrapper over :class:`ConstrainedPlanner`."""
    return ConstrainedPlanner(
        analysis, catalog, cost_model, budget, solver, free, time_limit
    ).plan()
