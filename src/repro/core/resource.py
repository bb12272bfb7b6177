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

from dataclasses import dataclass, field, replace

from repro.algebra.blocks import BlockAnalysis
from repro.algebra.expressions import RejectJoinSE, RejectSE, SubExpression
from repro.algebra.index import SEIndex
from repro.algebra.plans import PlanTree, tree_ses, subtrees, JoinNode
from repro.baselines.payg import CoverageScheduler
from repro.core import select_statistics
from repro.core.costs import INFINITE, CostModel
from repro.core.css import CssCatalog
from repro.core.greedy import _collect_plan, _label_costs
from repro.core.selection import SelectionProblem, build_problem
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
        # statistic i of every round's problem is statistic i of this one
        problem = build_problem(self.catalog, self.cost_model)
        # what earlier executions observed is known whatever this round's
        # plan can observe: the closure seeds every observed statistic
        known_from = replace(problem, observable=frozenset(range(problem.n)))
        observed: set[int] = set()
        computable: set[int] = set()
        steps: list[ExecutionStep] = []
        while problem.required - computable:
            uncovered = [problem.stat(i) for i in sorted(problem.required - computable)]
            trees = self._round_trees(uncovered, use_initial=not steps)
            observe, memory = self._round_observations(
                self._round_problem(problem, trees), known_from, observed
            )
            if not observe:
                raise ValueError(
                    f"budget {self.budget} cannot make progress: even a "
                    "single counter does not fit"
                )
            steps.append(
                ExecutionStep(trees, [problem.stat(i) for i in observe], memory)
            )
            observed.update(observe)
            computable = known_from.closure(observed)
        return ConstrainedSchedule(
            steps=steps,
            budget=self.budget,
            covered={problem.stat(i) for i in computable},
        )

    def _round_problem(
        self, problem: SelectionProblem, trees: dict[str, PlanTree]
    ) -> SelectionProblem:
        """``problem`` with this round's observable statistics and costs."""
        plan_ses = {name: set(tree_ses(tree)) for name, tree in trees.items()}
        observable = frozenset(
            i for i, stat in enumerate(problem.stats)
            if self._observable_in(stat, trees, plan_ses)
        )
        costs = [
            self.cost_model.cost(stat, observable=i in observable)
            for i, stat in enumerate(problem.stats)
        ]
        return replace(problem, observable=observable, costs=costs)

    def _round_trees(
        self, uncovered: list[Statistic], use_initial: bool
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

    def _observable_in(
        self,
        stat: Statistic,
        trees: dict[str, PlanTree],
        plan_ses: dict[str, set[SubExpression]],
    ) -> bool:
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
                if se not in plan_ses[block.name]:
                    return False
            # stage SEs are observable under any tree
        return set(stat.attrs) <= set(self.index.se_attrs(se))

    def _round_observations(
        self,
        problem: SelectionProblem,
        known_from: SelectionProblem,
        observed: set[int],
    ) -> tuple[list[int], float]:
        """Greedy: trivial counters first, then cheap unlocking statistics.

        ``problem`` is this round's: only what its plan can observe has a
        finite cost.  The cheapest way to unlock a statistic is the §5.3
        greedy's label pass over the CSS graph (polynomial, cycle-safe);
        the statistics it collects are charged at their summed cost."""
        observe: list[int] = []
        spent = 0.0
        computable = known_from.closure(observed)

        # 1. trivial CSSs of uncovered statistics observable under this plan
        for i in sorted(problem.required - computable):
            if spent + problem.costs[i] <= self.budget:
                observe.append(i)
                spent += problem.costs[i]

        # 2. spend leftover budget on statistics plans that unlock coverage
        while True:
            known = known_from.closure(observed | set(observe))
            labels, choice = _label_costs(problem, known)
            best: tuple[float, set[int]] | None = None
            for i in sorted(problem.required - known):
                if labels[i] == INFINITE:
                    continue
                plan: set[int] = set()
                _collect_plan(problem, i, known, choice, plan, set())
                cost = problem.total_cost(plan)
                if spent + cost <= self.budget and (best is None or cost < best[0]):
                    best = (cost, plan)
            if best is None:
                return observe, spent
            observe.extend(sorted(best[1]))
            spent += best[0]


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
