"""Additional tests for the §6.1 constrained planner edge cases."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import GeneratorOptions, generate_css
from repro.core.ilp import solve_ilp
from repro.core.resource import ConstrainedPlanner, plan_constrained
from repro.core.selection import build_problem
from repro.workloads import case


@pytest.fixture(scope="module")
def star():
    wfcase = case(13)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis, GeneratorOptions(fk_rules=False))
    cost_model = CostModel(workflow.catalog)
    optimal = solve_ilp(build_problem(catalog, cost_model))
    return analysis, catalog, cost_model, optimal


class TestConstrainedEdgeCases:
    def test_budget_exactly_optimal(self, star):
        analysis, catalog, cost_model, optimal = star
        schedule = plan_constrained(
            analysis, catalog, cost_model, budget=optimal.total_cost
        )
        assert schedule.executions == 1

    def test_budget_one_below_optimal_splits(self, star):
        analysis, catalog, cost_model, optimal = star
        schedule = plan_constrained(
            analysis, catalog, cost_model, budget=optimal.total_cost - 1
        )
        assert schedule.executions >= 2
        assert schedule.peak_memory <= optimal.total_cost - 1

    def test_greedy_solver_variant(self, star):
        analysis, catalog, cost_model, optimal = star
        schedule = ConstrainedPlanner(
            analysis, catalog, cost_model,
            budget=optimal.total_cost * 2, solver="greedy",
        ).plan()
        assert schedule.executions >= 1
        assert set(catalog.required) <= schedule.covered

    def test_steps_have_distinct_observations(self, star):
        """No statistic is paid for twice across the schedule."""
        analysis, catalog, cost_model, optimal = star
        schedule = plan_constrained(
            analysis, catalog, cost_model,
            budget=max(optimal.total_cost / 6, 16),
        )
        seen = set()
        for step in schedule.steps:
            for stat in step.observe:
                assert stat not in seen, stat
                seen.add(stat)

    def test_step_memory_accounts_observations(self, star):
        analysis, catalog, cost_model, optimal = star
        schedule = plan_constrained(
            analysis, catalog, cost_model,
            budget=max(optimal.total_cost / 4, 16),
        )
        for step in schedule.steps:
            total = sum(cost_model.cost(s) for s in step.observe)
            assert step.memory == pytest.approx(total)

    def test_trees_cover_block_inputs(self, star):
        from repro.algebra.plans import leaves

        analysis, catalog, cost_model, optimal = star
        schedule = plan_constrained(
            analysis, catalog, cost_model,
            budget=max(optimal.total_cost / 4, 16),
        )
        for step in schedule.steps:
            for block in analysis.blocks:
                tree = step.trees[block.name]
                assert {leaf.name for leaf in leaves(tree)} == set(block.inputs)


#: wf21 (774 statistics, 5,036 CSSs) under a budget below its optimum: the
#: schedule, checked against a closure the planner does not compute
WF21_BELOW_OPTIMUM = """
import json
from dataclasses import replace
from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.resource import plan_constrained
from repro.core.selection import build_problem
from repro.workloads import case

workflow = case(21).build()
analysis = analyze(workflow)
catalog = generate_css(analysis)
cost_model = CostModel(workflow.catalog)
schedule = plan_constrained(analysis, catalog, cost_model, budget=100_000)
problem = build_problem(catalog, cost_model)
anything = replace(problem, observable=frozenset(range(problem.n)))
observed = {problem.index[s] for step in schedule.steps for s in step.observe}
print(json.dumps({
    "uncovered": len(problem.required - anything.closure(observed)),
    "steps": [[step.memory, sum(cost_model.cost(s) for s in step.observe)]
              for step in schedule.steps],
}))
"""


def test_wf21_below_its_optimum_returns_a_covering_schedule():
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-c", WF21_BELOW_OPTIMUM],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout)
    assert result["uncovered"] == 0
    assert len(result["steps"]) > 1  # the optimum (1.5 M units) does not fit
    for memory, charged in result["steps"]:
        assert memory == pytest.approx(charged)
        assert memory <= 100_000
