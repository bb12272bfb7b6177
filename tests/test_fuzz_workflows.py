"""Randomized end-to-end fuzzing of the whole framework.

For dozens of seeded-random workflows (random join graphs, filters,
transforms, reject links, aggregations), the pipeline must uphold its core
guarantees:

1. block analysis produces a valid decomposition;
2. statistics identification is feasible and both solvers return valid
   selections;
3. after one instrumented run of the initial plan, the estimator recovers
   the exact cardinality of EVERY sub-expression (brute-force checked);
4. the optimizer's chosen plan never costs more than the initial plan
   under the learned (exact) cardinalities.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.engine.instrumentation import TapSet
from repro.estimation.estimator import CardinalityEstimator
from repro.estimation.optimizer import PlanOptimizer
from repro.workloads.randomgen import random_workflow

SEEDS = list(range(36))


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_end_to_end(seed):
    workflow, tables = random_workflow(seed)
    analysis = analyze(workflow)

    # 1. analysis invariants
    for block in analysis.blocks:
        universe = block.universe()
        assert len(universe) == len(set(universe))
        for se in block.join_ses():
            assert block.graph.is_connected(se.relations)

    # 2. identification feasible; both solvers valid
    catalog = generate_css(analysis)
    problem = build_problem(catalog, CostModel(workflow.catalog))
    solver = solve_ilp if seed % 2 == 0 else solve_greedy
    result = solver(problem)
    assert result.is_valid

    # 3. instrumented run -> exact estimates everywhere
    taps = TapSet(result.observed)
    run = BackendExecutor(analysis).run(tables, taps=taps)
    assert taps.missing() == []
    estimator = CardinalityEstimator(catalog, run.observations)
    have, total = estimator.coverage()
    assert have == total, estimator.missing()
    truth = ground_truth_cardinalities(analysis, tables)
    for se, actual in truth.items():
        assert estimator.cardinality(se) == pytest.approx(actual), (
            seed,
            se,
        )

    # 4. the optimizer only ever improves on the initial plan
    optimizer = PlanOptimizer(analysis, estimator.all_cardinalities())
    for name, plan in optimizer.optimize().items():
        assert plan.cost <= plan.initial_cost + 1e-9
