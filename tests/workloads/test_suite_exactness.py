"""Suite-wide exactness: every one of the 30 workflows, end to end.

Uses the greedy selector (near-instant on every instance) and tiny data so
the whole sweep stays fast; the guarantee checked is the paper's central
one -- a single instrumented run of the initial plan yields the exact
cardinality of every SE.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.engine.instrumentation import TapSet
from repro.estimation.estimator import CardinalityEstimator
from repro.workloads import suite


@pytest.mark.parametrize("case", suite(), ids=lambda c: f"wf{c.number:02d}")
def test_exact_estimates_across_suite(case):
    workflow = case.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    problem = build_problem(catalog, CostModel(workflow.catalog))
    selection = solve_greedy(problem)
    assert selection.is_valid

    sources = case.tables(scale=0.06, seed=17)
    taps = TapSet(selection.observed)
    run = BackendExecutor(analysis).run(sources, taps=taps)
    assert taps.missing() == []

    estimator = CardinalityEstimator(catalog, run.observations)
    have, total = estimator.coverage()
    assert have == total, estimator.missing()

    truth = ground_truth_cardinalities(analysis, sources)
    for se, actual in truth.items():
        assert estimator.cardinality(se) == pytest.approx(actual), (
            case.number,
            se,
        )
