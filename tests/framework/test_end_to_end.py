"""End-to-end correctness: the paper's core guarantee.

After selecting a minimal statistics set, instrumenting the initial plan and
running it once, the estimator must produce the cardinality of EVERY SE in
ℰ *exactly* (exact histograms admit no estimation error, Section 3.1).
Verified against brute-force ground truth on a spread of suite workflows.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import GeneratorOptions, generate_css
from repro.core.ilp import solve_ilp
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.engine.instrumentation import TapSet
from repro.estimation.estimator import CardinalityEstimator
from repro.framework.pipeline import StatisticsPipeline
from repro.workloads import case

# a spread: linear, pinned-reject, star, chain, aggregation, boundary-UDF,
# cyclic, multi-target
SAMPLE = [1, 5, 7, 9, 11, 12, 17, 18, 20, 21, 22, 23, 25, 27, 29, 30]


@pytest.mark.parametrize("number", SAMPLE)
@pytest.mark.parametrize("solver", ["ilp", "greedy"])
def test_estimates_equal_ground_truth(number, solver):
    wfcase = case(number)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    problem = build_problem(catalog, CostModel(workflow.catalog))
    result = solve_ilp(problem) if solver == "ilp" else solve_greedy(problem)
    assert result.is_valid

    sources = wfcase.tables(scale=0.12 if number in (21, 29) else 0.2, seed=11)
    taps = TapSet(result.observed)
    run = BackendExecutor(analysis).run(sources, taps=taps)
    assert taps.missing() == []

    estimator = CardinalityEstimator(catalog, run.observations)
    have, total = estimator.coverage()
    assert have == total, f"uncovered: {estimator.catalog.required - set(estimator.values)}"

    truth = ground_truth_cardinalities(analysis, sources)
    for se, actual in truth.items():
        assert estimator.cardinality(se) == pytest.approx(actual), (
            f"wf{number}: estimate for {se!r} diverged"
        )


@pytest.mark.parametrize("number", [9, 11, 20])
def test_without_union_division_still_exact(number):
    wfcase = case(number)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis, GeneratorOptions(union_division=False))
    problem = build_problem(catalog, CostModel(workflow.catalog))
    result = solve_ilp(problem)
    sources = wfcase.tables(scale=0.2, seed=3)
    taps = TapSet(result.observed)
    run = BackendExecutor(analysis).run(sources, taps=taps)
    estimator = CardinalityEstimator(catalog, run.observations)
    truth = ground_truth_cardinalities(analysis, sources)
    for se, actual in truth.items():
        assert estimator.cardinality(se) == pytest.approx(actual)


def test_pipeline_report_improves_or_matches_initial_plan():
    wfcase = case(12)  # chain: fact -> accounts -> customers
    pipeline = StatisticsPipeline(wfcase.build())
    report = pipeline.run_once(wfcase.tables(scale=0.3, seed=5))
    assert report.total_estimated_cost <= report.total_initial_cost
    assert report.selection.is_valid
    # the report exposes per-step timings
    assert set(report.timings) == {
        "enumerate",
        "selection",
        "execution",
        "optimization",
    }


def test_optimized_plan_cost_verified_by_execution():
    """The optimizer's chosen tree, when actually executed, produces
    intermediate sizes matching its own estimates."""
    wfcase = case(11)
    workflow = wfcase.build()
    pipeline = StatisticsPipeline(workflow)
    sources = wfcase.tables(scale=0.3, seed=5)
    report = pipeline.run_once(sources)
    rerun = BackendExecutor(report.analysis).run(sources, trees=report.chosen_trees)
    for block in report.analysis.blocks:
        plan = report.plans[block.name]
        from repro.algebra.plans import internal_ses

        for se in internal_ses(plan.tree):
            assert rerun.se_sizes[se] == pytest.approx(
                report.estimator.cardinality(se)
            )
