"""Constrained scheduling and estimation across multi-block workflows."""

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import GeneratorOptions, generate_css
from repro.core.ilp import solve_ilp
from repro.core.resource import plan_constrained
from repro.core.selection import build_problem
from repro.core.statistics import StatisticsStore
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.engine.instrumentation import TapSet
from repro.estimation.estimator import CardinalityEstimator
from repro.workloads import case


@pytest.fixture(scope="module")
def multiblock():
    """wf23: a pinned reject join feeding a 3-way block."""
    wfcase = case(23)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis, GeneratorOptions(fk_rules=False))
    cost_model = CostModel(workflow.catalog)
    return wfcase, analysis, catalog, cost_model


class TestMultiBlockConstrained:
    def test_pinned_block_never_reordered(self, multiblock):
        wfcase, analysis, catalog, cost_model = multiblock
        optimal = solve_ilp(build_problem(catalog, cost_model))
        schedule = plan_constrained(
            analysis, catalog, cost_model,
            budget=max(optimal.total_cost / 5, 12),
        )
        pinned = [b for b in analysis.blocks if b.pinned][0]
        for step in schedule.steps:
            assert str(step.trees[pinned.name]) == str(pinned.initial_tree)

    def test_schedule_covers_both_blocks(self, multiblock):
        wfcase, analysis, catalog, cost_model = multiblock
        optimal = solve_ilp(build_problem(catalog, cost_model))
        schedule = plan_constrained(
            analysis, catalog, cost_model,
            budget=max(optimal.total_cost / 5, 12),
        )
        sources = wfcase.tables(scale=0.2, seed=13)
        merged = StatisticsStore()
        for step in schedule.steps:
            taps = TapSet(step.observe)
            run = BackendExecutor(analysis).run(sources, trees=step.trees, taps=taps)
            assert taps.missing() == []
            merged.merge(run.observations)
        estimator = CardinalityEstimator(catalog, merged)
        truth = ground_truth_cardinalities(analysis, sources)
        for se, actual in truth.items():
            assert estimator.cardinality(se) == pytest.approx(actual)


class TestSerializeBlackBoxRegistry:
    def test_aggregate_udf_round_trip_with_registry(self):
        """A blocking UDF resolves by name from the registry and produces
        the same output after a serialization round-trip."""
        from repro.algebra.serialize import (
            FunctionRegistry,
            workflow_from_json,
            workflow_to_json,
        )
        from repro.workloads.tpcdi import _dedupe_rows

        wfcase = case(5)  # linear flow with the dedupe blocking UDF
        original = wfcase.build()
        registry = FunctionRegistry(
            predicates={"even": lambda v: v % 2 == 0},
            aggregate_udfs={"dedupe": _dedupe_rows},
        )
        clone = workflow_from_json(workflow_to_json(original), registry)
        sources = wfcase.tables(scale=0.3, seed=3)
        run1 = BackendExecutor(analyze(original)).run(sources)
        run2 = BackendExecutor(analyze(clone)).run(sources)
        t1 = run1.targets["hr"]
        t2 = run2.targets["hr"]
        assert sorted(t1.rows(sorted(t1.attrs))) == sorted(
            t2.rows(sorted(t2.attrs))
        )
