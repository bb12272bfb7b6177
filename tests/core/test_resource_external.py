"""Tests for Section 6: resource-constrained schedules and source stats."""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.core.costs import CostModel
from repro.core.external import harvest_source_statistics
from repro.core.generator import generate_css
from repro.core.ilp import solve_ilp
from repro.core.resource import plan_constrained
from repro.core.selection import build_problem
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.engine.instrumentation import TapSet
from repro.estimation.estimator import CardinalityEstimator
from repro.framework.pipeline import StatisticsPipeline
from repro.workloads import case

SE = SubExpression.of


@pytest.fixture(scope="module")
def star_setup():
    wfcase = case(11)  # 4-way star with a filtered date dimension
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    cost_model = CostModel(workflow.catalog)
    return wfcase, workflow, analysis, catalog, cost_model


class TestConstrainedPlanner:
    def test_large_budget_single_execution(self, star_setup):
        _case, workflow, analysis, catalog, cost_model = star_setup
        optimal = solve_ilp(build_problem(catalog, cost_model))
        schedule = plan_constrained(
            analysis, catalog, cost_model, budget=optimal.total_cost + 1
        )
        assert schedule.executions == 1
        assert schedule.peak_memory <= schedule.budget

    def test_small_budget_multiple_executions(self, star_setup):
        _case, workflow, analysis, catalog, cost_model = star_setup
        optimal = solve_ilp(build_problem(catalog, cost_model))
        tight = max(optimal.total_cost / 8, 16)
        schedule = plan_constrained(
            analysis, catalog, cost_model, budget=tight
        )
        assert schedule.executions > 1
        assert schedule.peak_memory <= tight
        assert set(catalog.required) <= schedule.covered

    def test_budget_monotonicity(self, star_setup):
        """More memory never needs more executions."""
        _case, workflow, analysis, catalog, cost_model = star_setup
        optimal = solve_ilp(build_problem(catalog, cost_model))
        budgets = [16, optimal.total_cost / 2, optimal.total_cost + 1]
        runs = [
            plan_constrained(analysis, catalog, cost_model, b).executions
            for b in budgets
        ]
        assert runs == sorted(runs, reverse=True)

    def test_schedule_is_executable_and_sufficient(self, star_setup):
        """Actually run every step of a constrained schedule and verify the
        union of observations lets the estimator cover everything."""
        wfcase, workflow, analysis, catalog, cost_model = star_setup
        optimal = solve_ilp(build_problem(catalog, cost_model))
        schedule = plan_constrained(
            analysis, catalog, cost_model, budget=max(optimal.total_cost / 4, 16)
        )
        sources = wfcase.tables(scale=0.2, seed=9)
        from repro.core.statistics import StatisticsStore

        merged = StatisticsStore()
        for step in schedule.steps:
            taps = TapSet(step.observe)
            run = BackendExecutor(analysis).run(sources, trees=step.trees, taps=taps)
            assert taps.missing() == []
            merged.merge(run.observations)
        estimator = CardinalityEstimator(catalog, merged)
        have, total = estimator.coverage()
        assert have == total
        truth = ground_truth_cardinalities(analysis, sources)
        for se, actual in truth.items():
            assert estimator.cardinality(se) == pytest.approx(actual)

    def test_impossible_budget_rejected(self, star_setup):
        _case, workflow, analysis, catalog, cost_model = star_setup
        with pytest.raises(ValueError, match="cannot make progress"):
            plan_constrained(analysis, catalog, cost_model, budget=0.0)


class TestExternalStatistics:
    def test_free_statistics_always_picked(self, star_setup):
        wfcase, workflow, analysis, catalog, cost_model = star_setup
        sources = wfcase.tables(scale=0.2, seed=9)
        free, values = harvest_source_statistics(sources, relations=["Trade"])
        baseline = solve_ilp(build_problem(catalog, cost_model))
        with_free = solve_ilp(
            build_problem(catalog, cost_model, free_statistics=free)
        )
        assert with_free.total_cost <= baseline.total_cost

    def test_harvested_values_match_tables(self):
        wfcase = case(9)
        sources = wfcase.tables(scale=0.2, seed=1)
        free, values = harvest_source_statistics(sources)
        for name, table in sources.items():
            card = Statistic.card(SE(name))
            assert card in free
            assert values.get(card) == table.num_rows
            for attr in table.attrs:
                hist = values.get(Statistic.hist(SE(name), attr))
                assert hist.total() == table.num_rows

    def test_greedy_and_ilp_exploit_free_statistics_identically(
        self, star_setup
    ):
        """Zero-cost statistics shift both solvers the same way.

        The catalog's reuse guarantee rests on this: whichever solver a
        pipeline uses, handing it free statistics must yield a valid
        selection whose *paid* statistics carry the whole residual cost,
        with every free statistic always picked (paper Section 6.2)."""
        from repro.core.greedy import solve_greedy

        wfcase, workflow, analysis, catalog, cost_model = star_setup
        sources = wfcase.tables(scale=0.2, seed=9)
        free, _values = harvest_source_statistics(sources)
        problem = build_problem(catalog, cost_model, free_statistics=free)
        baseline = build_problem(catalog, cost_model)
        solvers = [solve_ilp, solve_greedy]
        for solve in solvers:
            result = solve(problem)
            assert result.is_valid
            # free statistics never make a solver worse
            assert result.total_cost <= solve(baseline).total_cost
            # a picked free statistic costs exactly zero...
            for stat in free & set(result.observed):
                assert problem.costs[problem.index[stat]] == 0.0
            # ...so the total counts only the paid remainder: a free
            # statistic never double-counts into the observation memory
            paid = [s for s in result.observed if s not in free]
            assert result.total_cost == pytest.approx(
                sum(problem.costs[problem.index[s]] for s in paid)
            )
            # the source cardinalities are free and always exploited
            assert any(s in free for s in result.observed)

    def test_all_free_makes_selection_cost_zero(self, star_setup):
        """When the free set covers an optimum, both solvers find cost 0."""
        from repro.core.greedy import solve_greedy

        _case, workflow, analysis, catalog, cost_model = star_setup
        optimal = solve_ilp(build_problem(catalog, cost_model))
        free = set(optimal.observed)
        problem = build_problem(catalog, cost_model, free_statistics=free)
        for result in (solve_ilp(problem), solve_greedy(problem)):
            assert result.is_valid
            assert result.total_cost == 0.0
            assert set(result.observed) == free

    def test_free_statistics_usable_by_estimator(self, star_setup):
        """End to end: source stats reduce observation, estimates stay exact."""
        wfcase, workflow, analysis, catalog, cost_model = star_setup
        sources = wfcase.tables(scale=0.2, seed=9)
        free, values = harvest_source_statistics(sources)
        selection = solve_ilp(
            build_problem(catalog, cost_model, free_statistics=free)
        )
        taps = TapSet([s for s in selection.observed if s not in free])
        run = BackendExecutor(analysis).run(sources, taps=taps)
        merged = run.observations
        merged.merge(values)
        estimator = CardinalityEstimator(catalog, merged)
        truth = ground_truth_cardinalities(analysis, sources)
        for se, actual in truth.items():
            assert estimator.cardinality(se) == pytest.approx(actual)

    @pytest.mark.parametrize(
        "number, taps_before", [(9, 15), (11, 36), (25, 18)]
    )
    def test_covering_free_statistics_tap_only_what_is_needed(
        self, number, taps_before
    ):
        """Every observable statistic handed in as free derives S_C on its
        own.  HiGHS used to set every zero-cost ``x_i`` and the night
        tapped all of them (``taps_before``, measured before the zero-cost
        presolve); the presolve taps what one derivation rests on."""
        wfcase = case(number)
        sources = wfcase.tables(scale=0.2, seed=3)
        free = set(StatisticsPipeline(wfcase.build()).catalog.observable)
        assert len(free) == taps_before
        pipeline = StatisticsPipeline(wfcase.build(), free_statistics=free)
        report = pipeline.run_once(sources)
        assert report.selection.method == "ilp"
        assert report.selection.total_cost == 0.0
        assert set(report.tapped) <= free
        assert len(report.tapped) < taps_before
        truth = ground_truth_cardinalities(report.analysis, sources)
        for se, actual in truth.items():
            assert report.estimator.cardinality(se) == pytest.approx(actual)
