"""Tests for passive monitoring and independence-assumption baselines."""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.baselines.independence import IndependenceEstimator, profile_inputs
from repro.baselines.passive import PassiveMonitor
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.workloads import case

SE = SubExpression.of


class TestPassiveMonitor:
    def test_single_run_covers_only_plan_points(self):
        wfcase = case(9)  # 3-way join
        analysis = analyze(wfcase.build())
        sources = wfcase.tables(scale=0.2, seed=1)
        monitor = PassiveMonitor(analysis)
        monitor.absorb(BackendExecutor(analysis).run(sources))
        coverage = monitor.coverage()
        assert 0 < coverage.fraction < 1
        # plan-internal SEs are known, off-plan SEs are not
        block = analysis.blocks[0]
        from repro.algebra.plans import tree_ses

        for se in tree_ses(block.initial_tree):
            assert monitor.cardinality(se) is not None
        off_plan = [
            se for se in block.join_ses()
            if se not in set(tree_ses(block.initial_tree))
        ]
        assert off_plan
        assert all(monitor.cardinality(se) is None for se in off_plan)

    def test_absorbing_reordered_runs_grows_coverage(self):
        wfcase = case(9)
        analysis = analyze(wfcase.build())
        sources = wfcase.tables(scale=0.2, seed=1)
        block = analysis.blocks[0]
        monitor = PassiveMonitor(analysis)
        monitor.absorb(BackendExecutor(analysis).run(sources))
        before = monitor.coverage().fraction
        for tree in block.graph.enumerate_trees():
            monitor.absorb(
                BackendExecutor(analysis).run(sources, trees={block.name: tree})
            )
        after = monitor.coverage().fraction
        assert after == 1.0
        assert after > before

    def test_known_values_are_exact(self):
        wfcase = case(12)
        analysis = analyze(wfcase.build())
        sources = wfcase.tables(scale=0.2, seed=2)
        monitor = PassiveMonitor(analysis)
        monitor.absorb(BackendExecutor(analysis).run(sources))
        truth = ground_truth_cardinalities(analysis, sources)
        for se, value in monitor.known.items():
            if se in truth:
                assert value == truth[se]


class TestIndependenceEstimator:
    def test_base_cardinalities_exact(self):
        wfcase = case(9)
        analysis = analyze(wfcase.build())
        sources = wfcase.tables(scale=0.2, seed=1)
        run = BackendExecutor(analysis).run(sources)
        estimator = IndependenceEstimator(
            analysis, profile_inputs(analysis, run.env)
        )
        block = analysis.blocks[0]
        for name in block.inputs:
            truth = ground_truth_cardinalities(analysis, sources)[SE(name)]
            assert estimator.cardinality(SE(name)) == truth

    def test_skewed_data_breaks_independence(self):
        """On a skewed many-to-many join (customers x prospects on region)
        the independence estimate diverges -- the error that motivates
        learned statistics.  FK lookups, by contrast, stay exact."""
        wfcase = case(16)
        analysis = analyze(wfcase.build())
        sources = wfcase.tables(scale=0.5, seed=7)
        run = BackendExecutor(analysis).run(sources)
        estimator = IndependenceEstimator(
            analysis, profile_inputs(analysis, run.env)
        )
        truth = ground_truth_cardinalities(analysis, sources)
        target = SE("DimCustomer", "Prospect")
        est = estimator.cardinality(target)
        actual = truth[target]
        rel_error = abs(est - actual) / max(actual, 1)
        assert rel_error > 0.05  # clearly off on skewed data

    def test_estimates_cover_all_join_ses(self):
        wfcase = case(13)
        analysis = analyze(wfcase.build())
        sources = wfcase.tables(scale=0.2, seed=1)
        run = BackendExecutor(analysis).run(sources)
        estimator = IndependenceEstimator(
            analysis, profile_inputs(analysis, run.env)
        )
        all_cards = estimator.all_cardinalities()
        for block in analysis.blocks:
            for se in block.join_ses():
                assert se in all_cards

    def test_unknown_se_raises(self):
        wfcase = case(9)
        analysis = analyze(wfcase.build())
        sources = wfcase.tables(scale=0.2, seed=1)
        run = BackendExecutor(analysis).run(sources)
        estimator = IndependenceEstimator(
            analysis, profile_inputs(analysis, run.env)
        )
        from repro.algebra.expressions import RejectSE

        with pytest.raises(KeyError):
            estimator.cardinality(RejectSE(SE("A"), "k", SE("B")))
