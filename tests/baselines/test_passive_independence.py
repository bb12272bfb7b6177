"""Tests for the independence-assumption baseline."""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.baselines.independence import IndependenceEstimator, profile_inputs
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.workloads import case

SE = SubExpression.of


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
