"""Tests for what-if plan ranking and the DOT renderers."""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.dot import analysis_to_dot, plan_to_dot, workflow_to_dot
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.estimation.costmodel import PlanCostModel
from repro.estimation.whatif import rank_plans, rank_workflow
from repro.workloads import case


@pytest.fixture(scope="module")
def ranked():
    wfcase = case(13)  # 5-way star
    analysis = analyze(wfcase.build())
    sources = wfcase.tables(scale=0.15, seed=4)
    truth = ground_truth_cardinalities(analysis, sources)
    block = analysis.blocks[0]
    return analysis, block, dict(truth), rank_plans(block, dict(truth))


class TestRankPlans:
    def test_sorted_by_cost(self, ranked):
        _a, _b, _t, ranking = ranked
        costs = [p.cost for p in ranking.plans]
        assert costs == sorted(costs)
        assert [p.rank for p in ranking.plans] == list(
            range(1, len(costs) + 1)
        )

    def test_covers_whole_plan_space(self, ranked):
        analysis, block, _t, ranking = ranked
        assert len(ranking.plans) == block.graph.count_trees()

    def test_initial_plan_present(self, ranked):
        from repro.algebra.plans import tree_splits

        _a, block, _t, ranking = ranked
        # identity is by realized joins (equi-joins are symmetric)
        assert frozenset(tree_splits(ranking.initial.tree)) == frozenset(
            tree_splits(block.initial_tree)
        )
        assert ranking.speedup_available >= 1.0
        assert ranking.risk_avoided >= ranking.speedup_available

    def test_best_matches_optimizer(self, ranked):
        from repro.estimation.optimizer import PlanOptimizer

        analysis, block, truth, ranking = ranked
        best = PlanOptimizer(analysis, truth).optimize()[block.name]
        assert ranking.best.cost == pytest.approx(best.cost)

    def test_costs_verified_by_execution(self, ranked):
        """The top-ranked plan really is cheaper than the worst when both
        are executed."""
        analysis, block, truth, ranking = ranked
        wfcase = case(13)
        sources = wfcase.tables(scale=0.15, seed=4)
        model_best = BackendExecutor(analysis).run(
            sources, trees={block.name: ranking.best.tree}
        )
        model_worst = BackendExecutor(analysis).run(
            sources, trees={block.name: ranking.worst.tree}
        )
        def cost(run, tree):
            return PlanCostModel(dict(run.se_sizes)).tree_cost(tree)

        assert cost(model_best, ranking.best.tree) <= cost(
            model_worst, ranking.worst.tree
        )

    def test_describe_mentions_initial(self, ranked):
        _a, _b, _t, ranking = ranked
        assert "initial" in ranking.describe(top=3)

    def test_rank_workflow_skips_pinned(self):
        wfcase = case(23)  # pinned 2-way + 3-way
        analysis = analyze(wfcase.build())
        sources = wfcase.tables(scale=0.15, seed=4)
        truth = ground_truth_cardinalities(analysis, sources)
        rankings = rank_workflow(analysis, dict(truth))
        pinned = [b.name for b in analysis.blocks if b.pinned]
        assert all(name not in rankings for name in pinned)
        assert rankings  # the re-orderable block is ranked


class TestDotRendering:
    def test_workflow_dot(self):
        workflow = case(11).build()
        dot = workflow_to_dot(workflow)
        assert dot.startswith("digraph workflow")
        assert "cylinder" in dot  # sources
        assert "doubleoctagon" in dot  # targets
        assert dot.count("->") >= len(workflow.nodes()) - len(workflow.sources())

    def test_plan_dot(self):
        analysis = analyze(case(11).build())
        dot = plan_to_dot(analysis.blocks[0].initial_tree)
        assert dot.startswith("digraph plan")
        assert "Trade" in dot

    def test_analysis_dot_clusters_blocks(self):
        analysis = analyze(case(23).build())
        dot = analysis_to_dot(analysis)
        assert dot.count("subgraph cluster_") == len(analysis.blocks)
        assert "pinned" in dot
