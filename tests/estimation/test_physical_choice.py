"""Tests for physical join implementation selection (the [21] extension)."""

import pytest

from repro.algebra.expressions import SubExpression
from repro.algebra.plans import JoinNode, Leaf
from repro.estimation.physical import (
    JoinAlgorithm,
    PhysicalCostModel,
    PhysicalPlanner,
    physical_plans,
)

SE = SubExpression.of


def planner(cards, **kwargs):
    return PhysicalPlanner(PhysicalCostModel(cards, **kwargs))


class TestAlgorithmChoice:
    def test_tiny_inputs_use_nested_loop(self):
        cards = {SE("A"): 3, SE("B"): 3, SE("A", "B"): 4}
        plan = planner(cards).plan(JoinNode(Leaf("A"), Leaf("B"), ("k",)))
        assert plan.algorithm_for(SE("A", "B")) is JoinAlgorithm.NESTED_LOOP

    def test_large_unsorted_inputs_use_hash(self):
        cards = {SE("A"): 10_000, SE("B"): 8_000, SE("A", "B"): 9_000}
        plan = planner(cards).plan(JoinNode(Leaf("A"), Leaf("B"), ("k",)))
        assert plan.algorithm_for(SE("A", "B")) is JoinAlgorithm.HASH

    def test_presorted_chain_prefers_merge(self):
        """Once a sort-merge join has produced key-sorted output, a second
        join on the same key exploits the order (no re-sort of that side)."""
        cards = {
            SE("A"): 50_000,
            SE("B"): 50_000,
            SE("C"): 4_000,
            SE("A", "B"): 40_000,
            SE("A", "B", "C"): 1_000,
        }
        tree = JoinNode(
            JoinNode(Leaf("A"), Leaf("B"), ("k",)), Leaf("C"), ("k",)
        )
        # sorting cheap, hashing expensive -> merge everywhere
        plan = planner(
            cards, sort_factor=0.05, hash_build_factor=30.0
        ).plan(tree)
        assert plan.algorithm_for(SE("A", "B")) is JoinAlgorithm.SORT_MERGE
        upper = [j for j in plan.joins if j.se == SE("A", "B", "C")][0]
        assert upper.algorithm is JoinAlgorithm.SORT_MERGE
        # the propagated sort order saved re-sorting the 40k-row left side:
        # cost = merge(40k + 4k) + out + sort(C only)
        model = PhysicalCostModel(
            cards, sort_factor=0.05, hash_build_factor=30.0
        )
        expected = (
            model.merge_cost(40_000, 4_000, 1_000) + model.sort_cost(4_000)
        )
        assert upper.cost == pytest.approx(expected)

    def test_sortedness_resets_after_hash_join(self):
        cards = {
            SE("A"): 10_000,
            SE("B"): 8_000,
            SE("C"): 9_000,
            SE("A", "B"): 5_000,
            SE("A", "B", "C"): 100,
        }
        tree = JoinNode(
            JoinNode(Leaf("A"), Leaf("B"), ("k",)), Leaf("C"), ("k",)
        )
        plan = planner(cards).plan(tree)  # default factors: hash wins below
        base = [j for j in plan.joins if j.se == SE("A", "B")][0]
        assert base.algorithm is JoinAlgorithm.HASH
        assert base.output_sorted_on == ()

    def test_total_cost_sums_joins(self):
        cards = {SE("A"): 10, SE("B"): 10, SE("A", "B"): 10}
        plan = planner(cards).plan(JoinNode(Leaf("A"), Leaf("B"), ("k",)))
        assert plan.total_cost == plan.joins[0].cost

    def test_unknown_se_raises(self):
        cards = {SE("A"): 10, SE("B"): 10, SE("A", "B"): 10}
        plan = planner(cards).plan(JoinNode(Leaf("A"), Leaf("B"), ("k",)))
        with pytest.raises(KeyError):
            plan.algorithm_for(SE("A", "C"))

    def test_describe_renders(self):
        cards = {SE("A"): 10, SE("B"): 10, SE("A", "B"): 10}
        plan = planner(cards).plan(JoinNode(Leaf("A"), Leaf("B"), ("k",)))
        assert "physical plan cost" in plan.describe()


class TestWorkflowIntegration:
    def test_physical_plans_from_learned_statistics(self):
        """End to end: learned cardinalities feed physical selection."""
        from repro.framework.pipeline import StatisticsPipeline
        from repro.workloads import case

        wfcase = case(11)
        pipeline = StatisticsPipeline(wfcase.build())
        report = pipeline.run_once(wfcase.tables(scale=0.2, seed=3))
        plans = physical_plans(
            report.analysis,
            report.estimator.all_cardinalities(),
            trees=report.chosen_trees,
        )
        assert set(plans) == {b.name for b in report.analysis.blocks}
        for plan in plans.values():
            n_joins = sum(
                1 for j in plan.joins
            )
            assert plan.total_cost >= 0
            # every inner node got a decision
            from repro.algebra.plans import tree_joins

            assert n_joins == len(tree_joins(plan.tree))
