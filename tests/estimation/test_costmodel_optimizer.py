"""Unit tests for the plan cost model and the DP join-order optimizer."""

import math

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.algebra.operators import Join, Source, Target, Workflow
from repro.algebra.plans import JoinNode, Leaf, internal_ses
from repro.algebra.schema import Catalog
from repro.estimation.costmodel import CostModelError, PlanCostModel
from repro.estimation.optimizer import PlanOptimizer

SE = SubExpression.of


def chain_workflow():
    cat = Catalog()
    cat.add_relation("A", {"x": 10, "ka": 100})
    cat.add_relation("B", {"x": 10, "y": 10})
    cat.add_relation("C", {"y": 10, "kc": 100})
    a, b, c = Source(cat, "A"), Source(cat, "B"), Source(cat, "C")
    flow = Join(Join(a, b, "x"), c, "y")
    return Workflow("chain", cat, [Target(flow, "out")])


CARDS = {
    SE("A"): 100.0,
    SE("B"): 10.0,
    SE("C"): 1000.0,
    SE("A", "B"): 50.0,
    SE("B", "C"): 2000.0,
    SE("A", "B", "C"): 400.0,
}


class TestPlanCostModel:
    def test_cout_sums_intermediates(self):
        model = PlanCostModel(CARDS)
        tree = JoinNode(
            JoinNode(Leaf("A"), Leaf("B"), ("x",)), Leaf("C"), ("y",)
        )
        assert model.tree_cost(tree) == 50 + 400

    def test_other_order_costs_more(self):
        model = PlanCostModel(CARDS)
        bad = JoinNode(
            Leaf("A"), JoinNode(Leaf("B"), Leaf("C"), ("y",)), ("x",)
        )
        assert model.tree_cost(bad) == 2000 + 400

    def test_missing_cardinality_raises(self):
        model = PlanCostModel({})
        with pytest.raises(CostModelError):
            model.size(SE("A"))


class TestPlanOptimizer:
    def test_picks_cheapest_order(self):
        analysis = analyze(chain_workflow())
        optimizer = PlanOptimizer(analysis, CARDS)
        plan = optimizer.optimize()["B1"]
        # (A |x| B) first is far cheaper than (B |x| C) first
        assert SE("A", "B") in internal_ses(plan.tree)
        assert plan.cost == 50 + 400
        assert plan.improved or plan.cost == plan.initial_cost

    def test_cost_never_above_initial(self):
        analysis = analyze(chain_workflow())
        plan = PlanOptimizer(analysis, CARDS).optimize()["B1"]
        assert plan.cost <= plan.initial_cost

    def test_pinned_blocks_keep_plan(self):
        cat = Catalog()
        cat.add_relation("A", {"k": 5})
        cat.add_relation("B", {"k": 5, "m": 5})
        cat.add_relation("C", {"m": 5})
        pinned = Join(Source(cat, "A"), Source(cat, "B"), "k", reject_left=True)
        flow = Join(pinned, Source(cat, "C"), "m")
        wf = Workflow("w", cat, [Target(flow, "out")])
        analysis = analyze(wf)
        cards = {}
        for block in analysis.blocks:
            for se in block.universe():
                cards[se] = float(10 + len(se.relations))
        plans = PlanOptimizer(analysis, cards).optimize()
        pinned_block = [b for b in analysis.blocks if b.pinned][0]
        assert plans[pinned_block.name].tree == pinned_block.initial_tree

    def test_missing_estimates_surface(self):
        analysis = analyze(chain_workflow())
        with pytest.raises((CostModelError, KeyError, ValueError)):
            PlanOptimizer(analysis, {SE("A"): 1.0}).optimize()

    def test_only_a_block_on_a_degraded_rung_falls_back(self):
        analysis = analyze(chain_workflow())
        block = analysis.blocks[0]
        optimizer = PlanOptimizer(analysis, {SE("A"): 1.0})
        with pytest.raises((CostModelError, KeyError, ValueError)):
            optimizer.optimize({block.name: "observed"})
        plan = optimizer.optimize({block.name: "independence"})[block.name]
        assert plan.confidence == "none" and plan.tree == block.initial_tree
        assert math.isnan(plan.cost) and math.isnan(plan.initial_cost)
        # a rung whose cardinalities cost the block keeps the optimum
        plan = PlanOptimizer(analysis, CARDS).optimize({block.name: "catalog"})
        assert plan[block.name].confidence == "catalog"
        assert plan[block.name].cost == 50 + 400
