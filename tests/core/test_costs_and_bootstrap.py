"""Tests for the cost metrics (Section 5.4) and the independence bootstrap."""


import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import RejectJoinSE, RejectSE, SubExpression
from repro.algebra.operators import Join, Source, Target, Workflow
from repro.algebra.schema import Catalog
from repro.core.costs import DEFAULT_DOMAIN, INFINITE, CostModel
from repro.core.statistics import Statistic
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.estimation.bootstrap import (
    bootstrap_se_sizes,
    profiles_from_characteristics,
)
from repro.workloads import case

SE = SubExpression.of


def catalog_ab():
    cat = Catalog()
    cat.add_relation("A", {"k": 100, "v": 7})
    cat.add_relation("B", {"k": 100, "w": 11})
    return cat


class TestCostModel:
    def test_counter_costs_one(self):
        cm = CostModel(catalog_ab())
        assert cm.memory_units(Statistic.card(SE("A"))) == 1.0

    def test_histogram_costs_domain(self):
        cm = CostModel(catalog_ab())
        assert cm.memory_units(Statistic.hist(SE("A"), "k")) == 100
        assert cm.memory_units(Statistic.distinct(SE("A"), "k")) == 100

    def test_joint_histogram_costs_product(self):
        cm = CostModel(catalog_ab())
        assert cm.memory_units(Statistic.hist(SE("A"), "k", "v")) == 700

    def test_se_size_caps_histogram(self):
        """A histogram cannot have more buckets than the SE has rows."""
        cm = CostModel(catalog_ab(), se_sizes={SE("A"): 12})
        assert cm.memory_units(Statistic.hist(SE("A"), "k")) == 12
        assert cm.memory_units(Statistic.hist(SE("A"), "k", "v")) == 12

    def test_reject_size_falls_back_to_source(self):
        rej = RejectSE(SE("A"), "k", SE("B"))
        cm = CostModel(catalog_ab(), se_sizes={SE("A"): 30})
        assert cm.memory_units(Statistic.hist(rej, "k")) == 30
        # explicit reject estimate wins
        cm2 = CostModel(catalog_ab(), se_sizes={SE("A"): 30, rej: 3})
        assert cm2.memory_units(Statistic.hist(rej, "k")) == 3

    def test_unknown_attr_uses_default_domain(self):
        cm = CostModel(catalog_ab())
        assert cm.memory_units(Statistic.hist(SE("A"), "zzz")) == DEFAULT_DOMAIN

    def test_unobservable_is_infinite(self):
        cm = CostModel(catalog_ab())
        assert cm.cost(Statistic.card(SE("A")), observable=False) == INFINITE

    def test_cpu_weighting(self):
        cm = CostModel(
            catalog_ab(),
            se_sizes={SE("A"): 500},
            memory_weight=0.0,
            cpu_weight=2.0,
        )
        assert cm.cost(Statistic.card(SE("A"))) == 1000.0

    def test_blended_cost(self):
        cm = CostModel(
            catalog_ab(),
            se_sizes={SE("A"): 500},
            memory_weight=1.0,
            cpu_weight=1.0,
        )
        assert cm.cost(Statistic.hist(SE("A"), "k")) == 100 + 500


class TestBootstrap:
    def _simple(self):
        cat = catalog_ab()
        a, b = Source(cat, "A"), Source(cat, "B")
        wf = Workflow("w", cat, [Target(Join(a, b, "k"), "out")])
        return wf, analyze(wf)

    def test_join_size_formula(self):
        wf, analysis = self._simple()
        sizes = bootstrap_se_sizes(
            analysis,
            {"A": 1000, "B": 400},
            {"A": {"k": 100}, "B": {"k": 80}},
        )
        assert sizes[SE("A")] == 1000
        # |A join B| = 1000*400 / max(100, 80)
        assert sizes[SE("A", "B")] == pytest.approx(4000)

    def test_distinct_defaults_to_min_domain_card(self):
        wf, analysis = self._simple()
        profiles = profiles_from_characteristics(analysis, {"A": 40, "B": 400})
        assert profiles["A"].dv("k") == 40   # card-capped
        assert profiles["B"].dv("k") == 100  # domain-capped

    def test_reject_estimates_from_coverage(self):
        wf, analysis = self._simple()
        sizes = bootstrap_se_sizes(
            analysis,
            {"A": 1000, "B": 400},
            {"A": {"k": 100}, "B": {"k": 50}},  # B covers half the domain
        )
        rej_a = RejectSE(SE("A"), "k", SE("B"))
        assert sizes[rej_a] == pytest.approx(500)  # 1000 * (1 - 50/100)

    def test_reject_join_fanout(self):
        wf, analysis = self._simple()
        sizes = bootstrap_se_sizes(
            analysis,
            {"A": 1000, "B": 400},
            {"A": {"k": 100}, "B": {"k": 50}},
        )
        rjs = [se for se in sizes if isinstance(se, RejectJoinSE)]
        assert rjs  # side joins were estimated
        for rj in rjs:
            assert sizes[rj] >= 0

    def test_estimates_cover_star_workflow(self):
        wfcase = case(11)
        analysis = analyze(wfcase.build())
        cards, dv = wfcase.characteristics(scale=1.0)
        sizes = bootstrap_se_sizes(analysis, cards, dv)
        for block in analysis.blocks:
            for se in block.universe():
                assert se in sizes
                assert sizes[se] >= 0

    def test_fk_star_estimates_are_close(self):
        """On FK-lookup stars with full key coverage, the independence
        bootstrap is near-exact, which is what makes first-run CPU costs
        usable."""
        wfcase = case(11)
        analysis = analyze(wfcase.build())
        sources = wfcase.tables(scale=0.2, seed=3)
        cards = {name: t.num_rows for name, t in sources.items()}
        dv = {
            name: {a: t.distinct_count((a,)) for a in t.attrs}
            for name, t in sources.items()
        }
        sizes = bootstrap_se_sizes(analysis, cards, dv)
        truth = ground_truth_cardinalities(analysis, sources)
        block = analysis.blocks[0]
        full_noflt = SubExpression(
            frozenset(n for n in block.inputs if "@" not in n)
        )
        if full_noflt in truth:
            est, act = sizes[full_noflt], truth[full_noflt]
            assert est == pytest.approx(act, rel=0.35)
