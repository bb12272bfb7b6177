"""Tests for CSS evaluation: each rule's compute semantics."""

import pytest

from repro.algebra.expressions import RejectJoinSE, RejectSE, SubExpression
from repro.core.css import CSS, CssCatalog
from repro.core.histogram import Histogram
from repro.core.statistics import Statistic, StatisticsStore
from repro.estimation.calculator import (
    group_distinct,
    join_histograms,
    compute_statistics,
)

SE = SubExpression.of


def H(attr, counts):
    return Histogram((attr,), {(value,): n for value, n in counts.items()})


class TestJoinHistograms:
    def test_single_side_carried(self):
        h1 = Histogram(("a", "b"), {(1, 10): 2, (2, 20): 3})
        h2 = H("a", {1: 5})
        out = join_histograms(h1, h2, ("a",), ("b",))
        assert out == H("b", {10: 10})

    def test_both_sides_carried(self):
        h1 = Histogram(("a", "b"), {(1, 10): 2})
        h2 = Histogram(("a", "c"), {(1, 7): 3, (2, 8): 4})
        out = join_histograms(h1, h2, ("a",), ("b", "c"))
        assert out == Histogram(("b", "c"), {(10, 7): 6})

    def test_key_in_bs(self):
        h1 = Histogram(("a", "b"), {(1, 10): 2})
        h2 = H("a", {1: 3})
        out = join_histograms(h1, h2, ("a",), ("a", "b"))
        assert out == Histogram(("a", "b"), {(1, 10): 6})

    def test_matches_brute_force(self):
        left = [(1, "x"), (1, "y"), (2, "x"), (3, "z")]
        right = [(1, 7), (1, 8), (2, 7)]
        h1 = Histogram.from_rows(("a", "b"), left)
        h2 = Histogram.from_rows(("a", "c"), right)
        out = join_histograms(h1, h2, ("a",), ("b", "c"))
        brute = {}
        for a1, b in left:
            for a2, c in right:
                if a1 == a2:
                    brute[(b, c)] = brute.get((b, c), 0) + 1
        assert dict(out.counts) == brute


class TestGroupDistinct:
    def test_counts_distinct_groups(self):
        h = Histogram(("a", "b"), {(1, 10): 99, (2, 10): 5, (3, 20): 1})
        out = group_distinct(h, ("b",))
        # two distinct (a,b) groups project to b=10, one to b=20
        assert out == H("b", {10: 2, 20: 1})


def _single_rule_catalog(rule, target, inputs, **ctx):
    catalog = CssCatalog()
    catalog.add(CSS(target, tuple(inputs), rule, tuple(sorted(ctx.items()))))
    return catalog


class TestRuleEvaluation:
    def test_j1(self):
        target = Statistic.card(SE("A", "B"))
        ha = Statistic.hist(SE("A"), "k")
        hb = Statistic.hist(SE("B"), "k")
        catalog = _single_rule_catalog("J1", target, [ha, hb], key=("k",))
        observed = StatisticsStore()
        observed.put(ha, H("k", {1: 2, 2: 1}))
        observed.put(hb, H("k", {1: 3}))
        values = compute_statistics(catalog, observed)
        assert values.get(target) == 6

    def test_j3(self):
        target = Statistic.hist(SE("A", "B"), "k")
        ha = Statistic.hist(SE("A"), "k")
        hb = Statistic.hist(SE("B"), "k")
        catalog = _single_rule_catalog("J3", target, [ha, hb], key=("k",))
        observed = StatisticsStore()
        observed.put(ha, H("k", {1: 2, 2: 4}))
        observed.put(hb, H("k", {1: 3, 3: 9}))
        values = compute_statistics(catalog, observed)
        assert values.get(target) == H("k", {1: 6})

    def test_j4_union_division(self):
        """|T12| = |H_h^kg / H_t3^kg| + |rej join T2| (Equation 3)."""
        e = SE("T1", "T2")
        h_se, t3 = SE("T1", "T2", "T3"), SE("T3")
        rej = RejectSE(SE("T1"), "kg", t3)
        rj = RejectJoinSE(rej, "ke", SE("T2"))
        target = Statistic.card(e)
        h_big = Statistic.hist(h_se, "kg")
        h_t3 = Statistic.hist(t3, "kg")
        c_rj = Statistic.card(rj)
        catalog = _single_rule_catalog(
            "J4", target, [h_big, h_t3, c_rj], kg=("kg",)
        )
        observed = StatisticsStore()
        # surviving T1' x T2 mass: (12/3) + (10/5) = 6; rejects add 4
        observed.put(h_big, H("kg", {1: 12, 2: 10}))
        observed.put(h_t3, H("kg", {1: 3, 2: 5}))
        observed.put(c_rj, 4)
        values = compute_statistics(catalog, observed)
        assert values.get(target) == 10

    def test_j5_union_division_histogram(self):
        e = SE("T1", "T2")
        h_se, t3 = SE("T1", "T2", "T3"), SE("T3")
        rej = RejectSE(SE("T1"), "kg", t3)
        rj = RejectJoinSE(rej, "ke", SE("T2"))
        target = Statistic.hist(e, "b")
        h_big = Statistic.hist(h_se, "b", "kg")
        h_t3 = Statistic.hist(t3, "kg")
        h_rj = Statistic.hist(rj, "b")
        catalog = _single_rule_catalog(
            "J5", target, [h_big, h_t3, h_rj], kg=("kg",), bs=("b",)
        )
        observed = StatisticsStore()
        observed.put(
            h_big, Histogram(("b", "kg"), {(10, 1): 6, (20, 1): 3, (10, 2): 10})
        )
        observed.put(h_t3, H("kg", {1: 3, 2: 5}))
        observed.put(h_rj, H("b", {10: 1}))
        values = compute_statistics(catalog, observed)
        # survived: b=10 -> 6/3 + 10/5 = 4; b=20 -> 1; rejects: b=10 -> +1
        assert values.get(target) == H("b", {10: 5, 20: 1})

    def test_i1_i2_d1(self):
        se = SE("T")
        joint = Statistic.hist(se, "a", "b")
        value = Histogram(("a", "b"), {(1, 10): 2, (1, 20): 3})
        catalog = CssCatalog()
        catalog.add(CSS(Statistic.card(se), (joint,), "I1"))
        catalog.add(CSS(Statistic.hist(se, "a"), (joint,), "I2"))
        catalog.add(
            CSS(Statistic.distinct(se, "a", "b"), (joint,), "D1")
        )
        observed = StatisticsStore()
        observed.put(joint, value)
        values = compute_statistics(catalog, observed)
        assert values.get(Statistic.card(se)) == 5
        assert values.get(Statistic.hist(se, "a")) == H("a", {1: 5})
        assert values.get(Statistic.distinct(se, "a", "b")) == 2

    def test_g2(self):
        up, down = SE("up"), SE("down")
        target = Statistic.hist(down, "b")
        h_up = Statistic.hist(up, "a", "b")
        catalog = _single_rule_catalog(
            "G2", target, [h_up], group=("a", "b"), bs=("b",)
        )
        observed = StatisticsStore()
        observed.put(
            h_up, Histogram(("a", "b"), {(1, 10): 9, (2, 10): 1, (3, 30): 2})
        )
        values = compute_statistics(catalog, observed)
        assert values.get(target) == H("b", {10: 2, 30: 1})

    def test_pass_through_rules(self):
        up, down = SE("up"), SE("down")
        catalog = CssCatalog()
        catalog.add(CSS(Statistic.card(down), (Statistic.card(up),), "B1"))
        catalog.add(
            CSS(Statistic.hist(down, "a"), (Statistic.hist(up, "a"),), "U2")
        )
        observed = StatisticsStore()
        observed.put(Statistic.card(up), 11)
        observed.put(Statistic.hist(up, "a"), H("a", {1: 11}))
        values = compute_statistics(catalog, observed)
        assert values.get(Statistic.card(down)) == 11
        assert values.get(Statistic.hist(down, "a")) == H("a", {1: 11})

    def test_chained_fixpoint(self):
        """A two-hop derivation: J1 needs a histogram produced by I2."""
        a, b = SE("A"), SE("B")
        target = Statistic.card(SE("A", "B"))
        ha = Statistic.hist(a, "k")
        ha_joint = Statistic.hist(a, "k", "x")
        hb = Statistic.hist(b, "k")
        catalog = CssCatalog()
        catalog.add(CSS(target, (ha, hb), "J1", (("key", ("k",)),)))
        catalog.add(CSS(ha, (ha_joint,), "I2"))
        observed = StatisticsStore()
        observed.put(ha_joint, Histogram(("k", "x"), {(1, 5): 2, (1, 6): 1}))
        observed.put(hb, H("k", {1: 10}))
        values = compute_statistics(catalog, observed)
        assert values.get(target) == 30

    def test_unknown_rule_raises(self):
        target = Statistic.card(SE("A"))
        inp = Statistic.hist(SE("A"), "k")
        catalog = _single_rule_catalog("NOPE", target, [inp])
        observed = StatisticsStore()
        observed.put(inp, H("k", {1: 1}))
        with pytest.raises(Exception):
            compute_statistics(catalog, observed)

    def test_uncomputable_stays_missing(self):
        target = Statistic.card(SE("A", "B"))
        inp = Statistic.hist(SE("A"), "k")
        catalog = _single_rule_catalog("I1", target, [inp])
        values = compute_statistics(catalog, StatisticsStore())
        assert target not in values
