"""Tests for Algorithm 1 -- CSS generation over the rule set."""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import RejectJoinSE, RejectSE, SubExpression
from repro.algebra.operators import (
    Aggregate,
    Filter,
    Join,
    Predicate,
    Source,
    Target,
    Transform,
    UdfSpec,
    Workflow,
)
from repro.algebra.schema import Catalog
from repro.core.generator import GeneratorOptions, generate_css
from repro.core.statistics import Statistic
from repro.workloads import suite


def fig6_workflow():
    """The paper's Section 4.3 example: Orders x Product x Customer."""
    cat = Catalog()
    cat.add_relation("O", {"pid": 100, "cid": 200, "oid": 1000})
    cat.add_relation("P", {"pid": 100, "pname": 90})
    cat.add_relation("C", {"cid": 200, "cname": 180})
    o, p, c = Source(cat, "O"), Source(cat, "P"), Source(cat, "C")
    opc = Join(Join(o, p, "pid"), c, "cid")
    return Workflow("fig6", cat, [Target(opc, "W")])


SE = SubExpression.of


class TestFig6Example:
    """Assertions lifted directly from the paper's worked example."""

    @pytest.fixture(scope="class")
    def catalog(self):
        return generate_css(analyze(fig6_workflow()))

    def test_all_se_cardinalities_required(self, catalog):
        for se in (SE("O"), SE("P"), SE("C"), SE("O", "P"), SE("C", "O"),
                   SE("C", "O", "P")):
            assert Statistic.card(se) in catalog.required

    def test_cross_product_se_not_generated(self, catalog):
        """The plan joining C with P is never generated (cross product)."""
        assert Statistic.card(SE("C", "P")) not in catalog.required

    def test_opc_j1_css_both_plans(self, catalog):
        """|OPC| gets a J1 CSS per plan: {H_OP^cid, H_C^cid} and
        {H_OC^pid, H_P^pid}."""
        css = catalog.css_for(Statistic.card(SE("C", "O", "P")))
        j1_inputs = {c.inputs for c in css if c.rule == "J1"}
        assert (
            Statistic.hist(SE("C"), "cid"),
            Statistic.hist(SE("O", "P"), "cid"),
        ) in j1_inputs
        assert (
            Statistic.hist(SE("P"), "pid"),
            Statistic.hist(SE("C", "O"), "pid"),
        ) in j1_inputs

    def test_hoc_pid_gets_j2_css(self, catalog):
        """H_OC^pid <- {H_O^{cid,pid}, H_C^cid} (rule J2)."""
        css = catalog.css_for(Statistic.hist(SE("C", "O"), "pid"))
        j2 = [c for c in css if c.rule == "J2"]
        assert any(
            set(c.inputs)
            == {
                Statistic.hist(SE("O"), "cid", "pid"),
                Statistic.hist(SE("C"), "cid"),
            }
            for c in j2
        )

    def test_hoc_pid_gets_union_division_css(self, catalog):
        """H_OC^pid also gets the J5 union-division alternative."""
        css = catalog.css_for(Statistic.hist(SE("C", "O"), "pid"))
        j5 = [c for c in css if c.rule == "J5"]
        assert len(j5) == 1
        inputs = set(j5[0].inputs)
        assert Statistic.hist(SE("C", "O", "P"), "pid") in inputs
        assert Statistic.hist(SE("P"), "pid") in inputs

    def test_union_division_j4_for_oc(self, catalog):
        css = catalog.css_for(Statistic.card(SE("C", "O")))
        j4 = [c for c in css if c.rule == "J4"]
        assert len(j4) == 1
        reject_join = [
            s for s in j4[0].inputs if isinstance(s.se, RejectJoinSE)
        ]
        assert len(reject_join) == 1
        rj = reject_join[0].se
        assert rj.reject == RejectSE(SE("O"), "pid", SE("P"))
        assert rj.other == SE("C")

    def test_reject_join_card_has_j1_css(self, catalog):
        """The side join |rej(O) x C| is not observable but has a J1 CSS
        over the reject-link and C histograms."""
        j4 = [
            c for c in catalog.css_for(Statistic.card(SE("C", "O")))
            if c.rule == "J4"
        ][0]
        rj_card = [s for s in j4.inputs if isinstance(s.se, RejectJoinSE)][0]
        assert not catalog.is_observable(rj_card)
        rules = {c.rule for c in catalog.css_for(rj_card)}
        assert "J1" in rules

    def test_identity_pass_adds_only_existing_statistics(self, catalog):
        """I2 coarsening never mints a statistic no regular rule produced."""
        regular_stats = set()
        for bucket in catalog.css.values():
            for css in bucket:
                if css.rule not in ("I1", "I2"):
                    regular_stats.add(css.target)
                    regular_stats.update(css.inputs)
        for bucket in catalog.css.values():
            for css in bucket:
                if css.rule in ("I1", "I2"):
                    assert set(css.inputs) <= regular_stats

    def test_observability_matches_initial_plan(self, catalog):
        assert catalog.is_observable(Statistic.card(SE("O", "P")))
        assert not catalog.is_observable(Statistic.card(SE("C", "O")))
        assert catalog.is_observable(Statistic.hist(SE("O"), "cid"))
        # reject link of O against P is instrumentable
        rej = RejectSE(SE("O"), "pid", SE("P"))
        assert catalog.is_observable(Statistic.hist(rej, "cid"))

    def test_union_division_disabled(self):
        catalog = generate_css(
            analyze(fig6_workflow()), GeneratorOptions(union_division=False)
        )
        rules = {
            c.rule for bucket in catalog.css.values() for c in bucket
        }
        assert "J4" not in rules and "J5" not in rules

    def test_ud_catalog_is_superset(self):
        analysis = analyze(fig6_workflow())
        with_ud = generate_css(analysis)
        without = generate_css(analysis, GeneratorOptions(union_division=False))
        assert without.counts()["css"] <= with_ud.counts()["css"]
        for target, bucket in without.css.items():
            for css in bucket:
                assert css in with_ud.css_for(target)


class TestChainRules:
    def test_filter_s1_s2(self):
        cat = Catalog()
        cat.add_relation("T", {"a": 10, "b": 20})
        cat.add_relation("R", {"b": 20})
        flow = Filter(Source(cat, "T"), "a", Predicate("p"))
        out = Join(flow, Source(cat, "R"), "b")
        catalog = generate_css(analyze(Workflow("w", cat, [Target(out, "x")])))
        # the filtered stage's cardinality <- H_raw^a (S1)
        filtered = [
            s for s in catalog.required
            if s.se.is_base and s.se.base_name.startswith("T@")
        ]
        assert filtered
        css = catalog.css_for(filtered[0])
        s1 = [c for c in css if c.rule == "S1"]
        assert s1 and s1[0].inputs == (Statistic.hist(SE("T"), "a"),)
        # H_filtered^b <- H_raw^{a,b} (S2)
        stage_name = filtered[0].se.base_name
        s2_target = Statistic.hist(SE(stage_name), "b")
        s2 = [c for c in catalog.css_for(s2_target) if c.rule == "S2"]
        assert s2 and s2[0].inputs == (Statistic.hist(SE("T"), "a", "b"),)

    def test_transform_u1_u2(self):
        cat = Catalog()
        cat.add_relation("T", {"a": 10, "b": 20})
        cat.add_relation("R", {"b": 20})
        flow = Transform(Source(cat, "T"), "a", UdfSpec("u"))
        out = Join(flow, Source(cat, "R"), "b")
        catalog = generate_css(analyze(Workflow("w", cat, [Target(out, "x")])))
        stage = [
            s for s in catalog.required
            if s.se.is_base and s.se.base_name.startswith("T@")
        ][0]
        rules = {c.rule for c in catalog.css_for(stage)}
        assert "U1" in rules
        # H^b passes through (b untouched), H^a does not (a rewritten)
        stage_name = stage.se.base_name
        assert any(
            c.rule == "U2"
            for c in catalog.css_for(Statistic.hist(SE(stage_name), "b"))
        )
        assert not any(
            c.rule == "U2"
            for c in catalog.css_for(Statistic.hist(SE(stage_name), "a"))
        )

    def test_group_by_g1(self):
        cat = Catalog()
        cat.add_relation("T", {"a": 10, "b": 20})
        cat.add_relation("R", {"a": 10})
        agg = Aggregate(Source(cat, "T"), ("a",), {"n": ("count", "b")})
        out = Join(agg, Source(cat, "R"), "a")
        catalog = generate_css(analyze(Workflow("w", cat, [Target(out, "x")])))
        g1 = [
            c for bucket in catalog.css.values() for c in bucket
            if c.rule == "G1"
        ]
        assert len(g1) == 1
        (input_stat,) = g1[0].inputs
        assert input_stat.kind.value == "distinct"
        assert input_stat.attrs == ("a",)


class TestFkRule:
    def _workflow(self, filtered_parent: bool):
        cat = Catalog()
        cat.add_relation("Fact", {"k": 10, "v": 5})
        cat.add_relation("Dim", {"k": 10, "w": 3})
        cat.add_foreign_key("Fact", "Dim", "k")
        fact = Source(cat, "Fact")
        dim = Source(cat, "Dim")
        if filtered_parent:
            dim = Filter(dim, "w", Predicate("p"))
        return Workflow("w", cat, [Target(Join(fact, dim, "k"), "x")])

    def test_fk_reduction_emitted(self):
        catalog = generate_css(analyze(self._workflow(False)))
        fk = [
            c for bucket in catalog.css.values() for c in bucket
            if c.rule == "FK"
        ]
        assert len(fk) == 1
        assert fk[0].inputs == (Statistic.card(SE("Fact")),)

    def test_filtered_parent_breaks_lookup(self):
        catalog = generate_css(analyze(self._workflow(True)))
        fk = [
            c for bucket in catalog.css.values() for c in bucket
            if c.rule == "FK"
        ]
        assert fk == []

    def test_fk_rules_can_be_disabled(self):
        catalog = generate_css(
            analyze(self._workflow(False)), GeneratorOptions(fk_rules=False)
        )
        assert not any(
            c.rule == "FK" for bucket in catalog.css.values() for c in bucket
        )


def test_one_object_per_statistic():
    """Algorithm 1 interns its statistics: every reference in wf21's
    catalog to one statistic is to one object."""
    case = next(case for case in suite() if case.number == 21)
    catalog = generate_css(analyze(case.build()))
    referenced = [
        stat
        for bucket in catalog.css.values()
        for css in bucket
        for stat in (css.target, *css.inputs)
    ]
    referenced += [*catalog.required, *catalog.observable, *catalog.block_of]
    assert len(catalog.all_statistics) == 774
    assert len({id(stat) for stat in referenced}) == 774
