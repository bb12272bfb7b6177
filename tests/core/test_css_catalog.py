"""Unit tests for the CSS catalog container."""


from repro.algebra.expressions import SubExpression
from repro.algebra.schema import Catalog
from repro.core.costs import CostModel
from repro.core.css import CSS, TRIVIAL, CssCatalog
from repro.core.selection import build_problem
from repro.core.statistics import Statistic

SE = SubExpression.of


def stat_card(name="T1", *more):
    return Statistic.card(SE(name, *more))


def closure(catalog: CssCatalog, observed: set) -> set:
    """What the catalog's CSSs derive from ``observed``, through the
    selection problem built from it."""
    for stat in observed:
        catalog.mark_observable(stat)
    problem = build_problem(catalog, CostModel(Catalog()))
    derived = problem.closure({problem.index[stat] for stat in observed})
    return {problem.stat(i) for i in derived}


class TestCss:
    def test_context_lookup(self):
        css = CSS(
            stat_card(), (Statistic.hist(SE("T1"), "a"),), "J1",
            (("key", ("a",)),),
        )
        assert css.ctx("key") == ("a",)
        assert css.ctx("missing") is None

    def test_trivial_flag(self):
        assert CSS(stat_card(), (stat_card(),), TRIVIAL).is_trivial
        css = CSS(stat_card(), (Statistic.hist(SE("T1"), "a"),), "I1")
        assert not css.is_trivial

    def test_repr_mentions_rule(self):
        css = CSS(stat_card(), (Statistic.hist(SE("T1"), "a"),), "I1")
        assert "I1" in repr(css)


class TestCssCatalog:
    def test_add_dedupes(self):
        catalog = CssCatalog()
        css = CSS(stat_card(), (Statistic.hist(SE("T1"), "a"),), "I1")
        assert catalog.add(css)
        assert not catalog.add(css)
        assert len(catalog.css_for(stat_card())) == 1

    def test_all_statistics_closure(self):
        catalog = CssCatalog()
        h = Statistic.hist(SE("T1"), "a")
        catalog.add(CSS(stat_card(), (h,), "I1"))
        catalog.require(stat_card("T2"))
        catalog.mark_observable(Statistic.card(SE("T3")))
        stats = catalog.all_statistics
        assert stat_card() in stats
        assert h in stats
        assert stat_card("T2") in stats
        assert Statistic.card(SE("T3")) in stats

    def test_counts(self):
        catalog = CssCatalog()
        h = Statistic.hist(SE("T1"), "a")
        catalog.add(CSS(stat_card(), (h,), "I1"))
        catalog.require(stat_card())
        catalog.mark_observable(h)
        counts = catalog.counts()
        assert counts["css"] == 1
        assert counts["required"] == 1
        assert counts["observable"] == 1

    def test_closure_fixpoint(self):
        catalog = CssCatalog()
        a = stat_card("A")
        b = stat_card("B")
        c = stat_card("C")
        catalog.add(CSS(b, (a,), "B1"))
        catalog.add(CSS(c, (b,), "B1"))
        derived = closure(catalog, {a})
        assert derived == {a, b, c}
        assert closure(catalog, set()) == set()

    def test_closure_needs_all_inputs(self):
        catalog = CssCatalog()
        a, b, c = stat_card("A"), stat_card("B"), stat_card("C")
        catalog.add(CSS(c, (a, b), "J1"))
        assert c not in closure(catalog, {a})
        assert c in closure(catalog, {a, b})

    def test_describe_lists_flags(self):
        catalog = CssCatalog()
        a = stat_card("A")
        catalog.require(a)
        catalog.mark_observable(a)
        catalog.add(CSS(a, (Statistic.hist(SE("A"), "x"),), "I1"))
        text = catalog.describe()
        assert "obs" in text and "req" in text and "I1" in text

    def test_nontrivial_filter(self):
        catalog = CssCatalog()
        a = stat_card("A")
        catalog.add(CSS(a, (a,), TRIVIAL))
        catalog.add(CSS(a, (Statistic.hist(SE("A"), "x"),), "I1"))
        assert len(catalog.css_for(a)) == 2
        assert sum(not c.is_trivial for c in catalog.css_for(a)) == 1
