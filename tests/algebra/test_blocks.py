"""Unit tests for optimizable-block analysis (Section 3.2.1)."""


from repro.algebra.blocks import analyze
from repro.algebra.expressions import RejectSE, SubExpression
from repro.algebra.operators import (
    Aggregate,
    AggregateUDF,
    Filter,
    Join,
    Materialize,
    Predicate,
    Source,
    Target,
    Transform,
    UdfSpec,
    Workflow,
)
from repro.algebra.plans import internal_ses, tree_ses
from repro.algebra.schema import Catalog

P = Predicate("p", lambda v: v > 1)
U = UdfSpec("u", lambda v: v)


def catalog5():
    cat = Catalog()
    cat.add_relation("T1", {"a": 10, "x": 50})
    cat.add_relation("T2", {"a": 10, "y": 60})
    cat.add_relation("T3", {"x": 50, "b": 80})
    cat.add_relation("T4", {"c": 40})
    cat.add_relation("T5", {"d": 30, "c": 40})
    return cat


class TestSingleBlock:
    def test_linear_flow_is_one_trivial_block(self):
        cat = Catalog()
        cat.add_relation("T", {"a": 5})
        flow = Filter(Source(cat, "T"), "a", P)
        an = analyze(Workflow("w", cat, [Target(flow, "out")]))
        assert len(an.blocks) == 1
        block = an.blocks[0]
        assert block.n_way == 1
        assert len(block.inputs) == 1
        inp = next(iter(block.inputs.values()))
        assert [s.kind for s in inp.steps] == ["filter"]
        # stage chain: raw source + filtered stage
        assert len(inp.stage_ses()) == 2

    def test_join_chain_single_block(self):
        cat = catalog5()
        j = Join(Join(Source(cat, "T1"), Source(cat, "T2"), "a"),
                 Source(cat, "T3"), "x")
        an = analyze(Workflow("w", cat, [Target(j, "out")]))
        assert len(an.blocks) == 1
        block = an.blocks[0]
        assert block.n_way == 3
        assert not block.pinned
        assert block.join_se == SubExpression.of("T1", "T2", "T3")
        assert len(internal_ses(block.initial_tree)) == 2

    def test_filter_pushed_to_owning_input(self):
        cat = catalog5()
        j = Join(Source(cat, "T1"), Source(cat, "T2"), "a")
        flow = Filter(j, "y", P)  # y belongs to T2
        an = analyze(Workflow("w", cat, [Target(flow, "out")]))
        block = an.blocks[0]
        pushed = [
            inp for inp in block.inputs.values()
            if any(s.kind == "filter" for s in inp.steps)
        ]
        assert len(pushed) == 1
        assert pushed[0].base_name == "T2"
        assert not block.post_steps


class TestBoundaries:
    def test_materialized_reject_pins_join(self):
        cat = catalog5()
        j = Join(Source(cat, "T1"), Source(cat, "T2"), "a", reject_left=True)
        j2 = Join(j, Source(cat, "T3"), "x")
        an = analyze(Workflow("w", cat, [Target(j2, "out")]))
        assert len(an.blocks) == 2
        pinned = an.blocks[0]
        assert pinned.pinned
        assert pinned.materialized_rejects == (
            RejectSE(SubExpression.of("T1"), "a", SubExpression.of("T2")),
        )
        downstream = an.blocks[1]
        assert downstream.n_way == 2
        assert any(
            inp.base_name == pinned.output_name
            for inp in downstream.inputs.values()
        )

    def test_udf_derived_join_key_seals_block(self):
        """The Figure 3 B2 pattern: a transform spanning two inputs whose
        result is a downstream join key."""
        cat = catalog5()
        j = Join(Source(cat, "T1"), Source(cat, "T3"), "x")
        u = Transform(j, ("a", "b"), UdfSpec("mk"), output_attr="c")
        out = Join(u, Source(cat, "T4"), "c")
        an = analyze(Workflow("w", cat, [Target(out, "out")]))
        assert len(an.blocks) == 2
        sealed = an.blocks[0]
        assert sealed.join_se == SubExpression.of("T1", "T3")
        assert [s.kind for s in sealed.post_steps] == ["transform"]
        # the sealed block's output SE reflects the post step
        assert sealed.output_se != sealed.join_se

    def test_single_input_udf_join_key_not_a_boundary(self):
        """A UDF anchored to one input does not force a boundary even if its
        result is a join key."""
        cat = catalog5()
        u = Transform(Source(cat, "T5"), "d", UdfSpec("mk"), output_attr="c")
        out = Join(u, Source(cat, "T4"), "c")
        an = analyze(Workflow("w", cat, [Target(out, "out")]))
        assert len(an.blocks) == 1
        assert an.blocks[0].n_way == 2

    def test_aggregate_is_boundary(self):
        cat = catalog5()
        j = Join(Source(cat, "T1"), Source(cat, "T2"), "a")
        agg = Aggregate(j, ("a",), {"n": ("count", "x")})
        an = analyze(Workflow("w", cat, [Target(agg, "out")]))
        # the join block, plus a trivial block for the aggregate output
        assert len(an.blocks) == 2
        assert an.blocks[0].join_se == SubExpression.of("T1", "T2")
        assert any(b.node.label.startswith("Aggregate") for b in an.boundaries)

    def test_aggregate_feeds_downstream_block_with_link(self):
        cat = catalog5()
        j = Join(Source(cat, "T1"), Source(cat, "T2"), "a")
        agg = Aggregate(j, ("a", "x"), {"n": ("count", "y")})
        out = Join(agg, Source(cat, "T3"), "x")
        an = analyze(Workflow("w", cat, [Target(out, "out")]))
        assert len(an.blocks) == 2
        downstream = an.blocks[1]
        linked = [
            inp for inp in downstream.inputs.values() if inp.upstream is not None
        ]
        assert len(linked) == 1
        assert linked[0].upstream.kind == "aggregate"
        assert linked[0].upstream.group_attrs == ("a", "x")

    def test_aggregate_udf_is_opaque_boundary(self):
        cat = catalog5()
        flow = AggregateUDF(Source(cat, "T1"), "dedupe")
        an = analyze(Workflow("w", cat, [Target(flow, "out")]))
        assert any(b.node.label.startswith("AggregateUDF") for b in an.boundaries)

    def test_materialize_is_boundary(self):
        cat = catalog5()
        j = Join(Source(cat, "T1"), Source(cat, "T2"), "a")
        m = Materialize(j, "snapshot")
        out = Join(m, Source(cat, "T3"), "x")
        an = analyze(Workflow("w", cat, [Target(out, "out")]))
        assert len(an.blocks) == 2
        linked = [
            inp
            for inp in an.blocks[1].inputs.values()
            if inp.upstream is not None and inp.upstream.kind == "materialize"
        ]
        assert len(linked) == 1

    def test_shared_intermediate_is_boundary(self):
        cat = catalog5()
        j = Join(Source(cat, "T1"), Source(cat, "T2"), "a")
        left = Join(j, Source(cat, "T3"), "x")
        right = Filter(j, "y", P)
        an = analyze(
            Workflow("w", cat, [Target(left, "l"), Target(right, "r")])
        )
        # the shared join is its own block; both consumers read its output
        shared = an.blocks[0]
        assert shared.join_se == SubExpression.of("T1", "T2")
        assert len(an.blocks) == 3


class TestBlockAccessors:
    def _block(self):
        cat = catalog5()
        j = Join(Filter(Source(cat, "T1"), "x", P), Source(cat, "T2"), "a")
        an = analyze(Workflow("w", cat, [Target(j, "out")]))
        return an.blocks[0]

    def test_universe_contains_stages_and_joins(self):
        block = self._block()
        universe = block.universe()
        assert SubExpression.of("T1") in universe  # raw stage
        assert block.join_se in universe
        assert len(universe) == len(set(universe))

    def test_observable_ses_cover_initial_plan(self):
        block = self._block()
        observable = block.observable_ses()
        for se in tree_ses(block.initial_tree):
            assert se in observable

    def test_se_attrs_union_over_members(self):
        block = self._block()
        attrs = block.se_attrs(block.join_se)
        assert set(attrs) == {"a", "x", "y"}
