"""Integration tests: executing analyzed workflows with instrumentation."""

import pytest

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
from repro.algebra.plans import JoinNode, Leaf
from repro.algebra.schema import Catalog
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor
from repro.engine.instrumentation import InstrumentationError, TapSet
from repro.engine.table import Table, TableError

SE = SubExpression.of


@pytest.fixture
def setup():
    cat = Catalog()
    cat.add_relation("O", {"pid": 5, "cid": 5, "oid": 100})
    cat.add_relation("P", {"pid": 5, "pname": 10})
    cat.add_relation("C", {"cid": 5, "cname": 10})
    o, p, c = Source(cat, "O"), Source(cat, "P"), Source(cat, "C")
    wf = Workflow(
        "w", cat, [Target(Join(Join(o, p, "pid"), c, "cid"), "out")]
    )
    sources = {
        "O": Table({"pid": [1, 1, 2, 3], "cid": [1, 2, 2, 4], "oid": [1, 2, 3, 4]}),
        "P": Table({"pid": [1, 2, 2], "pname": [7, 8, 9]}),
        "C": Table({"cid": [2, 4], "cname": [5, 6]}),
    }
    return analyze(wf), sources


class TestExecution:
    def test_initial_plan_produces_target(self, setup):
        analysis, sources = setup
        run = BackendExecutor(analysis).run(sources)
        # brute force: O|x|P on pid then |x|C on cid
        expected = 0
        for pid, cid in zip(sources["O"].column("pid"), sources["O"].column("cid")):
            p_matches = sum(1 for v in sources["P"].column("pid") if v == pid)
            c_matches = sum(1 for v in sources["C"].column("cid") if v == cid)
            expected += p_matches * c_matches
        assert run.targets["out"].num_rows == expected

    def test_se_sizes_recorded_for_plan_points(self, setup):
        analysis, sources = setup
        run = BackendExecutor(analysis).run(sources)
        assert run.se_sizes[SE("O")] == 4
        assert SE("O", "P") in run.se_sizes
        assert SE("C", "O", "P") in run.se_sizes
        assert SE("C", "O") not in run.se_sizes  # not in the initial plan

    def test_reordered_plan_same_target(self, setup):
        analysis, sources = setup
        block = analysis.blocks[0]
        reordered = JoinNode(
            JoinNode(Leaf("O"), Leaf("C"), ("cid",)), Leaf("P"), ("pid",)
        )
        base = BackendExecutor(analysis).run(sources)
        alt = BackendExecutor(analysis).run(sources, trees={block.name: reordered})
        assert (
            sorted(alt.targets["out"].rows(sorted(alt.targets["out"].attrs)))
            == sorted(base.targets["out"].rows(sorted(base.targets["out"].attrs)))
        )
        assert SE("C", "O") in alt.se_sizes

    def test_tree_must_cover_inputs(self, setup):
        analysis, sources = setup
        block = analysis.blocks[0]
        bad = JoinNode(Leaf("O"), Leaf("P"), ("pid",))
        with pytest.raises(TableError):
            BackendExecutor(analysis).run(sources, trees={block.name: bad})

    def test_missing_source_rejected(self, setup):
        analysis, sources = setup
        del sources["C"]
        with pytest.raises(TableError, match="missing source"):
            BackendExecutor(analysis).run(sources)

    def test_taps_observe_requested_stats(self, setup):
        analysis, sources = setup
        taps = TapSet(
            [
                Statistic.card(SE("O", "P")),
                Statistic.hist(SE("O"), "cid"),
                Statistic.hist(SE("C"), "cid"),
            ]
        )
        run = BackendExecutor(analysis).run(sources, taps=taps)
        assert taps.missing() == []
        assert run.observations.get(Statistic.card(SE("O", "P"))) == run.se_sizes[SE("O", "P")]
        hist = run.observations.get(Statistic.hist(SE("O"), "cid"))
        assert hist.total() == 4

    def test_instrumentation_reject_link_added(self, setup):
        """A reject-link statistic forces the executor to produce the
        reject output even though the workflow never materialized it."""
        analysis, sources = setup
        rej = RejectSE(SE("O"), "pid", SE("P"))
        taps = TapSet([Statistic.card(rej), Statistic.hist(rej, "cid")])
        run = BackendExecutor(analysis).run(sources, taps=taps)
        assert taps.missing() == []
        # O rows with pid=3 never join P
        assert run.observations.get(Statistic.card(rej)) == 1
        assert rej in run.rejects

    def test_reject_join_statistic_rejected_by_taps(self, setup):
        from repro.algebra.expressions import RejectJoinSE

        rej = RejectSE(SE("O"), "pid", SE("P"))
        rj = RejectJoinSE(rej, "cid", SE("C"))
        with pytest.raises(InstrumentationError):
            TapSet([Statistic.card(rj)])

    def test_histogram_on_missing_attr_fails_loudly(self, setup):
        analysis, sources = setup
        taps = TapSet([Statistic.hist(SE("P"), "cid")])  # P has no cid
        with pytest.raises(InstrumentationError, match="not live"):
            BackendExecutor(analysis).run(sources, taps=taps)


class TestBoundariesExecution:
    def test_pinned_join_with_reject_and_downstream_block(self):
        cat = Catalog()
        cat.add_relation("A", {"k": 5, "g": 4})
        cat.add_relation("B", {"k": 5})
        cat.add_relation("D", {"g": 4, "w": 9})
        a, b, d = Source(cat, "A"), Source(cat, "B"), Source(cat, "D")
        pinned = Join(a, b, "k", reject_left=True)
        wf = Workflow("w", cat, [Target(Join(pinned, d, "g"), "out")])
        analysis = analyze(wf)
        sources = {
            "A": Table({"k": [1, 2, 9], "g": [1, 1, 2]}),
            "B": Table({"k": [1, 2, 3]}),
            "D": Table({"g": [1, 3], "w": [10, 30]}),
        }
        run = BackendExecutor(analysis).run(sources)
        # pinned join drops k=9, downstream join keeps g=1 rows (2 of them)
        assert run.targets["out"].num_rows == 2
        # the materialized reject was produced
        assert any(r.source == SE("A") for r in run.rejects)

    def test_aggregate_boundary_and_downstream_join(self):
        cat = Catalog()
        cat.add_relation("T", {"g": 4, "v": 50})
        cat.add_relation("R", {"g": 4, "w": 9})
        t, r = Source(cat, "T"), Source(cat, "R")
        agg = Aggregate(t, ("g",), {"n": ("count", "v")})
        wf = Workflow("w", cat, [Target(Join(agg, r, "g"), "out")])
        analysis = analyze(wf)
        sources = {
            "T": Table({"g": [1, 1, 2], "v": [5, 6, 7]}),
            "R": Table({"g": [1, 2, 3], "w": [10, 20, 30]}),
        }
        run = BackendExecutor(analysis).run(sources)
        out = run.targets["out"]
        assert out.num_rows == 2
        rows = {row[0]: row for row in out.rows(("g", "n", "w"))}
        assert rows[1] == (1, 2, 10)
        assert rows[2] == (2, 1, 20)

    def test_aggregate_udf_boundary(self):
        cat = Catalog()
        cat.add_relation("T", {"a": 5})
        def dedupe(rows):
            return [dict(t) for t in sorted({tuple(r.items()) for r in rows})]

        flow = AggregateUDF(Source(cat, "T"), "dedupe", dedupe)
        wf = Workflow("w", cat, [Target(flow, "out")])
        run = BackendExecutor(analyze(wf)).run({"T": Table({"a": [1, 1, 2]})})
        assert run.targets["out"].num_rows == 2

    def test_materialize_passthrough(self):
        cat = Catalog()
        cat.add_relation("T", {"a": 5})
        flow = Materialize(Source(cat, "T"), "snap")
        wf = Workflow("w", cat, [Target(flow, "out")])
        run = BackendExecutor(analyze(wf)).run({"T": Table({"a": [1, 2]})})
        assert run.targets["out"].num_rows == 2

    def test_sealed_block_post_transform_applied(self):
        """Figure 3 B2: the UDF deriving a downstream join key runs as a
        post-step of the sealed block."""
        cat = Catalog()
        cat.add_relation("A", {"x": 5, "a": 9})
        cat.add_relation("B", {"x": 5, "b": 9})
        cat.add_relation("Cc", {"c": 30})
        u = Transform(
            Join(Source(cat, "A"), Source(cat, "B"), "x"),
            ("a", "b"),
            UdfSpec("mk", lambda vs: vs[0] + vs[1]),
            output_attr="c",
        )
        wf = Workflow("w", cat, [Target(Join(u, Source(cat, "Cc"), "c"), "out")])
        analysis = analyze(wf)
        sources = {
            "A": Table({"x": [1, 2], "a": [3, 4]}),
            "B": Table({"x": [1, 2], "b": [5, 6]}),
            "Cc": Table({"c": [8, 10, 11]}),
        }
        run = BackendExecutor(analysis).run(sources)
        # derived c values: 3+5=8, 4+6=10 -> both match Cc
        assert run.targets["out"].num_rows == 2

    def test_filter_pushdown_preserves_semantics(self):
        cat = Catalog()
        cat.add_relation("A", {"k": 5, "v": 9})
        cat.add_relation("B", {"k": 5})
        flow = Filter(
            Join(Source(cat, "A"), Source(cat, "B"), "k"),
            "v",
            Predicate("big", lambda v: v >= 5),
        )
        wf = Workflow("w", cat, [Target(flow, "out")])
        sources = {
            "A": Table({"k": [1, 2, 3], "v": [4, 5, 6]}),
            "B": Table({"k": [1, 2]}),
        }
        run = BackendExecutor(analyze(wf)).run(sources)
        assert run.targets["out"].num_rows == 1  # k=2,v=5 only


class TestBackendNames:
    def test_every_name_resolves_to_its_backend(self):
        from repro.engine.backend import available_backends, get_backend

        names = available_backends()
        assert names == ["columnar", "multiprocess", "streaming", "vectorized"]
        assert [get_backend(name).name for name in names] == names
        # a second name for the columnar profile, not a second engine
        assert get_backend("vectorized").profile is get_backend("columnar").profile

    def test_unknown_name_lists_the_available_ones(self):
        from repro.engine.backend import get_backend

        with pytest.raises(TableError) as info:
            get_backend("bogus")
        assert str(info.value) == (
            "unknown execution backend 'bogus'; available: "
            "['columnar', 'multiprocess', 'streaming', 'vectorized']"
        )

    def test_scheduler_width_is_not_an_option(self, setup):
        from repro import StatisticsPipeline

        analysis, _ = setup
        with pytest.raises(TypeError):
            BackendExecutor(analysis, "columnar", workers=2)
        with pytest.raises(TypeError):
            StatisticsPipeline(analysis.workflow, workers=2)
