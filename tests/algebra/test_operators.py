"""Unit tests for the workflow DAG model and schema propagation."""

import pytest

from repro.algebra.operators import (
    Aggregate,
    Filter,
    Join,
    Materialize,
    Predicate,
    Project,
    Source,
    Target,
    Transform,
    UdfSpec,
    Workflow,
    WorkflowError,
)
from repro.algebra.schema import Catalog


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_relation("T1", {"a": 10, "b": 20})
    cat.add_relation("T2", {"a": 10, "c": 30})
    cat.add_attribute("d", 40)
    return cat


class TestNodes:
    def test_source_attrs(self, catalog):
        assert Source(catalog, "T1").output_attrs() == ("a", "b")

    def test_filter_validates_attr(self, catalog):
        src = Source(catalog, "T1")
        Filter(src, "a", Predicate("p"))
        with pytest.raises(WorkflowError):
            Filter(src, "zzz", Predicate("p"))

    def test_project_narrows_attrs(self, catalog):
        node = Project(Source(catalog, "T1"), ("b",))
        assert node.output_attrs() == ("b",)
        with pytest.raises(WorkflowError):
            Project(Source(catalog, "T1"), ("zzz",))

    def test_transform_in_place_keeps_attrs(self, catalog):
        node = Transform(Source(catalog, "T1"), "a", UdfSpec("u"))
        assert node.output_attrs() == ("a", "b")
        assert node.result_attr == "a"

    def test_transform_derives_new_attr(self, catalog):
        node = Transform(Source(catalog, "T1"), "a", UdfSpec("u"), output_attr="d")
        assert node.output_attrs() == ("a", "b", "d")
        assert node.result_attr == "d"

    def test_multi_attr_transform_needs_output(self, catalog):
        src = Source(catalog, "T1")
        with pytest.raises(WorkflowError):
            Transform(src, ("a", "b"), UdfSpec("u"))
        node = Transform(src, ("a", "b"), UdfSpec("u"), output_attr="d")
        assert node.input_attrs == ("a", "b")

    def test_join_unions_attrs(self, catalog):
        j = Join(Source(catalog, "T1"), Source(catalog, "T2"), "a")
        assert j.output_attrs() == ("a", "b", "c")

    def test_join_validates_key(self, catalog):
        with pytest.raises(WorkflowError):
            Join(Source(catalog, "T1"), Source(catalog, "T2"), "b")

    def test_join_rejects_shared_origins(self, catalog):
        t1 = Source(catalog, "T1")
        with pytest.raises(WorkflowError):
            Join(t1, Filter(t1, "a", Predicate("p")), "a")

    def test_aggregate_validation(self, catalog):
        src = Source(catalog, "T1")
        agg = Aggregate(src, ("a",), {"n": ("count", "b")})
        assert agg.output_attrs() == ("a", "n")
        with pytest.raises(WorkflowError):
            Aggregate(src, ("zzz",))
        with pytest.raises(WorkflowError):
            Aggregate(src, ("a",), {"n": ("median", "b")})
        with pytest.raises(WorkflowError):
            Aggregate(src, ("a",), {"n": ("sum", "zzz")})

    def test_origin_relations_propagate(self, catalog):
        j = Join(Source(catalog, "T1"), Source(catalog, "T2"), "a")
        assert j.origin_relations() == frozenset({"T1", "T2"})
        assert Materialize(j, "m").origin_relations() == frozenset({"T1", "T2"})


class TestWorkflow:
    def test_requires_target(self, catalog):
        with pytest.raises(WorkflowError):
            Workflow("w", catalog, [])

    def test_nodes_topological(self, catalog):
        t1, t2 = Source(catalog, "T1"), Source(catalog, "T2")
        j = Join(t1, t2, "a")
        wf = Workflow("w", catalog, [Target(j, "out")])
        order = wf.nodes()
        assert order.index(t1) < order.index(j)
        assert order.index(t2) < order.index(j)
        assert isinstance(order[-1], Target)

    def test_source_names_deduplicated(self, catalog):
        t1 = Source(catalog, "T1")
        f1 = Filter(t1, "a", Predicate("p"))
        f2 = Filter(t1, "b", Predicate("q"))
        j = Join(f1, Source(catalog, "T2"), "a")
        wf = Workflow("w", catalog, [Target(j, "x"), Target(f2, "y")])
        assert wf.source_names() == ["T1", "T2"]

    def test_consumers_map(self, catalog):
        t1 = Source(catalog, "T1")
        f = Filter(t1, "a", Predicate("p"))
        wf = Workflow("w", catalog, [Target(f, "out")])
        consumers = wf.consumers()
        assert [n.label for n in consumers[t1.node_id]] == [f.label]

    def test_describe_mentions_every_node(self, catalog):
        t1 = Source(catalog, "T1")
        wf = Workflow("w", catalog, [Target(t1, "out")])
        text = wf.describe()
        assert "Source(T1)" in text and "Target(out)" in text


class TestPredicateUdf:
    def test_predicate_equality_by_name(self):
        assert Predicate("p", lambda v: v > 1) == Predicate("p", lambda v: v < 1)
        assert Predicate("p") != Predicate("q")

    def test_predicate_callable(self):
        assert Predicate("p", lambda v: v > 1)(2)

    def test_udf_callable(self):
        assert UdfSpec("u", lambda v: v * 2)(3) == 6
