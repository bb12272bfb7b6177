"""Tests for workflow JSON/XML serialization round-trips."""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.serialize import (
    FunctionRegistry,
    SerializationError,
    workflow_from_dict,
    workflow_from_json,
    workflow_from_xml,
    workflow_to_dict,
    workflow_to_json,
    workflow_to_xml,
)
from repro.workloads import case, suite


def registry_for(numbers=()):
    """Pass-through registry; semantics only matter for execution tests."""
    return FunctionRegistry()


class TestJsonRoundTrip:
    @pytest.mark.parametrize("number", [1, 7, 17, 21, 22, 25])
    def test_structure_survives(self, number):
        original = case(number).build()
        clone = workflow_from_json(workflow_to_json(original))
        assert clone.name == original.name
        assert clone.source_names() == original.source_names()
        # the clone analyzes to the same block structure
        a1, a2 = analyze(original), analyze(clone)
        assert len(a1.blocks) == len(a2.blocks)
        for b1, b2 in zip(a1.blocks, a2.blocks):
            assert b1.n_way == b2.n_way
            assert str(b1.initial_tree) == str(b2.initial_tree)
            assert b1.pinned == b2.pinned

    def test_identical_css_catalogs(self):
        """The whole identification pipeline produces the same statistics
        for an imported workflow."""
        from repro.core.generator import generate_css

        original = case(11).build()
        clone = workflow_from_json(workflow_to_json(original))
        c1 = generate_css(analyze(original))
        c2 = generate_css(analyze(clone))
        assert c1.counts() == c2.counts()
        assert c1.required == c2.required

    def test_catalog_metadata_survives(self):
        original = case(11).build()
        clone = workflow_from_json(workflow_to_json(original))
        assert set(clone.catalog.relations) == set(original.catalog.relations)
        assert len(clone.catalog.foreign_keys) == len(original.catalog.foreign_keys)
        for attr in ("account_id", "security_id"):
            assert clone.catalog.domain_size(attr) == original.catalog.domain_size(attr)

    def test_registry_binds_semantics(self):
        doc = workflow_to_dict(case(1).build())
        registry = FunctionRegistry(
            predicates={"first_half": lambda v: v <= 182},
            udfs={"fiscal": lambda v: ((v - 1) // 7) + 1},
        )
        clone = workflow_from_dict(doc, registry)
        from repro.algebra.operators import Filter

        filters = [n for n in clone.nodes() if isinstance(n, Filter)]
        assert filters and filters[0].predicate(100) and not filters[0].predicate(300)

    def test_executed_results_match_with_registry(self):
        from repro.engine.backend import BackendExecutor
        from repro.workloads.tpcdi import P_FIRST_HALF, U_FISCAL

        wfcase = case(1)
        original = wfcase.build()
        registry = FunctionRegistry(
            predicates={P_FIRST_HALF.name: P_FIRST_HALF.fn},
            udfs={U_FISCAL.name: U_FISCAL.fn},
        )
        clone = workflow_from_json(workflow_to_json(original), registry)
        sources = wfcase.tables(scale=0.2, seed=6)
        run1 = BackendExecutor(analyze(original)).run(sources)
        run2 = BackendExecutor(analyze(clone)).run(sources)
        t1, t2 = run1.targets["dim_date"], run2.targets["dim_date"]
        assert sorted(t1.rows(sorted(t1.attrs))) == sorted(t2.rows(sorted(t2.attrs)))


class TestXmlRoundTrip:
    @pytest.mark.parametrize("number", [5, 11, 23, 30])
    def test_xml_structure_survives(self, number):
        original = case(number).build()
        xml = workflow_to_xml(original)
        assert xml.startswith("<etl-workflow")
        clone = workflow_from_xml(xml)
        a1, a2 = analyze(original), analyze(clone)
        assert [b.n_way for b in a1.blocks] == [b.n_way for b in a2.blocks]

    def test_whole_suite_round_trips(self):
        for c in suite():
            original = c.build()
            clone = workflow_from_xml(workflow_to_xml(original))
            assert clone.source_names() == original.source_names()


class TestErrors:
    def test_bad_json(self):
        with pytest.raises(SerializationError, match="invalid JSON"):
            workflow_from_json("{nope")

    def test_bad_xml(self):
        with pytest.raises(SerializationError, match="invalid XML"):
            workflow_from_xml("<unclosed")

    def test_wrong_root(self):
        with pytest.raises(SerializationError, match="unexpected root"):
            workflow_from_xml("<other/>")

    def test_missing_sections(self):
        with pytest.raises(SerializationError, match="missing workflow"):
            workflow_from_dict({"name": "x"})

    def test_unknown_node_kind(self):
        doc = workflow_to_dict(case(2).build())
        doc["nodes"][0]["kind"] = "Mystery"
        with pytest.raises(SerializationError):
            workflow_from_dict(doc)

    def test_target_ref_must_be_target(self):
        doc = workflow_to_dict(case(2).build())
        doc["targets"] = [doc["nodes"][0]["id"]]
        with pytest.raises(SerializationError, match="not a Target"):
            workflow_from_dict(doc)
