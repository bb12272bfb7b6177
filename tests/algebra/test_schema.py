"""Unit tests for catalog / schema metadata."""

import pytest

from repro.algebra.schema import Attribute, Catalog, SchemaError


class TestAttribute:
    def test_positive_domain_required(self):
        with pytest.raises(SchemaError):
            Attribute("a", 0)

    def test_equality(self):
        assert Attribute("a", 10) == Attribute("a", 10)


class TestCatalog:
    def test_add_relation_registers_attributes(self):
        cat = Catalog()
        cat.add_relation("T", {"a": 10, "b": 20})
        assert cat.domain_size("a") == 10
        assert cat.relation("T").attribute_names == ("a", "b")

    def test_shared_attribute_domains_must_agree(self):
        cat = Catalog()
        cat.add_relation("T1", {"a": 10})
        with pytest.raises(SchemaError):
            cat.add_relation("T2", {"a": 11})

    def test_shared_attribute_reused(self):
        cat = Catalog()
        cat.add_relation("T1", {"a": 10})
        cat.add_relation("T2", {"a": 10, "b": 5})
        (a1,) = cat.relation("T1").attributes
        a2 = cat.relation("T2").attributes[0]
        assert a1.name == a2.name == "a" and a1 is a2

    def test_duplicate_relation_rejected(self):
        cat = Catalog()
        cat.add_relation("T", {"a": 10})
        with pytest.raises(SchemaError):
            cat.add_relation("T", {"a": 10})

    def test_unknown_lookups_raise(self):
        cat = Catalog()
        with pytest.raises(SchemaError):
            cat.relation("nope")
        with pytest.raises(SchemaError):
            cat.attribute("nope")

    def test_foreign_keys(self):
        cat = Catalog()
        cat.add_relation("Fact", {"k": 10, "v": 5})
        cat.add_relation("Dim", {"k": 10})
        cat.add_foreign_key("Fact", "Dim", "k")
        assert cat.is_lookup_join("Fact", "Dim", "k")
        assert not cat.is_lookup_join("Dim", "Fact", "k")

    def test_foreign_key_validation(self):
        cat = Catalog()
        cat.add_relation("Fact", {"k": 10})
        with pytest.raises(SchemaError):
            cat.add_foreign_key("Fact", "Missing", "k")
        cat.add_relation("Dim", {"other": 3})
        with pytest.raises(SchemaError):
            cat.add_foreign_key("Fact", "Dim", "k")
