"""Unit tests for the columnar table."""

import pytest

from repro.core.histogram import Histogram
from repro.engine.table import Table, TableError


class TestTable:
    def test_ragged_columns_rejected(self):
        with pytest.raises(TableError):
            Table({"a": [1, 2], "b": [1]})

    def test_empty_schema_rejected(self):
        with pytest.raises(TableError):
            Table({})

    def test_from_rows_roundtrip(self):
        t = Table.from_rows(("a", "b"), [(1, 2), (3, 4)])
        assert t.num_rows == 2
        assert list(t.rows()) == [(1, 2), (3, 4)]
        assert t.column("a") == [1, 3]

    def test_from_rows_validates_width(self):
        with pytest.raises(TableError):
            Table.from_rows(("a", "b"), [(1,)])

    def test_rows_with_projection(self):
        t = Table({"a": [1, 2], "b": [3, 4]})
        assert list(t.rows(("b",))) == [(3,), (4,)]

    def test_unknown_column(self):
        t = Table({"a": [1]})
        with pytest.raises(TableError):
            t.column("b")
        assert t.has_column("a") and not t.has_column("b")

    def test_take(self):
        t = Table({"a": [10, 20, 30]})
        assert t.take([2, 0]).column("a") == [30, 10]

    def test_with_column(self):
        t = Table({"a": [1, 2]})
        t2 = t.with_column("b", [5, 6])
        assert t2.attrs == ("a", "b")
        assert t.attrs == ("a",)  # original untouched
        with pytest.raises(TableError):
            t.with_column("b", [5])

    def test_select_columns(self):
        t = Table({"a": [1], "b": [2]})
        assert t.select_columns(("b",)).attrs == ("b",)

    def test_histogram(self):
        t = Table({"a": [1, 1, 2]})
        assert t.histogram(("a",)) == Histogram(("a",), {(1,): 2, (2,): 1})

    def test_distinct_count(self):
        t = Table({"a": [1, 1, 2], "b": [1, 1, 1]})
        assert t.distinct_count(("a",)) == 2
        assert t.distinct_count(("a", "b")) == 2

    def test_init_copies_caller_columns(self):
        """Regression: the constructor used to alias the caller's lists, so
        mutating the source dict after construction corrupted the table."""
        col = [1, 2, 3]
        t = Table({"a": col})
        col.append(4)
        col[0] = 99
        assert t.num_rows == 3
        assert t.column("a") == [1, 2, 3]

    def test_tables_from_same_dict_are_independent(self):
        columns = {"a": [1, 2]}
        t1 = Table(columns)
        t2 = Table(columns)
        t1.columns["a"][0] = 77
        assert t2.column("a") == [1, 2]

    def test_wrap_adopts_columns_without_copy(self):
        """``wrap`` is the trusted fast path: fresh engine-built columns are
        adopted as-is (no defensive copy, no validation loop)."""
        col = [1, 2]
        t = Table.wrap({"a": col})
        assert t.column("a") is col
        assert t.num_rows == 2 and t.attrs == ("a",)

    def test_wrap_requires_a_column(self):
        with pytest.raises(TableError):
            Table.wrap({})

    def test_row_dicts(self):
        t = Table({"a": [1], "b": [2]})
        assert t.row_dicts() == [{"a": 1, "b": 2}]

    def test_empty_table(self):
        t = Table.empty(("a", "b"))
        assert t.num_rows == 0
        assert list(t.rows()) == []
