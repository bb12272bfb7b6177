"""Unit tests for physical operators, reject links included."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.physical import (
    apply_aggregate_udf,
    apply_filter,
    apply_project,
    apply_transform,
    group_by,
    hash_join,
)
from repro.engine.table import Table, TableError


class TestUnary:
    def test_filter(self):
        t = Table({"a": [1, 2, 3], "b": [9, 8, 7]})
        out = apply_filter(t, "a", lambda v: v >= 2)
        assert list(out.rows()) == [(2, 8), (3, 7)]

    def test_transform_single_attr(self):
        t = Table({"a": [1, 2]})
        out = apply_transform(t, ("a",), lambda v: v * 10, "a")
        assert out.column("a") == [10, 20]

    def test_transform_derives_attr(self):
        t = Table({"a": [1, 2]})
        out = apply_transform(t, ("a",), lambda v: v + 1, "c")
        assert out.column("a") == [1, 2]
        assert out.column("c") == [2, 3]

    def test_transform_multi_attr(self):
        t = Table({"a": [1, 2], "b": [10, 20]})
        out = apply_transform(t, ("a", "b"), lambda vs: vs[0] + vs[1], "s")
        assert out.column("s") == [11, 22]

    def test_project(self):
        t = Table({"a": [1], "b": [2]})
        assert apply_project(t, ("b",)).attrs == ("b",)


class TestHashJoin:
    def test_basic_join_with_multiplicity(self):
        left = Table({"k": [1, 1, 2], "l": [10, 11, 12]})
        right = Table({"k": [1, 3], "r": [100, 300]})
        out, rl, rr = hash_join(left, right, ("k",))
        assert rl is None and rr is None
        assert sorted(out.rows()) == [(1, 10, 100), (1, 11, 100)]

    def test_join_key_coalesces(self):
        left = Table({"k": [1], "l": [2]})
        right = Table({"k": [1], "r": [3]})
        out, _l, _r = hash_join(left, right, ("k",))
        assert out.attrs == ("k", "l", "r")

    def test_reject_left(self):
        left = Table({"k": [1, 2, 3]})
        right = Table({"k": [2]})
        out, rl, _ = hash_join(left, right, ("k",), want_reject_left=True)
        assert rl.column("k") == [1, 3]
        assert out.column("k") == [2]

    def test_reject_right(self):
        left = Table({"k": [2]})
        right = Table({"k": [1, 2, 2, 3]})
        _, _, rr = hash_join(left, right, ("k",), want_reject_right=True)
        assert rr.column("k") == [1, 3]

    def test_composite_key(self):
        left = Table({"a": [1, 1], "b": [5, 6]})
        right = Table({"a": [1], "b": [5], "c": [9]})
        out, _l, _r = hash_join(left, right, ("a", "b"))
        assert list(out.rows()) == [(1, 5, 9)]

    def test_empty_sides(self):
        left = Table.empty(("k",))
        right = Table({"k": [1]})
        out, rl, rr = hash_join(
            left, right, ("k",), want_reject_left=True, want_reject_right=True
        )
        assert out.num_rows == 0
        assert rl.num_rows == 0
        assert rr.num_rows == 1

    @given(
        st.lists(st.integers(0, 8), max_size=30),
        st.lists(st.integers(0, 8), max_size=30),
    )
    @settings(max_examples=50)
    def test_join_partition_invariant(self, lvals, rvals):
        """|matched rows of left side| + |reject_left| accounts for every
        left row, and the join size equals the histogram dot product."""
        left = Table({"k": lvals}) if lvals else Table.empty(("k",))
        right = Table({"k": rvals}) if rvals else Table.empty(("k",))
        out, rl, _ = hash_join(left, right, ("k",), want_reject_left=True)
        right_set = set(rvals)
        matched_left = sum(1 for v in lvals if v in right_set)
        assert rl.num_rows == len(lvals) - matched_left
        if lvals and rvals:
            expected = left.histogram(("k",)).dot(right.histogram(("k",)))
            assert out.num_rows == expected


class TestGroupBy:
    def test_count_sum_min_max(self):
        t = Table({"g": [1, 1, 2], "v": [10, 20, 30]})
        out = group_by(
            t,
            ("g",),
            {
                "n": ("count", "v"),
                "s": ("sum", "v"),
                "lo": ("min", "v"),
                "hi": ("max", "v"),
            },
        )
        rows = {r[0]: r[1:] for r in out.rows(("g", "n", "s", "lo", "hi"))}
        assert rows[1] == (2, 30, 10, 20)
        assert rows[2] == (1, 30, 30, 30)

    def test_group_count_equals_distinct(self):
        t = Table({"g": [1, 2, 2, 3, 3, 3]})
        out = group_by(t, ("g",))
        assert out.num_rows == 3

    def test_requires_something(self):
        t = Table({"g": [1]})
        with pytest.raises(TableError):
            group_by(t, ())


class TestAggregateUdf:
    def test_black_box_shrink(self):
        t = Table({"a": [1, 1, 2]})
        out = apply_aggregate_udf(
            t, lambda rows: [dict(s) for s in {tuple(r.items()) for r in rows}]
        )
        assert out.num_rows == 2

    def test_empty_result(self):
        t = Table({"a": [1]})
        out = apply_aggregate_udf(t, lambda rows: [])
        assert out.num_rows == 0
        assert out.attrs == ("a",)
