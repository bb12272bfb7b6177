"""Unit tests for the exact-histogram algebra (the rule-set primitives)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import Histogram, HistogramError


def h(attr, counts):
    return Histogram((attr,), {(value,): n for value, n in counts.items()})


class TestConstruction:
    def test_from_rows_counts_frequencies(self):
        hist = Histogram.from_rows(("a",), [(1,), (1,), (2,)])
        assert hist.counts.get((1,), 0) == 2
        assert hist.counts.get((2,), 0) == 1
        assert hist.total() == 3

    def test_from_rows_canonicalizes_attribute_order(self):
        hist = Histogram.from_rows(("b", "a"), [(10, 1), (20, 2)])
        assert hist.attrs == ("a", "b")
        assert hist.counts.get((1, 10), 0) == 1
        assert hist.counts.get((2, 20), 0) == 1

    def test_zero_buckets_dropped(self):
        hist = h("a", {1: 0, 2: 5})
        assert len(hist) == 1
        assert hist.counts.get((1,), 0) == 0

    def test_rejects_unsorted_attrs(self):
        with pytest.raises(HistogramError):
            Histogram(("b", "a"), {})

    def test_rejects_duplicate_attrs(self):
        with pytest.raises(HistogramError):
            Histogram(("a", "a"), {})

    def test_rejects_mismatched_bucket_width(self):
        with pytest.raises(HistogramError):
            Histogram(("a", "b"), {(1,): 2})

    def test_rejects_empty_attrs(self):
        with pytest.raises(HistogramError):
            Histogram((), {})

    def test_equality_and_hash(self):
        h1 = h("a", {1: 2, 2: 3})
        h2 = h("a", {2: 3, 1: 2})
        assert h1 == h2
        assert hash(h1) == hash(h2)
        assert h1 != h("a", {1: 2})


class TestDot:
    """Rule J1: |T1 join T2| = H1 . H2."""

    def test_matches_brute_force_join(self):
        left = [1, 1, 2, 3, 3, 3]
        right = [1, 3, 3, 4]
        expected = sum(1 for x in left for y in right if x == y)
        assert Histogram.from_rows(("a",), [(v,) for v in left]).dot(
            Histogram.from_rows(("a",), [(v,) for v in right])
        ) == expected

    def test_disjoint_domains_give_zero(self):
        assert h("a", {1: 5}).dot(h("a", {2: 7})) == 0

    def test_attr_mismatch_raises(self):
        with pytest.raises(HistogramError):
            h("a", {1: 1}).dot(h("b", {1: 1}))

    @given(
        st.dictionaries(st.integers(0, 20), st.integers(1, 50), max_size=15),
        st.dictionaries(st.integers(0, 20), st.integers(1, 50), max_size=15),
    )
    def test_dot_is_symmetric(self, c1, c2):
        h1, h2 = h("a", c1), h("a", c2)
        assert h1.dot(h2) == h2.dot(h1)


class TestMultiplyDivide:
    """Equations 2-3: the union-division bucket algebra."""

    def test_multiply_then_divide_roundtrips(self):
        h1 = h("a", {1: 3, 2: 5, 7: 2})
        h2 = h("a", {1: 4, 2: 1, 7: 6})
        assert h1.multiply(h2).divide(h2) == h1

    def test_multiply_drops_unmatched_buckets(self):
        prod = h("a", {1: 3, 2: 5}).multiply(h("a", {1: 2}))
        assert prod == h("a", {1: 6})

    def test_divide_by_zero_bucket_drops(self):
        quot = h("a", {1: 6, 2: 4}).divide(h("a", {1: 3}))
        assert quot == h("a", {1: 2})

    def test_multiply_broadcasts_over_extra_attrs(self):
        joint = Histogram(("a", "b"), {(1, 10): 2, (1, 20): 3, (2, 10): 5})
        single = h("a", {1: 4})
        result = joint.multiply(single)
        assert result.counts.get((1, 10), 0) == 8
        assert result.counts.get((1, 20), 0) == 12
        assert result.counts.get((2, 10), 0) == 0

    def test_broadcast_requires_subset(self):
        with pytest.raises(HistogramError):
            h("a", {1: 1}).multiply(Histogram(("a", "b"), {(1, 2): 1}))

    @given(
        st.dictionaries(st.integers(0, 10), st.integers(1, 9), min_size=1, max_size=8),
        st.dictionaries(st.integers(0, 10), st.integers(1, 9), min_size=1, max_size=8),
    )
    @settings(max_examples=60)
    def test_union_division_identity(self, c1, c2):
        """|H1*H2 / H2| equals the joined mass of H1 (Equation 3)."""
        h1, h2 = h("a", c1), h("a", c2)
        surviving = h1.multiply(h2).divide(h2)
        expected_total = sum(f for k, f in h1.counts.items() if k in h2.counts)
        assert surviving.total() == pytest.approx(expected_total)


class TestMarginalizeTotal:
    """Rules I1 and I2."""

    def test_marginalize_aggregates_buckets(self):
        joint = Histogram(("a", "b"), {(1, 10): 2, (1, 20): 3, (2, 10): 5})
        assert joint.marginalize(("a",)) == h("a", {1: 5, 2: 5})
        assert joint.marginalize(("b",)) == h("b", {10: 7, 20: 3})

    def test_marginalize_to_self_is_identity(self):
        joint = Histogram(("a", "b"), {(1, 10): 2})
        assert joint.marginalize(("a", "b")) is joint

    def test_marginalize_preserves_total(self):
        joint = Histogram(("a", "b"), {(1, 10): 2, (2, 20): 3})
        assert joint.marginalize(("a",)).total() == joint.total()

    def test_marginalize_requires_subset(self):
        with pytest.raises(HistogramError):
            h("a", {1: 1}).marginalize(("b",))

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.integers(1, 20),
            min_size=1,
            max_size=20,
        )
    )
    def test_total_invariant_under_marginalization(self, counts):
        joint = Histogram(("a", "b"), counts)
        for attrs in (("a",), ("b",)):
            assert joint.marginalize(attrs).total() == joint.total()


class TestAddSelect:
    def test_add_sums_disjoint_unions(self):
        assert h("a", {1: 2}).add(h("a", {1: 3, 2: 1})) == h("a", {1: 5, 2: 1})

    def test_select_filters_buckets(self):
        hist = h("a", {1: 2, 2: 3, 3: 4})
        assert hist.select("a", lambda v: v >= 2) == h("a", {2: 3, 3: 4})

    def test_select_on_joint_histogram(self):
        joint = Histogram(("a", "b"), {(1, 10): 2, (2, 10): 3})
        kept = joint.select("a", lambda v: v == 2)
        assert kept == Histogram(("a", "b"), {(2, 10): 3})

    def test_distinct_count(self):
        assert h("a", {1: 10, 5: 1}).distinct_count() == 2
