"""Unit tests for sub-expression identities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.expressions import (
    RejectJoinSE,
    RejectSE,
    SubExpression,
    se_sort_key,
)


names = st.sets(st.sampled_from(["T1", "T2", "T3", "T4", "T5"]), min_size=1)


class TestSubExpression:
    def test_order_insensitive_identity(self):
        assert SubExpression.of("A", "B") == SubExpression.of("B", "A")
        assert hash(SubExpression.of("A", "B")) == hash(SubExpression.of("B", "A"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SubExpression(frozenset())

    def test_base_accessors(self):
        se = SubExpression.of("T1")
        assert se.is_base and se.base_name == "T1"
        with pytest.raises(ValueError):
            SubExpression.of("T1", "T2").base_name

    def test_union_and_contains(self):
        a, b = SubExpression.of("T1"), SubExpression.of("T2", "T3")
        u = a.union(b)
        assert u == SubExpression.of("T1", "T2", "T3")
        assert a.relations | b.relations == u.relations

    def test_ordering_by_size_then_name(self):
        ses = [
            SubExpression.of("T2"),
            SubExpression.of("T1", "T3"),
            SubExpression.of("T1"),
        ]
        assert sorted(ses) == [
            SubExpression.of("T1"),
            SubExpression.of("T2"),
            SubExpression.of("T1", "T3"),
        ]

    @given(names, names)
    def test_union_is_commutative(self, a, b):
        sa, sb = SubExpression(frozenset(a)), SubExpression(frozenset(b))
        assert sa.union(sb) == sb.union(sa)

    @given(names)
    def test_sort_key_stable(self, a):
        se = SubExpression(frozenset(a))
        assert se_sort_key(se) == se_sort_key(SubExpression(frozenset(sorted(a))))


class TestRejectForms:
    def test_reject_identity(self):
        r1 = RejectSE(SubExpression.of("T1"), "a", SubExpression.of("T2"))
        r2 = RejectSE(SubExpression.of("T1"), "a", SubExpression.of("T2"))
        assert r1 == r2
        assert r1 != RejectSE(SubExpression.of("T2"), "a", SubExpression.of("T1"))

    def test_reject_join_identity(self):
        rej = RejectSE(SubExpression.of("T1"), "a", SubExpression.of("T2"))
        j1 = RejectJoinSE(rej, "b", SubExpression.of("T3"))
        j2 = RejectJoinSE(rej, "b", SubExpression.of("T3"))
        assert j1 == j2
        assert j1 != RejectJoinSE(rej, "c", SubExpression.of("T3"))

    def test_sort_keys_distinguish_flavours(self):
        se = SubExpression.of("T1")
        rej = RejectSE(se, "a", SubExpression.of("T2"))
        rj = RejectJoinSE(rej, "b", SubExpression.of("T3"))
        keys = {se_sort_key(se)[0], se_sort_key(rej)[0], se_sort_key(rj)[0]}
        assert keys == {0, 1, 2}

    def test_sort_key_rejects_garbage(self):
        with pytest.raises(TypeError):
            se_sort_key("T1")
