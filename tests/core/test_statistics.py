"""Unit tests for statistic keys and the statistics store."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.algebra.expressions import RejectJoinSE, RejectSE, SubExpression
from repro.core.histogram import Histogram
from repro.core.statistics import StatKind, Statistic, StatisticsStore


SE1 = SubExpression.of("T1")
SE12 = SubExpression.of("T1", "T2")


class TestStatisticKeys:
    def test_cardinality_carries_no_attrs(self):
        stat = Statistic.card(SE12)
        assert stat.kind is StatKind.CARDINALITY
        assert stat.attrs == ()
        with pytest.raises(ValueError):
            Statistic(StatKind.CARDINALITY, SE1, ("a",))

    def test_histogram_attrs_canonicalized(self):
        assert Statistic.hist(SE1, "b", "a") == Statistic.hist(SE1, "a", "b")
        assert Statistic.hist(SE1, "a", "a") == Statistic.hist(SE1, "a")

    def test_histogram_requires_attrs(self):
        with pytest.raises(ValueError):
            Statistic(StatKind.HISTOGRAM, SE1)

    def test_distinct_requires_attrs(self):
        with pytest.raises(ValueError):
            Statistic(StatKind.DISTINCT, SE1)

    def test_se_identity_is_order_insensitive(self):
        assert Statistic.card(SubExpression.of("T2", "T1")) == Statistic.card(SE12)

    def test_same_attr_different_se_differs(self):
        assert Statistic.hist(SE1, "a") != Statistic.hist(SE12, "a")

    def test_reject_statistics_are_distinct_keys(self):
        rej = RejectSE(SE1, "a", SubExpression.of("T3"))
        assert Statistic.card(rej) != Statistic.card(SE1)
        rj = RejectJoinSE(rej, "b", SubExpression.of("T2"))
        assert Statistic.card(rj) != Statistic.card(rej)

    def test_list_attrs_are_stored_as_a_tuple(self):
        stat = Statistic(StatKind.HISTOGRAM, SE1, ["a"])
        assert stat.attrs == ("a",)
        assert stat == Statistic.hist(SE1, "a")
        assert hash(stat) == hash(Statistic.hist(SE1, "a"))

    def test_cached_hash_is_the_field_tuple_hash(self):
        # the value a dataclass-generated __hash__ returns: sets and dicts
        # of statistics iterate in the order they did before the cache
        rej = RejectSE(SE1, "a", SubExpression.of("T3"))
        rj = RejectJoinSE(rej, "b", SubExpression.of("T2"))
        stat = Statistic.hist(rj, "b", "a")
        assert hash(SE12) == hash((SE12.relations,))
        assert hash(rej) == hash((rej.source, rej.key, rej.against))
        assert hash(rj) == hash((rj.reject, rj.key, rj.other))
        assert hash(stat) == hash((stat.kind, stat.se, stat.attrs))

    def test_pickles_rehash_under_another_hash_seed(self, tmp_path):
        """Keys pickled in a process with one string-hash seed work as dict
        keys, next to fresh constructions, in a process with another."""
        build = textwrap.dedent("""
            from repro.algebra.expressions import (
                RejectJoinSE, RejectSE, SubExpression)
            from repro.core.css import CSS
            from repro.core.statistics import Statistic
            se = SubExpression.of("T1", "T2")
            rej = RejectSE(SubExpression.of("T1"), "a", SubExpression.of("T3"))
            rj = RejectJoinSE(rej, "b", SubExpression.of("T2"))
            hist = Statistic.hist(rj, "b", "a")
            keys = [se, rej, rj, Statistic.card(se), hist,
                    CSS(Statistic.card(rj), (hist,), "I1")]
        """)
        dump = build + textwrap.dedent(f"""
            import pickle
            with open({str(tmp_path / "keys.pkl")!r}, "wb") as fh:
                pickle.dump(keys, fh)
        """)
        load = build + textwrap.dedent(f"""
            import pickle
            with open({str(tmp_path / "keys.pkl")!r}, "rb") as fh:
                loaded = pickle.load(fh)
            index = {{key: i for i, key in enumerate(keys)}}
            for i, key in enumerate(loaded):
                assert key == keys[i] and hash(key) == hash(keys[i]), key
                assert index[key] == i and len({{key, keys[i]}}) == 1, key
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
        for seed, script in (("1", dump), ("2", load)):
            env["PYTHONHASHSEED"] = seed
            subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_sort_key_total_order(self):
        stats = [
            Statistic.card(SE12),
            Statistic.hist(SE1, "a"),
            Statistic.card(SE1),
            Statistic.distinct(SE1, "a"),
        ]
        ordered = sorted(stats, key=lambda s: s.sort_key())
        assert len(ordered) == 4
        # deterministic: sorting twice gives the same order
        assert ordered == sorted(reversed(stats), key=lambda s: s.sort_key())


class TestStatisticsStore:
    def test_put_get_roundtrip(self):
        store = StatisticsStore()
        store.put(Statistic.card(SE1), 42)
        assert store.get(Statistic.card(SE1)) == 42

    def test_histogram_type_enforced(self):
        store = StatisticsStore()
        with pytest.raises(TypeError):
            store.put(Statistic.hist(SE1, "a"), 5)
        with pytest.raises(TypeError):
            store.put(Statistic.card(SE1), Histogram(("a",), {(1,): 1}))

    def test_histogram_attrs_enforced(self):
        store = StatisticsStore()
        with pytest.raises(ValueError):
            store.put(Statistic.hist(SE1, "a"), Histogram(("b",), {(1,): 1}))

    def test_contains_and_maybe(self):
        store = StatisticsStore()
        stat = Statistic.card(SE1)
        assert stat not in store
        store.put(stat, 7)
        assert stat in store
        assert store.get(stat) == 7

    def test_merge_and_copy_are_independent(self):
        a, b = StatisticsStore(), StatisticsStore()
        a.put(Statistic.card(SE1), 1)
        b.put(Statistic.card(SE12), 2)
        a.merge(b)
        assert len(a) == 2
        clone = a.copy()
        clone.put(Statistic.card(SE1), 99)
        assert a.get(Statistic.card(SE1)) == 1
