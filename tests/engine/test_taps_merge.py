"""Merge round-trips for every tap observation type (sharded execution).

The mergeable-observation protocol promises that observing k disjoint row
shards and folding the shard tap sets together is *exactly* equivalent to
observing the whole table once.  These tests split random tables into
random shards, merge, and assert bit-for-bit equality of the collected
statistics -- the property the multiprocess backend's correctness rests on.
"""

import random

import pytest

from repro.algebra.expressions import SubExpression
from repro.core.statistics import Statistic
from repro.engine.instrumentation import TapSet
from repro.engine.table import Table

SE = SubExpression.of


def observe(taps: TapSet, se, table: Table) -> None:
    """Stream one whole table past ``se``."""
    taps.observe_columns(se, table.num_rows, table.columns)
    taps.mark_streamed(se)


def _random_table(rng: random.Random, rows: int) -> Table:
    return Table(
        {
            "a": [rng.randrange(8) for _ in range(rows)],
            "b": [rng.choice("xyz") for _ in range(rows)],
            "c": [float(rng.randrange(4)) for _ in range(rows)],
        }
    )


def _random_shards(rng: random.Random, table: Table, k: int) -> list[Table]:
    """Split ``table`` into k contiguous shards at random cut points."""
    cuts = sorted(rng.randrange(table.num_rows + 1) for _ in range(k - 1))
    bounds = [0, *cuts, table.num_rows]
    return [
        table.take(range(lo, hi))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _stats() -> list[Statistic]:
    return [
        Statistic.card(SE("T")),
        Statistic.hist(SE("T"), "a"),
        Statistic.hist(SE("T"), "a", "b"),
        Statistic.distinct(SE("T"), "b"),
        Statistic.distinct(SE("T"), "a", "c"),
    ]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [2, 3, 7])
class TestTapSetMergeRoundTrip:
    def test_sharded_merge_equals_unsharded(self, seed, k):
        rng = random.Random(seed)
        table = _random_table(rng, rows=rng.randrange(1, 120))
        stats = _stats()

        whole = TapSet(stats)
        observe(whole, SE("T"), table)

        shards = [TapSet(stats) for _ in range(k)]
        for taps, piece in zip(shards, _random_shards(rng, table, k)):
            observe(taps, SE("T"), piece)
        merged, *rest = shards
        for taps in rest:
            merged.merge(taps)

        for stat in stats:
            assert merged.collect().get(stat) == whole.collect().get(stat), stat
        assert merged.missing() == []

    def test_streamed_flag_survives_merge(self, seed, k):
        # "streamed but empty" must merge to zero, never to missing
        stats = [Statistic.card(SE("T"))]
        shards = [TapSet(stats) for _ in range(k)]
        shards[seed % k].mark_streamed(SE("T"))
        merged, *rest = shards
        for taps in rest:
            merged.merge(taps)
        assert merged.collect().get(stats[0]) == 0

    def test_column_batch_observation_merges_identically(self, seed, k):
        rng = random.Random(seed * 31 + 1)
        table = _random_table(rng, rows=rng.randrange(1, 80))
        stats = _stats()

        whole = TapSet(stats)
        observe(whole, SE("T"), table)

        shards = [TapSet(stats) for _ in range(k)]
        for taps, piece in zip(shards, _random_shards(rng, table, k)):
            # each shard itself arrives in two column batches
            half = piece.num_rows // 2
            for lo, hi in ((0, half), (half, piece.num_rows)):
                taps.observe_columns(
                    SE("T"),
                    hi - lo,
                    {a: list(piece.column(a))[lo:hi] for a in piece.attrs},
                )
            taps.mark_streamed(SE("T"))
        merged, *rest = shards
        for taps in rest:
            merged.merge(taps)

        for stat in stats:
            assert merged.collect().get(stat) == whole.collect().get(stat), stat


class TestMergeProtocolEdges:
    def test_distinct_counts_stay_exact_across_observes(self):
        # the accumulator (not the last batch) backs the stored count
        stat = Statistic.distinct(SE("T"), "a")
        taps = TapSet([stat])
        observe(taps, SE("T"), Table({"a": [1, 2]}))
        observe(taps, SE("T"), Table({"a": [2, 3]}))
        assert taps.collect().get(stat) == 3

    def test_discard_points_drops_observations_and_requests(self):
        card_t = Statistic.card(SE("T"))
        dist_t = Statistic.distinct(SE("T"), "a")
        card_r = Statistic.card(SE("R"))
        taps = TapSet([card_t, dist_t, card_r])
        observe(taps, SE("T"), Table({"a": [1, 2]}))
        observe(taps, SE("R"), Table({"a": [5]}))
        taps.discard_points([SE("T")])
        assert not taps.wants(SE("T"))
        assert card_t not in taps.collect() and dist_t not in taps.collect()
        assert taps.collect().get(card_r) == 1
        # a discarded point no longer counts as missing either
        assert taps.missing() == []

    def test_merge_after_discard_is_purely_additive(self):
        stat = Statistic.card(SE("T"))
        other_stat = Statistic.card(SE("R"))
        base = TapSet([stat, other_stat])
        observe(base, SE("T"), Table({"a": [1, 2]}))
        observe(base, SE("R"), Table({"a": [7]}))
        shard = TapSet([stat, other_stat])
        observe(shard, SE("T"), Table({"a": [3]}))
        observe(shard, SE("R"), Table({"a": [7]}))  # replicated input
        shard.discard_points([SE("R")])  # shard>0 drops replicated points
        base.merge(shard)
        assert base.collect().get(stat) == 3
        assert base.collect().get(other_stat) == 1

    def test_histograms_merge_by_bucket_addition(self):
        stat = Statistic.hist(SE("T"), "a")
        left = TapSet([stat])
        right = TapSet([stat])
        observe(left, SE("T"), Table({"a": [1, 1, 2]}))
        observe(right, SE("T"), Table({"a": [2, 3]}))
        left.merge(right)
        merged = left.collect().get(stat)
        assert merged.counts.get((1,), 0) == 2
        assert merged.counts.get((2,), 0) == 2
        assert merged.counts.get((3,), 0) == 1
        assert merged.total() == 5

