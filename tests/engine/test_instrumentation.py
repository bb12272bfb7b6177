"""Unit tests for the tap set (plan instrumentation)."""

import pytest

from repro.algebra.expressions import RejectJoinSE, RejectSE, SubExpression
from repro.core.statistics import Statistic
from repro.engine.instrumentation import InstrumentationError, TapSet
from repro.engine.table import Table

SE = SubExpression.of


def observe(taps: TapSet, se, table: Table) -> None:
    """Stream one whole table past ``se``."""
    taps.observe_columns(se, table.num_rows, table.columns)
    taps.mark_streamed(se)


class TestTapSet:
    def test_counter(self):
        taps = TapSet([Statistic.card(SE("T"))])
        observe(taps, SE("T"), Table({"a": [1, 2, 3]}))
        assert taps.collect().get(Statistic.card(SE("T"))) == 3

    def test_histogram(self):
        stat = Statistic.hist(SE("T"), "a")
        taps = TapSet([stat])
        observe(taps, SE("T"), Table({"a": [1, 1, 2]}))
        assert taps.collect().get(stat).counts.get((1,), 0) == 2

    def test_distinct(self):
        stat = Statistic.distinct(SE("T"), "a")
        taps = TapSet([stat])
        observe(taps, SE("T"), Table({"a": [1, 1, 2]}))
        assert taps.collect().get(stat) == 2

    def test_multiple_stats_one_point(self):
        stats = [
            Statistic.card(SE("T")),
            Statistic.hist(SE("T"), "a"),
            Statistic.distinct(SE("T"), "a"),
        ]
        taps = TapSet(stats)
        observe(taps, SE("T"), Table({"a": [1, 2]}))
        assert taps.missing() == []

    def test_unobserved_points_ignored(self):
        taps = TapSet([Statistic.card(SE("T"))])
        observe(taps, SE("Other"), Table({"a": [1]}))
        assert taps.missing() == [Statistic.card(SE("T"))]
        assert not taps.wants(SE("Other"))

    def test_reject_requests(self):
        rej = RejectSE(SE("T"), "k", SE("R"))
        taps = TapSet([Statistic.card(rej), Statistic.card(SE("T"))])
        assert taps.reject_requests() == {rej}

    def test_reject_join_rejected(self):
        rej = RejectSE(SE("T"), "k", SE("R"))
        rj = RejectJoinSE(rej, "m", SE("S"))
        with pytest.raises(InstrumentationError, match="never observable"):
            TapSet([Statistic.hist(rj, "m")])

    def test_histogram_missing_attr_fails(self):
        stat = Statistic.hist(SE("T"), "z")
        taps = TapSet([stat])
        with pytest.raises(InstrumentationError, match="not live"):
            observe(taps, SE("T"), Table({"a": [1]}))

    def test_batches_accumulate_and_stay_provisional_until_streamed(self):
        stats = [
            Statistic.card(SE("T")),
            Statistic.hist(SE("T"), "a"),
            Statistic.distinct(SE("T"), "a"),
        ]
        taps = TapSet(stats)
        for v in (1, 1, 2):
            taps.observe_columns(SE("T"), 1, {"a": [v]})
        # until the stream is marked complete the accumulators are
        # provisional: a block that died mid-stream reports nothing
        assert len(taps.collect()) == 0
        assert taps.missing() == stats
        taps.mark_streamed(SE("T"))
        store = taps.collect()
        assert store.get(stats[0]) == 3
        assert store.get(stats[1]).counts.get((1,), 0) == 2
        assert store.get(stats[2]) == 2

    def test_streamed_but_empty_reads_as_zero_not_missing(self):
        stats = [
            Statistic.card(SE("T")),
            Statistic.hist(SE("T"), "a"),
            Statistic.distinct(SE("T"), "a"),
        ]
        taps = TapSet(stats)
        taps.mark_streamed(SE("T"))
        store = taps.collect()
        assert store.get(stats[0]) == 0
        assert store.get(stats[1]).total() == 0
        assert store.get(stats[2]) == 0

    def test_requested_lists_everything(self):
        stats = [Statistic.card(SE("T")), Statistic.card(SE("R"))]
        taps = TapSet(stats)
        assert sorted(map(repr, taps.requested)) == sorted(map(repr, stats))
