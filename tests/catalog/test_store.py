"""StatisticsCatalog: persistence, lookup semantics, TTL/quality/GC."""

import json

import pytest

from repro.algebra.blocks import analyze
from repro.catalog.signatures import WorkflowSigner
from repro.catalog.store import (
    DEFAULT_MIN_QUALITY,
    StatisticsCatalog,
)
from repro.core.generator import generate_css
from repro.core.persistence import PersistenceError, canonical_json
from repro.workloads import case

NOW = 1_000_000.0


@pytest.fixture
def wf11():
    wfcase = case(11)
    analysis = analyze(wfcase.build())
    css = generate_css(analysis)
    return analysis, css, WorkflowSigner(analysis)


def populate(catalog, signer, stats, values=None, observed_at=NOW):
    for i, stat in enumerate(sorted(stats, key=lambda s: s.sort_key())):
        value = 100 + i if values is None else values[stat]
        if stat.is_histogram:
            continue
        catalog.record(
            signer.statistic_key(stat),
            signer.se_key(stat.se),
            stat,
            value,
            workflow="wf11",
            run_id="r0",
            backend="columnar",
            observed_at=observed_at,
        )


class TestLookup:
    def test_lookup_returns_values_and_keys(self, wf11):
        _, css, signer = wf11
        catalog = StatisticsCatalog()
        populate(catalog, signer, css.all_statistics)
        hits = catalog.lookup(signer, css.all_statistics, now=NOW)
        assert len(hits) == len(catalog)
        for stat in hits.free:
            assert stat in hits.values
            assert hits.keys[stat] in catalog.entries
        assert hits.unusable == {}
        # a stale entry is no hit, but the lookup still returns it
        victim = next(iter(hits.free))
        key = hits.keys[victim]
        catalog.mark_stale([key])
        hits = catalog.lookup(signer, css.all_statistics, now=NOW)
        assert victim not in hits.free
        assert hits.unusable[victim] is catalog.get(key)
        assert hits.unusable[victim].observed_at == NOW

    def test_stale_entries_never_match(self, wf11):
        _, css, signer = wf11
        catalog = StatisticsCatalog()
        populate(catalog, signer, css.all_statistics)
        victim = sorted(catalog.entries)[0]
        assert catalog.mark_stale([victim]) == 1
        hits = catalog.lookup(signer, css.all_statistics, now=NOW)
        assert victim not in {hits.keys[s] for s in hits.free}

    def test_expired_entries_never_match(self, wf11):
        _, css, signer = wf11
        catalog = StatisticsCatalog(ttl=100.0)
        populate(catalog, signer, css.all_statistics, observed_at=NOW - 101)
        assert len(catalog.lookup(signer, css.all_statistics, now=NOW)) == 0

    def test_low_quality_entries_never_match(self, wf11):
        _, css, signer = wf11
        catalog = StatisticsCatalog()
        populate(catalog, signer, css.all_statistics)
        for key in list(catalog.entries):
            catalog.adjust_quality(key, rel_error=1.0)  # quality -> 0.5
            catalog.adjust_quality(key, rel_error=1.0)  # quality -> 0.25
        assert all(
            e.quality < DEFAULT_MIN_QUALITY for e in catalog.entries.values()
        )
        assert len(catalog.lookup(signer, css.all_statistics, now=NOW)) == 0

    def test_lookup_counts_hits(self, wf11):
        _, css, signer = wf11
        catalog = StatisticsCatalog()
        populate(catalog, signer, css.all_statistics)
        catalog.lookup(signer, css.all_statistics, now=NOW)
        catalog.lookup(signer, css.all_statistics, now=NOW, count_hits=False)
        assert {e.hits for e in catalog.entries.values()} == {1}


class TestPersistence:
    def test_round_trip(self, tmp_path, wf11):
        _, css, signer = wf11
        path = tmp_path / "catalog.json"
        catalog = StatisticsCatalog(path)
        populate(catalog, signer, css.all_statistics)
        catalog.save()
        reloaded = StatisticsCatalog.open(path)
        assert len(reloaded) == len(catalog)
        for key, entry in catalog.entries.items():
            other = reloaded.get(key)
            assert other is not None
            assert other.value() == entry.value()
            assert other.workflow == "wf11"
            assert other.backend == "columnar"
            assert other.observed_at == NOW

    def test_file_is_deterministic(self, tmp_path, wf11):
        _, css, signer = wf11
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            catalog = StatisticsCatalog(path)
            populate(catalog, signer, css.all_statistics)
            catalog.save()
        assert a.read_text() == b.read_text()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 2, "entries": "nope"}')
        with pytest.raises(PersistenceError):
            StatisticsCatalog.open(path)

    def test_save_without_path_rejected(self):
        with pytest.raises(PersistenceError):
            StatisticsCatalog().save()

    def test_open_missing_file_starts_empty(self, tmp_path):
        catalog = StatisticsCatalog.open(tmp_path / "new.json")
        assert len(catalog) == 0


class TestMaintenance:
    def test_gc_drops_expired_stale_and_poor(self, wf11):
        _, css, signer = wf11
        catalog = StatisticsCatalog(ttl=1000.0)
        populate(catalog, signer, css.all_statistics)
        keys = sorted(catalog.entries)
        catalog.mark_stale([keys[0]])
        catalog.adjust_quality(keys[1], 1.0)
        catalog.adjust_quality(keys[1], 1.0)
        before = len(catalog)
        dropped = catalog.gc(now=NOW)
        assert dropped == 2
        assert len(catalog) == before - 2
        # everything expires eventually
        assert catalog.gc(now=NOW + 2000) == len(keys) - 2

    def test_merge_prefers_newer_observation(self, wf11):
        _, css, signer = wf11
        older, newer = StatisticsCatalog(), StatisticsCatalog()
        stats = [s for s in css.all_statistics if not s.is_histogram]
        populate(older, signer, stats, observed_at=NOW - 50)
        populate(
            newer,
            signer,
            stats,
            values={s: 999 for s in stats},
            observed_at=NOW,
        )
        assert older.merge(newer) == len(stats)
        assert all(e.value() == 999 for e in older.entries.values())
        # merging the older copy back changes nothing
        stale_copy = StatisticsCatalog()
        populate(stale_copy, signer, stats, observed_at=NOW - 50)
        assert older.merge(stale_copy) == 0

    def test_record_preserves_hit_count(self, wf11):
        _, css, signer = wf11
        catalog = StatisticsCatalog()
        populate(catalog, signer, css.all_statistics)
        catalog.lookup(signer, css.all_statistics, now=NOW)
        populate(catalog, signer, css.all_statistics, observed_at=NOW + 10)
        assert {e.hits for e in catalog.entries.values()} == {1}

    def test_describe_mentions_flags(self, wf11):
        _, css, signer = wf11
        catalog = StatisticsCatalog()
        populate(catalog, signer, css.all_statistics)
        catalog.mark_stale(list(catalog.entries)[:1])
        text = catalog.describe()
        assert "stale" in text
        assert "entries" in text


def test_histogram_value_round_trip(tmp_path, wf11):
    analysis, css, signer = wf11
    wfcase = case(11)
    sources = wfcase.tables(scale=0.1, seed=3)
    table = sources["Trade"]
    se_stats = [
        s
        for s in css.all_statistics
        if s.is_histogram and getattr(s.se, "relations", None) == frozenset({"Trade"})
    ]
    assert se_stats
    stat = min(se_stats, key=lambda s: s.sort_key())
    histogram = table.histogram(tuple(stat.attrs))
    path = tmp_path / "cat.json"
    catalog = StatisticsCatalog(path)
    catalog.record(
        signer.statistic_key(stat),
        signer.se_key(stat.se),
        stat,
        histogram,
        observed_at=NOW,
    )
    catalog.save()
    entry = next(iter(StatisticsCatalog.open(path).entries.values()))
    assert entry.value() == histogram

    # on disk: the canonical form -- valid JSON, keys sorted, no padding,
    # one entry per line (a changed entry is a one-line diff), byte-stable
    text = path.read_text()
    doc = json.loads(text)
    compact = dict(sort_keys=True, separators=(",", ":"))
    lines = text.splitlines()
    assert lines[:2] == ["{", '"entries":[']
    assert lines[2] == json.dumps(doc["entries"][0], **compact)
    assert lines[3:] == ["],", '"format_version":2,',
                         '"kind":"statistics-catalog"', "}"]
    assert text == canonical_json(doc)
    catalog.save()
    assert path.read_text() == text
