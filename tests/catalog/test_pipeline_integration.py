"""Catalog wired through the pipeline and session layers."""

import pytest

from repro.catalog import StatisticsCatalog
from repro.engine.faults import FaultPlan, FaultSpec
from repro.framework.pipeline import StatisticsPipeline
from repro.framework.session import EtlSession
from repro.workloads import case
from tests.catalog.test_lock import _count_decodes


def _permanent(target):
    return FaultPlan((FaultSpec(target=target, kind="permanent"),), seed=5)


def fresh(number=11, **kwargs):
    wfcase = case(number)
    pipeline = StatisticsPipeline(wfcase.build(), solver="greedy", **kwargs)
    return wfcase, pipeline


class TestWarmRuns:
    def test_second_run_observes_nothing_new(self, tmp_path):
        wfcase, pipeline = fresh()
        sources = wfcase.tables(scale=0.2, seed=7)
        catalog = StatisticsCatalog(tmp_path / "catalog.json")

        cold = pipeline.run_once(sources, stats_catalog=catalog)
        assert cold.catalog_hits == 0
        assert cold.tapped == list(cold.selection.observed)
        assert cold.drift is not None and cold.drift.added

        warm = pipeline.run_once(sources, stats_catalog=catalog)
        assert warm.tapped == []
        assert warm.catalog_hits == len(warm.selection.observed)
        assert warm.selection.total_cost == 0.0

        # identical plans and estimates either way
        assert warm.chosen_trees == cold.chosen_trees
        assert warm.estimator.all_cardinalities() == pytest.approx(
            cold.estimator.all_cardinalities()
        )

    def test_catalog_persisted_between_processes(self, tmp_path):
        path = tmp_path / "catalog.json"
        wfcase, pipeline = fresh()
        sources = wfcase.tables(scale=0.2, seed=7)
        pipeline.run_once(sources, stats_catalog=StatisticsCatalog(path))
        assert path.exists()

        # a different process (fresh pipeline, reopened catalog) stays warm
        _, pipeline2 = fresh()
        warm = pipeline2.run_once(
            sources, stats_catalog=StatisticsCatalog.open(path)
        )
        assert warm.tapped == []

    def test_a_night_parses_the_catalog_file_once(self, tmp_path, monkeypatch):
        """``resolve_stats_catalog`` reads the file; ``save`` finds it
        unchanged (same inode, size, mtime) and does not read it again.
        The file may be spelled as a ``Path`` (night 1) or a ``str``."""
        path = tmp_path / "catalog.json"
        wfcase, pipeline = fresh()
        sources = wfcase.tables(scale=0.2, seed=7)
        pipeline.run_once(sources, stats_catalog=path)
        assert path.exists()
        keys = sorted(StatisticsCatalog.open(path).entries)
        decoded = _count_decodes(monkeypatch)  # every read a fresh process's
        _, pipeline2 = fresh()
        warm = pipeline2.run_once(sources, stats_catalog=str(path))
        assert warm.tapped == [] and warm.catalog_hits
        assert sorted(decoded) == keys  # each line once: one parse
        # the night's hit counts reached the file
        assert sum(e.hits for e in StatisticsCatalog.open(path).entries.values())

    def test_a_warm_night_decodes_only_the_lines_that_changed(
        self, tmp_path, monkeypatch
    ):
        """The warm night after a cold one in the same process holds every
        line it reads; after another process rewrites one entry, the next
        ``open`` decodes exactly that line."""
        import os
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        import repro

        path = tmp_path / "catalog.json"
        wfcase, pipeline = fresh()
        sources = wfcase.tables(scale=0.2, seed=7)
        pipeline.run_once(sources, stats_catalog=path)
        decoded = _count_decodes(monkeypatch, forget=False)
        warm = fresh()[1].run_once(sources, stats_catalog=path)
        assert warm.ok and warm.tapped == [] and warm.catalog_hits
        assert decoded == []

        before = StatisticsCatalog.open(path)
        victim = sorted(before.entries)[0]
        script = textwrap.dedent(f"""
            from repro.catalog.store import StatisticsCatalog
            catalog = StatisticsCatalog.open({str(path)!r})
            catalog.adjust_quality({victim!r}, 0.5)
            catalog.save()
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
        reopened = StatisticsCatalog.open(path)
        assert decoded == [victim]
        assert reopened.get(victim).quality < before.get(victim).quality

    def test_warm_night_decodes_no_unusable_entry(self, tmp_path, monkeypatch):
        """Unusable entries ride along in the lookup undecoded: only a
        failed block's ``prior`` rung pays for their values."""
        from repro.catalog.signatures import SignatureError, WorkflowSigner
        from repro.catalog.store import CatalogEntry
        from repro.core.histogram import Histogram

        wfcase, pipeline = fresh()
        sources = wfcase.tables(scale=0.2, seed=7)
        catalog = StatisticsCatalog(tmp_path / "catalog.json")
        cold = pipeline.run_once(sources, stats_catalog=catalog)
        # stale histogram/distinct siblings of the statistics wf11 selected
        signer = WorkflowSigner(pipeline.analysis)
        siblings = []
        for stat in pipeline.catalog.all_statistics:
            if stat.is_cardinality or stat in cold.selection.observed:
                continue
            try:
                key = signer.statistic_key(stat)
            except SignatureError:
                continue
            if key in catalog.entries:
                continue
            value = Histogram(stat.attrs, {}) if stat.is_histogram else 1
            catalog.record(key, signer.se_key(stat.se), stat, value)
            siblings.append(key)
        assert catalog.mark_stale(siblings) > 0

        decoded = []
        value = CatalogEntry.value
        monkeypatch.setattr(
            CatalogEntry, "value",
            lambda entry: decoded.append(entry.key) or value(entry),
        )
        warm = pipeline.run_once(sources, stats_catalog=catalog)
        assert warm.ok and warm.tapped == []
        assert decoded  # the usable hits were decoded...
        assert not set(decoded) & set(siblings)  # ...and nothing else

    def test_cross_workflow_sharing(self, tmp_path):
        catalog = StatisticsCatalog(tmp_path / "shared.json")
        wf11, p11 = fresh(11)
        p11.run_once(wf11.tables(scale=0.2, seed=7), stats_catalog=catalog)

        wf12, p12 = fresh(12)
        cold_taps = len(
            p12.run_once(wf12.tables(scale=0.2, seed=7)).selection.observed
        )
        report = p12.run_once(
            wf12.tables(scale=0.2, seed=7), stats_catalog=catalog
        )
        assert report.catalog_hits > 0
        assert len(report.tapped) < cold_taps

    def test_describe_reports_reuse(self, tmp_path):
        wfcase, pipeline = fresh()
        sources = wfcase.tables(scale=0.2, seed=7)
        catalog = StatisticsCatalog(tmp_path / "c.json")
        pipeline.run_once(sources, stats_catalog=catalog)
        warm = pipeline.run_once(sources, stats_catalog=catalog)
        text = warm.describe()
        assert "reused at zero" in text


class TestSessionWiring:
    def test_session_threads_catalog_through_runs(self, tmp_path):
        wfcase, pipeline = fresh()
        catalog = StatisticsCatalog(tmp_path / "catalog.json")
        session = EtlSession(pipeline, stats_catalog=catalog)
        first = session.run(wfcase.tables(scale=0.2, seed=7))
        second = session.run(wfcase.tables(scale=0.2, seed=8))
        assert first.report.catalog_hits == 0
        assert second.report.catalog_hits > 0
        # run ids recorded in provenance
        run_ids = {e.run_id for e in catalog.entries.values()}
        assert run_ids <= {"run0", "run1"}


class TestResumeWithCatalog:
    """A checkpoint-restored statistic was observed on an earlier night;
    the resumed run must not hand it to the catalog as tonight's fresh
    observation (double-refresh corrupts provenance timestamps)."""

    def test_restored_statistics_not_recorded_as_fresh(self, tmp_path):
        from repro.framework.recovery import RunCheckpoint

        wfcase, pipeline = fresh(11)
        sources = wfcase.tables(scale=0.2, seed=7)
        cp_path = tmp_path / "cp.json"

        # night 1 journals every block but crashes before the catalog
        # reconcile (modelled by simply not passing a catalog)
        cp = RunCheckpoint.open(cp_path)
        pipeline.run_once(sources, checkpoint=cp, run_id="night1")
        assert cp.completed

        # night 2 resumes the finished journal: every block restores,
        # no tap actually fires -- the checkpoint's statistics must not
        # enter the catalog stamped as night-2 observations
        catalog = StatisticsCatalog(tmp_path / "catalog.json")
        resumed = RunCheckpoint.open(cp_path)
        report = pipeline.run_once(
            sources,
            checkpoint=resumed,
            stats_catalog=catalog,
            run_id="night2",
        )
        assert report.run.restored_statistics
        assert report.drift is not None
        assert report.drift.added == []
        assert report.drift.refreshed == []
        assert not any(
            entry.run_id == "night2" for entry in catalog.entries.values()
        )

    def test_catalog_provenance_stable_across_resume(self, tmp_path):
        from repro.framework.recovery import RunCheckpoint

        wfcase, pipeline = fresh(11)
        sources = wfcase.tables(scale=0.2, seed=7)
        cp_path = tmp_path / "cp.json"
        catalog = StatisticsCatalog(tmp_path / "catalog.json")

        cp = RunCheckpoint.open(cp_path)
        pipeline.run_once(
            sources, checkpoint=cp, stats_catalog=catalog, run_id="night1"
        )
        before = {
            key: (entry.observed_at, entry.run_id)
            for key, entry in catalog.entries.items()
        }
        assert before

        resumed = RunCheckpoint.open(cp_path)
        pipeline.run_once(
            sources,
            checkpoint=resumed,
            stats_catalog=catalog,
            run_id="night2",
        )
        after = {
            key: (entry.observed_at, entry.run_id)
            for key, entry in catalog.entries.items()
        }
        assert after == before


class TestDegradedWithCatalog:
    def test_catalog_backfills_failed_block(self, tmp_path):
        wfcase, pipeline = fresh(11)
        sources = wfcase.tables(scale=0.2, seed=7)
        catalog = StatisticsCatalog(tmp_path / "catalog.json")
        pipeline.run_once(sources, stats_catalog=catalog)

        # warm run: the block fails permanently, but the catalog holds
        # every statistic -- confidence lands on the catalog rung
        block = pipeline.analysis.blocks[0].name
        faults = _permanent(block)
        report = pipeline.run_once(
            sources, stats_catalog=catalog, faults=faults
        )
        assert report.failures
        assert report.degraded
        labels = set()
        for per_se in report.degraded_sources.values():
            labels |= set(per_se.values())
        assert "catalog" in labels
        assert report.degraded[block] == "catalog"

    def test_without_catalog_falls_back_to_prior(self):
        wfcase, pipeline = fresh(11)
        sources = wfcase.tables(scale=0.2, seed=7)
        # no catalog from the caller: the session remembers in its own
        session = EtlSession(pipeline)
        session.run(sources)
        block = pipeline.analysis.blocks[0].name
        session.faults = _permanent(block)
        report = session.run(sources).report
        assert report.degraded[block] == "prior"
