"""Quality gate wired through the pipeline: catalog invalidation, rung
demotion, metrics, tracing, and session threading."""

import pytest

from repro.catalog.store import StatisticsCatalog
from repro.engine.faults import FaultPlan, FaultSpec, as_injector
from repro.engine.scheduler import RetryPolicy
from repro.framework.pipeline import StatisticsPipeline, _Night
from repro.framework.session import EtlSession
from repro.quality import ContractSet, QualityGate
from repro.workloads import case

WORKFLOW = 25
SEED = 1337
FAST = RetryPolicy(max_retries=1, seed=SEED, sleep=lambda s: None)

RENAME_DIMDATE = FaultSpec(
    target="DimDate", kind="column-rename", column="year_id", rename_to="yr"
)


def _sources():
    return case(WORKFLOW).tables(scale=0.05, seed=7)


def _gate(**kwargs):
    return QualityGate(ContractSet.infer(_sources()), **kwargs)


def _run_once(**kwargs):
    pipeline = StatisticsPipeline(
        case(WORKFLOW).build(), solver="greedy"
    )
    return pipeline.run_once(_sources(), **kwargs)


def _select(stats_catalog, faults=None):
    """A night's steps up to the selection, called directly: screen,
    enumerate, select.  Returns the schema-drift events, the number of
    entries invalidated before the lookup, the statistics to tap and the
    selection."""
    pipeline = StatisticsPipeline(case(WORKFLOW).build(), solver="greedy")
    night = _Night(_sources(), stats_catalog, as_injector(faults), None, None,
                   None, "n2")
    night.sources, drift_events = pipeline._screen(night, _gate())
    analysis, catalog = pipeline._enumerate(None, None)
    selection, tapped, invalidated = pipeline._select(
        night, analysis, catalog, drift_events, None
    )
    return drift_events, invalidated, tapped, selection


class TestSchemaDriftInvalidation:
    def test_drift_marks_matching_catalog_entries_stale(self, tmp_path):
        path = tmp_path / "catalog.json"
        _run_once(stats_catalog=StatisticsCatalog.open(path), run_id="n1")
        before = StatisticsCatalog.open(path)
        assert before.entries and not any(
            e.stale for e in before.entries.values()
        )

        report = _run_once(
            stats_catalog=StatisticsCatalog.open(path),
            quality=_gate(),
            faults=FaultPlan((RENAME_DIMDATE,), seed=SEED),
            run_id="n2",
        )
        assert [e.kind for e in report.schema_drift] == ["renamed"]
        assert report.drift_invalidated > 0
        assert "invalidated by schema drift" in report.describe()

    def test_clean_run_invalidates_nothing(self, tmp_path):
        path = tmp_path / "catalog.json"
        _run_once(stats_catalog=StatisticsCatalog.open(path), run_id="n1")
        schema_drift, invalidated, _, _ = _select(StatisticsCatalog.open(path))
        assert schema_drift == ()
        assert invalidated == 0


class TestDriftNightOrder:
    """The sources are final before the catalog is read: a drifted
    source's entries go stale before the lookup, are re-tapped on the
    drift night itself, and are fresh again after it."""

    def _three_nights(self, spec, entries):
        nights = []
        for faults in (None, FaultPlan((RENAME_DIMDATE,), seed=SEED), None):
            report = _run_once(
                stats_catalog=spec(), quality=_gate(), faults=faults,
                run_id=f"n{len(nights) + 1}",
            )
            stale = sum(e.stale for e in entries().values())
            nights.append(
                (sorted(map(repr, report.tapped)), report.catalog_hits, stale)
            )
        return nights

    def test_file_and_served_catalogs_retap_the_drifted_source(self, tmp_path):
        from repro.serve.client import CatalogClient
        from tests.serve.thread import ServerThread

        path = tmp_path / "catalog.json"
        on_file = self._three_nights(
            lambda: path, lambda: StatisticsCatalog.open(path).entries
        )
        with ServerThread(
            f"unix://{tmp_path / 'catalog.sock'}", tmp_path / "served.json"
        ) as server:

            def served_entries():
                client = CatalogClient(server.url)
                try:
                    return dict(client.entries)
                finally:
                    client.close()

            served = self._three_nights(lambda: server.url, served_entries)
        assert on_file == served
        dimdate = ["|SE(B1.out*DimDate)|", "|SE(DimDate)|"]
        (_, cold_hits, _), night2, night3 = on_file
        assert cold_hits == 0
        assert night2 == (dimdate, 5, 0)  # re-tapped tonight, none left stale
        assert night3 == ([], 7, 0)

    def test_drifted_entries_are_stale_before_the_lookup(self, tmp_path):
        path = tmp_path / "catalog.json"
        _run_once(stats_catalog=StatisticsCatalog.open(path), quality=_gate(),
                  run_id="n1")
        catalog = StatisticsCatalog.open(path)
        _, invalidated, tapped, selection = _select(
            catalog, FaultPlan((RENAME_DIMDATE,), seed=SEED)
        )
        # the lookup already refused DimDate's entries: tapped tonight
        assert invalidated == 2
        assert sorted(map(repr, tapped)) == [
            "|SE(B1.out*DimDate)|", "|SE(DimDate)|"
        ]
        assert len(selection.observed) - len(tapped) == 5
        assert sum(e.stale for e in catalog.entries.values()) == invalidated

    def test_served_drift_night_asks_for_the_entries_once(self, tmp_path):
        from repro.serve.client import CatalogClient
        from tests.serve.test_read_through import route_counts
        from tests.serve.thread import ServerThread

        with ServerThread(
            f"unix://{tmp_path / 'catalog.sock'}", tmp_path / "served.json"
        ) as server:
            _run_once(stats_catalog=server.url, quality=_gate(), run_id="n1")
            before = route_counts(server).get("/entries", 0)
            client = CatalogClient(server.url)
            try:
                _, invalidated, _, _ = _select(
                    client, FaultPlan((RENAME_DIMDATE,), seed=SEED)
                )
            finally:
                client.close()
            after = route_counts(server).get("/entries", 0)
        assert invalidated > 0
        # every SE touching DimDate in one POST /entries, not one per SE
        assert after - before == 1

    def test_a_truncate_fault_is_applied_once(self):
        sources = _sources()
        injector = FaultPlan(
            (FaultSpec(target="Trade", kind="truncate", keep=0.5),), seed=SEED
        ).injector()
        report = _run_once(quality=_gate(), faults=injector)
        assert [e.kind for e in injector.events] == ["truncate"]
        half = int(sources["Trade"].num_rows * 0.5)
        assert report.run.env["Trade"].num_rows == half


class TestConfidenceDemotion:
    def _degraded(self, path, *, drift):
        faults = [FaultSpec(target="B1", kind="permanent")]
        if drift:
            faults.append(RENAME_DIMDATE)
        return _run_once(
            stats_catalog=StatisticsCatalog.open(path),
            quality=_gate(),
            faults=FaultPlan(tuple(faults), seed=SEED),
            retry=FAST,
            run_id="degraded",
        )

    def test_drifted_source_reports_prior_level_trust(self, tmp_path):
        path = tmp_path / "catalog.json"
        _run_once(stats_catalog=StatisticsCatalog.open(path), run_id="n1")

        steady = self._degraded(path, drift=False)
        assert steady.plan_confidence["B2"] == "catalog"

        demoted = self._degraded(path, drift=True)
        # B2 joins the drifted DimDate: the catalog still answers, but at
        # prior-level trust -- one rung weaker, honestly reported
        assert demoted.plan_confidence["B2"] == "prior"
        # B3 joins DimSecurity, which did not drift: full catalog trust
        assert demoted.plan_confidence["B3"] == "catalog"


class TestObservability:
    def test_quarantine_metrics_recorded(self):
        from repro.obs import MetricsRegistry, record_run_metrics

        metrics = MetricsRegistry()
        report = _run_once(
            quality=_gate(),
            faults=FaultPlan(
                (
                    FaultSpec(target="Trade", kind="null-burst", rows=2),
                    RENAME_DIMDATE,
                ),
                seed=SEED,
            ),
        )
        record_run_metrics(metrics, report)
        text = metrics.render_prometheus()
        quarantined = [
            line for line in text.splitlines()
            if line.startswith("etl_rows_quarantined_total{")
        ]
        assert quarantined and 'source="Trade"' in quarantined[0]
        assert quarantined[0].endswith(" 2")
        drifted = [
            line for line in text.splitlines()
            if line.startswith("etl_schema_drift_events_total{")
        ]
        assert drifted and 'kind="renamed"' in drifted[0]
        assert 'source="DimDate"' in drifted[0]

    def test_clean_run_emits_no_quarantine_series(self):
        from repro.obs import MetricsRegistry, record_run_metrics

        metrics = MetricsRegistry()
        record_run_metrics(metrics, _run_once(quality=_gate()))
        text = metrics.render_prometheus()
        assert "etl_rows_quarantined_total" not in text

    def test_trace_carries_quarantine_points(self):
        from repro.obs import Tracer

        tracer = Tracer()
        _run_once(
            quality=_gate(),
            faults=FaultPlan(
                (FaultSpec(target="Trade", kind="null-burst", rows=2),),
                seed=SEED,
            ),
            tracer=tracer,
        )
        points = tracer.root.find(kind="quarantine")
        assert {p.name for p in points} == {
            "Trade", "DimAccount", "DimDate", "DimSecurity"
        }
        trade = next(p for p in points if p.name == "Trade")
        assert trade.attrs["quarantined"] == 2

    def test_screen_phase_is_timed_like_every_other(self):
        from repro.obs import MetricsRegistry, record_run_metrics

        report = _run_once(quality=_gate())
        assert list(report.timings) == [
            "screen", "enumerate", "selection", "execution", "optimization"
        ]
        metrics = MetricsRegistry()
        record_run_metrics(metrics, report)
        phases = metrics.get("etl_phase_seconds")
        assert phases.count(
            phase="screen", workflow=report.analysis.workflow.name,
            backend="columnar",
        ) == 1


class TestSessionThreading:
    def test_session_accumulates_the_dead_letter(self):
        gate = _gate()
        session = EtlSession(
            StatisticsPipeline(case(WORKFLOW).build(), solver="greedy"),
            quality=gate,
            faults=FaultPlan(
                (FaultSpec(target="Trade", kind="corrupt-row", rows=3),),
                seed=SEED,
            ),
        )
        record = session.run(_sources())
        assert record.report.rows_quarantined == 3
        assert gate.quarantine.total_rows == 3

    def test_strict_policy_fails_the_run_loudly(self):
        from repro.quality import SchemaDriftError

        session = EtlSession(
            StatisticsPipeline(case(WORKFLOW).build(), solver="greedy"),
            quality=_gate(policy="strict"),
            faults=FaultPlan((RENAME_DIMDATE,), seed=SEED),
        )
        with pytest.raises(SchemaDriftError):
            session.run(_sources())

    def test_clean_night_after_a_drifted_one_on_a_shared_store(self):
        """The store keeps the latest screening per source: last night's
        drift event must not be replayed into a clean night's report."""
        wfcase = case(2)
        sources = wfcase.tables(scale=0.05, seed=7)
        gate = QualityGate(ContractSet.infer(sources), policy="coerce")
        pipeline = StatisticsPipeline(wfcase.build(), solver="greedy")
        renamed = FaultPlan(
            (
                FaultSpec(
                    target="StatusType", kind="column-rename",
                    column="status_id", rename_to="zz_status_id",
                ),
            ),
            seed=SEED,
        )
        night1 = pipeline.run_once(sources, quality=gate, faults=renamed)
        assert [e.source for e in night1.schema_drift] == ["StatusType"]
        night2 = pipeline.run_once(sources, quality=gate)
        assert night2.schema_drift == ()
        assert night2.plan_cache_misses == 0
