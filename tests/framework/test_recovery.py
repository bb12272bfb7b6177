"""Resilience end-to-end: the ISSUE's three acceptance criteria.

1. a permanent failure in one block of a multi-block workflow still yields
   a complete :class:`PipelineReport` -- the failure is recorded, the
   failed block's cardinalities fall back to what the catalog remembers or
   the independence baseline, and every *healthy* block gets exactly the plan
   a fault-free run would choose;
2. a transient failure plus a retry policy converges to a report
   identical to the fault-free run;
3. a run killed partway and resumed from its checkpoint re-executes only
   the unfinished blocks and ends in the fault-free state.

Backend coverage is parametrized (restrict with ``REPRO_CHAOS_BACKEND``
for the CI matrix); every injection is seeded via ``REPRO_CHAOS_SEED``.
"""

import math
import os
from dataclasses import replace

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.catalog import StatisticsCatalog, WorkflowSigner
from repro.core.histogram import Histogram
from repro.core.persistence import PersistenceError
from repro.core.statistics import Statistic, StatisticsStore
from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.scheduler import RetryPolicy
from repro.engine.table import Table
from repro.framework.pipeline import StatisticsPipeline
from repro.framework.recovery import RunCheckpoint
from repro.framework.session import EtlSession
from repro.workloads import case

pytestmark = pytest.mark.chaos

SE = SubExpression.of

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1337"))
_only = os.environ.get("REPRO_CHAOS_BACKEND", "")
BACKENDS = [_only] if _only else ["columnar", "streaming", "vectorized"]

#: wf25 is the multi-target workflow: B1 feeds B2 and B3, which are
#: mutually independent -- failing B2 leaves B1 and B3 healthy.
WORKFLOW = 25
FAST = RetryPolicy(max_retries=2, base_delay=0.001, jitter=0.0,
                   seed=CHAOS_SEED, sleep=lambda s: None)


def _sources():
    return case(WORKFLOW).tables(scale=0.05, seed=7)


def _run_once(backend, **kwargs):
    pipeline = StatisticsPipeline(case(WORKFLOW).build(), backend=backend)
    return pipeline.run_once(_sources(), **kwargs)


def _plan_key(report):
    return {name: (repr(p.tree), p.cost) for name, p in report.plans.items()}


def _failed_blocks(report):
    """Failure records for blocks only (target/boundary tasks downstream
    of a failed block are recorded as skipped too)."""
    blocks = {b.name for b in report.analysis.blocks}
    return {k for k in report.failures if k in blocks}


def _permanent(target):
    return FaultPlan((FaultSpec(target=target, kind="permanent"),),
                     seed=CHAOS_SEED)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDegradedRun:
    def test_permanent_failure_keeps_healthy_plans(self, backend):
        baseline = _run_once(backend)
        report = _run_once(backend, faults=_permanent("B2"), retry=FAST)

        assert not report.ok
        assert _failed_blocks(report) == {"B2"}
        assert report.failures["B2"].kind == "permanent"
        assert report.failures["B2"].attempts == 1  # permanent: no retries
        # the dead block's target task is skipped, not silently dropped
        assert all(f.kind == "skipped" for k, f in report.failures.items()
                   if k != "B2")

        # every block still gets a plan; the healthy ones exactly match
        assert set(report.plans) == set(baseline.plans)
        for name in ("B1", "B3"):
            assert report.plans[name].confidence == "observed"
            assert _plan_key(report)[name] == _plan_key(baseline)[name]

        # the failed block was costed from the independence baseline (no
        # catalog, no session: nothing remembered) over tonight's inputs
        assert report.degraded["B2"] == "independence"
        assert report.plans["B2"].confidence == "independence"
        assert not math.isnan(report.plans["B2"].cost)
        assert "[independence]" in report.describe()
        assert "B2" in report.describe()

    def test_prior_statistics_reproduce_the_baseline_plan(self, backend):
        # ttl 0: last night's entries have all expired by tonight
        catalog = StatisticsCatalog(ttl=0.0)
        baseline = _run_once(backend, stats_catalog=catalog)
        report = _run_once(
            backend,
            faults=_permanent("B2"),
            retry=FAST,
            stats_catalog=catalog,
        )
        # last night's statistics cover everything, so even the failed
        # block's plan matches what tonight would have chosen
        assert report.degraded["B2"] == "prior"
        assert report.plans["B2"].confidence == "prior"
        assert _plan_key(report) == _plan_key(baseline)

    def test_root_failure_degrades_dependents_to_none(self, backend):
        report = _run_once(backend, faults=_permanent("B1"), retry=FAST)
        assert _failed_blocks(report) == {"B1", "B2", "B3"}
        assert report.failures["B2"].kind == "skipped"
        assert report.failures["B3"].kind == "skipped"
        # B1's own sources loaded -> independence; B2/B3 have no input at
        # all tonight -> unoptimizable, pinned to their current plans
        assert report.degraded["B1"] == "independence"
        assert report.degraded["B2"] == "none"
        assert report.plans["B2"].confidence == "none"
        assert math.isnan(report.plans["B2"].cost)
        # NaN plans are excluded from the totals instead of poisoning them
        assert math.isfinite(report.total_estimated_cost)

    def test_transient_failure_converges_to_fault_free_report(self, backend):
        baseline = _run_once(backend)
        faults = FaultPlan(
            (FaultSpec(target="B1", kind="transient", times=2),),
            seed=CHAOS_SEED,
        )
        report = _run_once(backend, faults=faults, retry=FAST)
        assert report.ok
        assert report.degraded == {}
        assert all(p.confidence == "observed" for p in report.plans.values())
        assert _plan_key(report) == _plan_key(baseline)
        assert report.estimator.coverage() == baseline.estimator.coverage()

    def test_transient_failure_without_retries_degrades(self, backend):
        faults = FaultPlan(
            (FaultSpec(target="B1", kind="transient"),), seed=CHAOS_SEED
        )
        report = _run_once(
            backend, faults=faults,
            retry=RetryPolicy(max_retries=0, sleep=lambda s: None),
        )
        assert report.failures["B1"].kind == "transient"


def test_hung_block_times_out_and_degrades():
    """A block that never answers becomes a structured timeout failure."""
    faults = FaultPlan(
        # the delay outlives the whole test: the abandoned attempt
        # threads are daemons and never publish anything
        (FaultSpec(target="B2", kind="delay", delay=30.0),),
        seed=CHAOS_SEED,
    )
    report = _run_once(
        "columnar",
        faults=faults,
        retry=RetryPolicy(max_retries=1, block_timeout=0.1, base_delay=0.001,
                          jitter=0.0, sleep=lambda s: None),
    )
    failure = report.failures["B2"]
    assert failure.kind == "timeout" and failure.attempts == 2
    assert report.plans["B1"].confidence == "observed"


def test_truncated_source_still_optimizes():
    """A short source load is a data fault, not an execution failure."""
    faults = FaultPlan(
        (FaultSpec(target="Trade", kind="truncate", keep=0.5),),
        seed=CHAOS_SEED,
    )
    report = _run_once("columnar", faults=faults)
    assert report.ok  # the run completes; statistics describe the short load
    baseline = _run_once("columnar")
    assert (report.run.se_sizes[SE("Trade")]
            < baseline.run.se_sizes[SE("Trade")])


@pytest.mark.parametrize("backend", BACKENDS)
class TestCheckpointResume:
    def test_resume_re_executes_only_unfinished_blocks(self, backend, tmp_path):
        path = tmp_path / "ckpt.json"
        name = case(WORKFLOW).build().name
        baseline = _run_once(backend)

        # night 1: B2 dies permanently; B1 and B3 complete and are journaled
        ckpt = RunCheckpoint.open(path, workflow=name, backend=backend)
        first = _run_once(backend, faults=_permanent("B2"), retry=FAST,
                          checkpoint=ckpt)
        assert _failed_blocks(first) == {"B2"}
        assert ckpt.completed == {"B1", "B3"}
        assert path.exists()

        # night 2, "new process": reopen the journal and run fault-free
        resumed = RunCheckpoint.open(path, workflow=name, backend=backend)
        assert resumed.completed == {"B1", "B3"}
        second = _run_once(backend, checkpoint=resumed)
        assert second.ok
        assert second.run.resumed == ("B1", "B3")
        assert "resumed from checkpoint" in second.describe()
        assert resumed.completed == {"B1", "B2", "B3"}

        # the resumed run is indistinguishable from a fault-free night
        assert _plan_key(second) == _plan_key(baseline)
        assert second.estimator.coverage() == baseline.estimator.coverage()

    def test_wrong_workflow_identity_rejected(self, backend, tmp_path):
        path = tmp_path / "ckpt.json"
        name = case(WORKFLOW).build().name
        ckpt = RunCheckpoint.open(path, workflow=name, backend=backend)
        _run_once(backend, faults=_permanent("B2"), retry=FAST,
                  checkpoint=ckpt)
        with pytest.raises(PersistenceError, match="workflow"):
            RunCheckpoint.open(path, workflow="other_wf", backend=backend)
        with pytest.raises(PersistenceError, match="backend"):
            RunCheckpoint.open(path, workflow=name, backend="other-engine")


def test_checkpoint_survives_process_loss_midway(tmp_path):
    """Simulated crash: journal some blocks, forget everything in memory,
    reload from disk alone and finish the run."""
    path = tmp_path / "ckpt.json"
    name = case(WORKFLOW).build().name
    ckpt = RunCheckpoint.open(path, workflow=name, backend="columnar")
    _run_once("columnar", faults=_permanent("B3"), retry=FAST,
              checkpoint=ckpt)
    del ckpt  # the "crash"

    reloaded = RunCheckpoint.load(path)
    assert reloaded.completed == {"B1", "B2"}
    report = _run_once("columnar", checkpoint=reloaded)
    assert report.ok and report.run.resumed == ("B1", "B2")


def test_corrupt_checkpoint_rejected(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("{nope")
    with pytest.raises(PersistenceError):
        RunCheckpoint.load(path)
    path.write_text('{"format_version": 2, "blocks": {"B1": {}}}')
    with pytest.raises(PersistenceError, match="table"):
        RunCheckpoint.load(path)


def test_checkpoint_for_another_workflow_fails_restore(tmp_path):
    """A checkpoint whose blocks the analysis does not know is refused."""
    path = tmp_path / "ckpt.json"
    ckpt = RunCheckpoint.open(path)  # no identity recorded
    _run_once("columnar", faults=_permanent("B3"), retry=FAST,
              checkpoint=ckpt)
    other = StatisticsPipeline(case(9).build())
    with pytest.raises(PersistenceError, match="unknown block"):
        other.run_once(case(9).tables(scale=0.05, seed=7),
                       checkpoint=RunCheckpoint.load(path))


def test_checkpoint_round_trip_with_tuple_keyed_histograms(tmp_path):
    """The journal persists full observed stores -- including histograms
    whose buckets are keyed by attribute-value tuples."""
    hist_stat = Statistic.hist(SE("A"), "x", "y")
    store = StatisticsStore()
    store.put(Statistic.card(SE("A", "B")), 42)
    store.put(hist_stat, Histogram(("x", "y"), {(1, 2): 3, (4, "five"): 6}))

    block = analyze(case(9).build()).blocks[0]
    output = Table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    path = tmp_path / "ckpt.json"
    ckpt = RunCheckpoint(path, workflow="w", backend="columnar")
    ckpt.record_block(block, output, {SE("A"): 10, SE("A", "B"): 42}, store)

    loaded = RunCheckpoint.load(path)
    assert loaded.completed == {block.name}
    assert loaded.se_sizes == {SE("A"): 10, SE("A", "B"): 42}
    assert loaded.statistics.get(Statistic.card(SE("A", "B"))) == 42
    assert loaded.statistics.get(hist_stat) == store.get(hist_stat)
    record = loaded.blocks[block.name]
    assert record["rows"] == 3

    # journalling more merges; it never erases what is already recorded
    more = StatisticsStore()
    more.put(Statistic.card(SE("A")), 10)
    ckpt.record_block(block, output, {SE("B"): 5}, more)
    merged = RunCheckpoint.load(path)
    assert merged.statistics.get(hist_stat) == store.get(hist_stat)
    assert merged.statistics.get(Statistic.card(SE("A"))) == 10
    assert merged.se_sizes[SE("B")] == 5


class TestSessionResilience:
    """Drift detection and plan adoption across degraded nights."""

    def test_degraded_night_falls_back_to_prior_and_recovers(self):
        sources = _sources()
        session = EtlSession(
            StatisticsPipeline(case(WORKFLOW).build()),
            drift_threshold=0.05,
            retry=FAST,
        )
        first = session.run(sources)  # healthy night: adopt plans
        assert not first.report.failures
        adopted = {k: repr(v) for k, v in session.current_trees.items()}

        # night 2: B2 permanently fails; the session's catalog still holds
        # night 1's (expired) entries, so the failed block is optimized
        # from them
        session.faults = _permanent("B2")
        second = session.run(sources)
        assert second.degraded
        assert second.report.degraded["B2"] == "prior"
        assert second.report.plans["B2"].confidence == "prior"
        # same data + prior fallback: nothing drifted, plans stand still
        assert not second.reoptimized
        assert {k: repr(v) for k, v in session.current_trees.items()} == adopted

        # night 3: the fault clears; real observations return, still stable
        session.faults = None
        third = session.run(sources)
        assert not third.degraded
        assert third.drift == pytest.approx(0.0, abs=1e-9)
        assert {k: repr(v) for k, v in session.current_trees.items()} == adopted

    def test_partial_statistics_still_trigger_drift_on_real_change(self):
        """Re-optimization fires when the *observed* blocks drift, even
        while a failed block's statistics are frozen at the prior run."""
        session = EtlSession(
            StatisticsPipeline(case(WORKFLOW).build()),
            drift_threshold=0.05,
            retry=FAST,
        )
        session.run(_sources())
        session.faults = _permanent("B2")
        grown = case(WORKFLOW).tables(scale=0.15, seed=7)  # 3x the data
        record = session.run(grown)
        assert record.degraded
        assert record.drift > 0.05
        assert record.reoptimized


class TestConfidenceLadder:
    """The degraded-fallback ladder with the statistics catalog on it."""

    def test_weakest_confidence_orders_the_ladder(self):
        from repro.framework.recovery import (
            CONFIDENCE_ORDER,
            weakest_confidence,
        )

        assert CONFIDENCE_ORDER == (
            "observed", "catalog", "prior", "independence", "none",
        )
        assert weakest_confidence([]) == "observed"
        assert weakest_confidence(["observed", "catalog"]) == "catalog"
        assert weakest_confidence(["catalog", "prior"]) == "prior"
        assert weakest_confidence(["prior", "none"]) == "none"

    def test_sources_record_which_rung_satisfied_each_se(self):
        from repro.catalog import StatisticsCatalog

        catalog = StatisticsCatalog()
        pipeline = StatisticsPipeline(case(WORKFLOW).build())
        pipeline.run_once(_sources(), stats_catalog=catalog)
        report = pipeline.run_once(
            _sources(),
            stats_catalog=catalog,
            faults=_permanent("B2"),
            retry=FAST,
        )
        assert report.degraded["B2"] == "catalog"
        assert report.plans["B2"].confidence == "catalog"
        # per-SE provenance: every gap of B2 was filled from the catalog
        assert "B2" in report.degraded_sources
        per_se = report.degraded_sources["B2"]
        assert per_se and set(per_se.values()) == {"catalog"}
        # the warm run tapped nothing, so on a failure night *every*
        # block's estimates trace back to the catalog -- the provenance
        # map says so explicitly
        for block_sources in report.degraded_sources.values():
            assert set(block_sources.values()) == {"catalog"}
        assert "[catalog]" in report.describe()

    def test_catalog_outranks_prior_by_default(self):
        catalog = StatisticsCatalog()
        pipeline = StatisticsPipeline(case(WORKFLOW).build())
        pipeline.run_once(_sources(), stats_catalog=catalog)
        # every entry off B2's SEs goes stale: the prior rung is there,
        # but B2's usable entries answer first
        signer = WorkflowSigner(pipeline.analysis)
        b2 = next(b for b in pipeline.analysis.blocks if b.name == "B2")
        b2_ses = {signer.se_key(se) for se in b2.universe()}
        assert catalog.mark_stale(
            [e.key for e in catalog.entries.values() if e.se_key not in b2_ses]
        )
        report = pipeline.run_once(
            _sources(),
            stats_catalog=catalog,
            faults=_permanent("B2"),
            retry=FAST,
        )
        assert report.degraded["B2"] == "catalog"

    @pytest.mark.parametrize("unusable", ["stale", "expired", "low-quality"])
    def test_unusable_catalog_entries_are_the_prior_rung(
        self, tmp_path, unusable
    ):
        path = tmp_path / "catalog.json"
        healthy = _run_once("columnar", stats_catalog=StatisticsCatalog(path))
        catalog = StatisticsCatalog.open(path)
        entries = list(catalog.entries.values())
        if unusable == "stale":
            catalog.mark_stale([e.key for e in entries])
        elif unusable == "expired":
            catalog.apply("put", [
                replace(e, observed_at=e.observed_at - catalog.ttl - 1)
                for e in entries
            ])
        else:
            for e in entries:  # quality 1 -> 0.5 -> 0.25
                catalog.adjust_quality(e.key, 1.0)
                catalog.adjust_quality(e.key, 1.0)
        catalog.save(merge=False)
        report = _run_once(
            "columnar",
            stats_catalog=StatisticsCatalog.open(path),
            faults=_permanent("B2"),
            retry=FAST,
        )
        assert report.degraded["B2"] == "prior"
        assert _plan_key(report)["B2"] == _plan_key(healthy)["B2"]

    @pytest.mark.parametrize("server_stopped", [False, True])
    def test_served_unusable_entries_are_the_prior_rung(
        self, tmp_path, server_stopped
    ):
        from repro.framework.recovery import demote_confidence
        from repro.serve.client import CatalogClient
        from tests.serve.thread import ServerThread

        thread = ServerThread(
            f"unix://{tmp_path / 'catalog.sock'}", tmp_path / "served.json",
            fsync=False,
        ).__enter__()
        running = True
        client = CatalogClient(
            thread.url, max_retries=0, base_delay=0.0, max_delay=0.0
        )
        try:
            healthy = _run_once("columnar", stats_catalog=client)
            assert client.mark_stale(list(client.entries))
            client.save()
            if server_stopped:
                # connections go with the server; the client's mirror
                # still holds the entries it read
                thread.stop()
                running = False
                client.close()
            report = _run_once(
                "columnar",
                stats_catalog=client,
                faults=_permanent("B2"),
                retry=FAST,
            )
        finally:
            client.close()
            if running:
                thread.stop()
        assert report.catalog_degraded == server_stopped
        # a degraded client costs one rung, as it does on every rung
        expected = demote_confidence("prior") if server_stopped else "prior"
        assert report.degraded["B2"] == expected
        assert _plan_key(report)["B2"] == _plan_key(healthy)["B2"]

    @pytest.mark.parametrize("removed", ["prior_statistics", "prior_observed_at"])
    def test_run_once_takes_no_second_store(self, removed):
        import inspect

        params = inspect.signature(StatisticsPipeline.run_once).parameters
        assert [p.kind for p in params.values()].count(
            inspect.Parameter.KEYWORD_ONLY
        ) == 7
        with pytest.raises(TypeError, match=removed):
            _run_once("columnar", **{removed: None})

    def test_degraded_cardinalities_returns_per_se_sources(self):
        """Direct unit coverage of the three-tuple contract."""
        from repro.framework.recovery import degraded_cardinalities

        pipeline = StatisticsPipeline(case(WORKFLOW).build())
        report = pipeline.run_once(
            _sources(), faults=_permanent("B2"), retry=FAST
        )
        cards, confidence, sources = degraded_cardinalities(
            report.analysis,
            report.run,
            report.catalog,
            report.estimator,
        )
        assert set(confidence) == set(sources)
        for block, per_se in sources.items():
            labels = set(per_se.values())
            from repro.framework.recovery import weakest_confidence

            assert confidence[block] == weakest_confidence(labels)
