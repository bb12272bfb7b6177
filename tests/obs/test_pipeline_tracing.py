"""Integration: the pipeline, scheduler and session emit the span tree.

These tests pin the observability *contract* of a traced cycle -- which
phases appear, which annotations they carry, how failures and retries
surface, and that the whole feature is inert when off -- against real
suite workflows, with injected clocks so every duration is exact.
"""

import pytest

from repro.catalog.store import StatisticsCatalog
from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.scheduler import RetryPolicy
from repro.framework.pipeline import StatisticsPipeline
from repro.framework.session import EtlSession
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import record_run_metrics
from repro.obs.trace import Tracer
from repro.workloads import case


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


FAST = RetryPolicy(max_retries=2, seed=7, sleep=lambda s: None)


def _pipeline(number=12, **kwargs):
    return StatisticsPipeline(case(number).build(), **kwargs)


def _sources(number=12, scale=0.1):
    return case(number).tables(scale=scale, seed=5)


class TestTracedRun:
    def test_span_tree_covers_every_phase(self):
        pipeline = _pipeline()
        tracer = Tracer()
        report = pipeline.run_once(_sources(), run_id="run0", tracer=tracer)

        assert report.trace is tracer
        root = tracer.root
        assert root.end is not None  # finished
        phases = [c.name for c in root.children]
        assert phases == ["enumerate", "selection", "execution", "optimization"]

        enum = root.first(name="enumerate")
        assert enum.attrs["blocks"] == len(report.analysis.blocks)
        assert enum.attrs["statistics"] > 0
        assert enum.attrs["css"] > 0
        assert enum.attrs["required"] > 0

        sel = root.first(name="selection")
        assert sel.attrs["method"] == report.selection.method
        assert sel.attrs["observed"] == len(report.selection.observed_indexes)
        assert sel.attrs["cost"] == report.selection.total_cost
        assert sel.attrs["tapped"] == len(report.tapped)
        assert sel.attrs["catalog_hits"] == 0

        execution = root.first(name="execution")
        assert execution.attrs["backend"] == "columnar"
        assert execution.attrs["failures"] == 0

        opt = root.first(name="optimization")
        assert opt.attrs["improved"] == sum(
            1 for p in report.plans.values() if p.improved
        )

        # run metadata on the root
        assert root.attrs["workflow"] == report.analysis.workflow.name
        assert root.attrs["run_id"] == "run0"
        assert root.attrs["ok"] is True

    def test_blocks_carry_operator_points_with_rows(self):
        pipeline = _pipeline()
        tracer = Tracer()
        report = pipeline.run_once(_sources(), tracer=tracer)

        blocks = tracer.find(kind="block")
        assert {s.name for s in blocks} == {
            b.name for b in report.analysis.blocks
        }
        sizes_by_repr = {repr(se): n for se, n in report.run.se_sizes.items()}
        for block in blocks:
            assert block.attrs["outcome"] == "ok"
            points = [c for c in block.children if c.kind == "operator"]
            assert points, block.name
            for point in points:
                # a point's name is the SE it materialized; its rows match
                # the run's recorded size for that SE
                assert point.attrs["rows"] == sizes_by_repr[point.name]
        # at least one tap fired somewhere in the tree
        assert any(
            s.attrs.get("tapped") for s in tracer.root.walk()
        )
        # a join's point says what its build side looked like
        builds = [s.attrs for s in tracer.root.walk() if "build_rows" in s.attrs]
        assert builds and all(
            0 < a["build_distinct"] <= a["build_rows"] - a["build_duplicated"]
            for a in builds
        )

    def test_second_cycle_annotates_estimated_rows(self):
        pipeline = _pipeline()
        sources = _sources()
        pipeline.run_once(sources)  # untraced warm-up fills _se_sizes
        tracer = Tracer()
        pipeline.run_once(sources, tracer=tracer)  # same plan, same data

        estimated = [
            s for s in tracer.root.walk()
            if s.kind == "operator" and "estimated_rows" in s.attrs
        ]
        assert estimated
        # same data, so the previous cycle's sizes predict perfectly
        for span in estimated:
            assert span.attrs["rows"] == pytest.approx(
                span.attrs["estimated_rows"]
            )

    def test_reconcile_phase_with_shared_catalog(self):
        pipeline = _pipeline()
        catalog = StatisticsCatalog()
        tracer = Tracer()
        report = pipeline.run_once(
            _sources(), stats_catalog=catalog, run_id="run0", tracer=tracer
        )
        rec = tracer.root.first(name="reconcile")
        assert rec is not None
        assert rec.attrs["added"] == len(report.drift.added)
        assert rec.attrs["added"] > 0  # a cold catalog learns everything
        assert rec.attrs["drifted"] == 0
        assert "reconcile" in report.timings

    def test_untraced_run_has_no_trace(self):
        report = _pipeline().run_once(_sources())
        assert report.trace is None


class TestFailureTracing:
    def test_retries_annotate_the_block_span(self):
        faults = FaultPlan(
            (FaultSpec(target="B2", kind="transient", times=1),), seed=7
        )
        pipeline = _pipeline(25)
        tracer = Tracer()
        report = pipeline.run_once(
            _sources(25, scale=0.05), faults=faults, retry=FAST, tracer=tracer
        )
        assert report.ok  # transient + retry converges

        block = tracer.root.first(kind="block", name="B2")
        assert block.attrs["outcome"] == "ok"
        assert block.attrs["attempts"] == 2
        assert block.attrs["retried"] is True
        retries = block.find(kind="retry")
        assert len(retries) == 1
        assert retries[0].attrs["attempt"] == 1
        assert retries[0].attrs["failure_kind"] == "transient"
        assert retries[0].attrs["error"]

    def test_permanent_failure_and_skips_are_visible(self):
        faults = FaultPlan(
            (FaultSpec(target="B2", kind="permanent"),), seed=7
        )
        pipeline = _pipeline(25)
        tracer = Tracer()
        report = pipeline.run_once(
            _sources(25, scale=0.05), faults=faults, retry=FAST, tracer=tracer
        )
        assert not report.ok

        block = tracer.root.first(kind="block", name="B2")
        assert block.attrs["outcome"] == "permanent"
        assert block.attrs["error"]

        skipped = tracer.find(kind="skipped")
        assert skipped  # B2's downstream target task was skipped
        for point in skipped:
            assert point.attrs["missing"]
        assert tracer.root.attrs["ok"] is False


class TestInjectedClock:
    def test_timings_use_the_pipeline_clock(self):
        pipeline = _pipeline(clock=FakeClock())
        report = pipeline.run_once(_sources())
        # each phase is one t0/end clock pair; the fake clock steps by 1.0
        assert set(report.timings.values()) == {1.0}

    def test_session_tracer_shares_the_pipeline_clock(self):
        clock = FakeClock()
        pipeline = _pipeline(clock=clock)
        session = EtlSession(pipeline, tracing=True)
        record = session.run(_sources())
        root = record.report.trace.root
        # every span was timed by the injected clock: integral ticks only
        for span in root.walk():
            assert span.start == int(span.start)
            assert span.end is None or span.end == int(span.end)
        assert root.duration > 0


class TestSessionMetrics:
    def test_registry_aggregates_across_runs(self):
        registry = MetricsRegistry()
        session = EtlSession(
            _pipeline(), metrics=registry, tracing=True
        )
        sources = _sources()
        session.run(sources)
        session.run(sources)

        workflow = session.history[0].report.analysis.workflow.name
        runs = registry.get("etl_runs_total")
        assert runs.value(workflow=workflow, backend="columnar") == 2.0

        tapped = registry.get("etl_statistics_tapped_total")
        assert tapped.total == sum(
            len(r.report.tapped) for r in session.history
        )

        phases = registry.get("etl_phase_seconds")
        assert phases.count(
            phase="execution", workflow=workflow, backend="columnar"
        ) == 2

        cost = registry.get("etl_plan_cost")
        assert cost.value(workflow=workflow, backend="columnar") == (
            session.history[-1].report.total_estimated_cost
        )

        # the traced second run carried estimates, so error samples exist
        errors = registry.get("etl_estimation_rel_error")
        assert errors is not None and errors.count(
            workflow=workflow, backend="columnar"
        ) > 0

        # each run carries its own fresh trace
        traces = [r.report.trace for r in session.history]
        assert all(t is not None for t in traces)
        assert traces[0] is not traces[1]

    def test_failures_counted_by_kind(self):
        registry = MetricsRegistry()
        faults = FaultPlan(
            (FaultSpec(target="B2", kind="permanent"),), seed=7
        )
        pipeline = _pipeline(25)
        report = pipeline.run_once(
            _sources(25, scale=0.05), faults=faults, retry=FAST
        )
        record_run_metrics(registry, report)
        labels = {
            "workflow": report.analysis.workflow.name,
            "backend": "columnar",
        }
        failures = registry.get("etl_run_failures_total")
        assert failures.value(kind="permanent", **labels) == 1.0
        assert failures.value(kind="skipped", **labels) >= 1.0
