"""End-to-end pins for the multiprocess backend's forked worker pool.

Everything here runs real worker processes (fork + shared memory), which
is exactly what the inline-mode equivalence suites deliberately avoid --
so this file carries the ``dist`` marker and CI runs it as its own job.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor, get_backend
from repro.engine.dist import MultiprocessBackend, ShardExecutionError
from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.scheduler import RetryPolicy, classify_error
from repro.quality import ContractSet, QualityGate
from repro.workloads import case

pytestmark = pytest.mark.dist

WORKFLOW = 21
NO_FLOOR = {"min_shard_rows": 0}


def _prepared(number=WORKFLOW, scale=0.05, seed=7):
    wfcase = case(number)
    analysis = analyze(wfcase.build())
    catalog = generate_css(analysis)
    selection = solve_greedy(
        build_problem(catalog, CostModel(wfcase.build().catalog))
    )
    sources = wfcase.tables(scale=scale, seed=seed)
    return analysis, selection, sources


def _pool_backend(shards, **kwargs):
    kwargs.setdefault("factors", NO_FLOOR)
    return MultiprocessBackend(shards=shards, inline=False, **kwargs)


def _run(analysis, selection, sources, backend, **kwargs):
    return BackendExecutor(analysis, backend).run(
        sources, taps=backend.make_taps(selection.observed), **kwargs
    )


def _assert_equivalent(run, ref, selection):
    assert set(run.targets) == set(ref.targets)
    for name, table in ref.targets.items():
        attrs = sorted(table.attrs)
        assert sorted(run.targets[name].rows(attrs)) == sorted(
            table.rows(attrs)
        ), name
    assert run.se_sizes == ref.se_sizes
    for stat in selection.observed:
        assert run.observations.get(stat) == ref.observations.get(stat), stat


class TestPoolEquivalence:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_pool_run_matches_columnar(self, shards):
        analysis, selection, sources = _prepared()
        columnar = get_backend("columnar")
        ref = _run(analysis, selection, sources, columnar)
        backend = _pool_backend(shards)
        try:
            run = _run(analysis, selection, sources, backend)
        finally:
            backend.close()
        _assert_equivalent(run, ref, selection)
        assert run.shard_stats["shards"] == shards
        assert run.shard_stats["tasks"] >= shards

    def test_warm_pool_reuse_across_runs(self):
        analysis, selection, sources = _prepared()
        backend = _pool_backend(2)
        try:
            first = _run(analysis, selection, sources, backend)
            pool = backend._pool
            second = _run(analysis, selection, sources, backend)
            assert backend._pool is pool  # same analysis: the pool stayed warm
        finally:
            backend.close()
        assert first.se_sizes == second.se_sizes


    def test_missing_source_raises_before_the_pool_starts(self):
        from repro.engine.table import TableError

        analysis, selection, sources = _prepared()
        sources.pop(sorted(sources)[0])
        backend = MultiprocessBackend(shards=2)
        try:
            with pytest.raises(TableError, match="missing source"):
                _run(analysis, selection, sources, backend)
            assert backend._pool is None  # nothing forked, nothing pinged
        finally:
            backend.close()


class TestQuarantineFingerprint:
    DIRTY = FaultPlan(
        (
            FaultSpec(target="Trade", kind="corrupt-row", fraction=0.02),
            FaultSpec(target="DimAccount", kind="null-burst", rows=3),
            FaultSpec(target="DimSecurity", kind="type-flip", fraction=0.01),
        ),
        seed=1337,
    )

    def _dirty_run(self, backend):
        wfcase = case(25)
        sources = wfcase.tables(scale=0.05, seed=7)
        gate = QualityGate(contracts=ContractSet.infer(sources))
        survivors = gate.screen_sources(
            self.DIRTY.injector().apply_sources(sources)
        )
        run = BackendExecutor(analyze(wfcase.build()), backend).run(survivors)
        return gate, run

    @staticmethod
    def _fingerprint(screened):
        gate, run = screened
        return {
            "quarantined": {
                name: list(table.rows())
                for name, table in gate.quarantined_tables().items()
            },
            "violations": [
                (v.source, v.row, v.column, v.code)
                for v in gate.all_violations()
            ],
            "targets": {
                name: sorted(table.rows(sorted(table.attrs)), key=repr)
                for name, table in run.targets.items()
            },
            "se_sizes": {repr(se): n for se, n in run.se_sizes.items()},
        }

    def test_dirty_extract_fingerprints_match_at_four_shards(self):
        reference = self._fingerprint(self._dirty_run(get_backend("columnar")))
        assert reference["quarantined"]  # the injection actually bit
        backend = _pool_backend(4)
        try:
            sharded = self._fingerprint(self._dirty_run(backend))
        finally:
            backend.close()
        assert sharded == reference


class TestWorkerFaults:
    def test_worker_kill_is_retried_to_the_clean_result(self):
        analysis, selection, sources = _prepared()
        ref = _run(analysis, selection, sources, get_backend("columnar"))
        plan = FaultPlan(
            (FaultSpec(target="B1", kind="worker-kill"),), seed=5
        )
        backend = _pool_backend(2)
        try:
            run = _run(
                analysis, selection, sources, backend,
                faults=plan.injector(),
            )
        finally:
            backend.close()
        _assert_equivalent(run, ref, selection)
        assert run.shard_stats["retries"] >= 1

    def test_worker_hang_times_out_and_retries(self):
        analysis, selection, sources = _prepared()
        ref = _run(analysis, selection, sources, get_backend("columnar"))
        plan = FaultPlan(
            (FaultSpec(target="B1", kind="worker-hang", delay=30.0),),
            seed=5,
        )
        backend = _pool_backend(2, shard_timeout=1.5)
        try:
            run = _run(
                analysis, selection, sources, backend,
                faults=plan.injector(),
            )
        finally:
            backend.close()
        _assert_equivalent(run, ref, selection)
        assert run.shard_stats["retries"] >= 1

    def test_exhausted_retries_surface_as_transient(self):
        # a fault-armed run is failure-capturing: the exhausted shard
        # budget lands in run.failures as a *transient* structured failure
        analysis, selection, sources = _prepared()
        plan = FaultPlan(
            (FaultSpec(target="B1", kind="worker-kill", times=10),),
            seed=5,
        )
        backend = _pool_backend(2, shard_retries=0)
        try:
            run = _run(
                analysis, selection, sources, backend,
                faults=plan.injector(),
            )
        finally:
            backend.close()
        failure = run.failures["B1"]
        assert failure.kind == "transient"
        assert failure.error_type == "ShardExecutionError"

    def test_pool_broken_at_submit_time_is_retried(self):
        # a killed worker can break the pool *between* submits, making
        # pool.submit itself raise BrokenProcessPool; the dispatcher must
        # fail those shards into the retry round, not let the broken
        # pool escape as a permanent scheduler failure
        from concurrent.futures.process import BrokenProcessPool

        class _BrokenAtSubmit:
            def __init__(self, inner):
                self.inner = inner

            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died between submits")

            def shutdown(self, **kwargs):
                self.inner.shutdown(**kwargs)

        analysis, selection, sources = _prepared()
        ref = _run(analysis, selection, sources, get_backend("columnar"))
        backend = _pool_backend(2)
        try:
            _run(analysis, selection, sources, backend)  # warm the pool
            backend._pool = _BrokenAtSubmit(backend._pool)
            run = _run(analysis, selection, sources, backend)
        finally:
            backend.close()
        _assert_equivalent(run, ref, selection)
        assert run.shard_stats["retries"] >= 2  # both shards re-dispatched

    def test_shard_execution_error_classifies_as_transient(self):
        assert ShardExecutionError.transient is True
        assert classify_error(ShardExecutionError("pool died")) == "transient"

    def test_scheduler_retry_heals_an_exhausted_block(self):
        analysis, selection, sources = _prepared()
        # fires once: the backend's first (and only) attempt dies, the
        # scheduler-level retry re-runs the block against a fresh pool
        plan = FaultPlan(
            (FaultSpec(target="B1", kind="worker-kill"),), seed=5
        )
        ref = _run(analysis, selection, sources, get_backend("columnar"))
        backend = _pool_backend(2, shard_retries=0)
        try:
            run = _run(
                analysis, selection, sources, backend,
                faults=plan.injector(),
                retry=RetryPolicy(max_retries=1, sleep=lambda s: None),
            )
        finally:
            backend.close()
        assert not run.failures
        _assert_equivalent(run, ref, selection)


class TestPipelineWiring:
    def test_shards_imply_the_multiprocess_backend(self):
        from repro.framework.pipeline import StatisticsPipeline

        wfcase = case(WORKFLOW)
        pipeline = StatisticsPipeline(wfcase.build(), shards=2)
        assert pipeline.backend == "multiprocess"
        try:
            report = pipeline.run_once(wfcase.tables(scale=0.05, seed=7))
            assert report.shard_stats
            assert report.shard_stats["shards"] >= 1
        finally:
            pipeline.close()

    def test_shard_metrics_are_exported(self):
        from repro.framework.pipeline import StatisticsPipeline
        from repro.obs import MetricsRegistry, record_run_metrics

        wfcase = case(WORKFLOW)
        pipeline = StatisticsPipeline(wfcase.build(), shards=2)
        registry = MetricsRegistry()
        try:
            report = pipeline.run_once(wfcase.tables(scale=0.05, seed=7))
        finally:
            pipeline.close()
        record_run_metrics(registry, report)
        text = registry.render_prometheus()
        assert "etl_shard_count" in text
        assert "etl_shard_tasks_total" in text
