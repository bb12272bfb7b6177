"""Standard metric names, recorded from one pipeline report.

One place defines what the framework exports, so the single-run CLI path
(``repro-etl run --metrics-out``) and the multi-run
:class:`~repro.framework.session.EtlSession` aggregate the *same* series
and dashboards built against one work against the other.

Everything is duck-typed against
:class:`~repro.framework.pipeline.PipelineReport` to keep this module
import-light (the pipeline imports :mod:`repro.obs`, not vice versa).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

#: bucket bounds for relative estimation error (unitless ratios)
ERROR_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 10.0)


def record_run_metrics(registry: MetricsRegistry, report) -> None:
    """Fold one observe-and-optimize cycle into the registry.

    Every series is labelled with the report's workflow name and backend.

    Counters: ``etl_runs_total``, ``etl_run_failures_total`` (labelled by
    failure kind), ``etl_statistics_tapped_total``,
    ``etl_catalog_hits_total``, ``etl_plans_improved_total``,
    ``etl_rows_quarantined_total`` (per source) and
    ``etl_schema_drift_events_total`` (per source and drift kind).  Gauges:
    ``etl_plan_cost``, ``etl_selection_cost``.  A catalog-backed cycle adds
    the reconcile series off ``report.drift`` (``etl_catalog_refreshed_total``,
    ``etl_catalog_drifted_total``, ``etl_catalog_corrections_total``,
    ``catalog_entries_added_total``, ``catalog_entries_refreshed_total``,
    ``catalog_stale_marked_total``, ``catalog_schema_invalidated_total``,
    ``catalog_max_rel_error``).  Histograms:
    ``etl_phase_seconds`` (labelled by phase: enumerate, selection,
    execution and optimization, plus reconcile on a catalog-backed night
    and screen on a gated one) and, when the report's
    trace carries estimated-vs-actual rows, ``etl_estimation_rel_error``.
    A sharded run additionally exports the ``etl_shard_*`` series
    (shard count, dispatched/retried tasks, merged rows, shm bytes).
    """
    labels = {
        "workflow": report.analysis.workflow.name,
        "backend": report.backend,
    }

    registry.counter(
        "etl_runs_total", "observe-and-optimize cycles completed"
    ).inc(**labels)
    if report.failures:
        failures = registry.counter(
            "etl_run_failures_total", "failed or skipped tasks across runs"
        )
        for failure in report.failures.values():
            failures.inc(kind=failure.kind, **labels)
    registry.counter(
        "etl_statistics_tapped_total", "statistics instrumented fresh"
    ).inc(len(report.tapped), **labels)
    if report.catalog_hits:
        registry.counter(
            "etl_catalog_hits_total",
            "statistics consumed from the shared catalog at zero cost",
        ).inc(report.catalog_hits, **labels)
    improved = sum(1 for plan in report.plans.values() if plan.improved)
    if improved:
        registry.counter(
            "etl_plans_improved_total", "blocks whose plan changed"
        ).inc(improved, **labels)
    if getattr(report, "catalog_degraded", False):
        registry.counter(
            "etl_catalog_degraded_total",
            "runs that lost the catalog server and fell back to local state",
        ).inc(**labels)

    # plan-compilation cache activity (per-cycle deltas from the report, so
    # a shared long-lived cache still yields per-run series)
    for field_name, metric, help_text in (
        ("plan_cache_hits", "etl_plan_cache_hits_total",
         "compiled block programs reused from the plan cache"),
        ("plan_cache_misses", "etl_plan_cache_misses_total",
         "blocks lowered because no cached program matched"),
    ):
        amount = getattr(report, field_name, 0)
        if amount:
            registry.counter(metric, help_text).inc(amount, **labels)

    # sharded execution (multiprocess backend): empty dict for the
    # single-process backends, so these series only exist when sharding ran
    shard_stats = getattr(report, "shard_stats", None)
    if shard_stats:
        registry.gauge(
            "etl_shard_count", "row shards per block in the last sharded run"
        ).set(shard_stats.get("shards", 0), **labels)
        registry.gauge(
            "etl_shard_shm_bytes",
            "shared-memory bytes shipped to workers in the last run",
        ).set(shard_stats.get("shm_bytes", 0), **labels)
        for field_name, metric, help_text in (
            ("tasks", "etl_shard_tasks_total",
             "shard tasks dispatched to worker processes"),
            ("retries", "etl_shard_retries_total",
             "shard tasks re-dispatched after a worker died or hung"),
            ("rows_out", "etl_shard_rows_total",
             "block output rows merged back from shard workers"),
        ):
            amount = shard_stats.get(field_name, 0)
            if amount:
                registry.counter(metric, help_text).inc(amount, **labels)

    registry.gauge(
        "etl_plan_cost", "total estimated cost of the chosen plans"
    ).set(report.total_estimated_cost, **labels)
    registry.gauge(
        "etl_selection_cost", "observation cost of the selected statistics"
    ).set(report.selection.total_cost, **labels)

    phases = registry.histogram(
        "etl_phase_seconds", "wall time per pipeline phase"
    )
    for phase, seconds in report.timings.items():
        phases.observe(seconds, phase=phase, **labels)

    quarantined = getattr(report, "quarantined", None)
    if quarantined:
        rows = registry.counter(
            "etl_rows_quarantined_total",
            "source rows diverted to dead-letter tables by contracts",
        )
        for source, table in sorted(quarantined.items()):
            rows.inc(table.num_rows, source=source, **labels)
    schema_drift = getattr(report, "schema_drift", None)
    if schema_drift:
        events = registry.counter(
            "etl_schema_drift_events_total",
            "schema drift events resolved by the quality gate",
        )
        for event in schema_drift:
            events.inc(source=event.source, kind=event.kind, **labels)

    # what the reconcile pass did to the shared catalog
    drift = report.drift
    if drift is not None:
        registry.counter(
            "etl_catalog_refreshed_total", "catalog entries refreshed by runs"
        ).inc(len(drift.refreshed) + len(drift.added), **labels)
        registry.gauge(
            "catalog_max_rel_error", "worst prediction error this reconcile"
        ).set(drift.max_rel_error, **labels)
        for amount, metric, help_text in (
            (len(drift.added), "catalog_entries_added_total",
             "statistics newly admitted"),
            (len(drift.refreshed), "catalog_entries_refreshed_total",
             "entries overwritten by fresh observations"),
            (len(drift.drifted), "etl_catalog_drifted_total",
             "SEs whose catalog prediction drifted"),
            (report.corrections, "etl_catalog_corrections_total",
             "catalog entries corrected in place by the reconcile pass"),
            (drift.stale_marked, "catalog_stale_marked_total",
             "sibling entries forced to re-observation"),
            (report.drift_invalidated, "catalog_schema_invalidated_total",
             "entries invalidated by upstream schema drift"),
        ):
            if amount:
                registry.counter(metric, help_text).inc(amount, **labels)

    trace = getattr(report, "trace", None)
    if trace is not None:
        from repro.obs.render import estimation_errors

        errors = registry.histogram(
            "etl_estimation_rel_error",
            "relative error of prior row predictions vs observed rows",
            buckets=ERROR_BUCKETS,
        )
        for err, _span in estimation_errors(trace.root):
            errors.observe(err, **labels)


__all__ = ["ERROR_BUCKETS", "record_run_metrics"]
