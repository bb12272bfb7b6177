"""The end-to-end optimization process of Figure 2.

1. start with the user-defined initial plan;
2. identify optimizable blocks;
3. generate all possible SEs;
4. generate the candidate statistics sets;
5. determine the minimal-cost set of statistics to observe;
6. instrument the plan and run it, gathering the statistics;
7. cost alternative plans and pick the best for future runs.

:class:`StatisticsPipeline` wires the pieces together; one call to
:meth:`StatisticsPipeline.run_once` performs steps 1-7 and returns the
chosen plans plus everything observed along the way.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.algebra.blocks import BlockAnalysis, analyze, with_plans
from repro.algebra.operators import Workflow
from repro.algebra.plans import PlanTree
from repro import core
from repro.core.costs import CostModel
from repro.core.css import CssCatalog
from repro.core.generator import GeneratorOptions, generate_css

# not called here any more: nightbench/tests checks trace rebinding on this
# module's copy of the name, and nightbench/ is frozen in this PR
from repro.core.ilp import solve_ilp  # noqa: F401
from repro.core.selection import SelectionResult
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor, WorkflowRun, get_backend
from repro.engine.compile import PlanCache
from repro.engine.scheduler import RetryPolicy, RunFailure
from repro.engine.table import Table
from repro.estimation.estimator import CardinalityEstimator
from repro.estimation.optimizer import OptimizedPlan, PlanOptimizer


@dataclass
class PipelineReport:
    """Everything one observe-and-optimize cycle produced.

    A degraded cycle (some block permanently failed) still reports plans
    for every block: ``failures`` holds the structured per-task failure
    records, ``degraded`` maps each affected block to the statistics
    source that substituted for tonight's observations (with the per-SE
    detail in ``degraded_sources``), and each plan's ``confidence``
    annotates how trustworthy its cost estimates are.

    When a shared :class:`~repro.catalog.store.StatisticsCatalog` backs
    the cycle, ``tapped`` lists the statistics actually instrumented
    tonight (catalog-covered ones are consumed at zero cost instead of
    being re-observed — ``catalog_hits`` counts them) and ``drift`` holds
    the reconciliation report.

    A traced cycle (``run_once(tracer=...)``) carries the tracer in
    ``trace``: ``trace.root`` is the span tree covering enumeration,
    selection, every executed block with its operator points, catalog
    reconciliation and re-optimization, so tests and benchmarks assert
    on spans instead of scraping stdout.  ``trace`` is ``None`` for an
    untraced run.
    """

    analysis: BlockAnalysis
    catalog: CssCatalog
    selection: SelectionResult
    run: WorkflowRun
    estimator: CardinalityEstimator
    plans: dict[str, OptimizedPlan]
    #: name of the execution backend the cycle ran on
    backend: str
    timings: dict[str, float] = field(default_factory=dict)
    failures: dict[str, RunFailure] = field(default_factory=dict)
    degraded: dict[str, str] = field(default_factory=dict)
    degraded_sources: dict[str, dict[str, str]] = field(default_factory=dict)
    tapped: list[Statistic] = field(default_factory=list)
    catalog_hits: int = 0
    drift: "object | None" = None  # DriftReport when a catalog was given
    trace: "object | None" = None  # Tracer when run_once(tracer=...) was given
    #: catalog entries invalidated because their source's schema drifted
    drift_invalidated: int = 0
    #: the catalog server vanished and the client answered from its local
    #: view -- every plan's confidence was demoted one rung
    catalog_degraded: bool = False
    #: always 0; kept because nightbench/worker.py reads it (ROADMAP item 0 drops it)
    catalog_failovers: int = 0
    #: this cycle's plan-compilation cache activity (deltas, not totals)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    # -- data quality (filled by run_once(quality=...)'s screening) --------
    #: per-source dead-letter tables of rows the contracts rejected
    quarantined: dict[str, Table] = field(default_factory=dict)
    #: structured per-row :class:`~repro.quality.quarantine.Violation`s
    violations: list = field(default_factory=list)
    #: :class:`~repro.quality.drift.SchemaDriftEvent`s the gate resolved
    schema_drift: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def corrections(self) -> int:
        """Catalog cardinality entries the reconcile pass fixed in place."""
        return len(self.drift.drifted) if self.drift is not None else 0

    @property
    def rows_quarantined(self) -> int:
        return sum(t.num_rows for t in self.quarantined.values())

    # -- sharded execution (populated by the multiprocess backend) ----------
    @property
    def shard_stats(self) -> dict:
        """Shard/task/retry counters from a sharded run (else empty)."""
        return self.run.shard_stats

    @property
    def chosen_trees(self) -> dict[str, PlanTree]:
        return {name: plan.tree for name, plan in self.plans.items()}

    @property
    def plan_confidence(self) -> dict[str, str]:
        return {name: plan.confidence for name, plan in self.plans.items()}

    @property
    def total_estimated_cost(self) -> float:
        # unoptimizable (confidence "none") plans carry NaN costs; they are
        # excluded so a degraded night still reports the healthy total
        return sum(
            p.cost for p in self.plans.values() if not math.isnan(p.cost)
        )

    @property
    def total_initial_cost(self) -> float:
        return sum(
            p.initial_cost
            for p in self.plans.values()
            if not math.isnan(p.initial_cost)
        )

    def describe(self) -> str:
        lines = [
            f"observed {len(self.selection.observed_indexes)} statistics "
            f"(cost {self.selection.total_cost:g}, "
            f"method {self.selection.method})",
            f"plan cost: initial {self.total_initial_cost:g} -> "
            f"optimized {self.total_estimated_cost:g}",
        ]
        if self.catalog_hits:
            lines.append(
                f"catalog: {self.catalog_hits} statistics reused at zero "
                f"cost, {len(self.tapped)} observed fresh"
            )
        if self.catalog_degraded:
            lines.append(
                "catalog server unavailable: ran from the local view, "
                "plan confidence demoted one rung"
            )
        if self.drift is not None and getattr(self.drift, "touched", 0) + len(
            getattr(self.drift, "drifted", ())
        ):
            lines.append(self.drift.describe())
        if self.rows_quarantined or self.schema_drift:
            by_source: dict[str, int] = {}
            for name, table in self.quarantined.items():
                by_source[name] = table.num_rows
            detail = ", ".join(
                f"{name}: {count}" for name, count in sorted(by_source.items())
            )
            lines.append(
                f"quarantined {self.rows_quarantined} row(s) "
                f"({len(self.violations)} violation(s)"
                + (f"; {detail}" if detail else "")
                + ")"
            )
            for event in self.schema_drift:
                lines.append(f"   drift: {event.describe()}")
            if self.drift_invalidated:
                lines.append(
                    f"   {self.drift_invalidated} catalog entr"
                    f"{'y' if self.drift_invalidated == 1 else 'ies'} "
                    "invalidated by schema drift"
                )
        for name, plan in self.plans.items():
            marker = "*" if plan.improved else " "
            note = "" if plan.confidence == "observed" else f" [{plan.confidence}]"
            lines.append(
                f" {marker} {name}: {plan.tree!r} (cost {plan.cost:g}){note}"
            )
        if self.run.resumed:
            lines.append(f"resumed from checkpoint: {', '.join(self.run.resumed)}")
        for failure in self.failures.values():
            lines.append(f" ! {failure.describe()}")
        return "\n".join(lines)


@dataclass
class StatisticsPipeline:
    """Configurable Figure-2 pipeline for a single workflow."""

    workflow: Workflow
    solver: str = "ilp"  # "ilp" | "greedy"
    free_statistics: set[Statistic] = field(default_factory=set)
    memory_weight: float = 1.0
    cpu_weight: float = 0.0
    backend: str = "columnar"  # any name get_backend() resolves
    #: row shards per block for the multiprocess backend (None = that
    #: backend's own default); ignored by single-process backends
    shards: int | None = None
    #: monotonic clock behind ``PipelineReport.timings`` (and the default
    #: span clock) -- injectable so tests assert exact, deterministic
    #: durations instead of sleeping
    clock: Callable[[], float] = time.perf_counter

    def __post_init__(self) -> None:
        if self.shards is not None and self.backend != "multiprocess":
            # asking for row shards selects the sharded backend (keeps the
            # cost-model constants and metric labels consistent)
            self.backend = "multiprocess"
        self.analysis = analyze(self.workflow)
        self.catalog = generate_css(self.analysis, GeneratorOptions())
        self._se_sizes: dict = {}
        # shared across run_once calls: warm cycles skip plan lowering;
        # a changed plan is a new key (programs are data-free, so a
        # drifted source evicts nothing)
        self.plan_cache = PlanCache()
        # the multiprocess backend is held across cycles so its worker
        # pool (and the per-process compiled-plan caches) stay warm
        self._backend_instance = None

    def _make_backend(self):
        """Resolve the configured backend; sharded backends are cached so
        their worker pool survives across cycles."""
        if self.backend == "multiprocess":
            if self._backend_instance is None:
                from repro.engine.dist import MultiprocessBackend

                kwargs = {}
                if self.shards is not None:
                    kwargs["shards"] = self.shards
                self._backend_instance = MultiprocessBackend(**kwargs)
            return self._backend_instance
        return get_backend(self.backend)

    def close(self) -> None:
        """Release backend resources (the multiprocess worker pool)."""
        backend, self._backend_instance = self._backend_instance, None
        if backend is not None:
            backend.close()

    # -- steps 4-5 ---------------------------------------------------------
    def cost_model(self) -> CostModel:
        return CostModel(
            self.workflow.catalog,
            se_sizes=dict(self._se_sizes),
            memory_weight=self.memory_weight,
            cpu_weight=self.cpu_weight,
        )

    def select_statistics(self) -> SelectionResult:
        return core.select_statistics(
            self.catalog,
            self.cost_model(),
            free=self.free_statistics,
            solver=self.solver,
        )

    # -- steps 6-7 ---------------------------------------------------------
    def run_once(
        self,
        sources: dict[str, Table],
        trees: dict[str, PlanTree] | None = None,
        *,
        faults=None,
        retry: RetryPolicy | None = None,
        checkpoint=None,
        stats_catalog=None,
        run_id: str = "",
        tracer=None,
        quality=None,
    ) -> PipelineReport:
        """One full observe-and-optimize cycle.

        ``trees`` overrides the executed plans; without it every cycle
        executes the initial plan (:class:`~repro.framework.session
        .EtlSession` is what remembers the previous cycle's choice).
        Because observability is a property of the *executed* plan, the
        whole identification stage (SEs -> CSSs -> selection) is re-derived
        against the overridden plans, exactly as the paper's cycle repeats
        from the currently-best plan.

        Resilience knobs (all optional): ``faults`` injects a
        :class:`~repro.engine.faults.FaultPlan`, ``retry`` sets the
        scheduler's :class:`~repro.engine.scheduler.RetryPolicy`,
        ``checkpoint`` journals/restores per-block progress
        (:class:`~repro.framework.recovery.RunCheckpoint`).  With a
        degraded run the cycle still completes: healthy blocks get exactly
        the plans a fault-free run would choose, affected blocks are
        annotated in ``degraded``.

        ``stats_catalog`` is a shared
        :class:`~repro.catalog.store.StatisticsCatalog`, the cycle's only
        cross-night memory: its usable entries join the selection problem
        at zero cost (the Section 6.2 mechanism), are *not* re-instrumented
        tonight, and back the estimator directly; its unusable entries
        (stale, expired, low quality) backfill the cardinalities of a
        block that permanently fails tonight, one rung below it.  After
        the run the catalog is reconciled -- fresh observations refresh
        it, a drifted cardinality is penalized and corrected in place, its
        siblings marked stale (``PipelineReport.drift`` / ``corrections``)
        -- and saved if it has a backing file.  Without a catalog a failed
        block falls to the independence baseline, then to pinning its
        current plan.

        ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records the whole
        cycle as a span tree -- screening, enumeration, selection, one
        span per executed block with per-operator points (estimated-vs-
        actual rows where a prior prediction exists, annotated after the
        run), catalog reconcile, optimization -- surfaced as
        ``PipelineReport.trace``.  ``None`` (the default) is the only off
        switch.  Each phase is timed once, into ``PipelineReport.timings``
        by the pipeline's ``clock``, and, traced, opens its span.  The
        standard metric series are the caller's one call on the returned
        report (:func:`~repro.obs.record.record_run_metrics`).

        ``quality`` (a :class:`~repro.quality.gate.QualityGate`: contracts,
        schema-drift policy, dead-letter store) makes tonight's sources
        final before the catalog is read.  The order is: source faults,
        applied once; screening, where each contracted source is
        reconciled against schema drift under the gate's policy and then
        validated row by row, invalid rows going to the gate's dead-letter
        store; then the catalog entries on every schema-drifted source are
        marked stale (``drift_invalidated``); only then the lookup and the
        selection.  So every tap and ground-truth count excludes the
        diverted rows, a drifted source's statistics are re-observed
        tonight rather than served from the old shape, and a degraded
        night finds them on the ``prior`` rung like any stale entry.
        """
        from repro.engine.faults import as_injector

        timings: dict[str, float] = {}

        @contextmanager
        def _phase(name: str, **attrs):
            # one clock pair per phase for ``timings``; traced, its span too
            start = self.clock()
            if tracer is None:
                yield None
            else:
                with tracer.span(name, **attrs) as span:
                    yield span
            timings[name] = self.clock() - start

        opened = None  # the served-catalog client this cycle itself opened
        if isinstance(stats_catalog, (str, os.PathLike)):
            # "http://host:port" / "unix:///path.sock" -> served catalog
            # behind the degrading client; a plain path -> the file store
            from repro.serve.client import resolve_stats_catalog

            stats_catalog = resolve_stats_catalog(stats_catalog)
            if hasattr(stats_catalog, "close"):
                opened = stats_catalog
        try:
            cache_before = (self.plan_cache.hits, self.plan_cache.misses)

            # tonight's sources are final before the catalog is read
            injector = as_injector(faults)
            if injector is not None:
                sources = injector.apply_sources(sources)
            if quality is not None:
                with _phase("screen"):
                    sources = quality.screen_sources(sources, tracer=tracer)
                schema_drift = quality.drift_events()
            else:
                schema_drift = ()

            with _phase("enumerate") as enum_span:
                if trees:
                    analysis = with_plans(self.analysis, trees)
                    catalog = generate_css(analysis, GeneratorOptions())
                else:
                    analysis, catalog = self.analysis, self.catalog
                if enum_span is not None:
                    counts = catalog.counts()
                    enum_span.annotate(
                        blocks=len(analysis.blocks),
                        statistics=counts["statistics"],
                        css=counts["css"],
                        required=counts["required"],
                    )

            signer = None
            hits = None
            drift_invalidated = 0
            free = set(self.free_statistics)
            with _phase("selection") as sel_span:
                if stats_catalog is not None:
                    from repro.catalog.drift import invalidate_schema_drift
                    from repro.catalog.signatures import WorkflowSigner

                    signer = WorkflowSigner(analysis)
                    # entries observed against a shape that no longer holds
                    # go stale before the lookup: re-tapped tonight
                    drift_invalidated = invalidate_schema_drift(
                        stats_catalog,
                        signer,
                        analysis,
                        {event.source for event in schema_drift},
                    )
                    hits = stats_catalog.lookup(signer, catalog.all_statistics)
                    free |= hits.free
                selection = core.select_statistics(
                    catalog, self.cost_model(), free=free, solver=self.solver
                )
                # catalog-covered statistics are consumed, never re-observed:
                # they are dropped from the instrumented set, which is where the
                # fleet-wide observation savings materialize
                tapped = [
                    stat
                    for stat in selection.observed
                    if hits is None or stat not in hits.free
                ]
                if sel_span is not None:
                    sel_span.annotate(
                        method=selection.method,
                        observed=len(selection.observed_indexes),
                        cost=selection.total_cost,
                        tapped=len(tapped),
                        catalog_hits=len(selection.observed) - len(tapped),
                    )

            # prior row predictions by operator-point name, for the
            # estimated-vs-actual annotations: the previous cycle's
            # materialized sizes overlaid with tonight's catalog
            # cardinalities (both are what the optimizer believed)
            estimates: dict[str, float] = {}
            if tracer is not None:
                estimates = {
                    repr(se): float(rows) for se, rows in self._se_sizes.items()
                }
                if hits is not None:
                    estimates.update(
                        (repr(stat.se), float(value))
                        for stat, value in hits.values.items()
                        if stat.is_cardinality
                    )

            backend = self._make_backend()
            taps = backend.make_taps(tapped)
            with _phase("execution", backend=self.backend) as exec_span:
                run = BackendExecutor(
                    analysis,
                    backend,
                    plan_cache=self.plan_cache,
                ).run(
                    sources,
                    taps=taps,
                    faults=injector,
                    retry=retry,
                    checkpoint=checkpoint,
                    tracer=tracer,
                )
                if exec_span is not None:
                    exec_span.annotate(
                        failures=len(run.failures), resumed=len(run.resumed)
                    )
                    for point in exec_span.find(kind="operator"):
                        estimate = estimates.get(point.name)
                        if estimate is not None:
                            point.attrs["estimated_rows"] = estimate
            self._se_sizes = dict(run.se_sizes)  # feeds next cycle's CPU costs

            drift = None
            if stats_catalog is not None:
                from repro.catalog.drift import reconcile_run

                with _phase("reconcile") as rec_span:
                    # a resumed run's journal-restored statistics were observed
                    # on the *crashed* attempt: refreshing their entries now
                    # would forge tonight's timestamp onto stale provenance
                    fresh_tapped = [
                        stat
                        for stat in tapped
                        if stat not in run.restored_statistics
                    ]
                    drift = reconcile_run(
                        stats_catalog,
                        signer,
                        run.observations,
                        run.se_sizes,
                        fresh_tapped,
                        workflow=analysis.workflow.name,
                        run_id=run_id,
                        backend=self.backend,
                    )
                    if rec_span is not None:
                        rec_span.annotate(
                            added=len(drift.added),
                            refreshed=len(drift.refreshed),
                            drifted=len(drift.drifted),
                            stale_marked=drift.stale_marked,
                            max_rel_error=drift.max_rel_error,
                        )
                if stats_catalog.path is not None:
                    stats_catalog.save()

            with _phase("optimization") as opt_span:
                effective = run.observations
                if hits is not None and len(hits.values):
                    effective = run.observations.copy()
                    effective.merge(hits.values)
                estimator = CardinalityEstimator(catalog, effective)
                degraded: dict[str, str] = {}
                degraded_sources: dict[str, dict[str, str]] = {}
                if run.failures:
                    from repro.framework.recovery import degraded_cardinalities

                    observed_only = (
                        CardinalityEstimator(catalog, run.observations)
                        if hits is not None and len(hits.values)
                        else estimator
                    )
                    cards, degraded, degraded_sources = degraded_cardinalities(
                        analysis,
                        run,
                        catalog,
                        observed_only,
                        hits=hits,
                    )
                    optimizer = PlanOptimizer(analysis, cards)
                    plans = {
                        block.name: optimizer.optimize_or_fallback(
                            block, confidence=degraded.get(block.name, "observed")
                        )
                        for block in analysis.blocks
                    }
                    # optimize_or_fallback may further downgrade a block to "none"
                    for name, plan in plans.items():
                        if plan.confidence != "observed":
                            degraded[name] = plan.confidence
                else:
                    plans = PlanOptimizer(
                        analysis, estimator.all_cardinalities()
                    ).optimize()
                catalog_degraded = bool(getattr(stats_catalog, "degraded", False))
                if catalog_degraded:
                    # the server vanished mid-night: the chosen trees are exactly
                    # what the local view would have chosen, but they could not be
                    # cross-checked against the fleet's shared state -- every
                    # plan's confidence drops one rung, and the run still succeeds
                    from dataclasses import replace as _replace

                    from repro.framework.recovery import demote_confidence

                    for name, plan in plans.items():
                        demoted = demote_confidence(plan.confidence)
                        if demoted != plan.confidence:
                            plans[name] = _replace(plan, confidence=demoted)
                            degraded[name] = demoted
                if opt_span is not None:
                    opt_span.annotate(
                        improved=sum(1 for p in plans.values() if p.improved),
                        degraded=len(degraded),
                    )

            report = PipelineReport(
                analysis=analysis,
                catalog=catalog,
                selection=selection,
                run=run,
                estimator=estimator,
                plans=plans,
                backend=self.backend,
                timings=timings,
                failures=dict(run.failures),
                degraded=degraded,
                degraded_sources=degraded_sources,
                tapped=tapped,
                catalog_hits=len(selection.observed) - len(tapped),
                drift=drift,
                drift_invalidated=drift_invalidated,
                trace=tracer,
                catalog_degraded=catalog_degraded,
                plan_cache_hits=self.plan_cache.hits - cache_before[0],
                plan_cache_misses=self.plan_cache.misses - cache_before[1],
            )
            if quality is not None:
                report.quarantined = quality.quarantined_tables()
                report.violations = quality.all_violations()
                report.schema_drift = schema_drift
            if tracer is not None:
                tracer.finish(
                    workflow=analysis.workflow.name,
                    run_id=run_id,
                    backend=self.backend,
                    ok=report.ok,
                )
            return report
        finally:
            if opened is not None:
                opened.close()
