"""The end-to-end optimization process of Figure 2.

One call to :meth:`StatisticsPipeline.run_once` is one night: the boxes of
the figure in order, each a step method timed as one phase (its
``PipelineReport.timings`` key and, traced, its span's name).

- tonight's sources made final (source faults, the quality gate):
  ``_screen``, phase ``screen`` (timed only with a quality gate);
- 1-4. the initial (or executed) plan, its optimizable blocks, all
  possible SEs and the candidate statistics sets: ``_enumerate``, phase
  ``enumerate`` (derived once, at construction, for the initial plan);
- 5. the minimal-cost set of statistics to observe, a shared catalog's
  usable entries free: ``_select``, phase ``selection``;
- 6. instrument the plan and run it, gathering the statistics:
  ``_observe``, phase ``execution``;
- the shared catalog takes tonight's observations: ``_reconcile``, phase
  ``reconcile`` (run only with a catalog);
- 7. cost alternative plans and pick the best for future runs: ``_plan``,
  phase ``optimization``; healthy and degraded nights alike, through
  :meth:`~repro.estimation.optimizer.PlanOptimizer.optimize`.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
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
from repro.engine.faults import as_injector
from repro.engine.scheduler import RetryPolicy, RunFailure
from repro.engine.table import Table
from repro.estimation.estimator import CardinalityEstimator
from repro.estimation.optimizer import OptimizedPlan, PlanOptimizer


@dataclass
class PipelineReport:
    """Everything one observe-and-optimize cycle produced, built once, at
    the end of :meth:`StatisticsPipeline.run_once`; a value that restates
    another field is a property.

    A degraded cycle (some block permanently failed) still reports plans
    for every block: ``failures`` holds the run's structured per-task
    failure records, each plan's ``confidence`` (``plan_confidence``) names
    the rung of the ladder its costs rest on, and ``degraded_sources``
    which rung filled each SE of an affected block.  With a
    shared catalog, ``tapped`` lists the statistics instrumented tonight
    (``catalog_hits`` counts those the catalog covered at zero cost) and
    ``drift`` holds the reconciliation report.  ``trace`` is the
    :class:`~repro.obs.trace.Tracer` of a traced cycle (its ``root`` the
    span tree tests and benchmarks assert on), else ``None``.
    """

    analysis: BlockAnalysis
    catalog: CssCatalog
    selection: SelectionResult
    run: WorkflowRun
    estimator: CardinalityEstimator
    plans: dict[str, OptimizedPlan]
    #: name of the execution backend the cycle ran on
    backend: str
    timings: dict[str, float]
    #: per degraded block and SE, the rung of the ladder that filled it
    degraded_sources: dict[str, dict[str, str]]
    tapped: list[Statistic]
    drift: "object | None"  # DriftReport when a catalog was given
    trace: "object | None"  # Tracer when run_once(tracer=...) was given
    #: catalog entries invalidated because their source's schema drifted
    drift_invalidated: int
    #: the catalog server vanished and the client answered from its local
    #: view -- every plan's confidence was demoted one rung
    catalog_degraded: bool
    #: this cycle's plan-compilation cache activity (deltas, not totals)
    plan_cache_hits: int
    plan_cache_misses: int
    # -- data quality (run_once(quality=...)'s screening; empty without) ----
    #: per-source dead-letter tables of rows the contracts rejected
    quarantined: dict[str, Table]
    #: structured per-row :class:`~repro.quality.quarantine.Violation`s
    violations: list
    #: :class:`~repro.quality.drift.SchemaDriftEvent`s the gate resolved
    schema_drift: tuple

    @property
    def failures(self) -> dict[str, RunFailure]:
        """The run's structured per-task failure records."""
        return self.run.failures

    @property
    def catalog_hits(self) -> int:
        """Selected statistics the catalog covered, consumed untapped."""
        return len(self.selection.observed) - len(self.tapped)

    @property
    def catalog_failovers(self) -> int:
        """Always 0: a catalog is one daemon, with no standby to fail over
        to.  Kept because nightbench/worker.py reads it."""
        return 0

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
        if self.drift is not None and (self.drift.touched or self.drift.drifted):
            lines.append(self.drift.describe())
        if self.rows_quarantined or self.schema_drift:
            detail = ", ".join(
                f"{name}: {table.num_rows}"
                for name, table in sorted(self.quarantined.items())
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

    # -- step 5 for the initial plan, outside a night ----------------------
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

    # -- one night: the steps of Figure 2 -----------------------------------
    def run_once(self, sources: dict[str, Table],
                 trees: dict[str, PlanTree] | None = None, *, faults=None,
                 retry: RetryPolicy | None = None, checkpoint=None, stats_catalog=None,
                 run_id: str = "", tracer=None, quality=None) -> PipelineReport:
        """One full observe-and-optimize cycle: the steps of Figure 2 (see
        the module docstring), each timed as one phase.

        ``trees`` overrides the executed plans; without it every cycle
        executes the initial plan (:class:`~repro.framework.session
        .EtlSession` is what remembers the previous cycle's choice).
        Because observability is a property of the *executed* plan, the
        whole identification stage (SEs -> CSSs -> selection) is re-derived
        against the overridden plans, exactly as the paper's cycle repeats
        from the currently-best plan.

        ``quality`` (a :class:`~repro.quality.gate.QualityGate`) makes
        tonight's sources final before the catalog is read: the source
        faults apply once, each contracted source is reconciled against
        schema drift under the gate's policy and validated row by row
        (invalid rows go to its dead-letter store), and the catalog entries
        on every schema-drifted source go stale (``drift_invalidated``)
        before the lookup.  So every tap and ground-truth count excludes the
        diverted rows, and a drifted source's statistics are re-observed
        tonight rather than served from the old shape.

        ``stats_catalog`` (a :class:`~repro.catalog.store.StatisticsCatalog`,
        a path, or a served catalog's URL) is the only cross-night memory:
        its usable entries join the selection at zero cost (Section 6.2),
        are not re-instrumented and back the estimator; its stale, expired
        or low-quality entries are the ``prior`` rung of a failed block.
        After the run it is reconciled -- a drifted cardinality penalized
        and corrected in place, its siblings marked stale
        (``PipelineReport.drift`` / ``corrections``) -- and saved if it has
        a backing file.

        ``faults`` (a :class:`~repro.engine.faults.FaultPlan`), ``retry``
        (a :class:`~repro.engine.scheduler.RetryPolicy`) and ``checkpoint``
        (a :class:`~repro.framework.recovery.RunCheckpoint`) drive the
        execution.  A degraded run still completes: healthy blocks get
        exactly the plans a fault-free run would choose, and each failed
        block is planned from the strongest rung that covers it (catalog,
        prior, independence, else its current plan), named by its plan's
        ``confidence``.

        ``tracer`` (a :class:`~repro.obs.trace.Tracer`; ``None`` is the
        only off switch) records the cycle as a span tree, one span per
        phase and per executed block, with operator points annotated with
        estimated-vs-actual rows where a prior prediction exists
        (``PipelineReport.trace``).  The standard metric series are the
        caller's one call on the returned report
        (:func:`~repro.obs.record.record_run_metrics`).
        """
        phase = partial(_phase, self.clock, tracer, timings := {})
        with _opened(stats_catalog) as stats_catalog:
            night = _Night(sources, stats_catalog, as_injector(faults), retry,
                           checkpoint, tracer, run_id)
            cache = self.plan_cache.hits, self.plan_cache.misses
            with phase("screen") if quality is not None else nullcontext():
                night.sources, drift_events = self._screen(night, quality)
            with phase("enumerate") as span:
                analysis, catalog = self._enumerate(trees, span)
            with phase("selection") as span:
                selection, tapped, invalidated = self._select(
                    night, analysis, catalog, drift_events, span)
            with phase("execution", backend=self.backend) as span:
                run = self._observe(night, analysis, tapped, span)
            drift = None
            if stats_catalog is not None:
                with phase("reconcile") as span:
                    drift = self._reconcile(night, analysis, run, tapped, span)
            with phase("optimization") as span:
                estimator, plans, degraded_sources = self._plan(
                    night, analysis, catalog, run, span)
            if tracer is not None:
                tracer.finish(workflow=analysis.workflow.name, run_id=run_id,
                              backend=self.backend, ok=not run.failures)
            return PipelineReport(
                analysis, catalog, selection, run, estimator, plans,
                backend=self.backend, timings=timings, tapped=tapped,
                degraded_sources=degraded_sources, drift=drift, trace=tracer,
                drift_invalidated=invalidated,
                catalog_degraded=night.catalog_degraded,
                plan_cache_hits=self.plan_cache.hits - cache[0],
                plan_cache_misses=self.plan_cache.misses - cache[1],
                quarantined={} if quality is None else quality.quarantined_tables(),
                violations=[] if quality is None else quality.all_violations(),
                schema_drift=drift_events,
            )

    def _screen(self, night: _Night, quality) -> tuple[dict[str, Table], tuple]:
        """Tonight's sources, final before the catalog is read (the source
        faults applied once, then the quality gate's screening), and the
        schema-drift events the gate resolved."""
        sources = night.sources
        if night.injector is not None:
            sources = night.injector.apply_sources(sources)
        if quality is None:
            return sources, ()
        sources = quality.screen_sources(sources, tracer=night.tracer)
        return sources, quality.drift_events()

    def _enumerate(self, trees, span) -> tuple[BlockAnalysis, CssCatalog]:
        """Steps 1-4 for the executed plans: blocks, SEs and CSSs.  The
        initial plans' were derived once, when the pipeline was built."""
        analysis, catalog = self.analysis, self.catalog
        if trees:
            analysis = with_plans(self.analysis, trees)
            catalog = generate_css(analysis, GeneratorOptions())
        if span is not None:
            counts = catalog.counts()
            span.annotate(
                blocks=len(analysis.blocks),
                statistics=counts["statistics"],
                css=counts["css"],
                required=counts["required"],
            )
        return analysis, catalog

    def _select(
        self, night: _Night, analysis, catalog, drift_events, span
    ) -> tuple[SelectionResult, list[Statistic], int]:
        """Step 5: the minimal-cost statistics, the catalog's usable entries
        free.  Returns the selection, the statistics to tap tonight and how
        many entries went stale for schema drift before the lookup."""
        free = set(self.free_statistics)
        invalidated = 0
        if night.stats_catalog is not None:
            from repro.catalog.drift import invalidate_schema_drift
            from repro.catalog.signatures import WorkflowSigner

            night.signer = WorkflowSigner(analysis)
            # entries observed against a shape that no longer holds go
            # stale before the lookup: re-tapped tonight
            invalidated = invalidate_schema_drift(
                night.stats_catalog,
                night.signer,
                analysis,
                {event.source for event in drift_events},
            )
            night.hits = night.stats_catalog.lookup(
                night.signer, catalog.all_statistics
            )
            free |= night.hits.free
        selection = core.select_statistics(
            catalog, self.cost_model(), free=free, solver=self.solver
        )
        # catalog-covered statistics are consumed, never re-observed: they
        # are dropped from the instrumented set, which is where the
        # fleet-wide observation savings materialize
        tapped = [
            stat
            for stat in selection.observed
            if night.hits is None or stat not in night.hits.free
        ]
        if span is not None:
            span.annotate(
                method=selection.method,
                observed=len(selection.observed_indexes),
                cost=selection.total_cost,
                tapped=len(tapped),
                catalog_hits=len(selection.observed) - len(tapped),
            )
        return selection, tapped, invalidated

    def _observe(self, night: _Night, analysis, tapped, span) -> WorkflowRun:
        """Step 6: instrument the plans with taps for ``tapped`` and run
        them on tonight's sources."""
        backend = self._make_backend()
        run = BackendExecutor(
            analysis, backend, plan_cache=self.plan_cache
        ).run(
            night.sources,
            taps=backend.make_taps(tapped),
            faults=night.injector,
            retry=night.retry,
            checkpoint=night.checkpoint,
            tracer=night.tracer,
        )
        if span is not None:
            span.annotate(failures=len(run.failures), resumed=len(run.resumed))
            # prior row predictions by operator-point name: the previous
            # cycle's materialized sizes overlaid with tonight's catalog
            # cardinalities (both are what the optimizer believed)
            estimates = {
                repr(se): float(rows) for se, rows in self._se_sizes.items()
            }
            if night.hits is not None:
                estimates.update(
                    (repr(stat.se), float(value))
                    for stat, value in night.hits.values.items()
                    if stat.is_cardinality
                )
            for point in span.find(kind="operator"):
                estimate = estimates.get(point.name)
                if estimate is not None:
                    point.attrs["estimated_rows"] = estimate
        self._se_sizes = dict(run.se_sizes)  # feeds next cycle's CPU costs
        return run

    def _reconcile(self, night: _Night, analysis, run, tapped, span):
        """Tonight's observations into the catalog, saved if it has a
        backing file: the :class:`~repro.catalog.drift.DriftReport`."""
        from repro.catalog.drift import reconcile_run

        # a resumed run's journal-restored statistics were observed on the
        # *crashed* attempt: refreshing their entries now would forge
        # tonight's timestamp onto stale provenance
        fresh_tapped = [
            stat for stat in tapped if stat not in run.restored_statistics
        ]
        drift = reconcile_run(
            night.stats_catalog,
            night.signer,
            run.observations,
            run.se_sizes,
            fresh_tapped,
            workflow=analysis.workflow.name,
            run_id=night.run_id,
            backend=self.backend,
        )
        if span is not None:
            span.annotate(
                added=len(drift.added),
                refreshed=len(drift.refreshed),
                drifted=len(drift.drifted),
                stale_marked=drift.stale_marked,
                max_rel_error=drift.max_rel_error,
            )
        if night.stats_catalog.path is not None:
            night.stats_catalog.save()
        return drift

    def _plan(self, night: _Night, analysis, catalog, run, span):
        """Step 7: estimate every cardinality, cost the alternatives and
        choose each block's plan.  Returns the estimator, the plans and,
        per degraded block and SE, the rung that filled each gap."""
        effective = run.observations
        if night.hits is not None and len(night.hits.values):
            effective = run.observations.copy()
            effective.merge(night.hits.values)
        estimator = CardinalityEstimator(catalog, effective)
        if not run.failures:
            cards, rungs, gaps = estimator.all_cardinalities(), {}, {}
        else:
            # only a degraded night builds the ladder: the observed-only
            # estimator and the rungs each run a fixpoint
            from repro.framework.recovery import degraded_cardinalities

            observed_only = (
                estimator
                if effective is run.observations
                else CardinalityEstimator(catalog, run.observations)
            )
            cards, rungs, gaps = degraded_cardinalities(
                analysis, run, catalog, observed_only, hits=night.hits
            )
        plans = PlanOptimizer(analysis, cards).optimize(rungs)
        if night.catalog_degraded:
            # the server vanished mid-night: the chosen trees are exactly
            # what the local view would have chosen, but they could not be
            # cross-checked against the fleet's shared state -- every
            # plan's confidence drops one rung, and the run still succeeds
            from repro.framework.recovery import demote_confidence

            for plan in plans.values():
                plan.confidence = demote_confidence(plan.confidence)
        if span is not None:
            span.annotate(
                improved=sum(1 for p in plans.values() if p.improved),
                degraded=sum(p.confidence != "observed" for p in plans.values()),
            )
        return estimator, plans, gaps


@dataclass
class _Night:
    """What one night's steps hand each other and the report does not
    keep: its sources, catalog and execution settings, and the catalog's
    answers once the selection step has asked."""

    sources: dict[str, Table]
    stats_catalog: "object | None"
    injector: "object | None"  # tonight's FaultInjector
    retry: RetryPolicy | None
    checkpoint: "object | None"
    tracer: "object | None"
    run_id: str
    #: the executed plans' WorkflowSigner and tonight's CatalogHits
    signer: "object | None" = field(default=None, init=False)
    hits: "object | None" = field(default=None, init=False)

    @property
    def catalog_degraded(self) -> bool:
        """The catalog server vanished and the client answers from its
        local view."""
        return bool(getattr(self.stats_catalog, "degraded", False))


@contextmanager
def _phase(clock, tracer, timings: dict[str, float], name: str, **attrs):
    """One phase of the night: a clock pair into ``timings``; traced, its
    span too (yielded, else ``None``)."""
    start = clock()
    if tracer is None:
        yield None
    else:
        with tracer.span(name, **attrs) as span:
            yield span
    timings[name] = clock() - start


@contextmanager
def _opened(stats_catalog):
    """``run_once``'s catalog: a URL ("http://host:port",
    "unix:///path.sock") is served behind the degrading client, a plain
    path is the file store, and a client opened here is closed after the
    night."""
    if not isinstance(stats_catalog, (str, os.PathLike)):
        yield stats_catalog
        return
    from repro.serve.client import resolve_stats_catalog

    stats_catalog = resolve_stats_catalog(stats_catalog)
    try:
        yield stats_catalog
    finally:
        if hasattr(stats_catalog, "close"):
            stats_catalog.close()
