"""Execution backends: one plan-walking core, one block runtime.

The paper treats the ETL engine as a swappable component with fixed
observation points (Sections 3.2.5-3.2.6): the optimization framework only
needs *some* engine that executes the analyzed plan and fires the taps at
every plan point.  Here that engine is a single path: every optimizable
block is lowered to a :class:`~repro.engine.compile.BlockProgram`
(through the run's :class:`~repro.engine.compile.PlanCache`) and executed
by :class:`~repro.engine.compile.CompiledBlockRunner`, which feeds one
kind of instrumentation (:class:`~repro.engine.instrumentation.TapSet`).

An :class:`ExecutionBackend` is a named *configuration* of that path --
its :class:`~repro.engine.compile.CompiledProfile` says how rows are
batched (whole columns, or bounded chunks for ``streaming``) -- plus the
hooks a sharding backend needs to run the same path inside worker
processes.

:class:`BackendExecutor` is the plan-walking core: it checks the sources,
turns blocks and boundaries into dependency tasks, runs them in
dependency order (:func:`~repro.engine.scheduler.execute_tasks`), applies
boundary operators, and collects the observations.

:func:`get_backend` resolves ``"columnar"``, ``"streaming"``,
``"vectorized"`` and ``"multiprocess"`` so the framework, the CLI and the
benchmarks can thread a backend choice around as a plain string.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.algebra.blocks import Block, BlockAnalysis, BoundaryOp
from repro.algebra.expressions import AnySE, RejectSE, SubExpression
from repro.algebra.operators import Aggregate, AggregateUDF, Materialize, Target
from repro.algebra.plans import PlanTree
from repro.core.statistics import StatisticsStore
from repro.engine import physical
from repro.engine.compile import (
    CompiledBlockRunner,
    CompiledProfile,
    PlanCache,
    compile_block,
)
from repro.engine.instrumentation import TapSet
from repro.engine.scheduler import (
    RetryPolicy,
    RunFailure,
    SchedulerError,
    Task,
    execute_tasks,
)
from repro.engine.table import Table, TableError


@dataclass
class WorkflowRun:
    """Everything a single execution produced.

    A fault-tolerant run (one given a retry policy or a fault injector)
    records failed and skipped tasks in ``failures`` instead of raising;
    ``resumed`` names the blocks restored from a checkpoint rather than
    executed.
    """

    env: dict[str, Table] = field(default_factory=dict)
    targets: dict[str, Table] = field(default_factory=dict)
    observations: StatisticsStore = field(default_factory=StatisticsStore)
    se_sizes: dict[AnySE, int] = field(default_factory=dict)
    rejects: dict[RejectSE, Table] = field(default_factory=dict)
    failures: dict[str, RunFailure] = field(default_factory=dict)
    resumed: tuple[str, ...] = ()
    #: source rows the quality gate diverted before execution (per source,
    #: non-empty dead-letter tables only); ``env`` holds the survivors, so
    #: every tap and ground-truth count excludes these rows by construction
    quarantined: dict[str, Table] = field(default_factory=dict)
    violations: list = field(default_factory=list)
    schema_drift: tuple = ()
    #: statistics restored from the checkpoint journal rather than observed
    #: tonight -- catalog reconciliation must not refresh their provenance
    #: as if they were fresh taps
    restored_statistics: frozenset = frozenset()
    #: sharded-backend bookkeeping (shard/task/retry counts, shm bytes);
    #: empty for single-process backends.  ``repro.obs`` turns these into
    #: ``etl_shard_*`` metrics
    shard_stats: dict = field(default_factory=dict)

    @property
    def rows_quarantined(self) -> int:
        return sum(t.num_rows for t in self.quarantined.values())


@dataclass
class RunContext:
    """Per-run state shared by the core and the block runtime.

    ``lock`` serializes writes to the run-wide mutable maps: a timed-out
    attempt's abandoned thread can still be running beside its retry.

    ``tracer`` (optional) records an instant *operator point* for every
    plan point a block materializes -- actual rows, the prior estimate
    from ``estimates`` when one exists (previous cycle or catalog), and
    whether a tap fired there.  Hot paths guard on ``tracer is None``,
    so an untraced run pays one attribute load and branch per point.
    """

    run: WorkflowRun
    taps: TapSet
    analysis: BlockAnalysis
    #: lowered block programs, shared across runs by whoever owns it
    plan_cache: PlanCache
    #: per-source contract fingerprints folded into plan-cache keys
    context_tokens: "dict[str, str] | None" = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    tracer: Any = None
    estimates: "dict[AnySE, float] | None" = None
    #: the run's fault injector (or ``None``); sharding backends consult
    #: it for shard-scoped faults (worker kill/hang) at dispatch time
    injector: Any = None
    _published: set = field(default_factory=set)
    _claimed: set = field(default_factory=set)

    def publish(
        self,
        block_name: str,
        taps: TapSet,
        sizes: "dict[AnySE, int]",
        rejects: "dict[RejectSE, Table]",
        point_attrs: "dict[AnySE, dict]",
    ) -> None:
        """Fold one finished block's observations into the run, once.

        Everything a block observed arrives here together, so a block
        that fails contributes nothing.  A second publish for the same
        block (a timed-out attempt whose abandoned thread finished after
        its retry did) is dropped: both computed the same thing.  So is
        a point another block already published -- a raw feed several
        blocks read in full is observed by each of them, and the taps
        are additive, so only the first publisher's accumulators count.
        ``point_attrs`` (traced runs only) adds attributes to a point's
        operator span -- a join's build-side shape.
        """
        points = set(sizes) | set(rejects)
        with self.lock:
            if block_name in self._published:
                return
            self._published.add(block_name)
            taps.discard_points(points & self._claimed)
            self._claimed |= points
            self.taps.merge(taps)
            self.run.se_sizes.update(sizes)
            for rej, table in rejects.items():
                self.run.rejects[rej] = table
                self.run.se_sizes[rej] = table.num_rows
        if self.tracer is not None:
            for se, rows in sizes.items():
                self.trace_point(se, rows, **point_attrs.get(se, {}))
            for rej, table in rejects.items():
                self.trace_point(rej, table.num_rows, reject=True)

    def trace_point(self, se: AnySE, rows: int, **extra) -> None:
        """One operator point under the executing task's span."""
        attrs = {"rows": rows, **extra}
        if self.estimates is not None:
            estimate = self.estimates.get(se)
            if estimate is not None:
                attrs["estimated_rows"] = float(estimate)
        if self.taps.wants(se):
            attrs["tapped"] = True
        self.tracer.point(repr(se), kind="operator", **attrs)


class ExecutionBackend:
    """A named configuration of the one block runtime."""

    #: registry key (``get_backend``) and plan-cache key component
    name: str = "abstract"
    #: how the runtime batches rows under this backend
    profile = CompiledProfile()

    def begin_run(
        self,
        analysis: BlockAnalysis,
        sources: dict[str, Table],
        taps: TapSet,
    ) -> None:
        """Run-start hook, fired after source faults and before screening.

        Default no-op.  Sharding backends use it to snapshot the analysis
        and source tables for their worker pool (fork inheritance) before
        any per-run mutation happens.
        """

    def execute_block(self, block: Block, tree: PlanTree, ctx: RunContext) -> Table:
        """Run one optimizable block with the given join tree: lower it
        (a plan-cache hit on warm runs) and execute the program."""

        def lower():
            return compile_block(
                ctx.analysis,
                block,
                tree,
                backend=self.name,
                profile=self.profile,
                cache=ctx.plan_cache,
                context_tokens=ctx.context_tokens,
            )

        if ctx.tracer is None:
            program, _hit = lower()
        else:
            with ctx.tracer.span("compile", kind="phase") as span:
                program, hit = lower()
                span.annotate(
                    fused_ops=program.fused_ops,
                    cache_hits=int(hit),
                    cache_misses=int(not hit),
                )
        return CompiledBlockRunner(program, block, self.profile).execute(ctx)


class BackendExecutor:
    """The shared plan-walking core: schedules blocks and boundaries.

    This is the engine-side half of the Figure 2 loop -- "run the
    instrumented plan".  It is backend-agnostic: all physical work happens
    inside :meth:`ExecutionBackend.execute_block` and the boundary
    operators of :mod:`repro.engine.physical`.
    """

    def __init__(
        self,
        analysis: BlockAnalysis,
        backend: "ExecutionBackend | str | None" = None,
        *,
        plan_cache: "PlanCache | None" = None,
    ):
        self.analysis = analysis
        if backend is None:
            backend = "columnar"
        if isinstance(backend, str):
            backend = get_backend(backend)
        self.backend = backend
        #: an executor's own cache when none is injected, so a long-lived
        #: executor gets warm-cache behaviour for free
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()

    def run(
        self,
        sources: dict[str, Table],
        trees: dict[str, PlanTree] | None = None,
        taps=None,
        *,
        faults=None,
        retry: RetryPolicy | None = None,
        checkpoint=None,
        quality=None,
        tracer=None,
        trace_parent=None,
        estimates: "dict[AnySE, float] | None" = None,
    ) -> WorkflowRun:
        """Execute the workflow.

        ``trees`` maps block names to replacement join trees (defaults to
        each block's initial plan); ``taps`` is the instrumentation to fire
        (defaults to an empty tap set).

        Resilience (all optional):

        - ``faults`` -- a :class:`~repro.engine.faults.FaultPlan` or
          :class:`~repro.engine.faults.FaultInjector`; matching faults fire
          at every block attempt and source truncations are applied to the
          source map before execution;
        - ``retry`` -- a :class:`~repro.engine.scheduler.RetryPolicy`.
          Whenever ``faults`` or ``retry`` is given the run is
          *failure-capturing*: a permanently failed block lands in
          ``WorkflowRun.failures`` (its dependents are skipped) and the
          healthy rest of the DAG still executes and is observed;
        - ``checkpoint`` -- a :class:`~repro.framework.recovery.RunCheckpoint`.
          Blocks already recorded there are restored (output table,
          SE sizes, statistics) instead of re-executed, and every block
          that completes is persisted so a crashed run can resume;
        - ``quality`` -- a :class:`~repro.quality.gate.QualityGate`.
          Contracted sources are screened *here*, after source faults and
          before any block task is built, so every backend executes (and
          observes) the same surviving rows; the diverted rows land in
          ``WorkflowRun.quarantined`` with their ``violations`` and
          ``schema_drift`` events.  Screening runs after
          ``injector.apply_sources`` on purpose: injected dirty data goes
          through the same gate real dirty data would.

        Tracing (all optional): ``tracer`` records a span per scheduled
        task under ``trace_parent`` plus an operator point per
        materialized plan point; ``estimates`` maps SEs to prior row
        predictions, annotated onto the matching operator points so a
        trace exposes estimated-vs-actual rows.
        """
        from repro.engine.faults import as_injector

        if tracer is not None and not tracer.enabled:
            tracer = None
        trees = trees or {}
        taps = taps if taps is not None else self.backend.make_taps(())
        injector = as_injector(faults)
        if injector is not None:
            sources = injector.apply_sources(sources)
        self.backend.begin_run(self.analysis, sources, taps)
        if quality is not None:
            sources = quality.screen_sources(
                sources, tracer=tracer, trace_parent=trace_parent
            )
        self._check_sources(sources)
        run = WorkflowRun(env=dict(sources))
        if quality is not None:
            run.quarantined = quality.quarantined_tables()
            run.violations = quality.all_violations()
            run.schema_drift = quality.drift_events()
        # schema drift means the cached programs were compiled against a
        # source shape that no longer holds: evict, never silently reuse
        for event in run.schema_drift:
            self.plan_cache.invalidate_source(event.source)
        ctx = RunContext(
            run=run,
            taps=taps,
            analysis=self.analysis,
            plan_cache=self.plan_cache,
            context_tokens=(
                contract_tokens(quality) if quality is not None else None
            ),
            tracer=tracer,
            estimates=estimates,
            injector=injector,
        )

        resumed: set[str] = set()
        if checkpoint is not None:
            resumed = checkpoint.restore(self.analysis, run)
            run.resumed = tuple(sorted(resumed))
            if tracer is not None:
                for name in sorted(resumed):
                    tracer.point(
                        name, kind="resumed", parent=trace_parent,
                        source="checkpoint",
                    )

        tasks: list[Task] = []
        for block in self.analysis.blocks:
            if block.name in resumed:
                continue
            tree = trees.get(block.name, block.initial_tree)
            tasks.append(
                Task(
                    name=block.name,
                    provides=block.output_name,
                    requires=tuple(
                        sorted({inp.base_name for inp in block.inputs.values()})
                    ),
                    fn=partial(self._run_block, block, tree, ctx, checkpoint),
                    kind="block",
                )
            )
        for boundary in self.analysis.boundaries:
            tasks.append(
                Task(
                    name=boundary.output_name,
                    provides=boundary.output_name,
                    requires=(boundary.input_name,),
                    fn=partial(self._run_boundary, boundary, ctx),
                    kind="boundary",
                )
            )
        if injector is not None:
            tasks = injector.wrap_tasks(tasks)

        policy = retry
        if policy is None and injector is not None:
            policy = RetryPolicy()  # capture failures; no retries by default

        try:
            result = execute_tasks(
                tasks,
                available=set(run.env),
                policy=policy,
                tracer=tracer,
                trace_parent=trace_parent,
            )
        except SchedulerError as exc:  # pragma: no cover - analysis emits a DAG
            raise TableError(
                f"workflow execution deadlocked; block analysis produced "
                f"a cyclic dependency ({exc})"
            ) from exc

        run.failures = dict(result.failures)
        observations = taps.collect()
        if checkpoint is not None and checkpoint.statistics is not None:
            # statistics present only in the journal were observed on the
            # crashed attempt, not tonight: remember them so the catalog
            # reconcile keeps their original provenance timestamps
            run.restored_statistics = frozenset(
                stat
                for stat in checkpoint.statistics
                if stat not in observations
            )
            merged = checkpoint.statistics.copy()
            merged.merge(observations)
            observations = merged
        run.observations = observations
        return run

    # ------------------------------------------------------------------
    def _run_block(
        self,
        block: Block,
        tree: PlanTree,
        ctx: RunContext,
        checkpoint=None,
    ) -> None:
        out = self.backend.execute_block(block, tree, ctx)
        ctx.run.env[block.output_name] = out
        if checkpoint is not None:
            with ctx.lock:
                checkpoint.record_block(
                    block,
                    out,
                    dict(ctx.run.se_sizes),
                    ctx.taps.collect(),
                )

    def _run_boundary(self, boundary: BoundaryOp, ctx: RunContext) -> None:
        node = boundary.node
        run = ctx.run
        table = run.env[boundary.input_name]
        if isinstance(node, Target):
            run.targets[node.name] = table
            return
        if isinstance(node, Aggregate):
            out = physical.group_by(table, node.group_attrs, node.aggregates)
        elif isinstance(node, AggregateUDF):
            out = physical.apply_aggregate_udf(table, node.fn)
        elif isinstance(node, Materialize):
            out = table
        else:  # pragma: no cover - analysis emits only these
            raise TableError(f"unexpected boundary {node.label}")
        run.env[boundary.output_name] = out
        # no tap here: the consuming block's raw chain observes this point
        with ctx.lock:
            run.se_sizes[SubExpression.of(boundary.output_name)] = out.num_rows

    def _check_sources(self, sources: dict[str, Table]) -> None:
        missing = [
            name
            for name in self.analysis.workflow.source_names()
            if name not in sources
        ]
        if missing:
            raise TableError(f"missing source tables: {missing}")


def contract_tokens(quality) -> dict[str, str]:
    """Per-source contract fingerprints, folded into plan-cache keys so a
    contract revision is a cache miss rather than a silent stale reuse."""
    from repro.catalog.signatures import digest

    contracts = getattr(quality, "contracts", None)
    mapping = getattr(contracts, "contracts", None)
    if not mapping:
        return {}
    return {
        name: digest(contract.to_dict())
        for name, contract in mapping.items()
    }


def available_backends() -> list[str]:
    """Names :func:`get_backend` resolves; imports no backend module."""
    return ["columnar", "multiprocess", "streaming", "vectorized"]


def get_backend(name: str) -> ExecutionBackend:
    """Resolve a backend name to a fresh backend instance.

    Only the named backend's module is imported: each subclasses
    :class:`ExecutionBackend`, and the sharded one loads
    ``multiprocessing`` and numpy, which no other backend needs.
    """
    if name == "columnar":
        from repro.engine.executor import ColumnarBackend as cls
    elif name == "multiprocess":
        from repro.engine.dist import MultiprocessBackend as cls
    elif name == "streaming":
        from repro.engine.streaming import StreamingBackend as cls
    elif name == "vectorized":
        from repro.engine.vectorized import VectorizedBackend as cls
    else:
        raise TableError(
            f"unknown execution backend {name!r}; "
            f"available: {available_backends()}"
        )
    return cls()
