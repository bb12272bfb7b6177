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
    #: statistics restored from the checkpoint journal rather than observed
    #: tonight -- catalog reconciliation must not refresh their provenance
    #: as if they were fresh taps
    restored_statistics: frozenset = frozenset()
    #: sharded-backend bookkeeping (shard/task/retry counts, shm bytes);
    #: empty for single-process backends.  ``repro.obs`` turns these into
    #: ``etl_shard_*`` metrics
    shard_stats: dict = field(default_factory=dict)


@dataclass
class RunContext:
    """Per-run state shared by the core and the block runtime.

    ``lock`` serializes writes to the run-wide mutable maps: a timed-out
    attempt's abandoned thread can still be running beside its retry.

    ``tracer`` (optional) records an instant *operator point* for every
    plan point a block materializes -- actual rows and whether a tap
    fired there.  Hot paths guard on ``tracer is None``, so an untraced
    run pays one attribute load and branch per point.
    """

    run: WorkflowRun
    taps: TapSet
    analysis: BlockAnalysis
    #: lowered block programs, shared across runs by whoever owns it
    plan_cache: PlanCache
    lock: threading.Lock = field(default_factory=threading.Lock, init=False)
    tracer: Any = None
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
        if self.taps.wants(se):
            attrs["tapped"] = True
        self.tracer.point(repr(se), **attrs)


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
        """Run-start hook, fired on the night's final source tables.

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
            )

        if ctx.tracer is None:
            program, _hit = lower()
        else:
            with ctx.tracer.span("compile") as span:
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
        tracer=None,
    ) -> WorkflowRun:
        """Execute the workflow.

        ``sources`` are executed as given: source faults and screening are
        the caller's (:meth:`~repro.framework.pipeline.StatisticsPipeline
        .run_once` applies them before it reads the catalog).  ``trees``
        maps block names to replacement join trees (defaults to each
        block's initial plan); ``taps`` is the instrumentation to fire
        (defaults to an empty tap set).

        Resilience (all optional):

        - ``faults`` -- a :class:`~repro.engine.faults.FaultPlan` or
          :class:`~repro.engine.faults.FaultInjector`; matching task and
          shard faults fire at every block attempt;
        - ``retry`` -- a :class:`~repro.engine.scheduler.RetryPolicy`.
          Whenever ``faults`` or ``retry`` is given the run is
          *failure-capturing*: a permanently failed block lands in
          ``WorkflowRun.failures`` (its dependents are skipped) and the
          healthy rest of the DAG still executes and is observed;
        - ``checkpoint`` -- a :class:`~repro.framework.recovery.RunCheckpoint`.
          Blocks already recorded there are restored (output table,
          SE sizes, statistics) instead of re-executed, and every block
          that completes is persisted so a crashed run can resume.

        Tracing (optional): ``tracer`` records, under the calling thread's
        current span, a span per scheduled task plus an operator point
        per materialized plan point.
        """
        from repro.engine.faults import as_injector

        trees = trees or {}
        taps = taps if taps is not None else self.backend.make_taps(())
        injector = as_injector(faults)
        self._check_sources(sources)
        self.backend.begin_run(self.analysis, sources, taps)
        run = WorkflowRun(env=dict(sources))
        ctx = RunContext(
            run=run,
            taps=taps,
            analysis=self.analysis,
            plan_cache=self.plan_cache,
            tracer=tracer,
            injector=injector,
        )

        resumed: set[str] = set()
        if checkpoint is not None:
            resumed = checkpoint.restore(self.analysis, run)
            run.resumed = tuple(sorted(resumed))
            if tracer is not None:
                for name in sorted(resumed):
                    tracer.point(name, kind="resumed", source="checkpoint")

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
