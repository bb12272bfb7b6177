"""The multiprocess execution backend: sharded blocks, exact merged taps.

:class:`MultiprocessBackend` keeps the engine's observable contract --
row-identical tap observations, SE sizes and reject tables versus a
single-process columnar run -- while executing each block as ``k`` shard
tasks in a pool of forked worker processes:

1. :meth:`begin_run` snapshots the analysis and the night's final
   sources into the workers (fork inheritance; step predicates are
   lambdas and never pickle), then forks the pool.
2. :meth:`execute_block` plans a shard strategy per block
   (:func:`~repro.engine.dist.sharding.plan_block_shards`), ships
   post-fork tables through shared memory, dispatches the shards (with
   injected worker faults, a per-shard timeout and bounded retries over a
   rebuilt pool), and folds the :class:`~repro.engine.dist.worker
   .ShardResult` pieces back together: shard tap sets merge additively,
   SE sizes sum, reject tables recompose by concatenation or key-set
   intersection, and the parent re-observes every reject so the run's
   taps are exact.  Each worker runs its shard through the same
   :meth:`ExecutionBackend.execute_block` every other backend uses.

Retries that exhaust ``shard_retries`` surface as a *transient*
:class:`ShardExecutionError`, so a scheduler retry policy treats a dead
pool like any other transient block failure (and the skip cascade, chaos
reports and clean-baseline re-plan all behave identically).
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

from repro.algebra.blocks import Block, BlockAnalysis
from repro.algebra.expressions import RejectSE
from repro.algebra.plans import PlanTree
from repro.engine.backend import ExecutionBackend, RunContext
from repro.engine.compile import ObservationBuffer
from repro.engine.dist.sharding import (
    DIST_COST_FACTORS,
    ShardPlan,
    plan_block_shards,
    reject_join_keys,
)
from repro.engine.dist.shm import ShmRef, encode_table
from repro.engine.dist.worker import (
    ShardResult,
    WorkerState,
    pool_ping,
    run_shard,
    set_fork_state,
)
from repro.engine.faults import TransientFault
from repro.engine.instrumentation import TapSet
from repro.engine.table import Table


class ShardExecutionError(RuntimeError):
    """A shard could not be completed within the retry budget.

    Marked ``transient`` so the scheduler's error classification lets a
    block-level retry policy rebuild the pool and try again.
    """

    transient = True


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


class MultiprocessBackend(ExecutionBackend):
    """Sharded execution over a pool of forked worker processes."""

    name = "multiprocess"

    def __init__(
        self,
        shards: "int | None" = None,
        *,
        inline: "bool | None" = None,
        shard_timeout: float = 60.0,
        shard_retries: int = 2,
        factors: "dict[str, float] | None" = None,
    ):
        if shards is None:
            shards = max(1, min(4, os.cpu_count() or 1))
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = int(shards)
        #: ``True`` runs shards in-process (no pool): deterministic, used
        #: on platforms without fork and by tests that want the sharding
        #: math without process management.  ``None`` = auto.
        self.inline = (not _fork_available()) if inline is None else bool(inline)
        self.shard_timeout = float(shard_timeout)
        self.shard_retries = int(shard_retries)
        self.factors = {**DIST_COST_FACTORS, **(factors or {})}

        self._lock = threading.RLock()
        self._pool: "ProcessPoolExecutor | None" = None
        self._analysis: "BlockAnalysis | None" = None
        self._fork_env: dict[str, Table] = {}
        self._stats: tuple = ()
        self._run_token = 0
        #: (table, ref, segment) triples kept alive until the next run:
        #: the table pins its id() (the override-cache key) and the parent
        #: owns every segment it created
        self._segments: list = []
        self._shm_refs: dict[int, ShmRef] = {}
        self._atexit_registered = False

    # ------------------------------------------------------------------
    # ExecutionBackend protocol
    # ------------------------------------------------------------------
    def make_taps(self, stats=()):
        return TapSet(stats)

    def begin_run(self, analysis, sources, taps) -> None:
        with self._lock:
            self._run_token += 1
            self._drop_segments()
            stats = tuple(taps.requested)
            reusable = (
                self._pool is not None
                and self._analysis is analysis
                and self._stats == stats
            )
            self._analysis = analysis
            self._stats = stats
            if reusable:
                # same workflow, warm pool: tables that changed since the
                # fork ship via shared memory, the plan caches stay hot
                return
            self._shutdown_pool()
            self._fork_env = dict(sources)
            if not self.inline:
                self._start_pool()

    def execute_block(self, block: Block, tree: PlanTree, ctx: RunContext) -> Table:
        with self._lock:
            plan = plan_block_shards(
                block, tree, ctx.run.env, self.shards, self.factors
            )
            payloads = [
                self._payload(block, tree, plan, shard, ctx)
                for shard in range(plan.shards)
            ]
            results, retries = self._dispatch(block, plan, payloads, ctx)
        return self._merge(block, tree, plan, results, retries, ctx)

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _start_pool(self) -> None:
        import multiprocessing

        try:
            # make sure the shared-memory resource tracker exists *before*
            # the fork: every worker then inherits it, so attach-side
            # registrations dedup against the parent's (see dist/shm.py)
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        set_fork_state(
            WorkerState(
                analysis=self._analysis,
                env=self._fork_env,
                stats=self._stats,
            )
        )
        self._pool = ProcessPoolExecutor(
            max_workers=self.shards,
            mp_context=multiprocessing.get_context("fork"),
        )
        # eager fork while the parent is still single-threaded, and a
        # fail-fast proof that a worker can actually execute
        self._pool.submit(pool_ping).result(timeout=max(self.shard_timeout, 10.0))
        if not self._atexit_registered:
            atexit.register(self.close)
            self._atexit_registered = True

    def _reset_pool(self) -> None:
        """Tear down a broken/hung pool and fork a fresh one."""
        self._shutdown_pool(kill=True)
        if not self.inline:
            self._start_pool()

    def _shutdown_pool(self, kill: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            try:  # hung workers never drain the queue: terminate them
                for proc in list(getattr(pool, "_processes", {}).values()):
                    proc.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=not kill, cancel_futures=True)
        except Exception:
            pass

    def close(self) -> None:
        """Release the pool and every shared-memory segment."""
        with self._lock:
            self._shutdown_pool(kill=True)
            self._drop_segments()
            set_fork_state(None)

    def _drop_segments(self) -> None:
        segments, self._segments = self._segments, []
        self._shm_refs = {}
        for _table, _ref, segment in segments:
            try:
                segment.close()
                segment.unlink()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # payload construction
    # ------------------------------------------------------------------
    def _table_ref(self, table: Table) -> ShmRef:
        """Encode a post-fork table once; reuse the segment across shards."""
        ref = self._shm_refs.get(id(table))
        if ref is None:
            ref, segment = encode_table(table)
            self._segments.append((table, ref, segment))
            self._shm_refs[id(table)] = ref
        return ref

    def _payload(
        self,
        block: Block,
        tree: PlanTree,
        plan: ShardPlan,
        shard: int,
        ctx: RunContext,
    ) -> dict:
        overrides: dict[str, ShmRef] = {}
        if not self.inline:
            for inp in block.inputs.values():
                base = inp.base_name
                if base in overrides:
                    continue
                current = ctx.run.env[base]
                if current is not self._fork_env.get(base):
                    overrides[base] = self._table_ref(current)
        return {
            "run_token": self._run_token,
            "block": block.name,
            "tree": tree,
            "plan": plan,
            "shard": shard,
            "overrides": overrides,
            "fault": None,  # filled at dispatch time, per attempt
        }

    # ------------------------------------------------------------------
    # dispatch + retry
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        block: Block,
        plan: ShardPlan,
        payloads: list[dict],
        ctx: RunContext,
    ) -> "tuple[dict[int, ShardResult], int]":
        results: dict[int, ShardResult] = {}
        attempts = dict.fromkeys(range(plan.shards), 0)
        retries = 0
        pending = list(range(plan.shards))
        while pending:
            failed: list[int] = []
            for shard in pending:
                attempts[shard] += 1
                if attempts[shard] > 1:
                    retries += 1
            if self.inline:
                state = WorkerState(
                    analysis=self._analysis,
                    env=ctx.run.env,
                    stats=self._stats,
                )
                for shard in pending:
                    try:
                        self._inline_fault(block, shard, ctx)
                        results[shard] = run_shard(payloads[shard], state)
                    except TransientFault:
                        failed.append(shard)
            else:
                futures = {}
                pool_down = False
                for shard in pending:
                    payload = dict(payloads[shard])
                    payload["fault"] = self._fault_directive(block, shard, ctx)
                    try:
                        futures[shard] = self._pool.submit(run_shard, payload)
                    except BrokenProcessPool:
                        # a worker died *between submits* (e.g. an earlier
                        # shard's kill landed before this one went out):
                        # fail the shard into the retry round instead of
                        # letting the broken pool escape the dispatcher
                        failed.append(shard)
                        pool_down = True
                for shard, future in futures.items():
                    try:
                        # after the pool broke/hung, still harvest shards
                        # that finished before the crash (timeout 0)
                        timeout = 0.0 if pool_down else self.shard_timeout
                        results[shard] = future.result(timeout=timeout)
                    except FutureTimeoutError:
                        # hung worker (or undelivered after a break)
                        failed.append(shard)
                        pool_down = True
                    except BrokenProcessPool:
                        # a worker died abruptly (kill/OOM/crash)
                        failed.append(shard)
                        pool_down = True
                    # any other exception is an application error raised
                    # inside the worker: propagate it exactly like the
                    # single-process backends so the scheduler classifies
                    # the real error type
                if pool_down:
                    self._reset_pool()
            exhausted = [
                shard
                for shard in failed
                if attempts[shard] > self.shard_retries
            ]
            if exhausted:
                raise ShardExecutionError(
                    f"block {block.name!r}: shards {exhausted} failed after "
                    f"{self.shard_retries + 1} attempts"
                )
            pending = failed
        return results, retries

    def _fault_directive(self, block: Block, shard: int, ctx: RunContext):
        injector = ctx.injector
        if injector is None:
            return None
        spec = injector.on_shard(block.name, shard)
        if spec is None:
            return None
        return {"kind": spec.kind, "delay": spec.delay}

    def _inline_fault(self, block: Block, shard: int, ctx: RunContext) -> None:
        """Inline mode cannot kill a process; simulate the outcome."""
        directive = self._fault_directive(block, shard, ctx)
        if directive is None:
            return
        if directive["kind"] == "worker-hang":
            import time

            time.sleep(min(float(directive.get("delay", 0.0)), 0.05))
        raise TransientFault(
            f"injected {directive['kind']} on {block.name} shard {shard}"
        )

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def _merge(
        self,
        block: Block,
        tree: PlanTree,
        plan: ShardPlan,
        results: "dict[int, ShardResult]",
        retries: int,
        ctx: RunContext,
    ) -> Table:
        ordered = [results[shard] for shard in range(plan.shards)]

        obs = ObservationBuffer(ctx)
        for result in ordered:
            obs.taps.merge(result.taps)
            for se, n in result.sizes.items():
                obs.counts[se] = obs.counts.get(se, 0) + n
        for rej, table in self._merge_rejects(tree, plan, ordered).items():
            obs.add_reject(rej, table)
        obs.flush(block.name)
        if ctx.tracer is not None:
            for result in ordered:
                ctx.tracer.point(
                    f"{block.name}#shard{result.shard}",
                    kind="shard",
                    rows=result.rows_out,
                    strategy=plan.strategy,
                )

        out_columns: dict[str, list] = {
            a: list(ordered[0].output_columns[a]) for a in ordered[0].output_attrs
        }
        for result in ordered[1:]:
            for a in ordered[0].output_attrs:
                out_columns[a].extend(result.output_columns[a])
        out = (
            Table.wrap(out_columns)
            if out_columns
            else Table.empty(ordered[0].output_attrs)
        )

        self._record_shard_stats(block, plan, ordered, retries, ctx, out.num_rows)
        return out

    def _merge_rejects(
        self, tree: PlanTree, plan: ShardPlan, ordered: "list[ShardResult]"
    ) -> dict[RejectSE, Table]:
        """Recompose each reject link's whole-table rows from the shards."""
        keymap = reject_join_keys(tree)
        out: dict[RejectSE, Table] = {}
        for rej, first in ordered[0].rejects.items():
            attrs = first["attrs"]
            if first["sharded"]:
                columns: dict[str, list] = {a: [] for a in attrs}
                for result in ordered:
                    part = result.rejects[rej]["columns"]
                    for a in attrs:
                        columns[a].extend(part[a])
            else:
                # replicated side: a row is globally rejected only if every
                # shard rejected its key (it matched no shard's rows)
                rejected = set(first.get("keys", ()))
                for result in ordered[1:]:
                    rejected &= result.rejects[rej]["keys"]
                base = first["columns"]
                key = keymap[rej]
                key_rows = list(zip(*(base[a] for a in key))) if base[key[0]] else []
                keep = [
                    i for i, values in enumerate(key_rows) if values in rejected
                ]
                columns = {a: [base[a][i] for i in keep] for a in attrs}
            out[rej] = (
                Table.wrap(columns) if attrs else Table.empty(attrs)
            )
        return out

    def _record_shard_stats(
        self,
        block: Block,
        plan: ShardPlan,
        ordered: "list[ShardResult]",
        retries: int,
        ctx: RunContext,
        rows_out: int,
    ) -> None:
        shm_bytes = sum(ref.size for _t, ref, _s in self._segments)
        with ctx.lock:
            stats = ctx.run.shard_stats
            stats["shards"] = max(stats.get("shards", 0), plan.shards)
            stats["blocks"] = stats.get("blocks", 0) + 1
            stats["tasks"] = stats.get("tasks", 0) + len(ordered)
            stats["retries"] = stats.get("retries", 0) + retries
            stats["rows_out"] = stats.get("rows_out", 0) + rows_out
            stats["shm_bytes"] = shm_bytes
            key = f"strategy_{plan.strategy}"
            stats[key] = stats.get(key, 0) + 1


__all__ = ["MultiprocessBackend", "ShardExecutionError"]
