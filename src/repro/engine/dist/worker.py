"""Worker-process side of the multiprocess backend.

A worker executes **one shard of one block** per task: it slices its input
tables according to the block's :class:`~repro.engine.dist.sharding
.ShardPlan`, runs the ordinary columnar block path
(:meth:`~repro.engine.backend.ExecutionBackend.execute_block`, against a
per-process :class:`~repro.engine.compile.PlanCache`) over the slice with
its own tap set, strips the observation points it is not responsible for,
and ships back a compact :class:`ShardResult` the parent folds together.

Big tables never travel through the task pickle.  The pool is forked, so
every worker inherits :data:`_STATE` -- the analysis (whose step
predicates and UDFs are plain Python functions, unpicklable by design)
and the fork-time source tables -- for free; only tables created *after*
the fork (screened sources, upstream block outputs) arrive as
:class:`~repro.engine.dist.shm.ShmRef` handles into shared memory, decoded
once per process and cached by segment name.

Fault directives from the run's injector ride along in the payload:
``worker-kill`` hard-exits the process (the parent sees a broken pool and
retries the shard), ``worker-hang`` stalls past the parent's shard
timeout.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

from repro.algebra.blocks import Block, BlockAnalysis
from repro.algebra.expressions import AnySE, RejectSE
from repro.algebra.plans import PlanTree
from repro.engine.backend import RunContext, WorkflowRun
from repro.engine.compile import PlanCache
from repro.engine.dist.sharding import (
    ShardPlan,
    hash_partition_indexes,
    reject_is_sharded,
    reject_join_keys,
    shard_range,
    sharded_points,
)
from repro.engine.dist.shm import ShmRef, attach_table
from repro.engine.executor import ColumnarBackend
from repro.engine.instrumentation import TapSet
from repro.engine.table import Table


class ShardError(RuntimeError):
    """A shard failed inside a worker (re-raised in the parent)."""


@dataclass
class WorkerState:
    """Everything a worker inherits through the fork.

    Built in the parent immediately before the pool is created;
    :func:`set_fork_state` publishes it as a module global so the forked
    children see it without any pickling (the analysis holds lambdas).
    """

    analysis: BlockAnalysis
    env: dict[str, Table]
    stats: tuple


@dataclass
class ShardResult:
    """One shard's contribution, shaped for an exact parent-side merge."""

    shard: int
    taps: TapSet
    sizes: dict[AnySE, int]
    #: reject link -> {"sharded", "attrs", "columns"?, "keys"?}
    rejects: dict[RejectSE, dict]
    output_attrs: tuple[str, ...]
    output_columns: dict[str, list]
    rows_out: int


# -- per-process state -----------------------------------------------------
_STATE: WorkerState | None = None
_PLAN_CACHE = PlanCache()  # lowered programs, reused across runs in this process
_TABLE_CACHE: dict[str, Table] = {}  # decoded shm tables by segment name
_RUN_TOKEN: Any = None


def set_fork_state(state: "WorkerState | None") -> None:
    """Publish the fork-inherited state (parent side, pre-fork)."""
    global _STATE
    _STATE = state
    _TABLE_CACHE.clear()


def _begin_task(payload: dict) -> None:
    """Per-run cache upkeep, run once when a new run token appears."""
    global _RUN_TOKEN
    token = payload.get("run_token")
    if token == _RUN_TOKEN:
        return
    _RUN_TOKEN = token
    _TABLE_CACHE.clear()  # segments from the previous run are unlinked


def _maybe_fault(directive: "dict | None") -> None:
    """Apply an injected shard fault (see :mod:`repro.engine.faults`)."""
    if not directive:
        return
    kind = directive.get("kind")
    if kind == "worker-kill":
        # abrupt death, not an exception: the parent must observe a broken
        # pool exactly as it would for a real crash/OOM kill
        os._exit(3)
    if kind == "worker-hang":
        time.sleep(max(float(directive.get("delay", 0.0)), 0.05))


def _attach(ref: ShmRef) -> Table:
    table = _TABLE_CACHE.get(ref.name)
    if table is None:
        table = attach_table(ref)
        _TABLE_CACHE[ref.name] = table
    return table


def _resolve(base_name: str, overrides: dict[str, ShmRef], state: WorkerState) -> Table:
    ref = overrides.get(base_name)
    if ref is not None:
        return _attach(ref)
    try:
        return state.env[base_name]
    except KeyError:
        raise ShardError(
            f"worker has no table for input {base_name!r} (not in the fork "
            "snapshot and no shared-memory override shipped)"
        ) from None


def _block_named(analysis: BlockAnalysis, name: str) -> Block:
    for block in analysis.blocks:
        if block.name == name:
            return block
    raise ShardError(f"worker analysis has no block named {name!r}")


def _shard_env(block: Block, plan: ShardPlan, shard: int,
               overrides: dict[str, ShmRef], state: WorkerState) -> dict[str, Table]:
    """The worker's slice of the block's input tables."""
    env: dict[str, Table] = {}
    for inp in block.inputs.values():
        if inp.base_name not in env:
            env[inp.base_name] = _resolve(inp.base_name, overrides, state)
    if plan.strategy == "broadcast":
        base = block.inputs[plan.spine].base_name
        table = env[base]
        lo, hi = shard_range(table.num_rows, plan.shards, shard)
        env[base] = table.take(range(lo, hi))
    elif plan.strategy == "hash":
        for inp in block.inputs.values():
            table = env[inp.base_name]
            env[inp.base_name] = table.take(
                hash_partition_indexes(table, plan.key, plan.shards, shard)
            )
    return env


def pool_ping() -> int:
    """Warmup/liveness probe: forces an eager fork and proves the worker
    can execute (returns its pid)."""
    return os.getpid()


def run_shard(payload: dict, state: "WorkerState | None" = None) -> ShardResult:
    """Pool entry point: execute one shard of one block.

    ``payload`` carries only small picklable things -- block *name*, join
    tree, shard plan, shm refs -- everything heavy comes from the fork
    snapshot or shared memory.  ``state`` is injected directly in inline
    (single-process) mode.
    """
    state = state if state is not None else _STATE
    if state is None:
        raise ShardError("worker has no fork state; pool started incorrectly")
    _begin_task(payload)
    _maybe_fault(payload.get("fault"))
    block = _block_named(state.analysis, payload["block"])
    tree: PlanTree = payload["tree"]
    plan: ShardPlan = payload["plan"]
    shard: int = payload["shard"]

    env = _shard_env(block, plan, shard, payload.get("overrides", {}), state)
    taps = TapSet(state.stats)
    run = WorkflowRun(env=env)
    ctx = RunContext(
        run=run,
        taps=taps,
        analysis=state.analysis,
        plan_cache=_PLAN_CACHE,
    )
    out = ColumnarBackend().execute_block(block, tree, ctx)

    # -- responsibility filter ------------------------------------------
    # Broadcast shards all compute the replicated points identically;
    # only shard 0 reports them.  Reject links are never reported from a
    # worker tap set -- the parent re-observes them from merged tables.
    responsible: "set[AnySE] | None" = None
    if plan.strategy == "broadcast" and shard > 0:
        responsible = sharded_points(block, tree, plan.spine)
    drop: set[AnySE] = set(run.rejects)
    if responsible is not None:
        drop |= {se for se in run.se_sizes if se not in responsible}
    sizes = {se: n for se, n in run.se_sizes.items() if se not in drop}
    taps.discard_points(drop)

    keymap = reject_join_keys(tree)
    rejects: dict[RejectSE, dict] = {}
    for rej, table in run.rejects.items():
        sharded = reject_is_sharded(rej, plan)
        entry: dict = {"sharded": sharded, "attrs": table.attrs}
        if sharded or shard == 0:
            entry["columns"] = {a: list(table.column(a)) for a in table.attrs}
        if not sharded:
            entry["keys"] = set(table.rows(keymap[rej]))
        rejects[rej] = entry

    return ShardResult(
        shard=shard,
        taps=taps,
        sizes=sizes,
        rejects=rejects,
        output_attrs=out.attrs,
        output_columns={a: list(out.column(a)) for a in out.attrs},
        rows_out=out.num_rows,
    )


__all__ = [
    "ShardError",
    "ShardResult",
    "WorkerState",
    "run_shard",
    "set_fork_state",
]
