"""The test oracle: a plain row-at-a-time reference executor.

:func:`reference_run` executes an analysed workflow the slow, obvious way
-- every plan point is a materialized :class:`~repro.engine.table.Table`
produced by the reference operators of :mod:`repro.engine.physical`, and
every statistic is read straight off that table (row count, exact
histogram, distinct set).  It shares no code with the runtime it checks
(:mod:`repro.engine.compile`, :class:`~repro.engine.instrumentation.TapSet`,
the scheduler), which is the point: the differential suites compare every
backend and shard count against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.expressions import RejectSE, SubExpression
from repro.algebra.operators import Aggregate, AggregateUDF, Materialize, Target
from repro.algebra.plans import Leaf
from repro.core.statistics import StatKind, StatisticsStore
from repro.engine import physical
from repro.engine.backend import get_backend
from repro.engine.table import Table


@dataclass
class ReferenceRun:
    env: dict[str, Table]
    targets: dict[str, Table] = field(default_factory=dict)
    se_sizes: dict = field(default_factory=dict)
    rejects: dict[RejectSE, Table] = field(default_factory=dict)
    observations: StatisticsStore = field(default_factory=StatisticsStore)


def reference_run(analysis, sources, trees=None, stats=()) -> ReferenceRun:
    """Execute ``analysis`` over ``sources`` and observe ``stats``.

    ``trees`` maps block names to replacement join trees (default: each
    block's initial plan).  Raises ``KeyError`` if a requested statistic
    sits at a point the plan never produces.
    """
    trees = trees or {}
    stats = list(stats)
    run = ReferenceRun(env=dict(sources))
    points: dict = {}  # every plan point's materialized table
    wanted_rejects = {s.se for s in stats if isinstance(s.se, RejectSE)}

    pending = [("block", b) for b in analysis.blocks]
    pending += [("boundary", b) for b in analysis.boundaries]
    while pending:
        ready = [
            item for item in pending if _requires(item) <= set(run.env)
        ]
        assert ready, "analysis produced a cyclic dependency"
        for item in ready:
            pending.remove(item)
            kind, node = item
            if kind == "block":
                tree = trees.get(node.name, node.initial_tree)
                run.env[node.output_name] = _run_block(
                    node, tree, run, points, wanted_rejects
                )
            else:
                _run_boundary(node, run, points)

    for se, table in points.items():
        run.se_sizes[se] = table.num_rows
    for stat in stats:
        table = points[stat.se]
        if stat.kind is StatKind.CARDINALITY:
            value = table.num_rows
        elif stat.kind is StatKind.HISTOGRAM:
            value = table.histogram(stat.attrs)
        else:
            value = len(set(table.rows(stat.attrs)))
        run.observations.put(stat, value)
    return run


def _requires(item) -> set[str]:
    kind, node = item
    if kind == "block":
        return {inp.base_name for inp in node.inputs.values()}
    return {node.input_name}


def _run_block(block, tree, run, points, wanted_rejects) -> Table:
    inputs: dict[str, Table] = {}
    for name, inp in block.inputs.items():
        table = run.env[inp.base_name]
        stage_names = inp.stage_names()
        points[SubExpression.of(stage_names[0])] = table
        for step, stage in zip(inp.steps, stage_names[1:]):
            table = physical.apply_step(table, step)
            points[SubExpression.of(stage)] = table
        inputs[name] = table

    wanted = wanted_rejects | set(block.materialized_rejects)
    applied: set[int] = set()

    def exec_tree(node) -> Table:
        if isinstance(node, Leaf):
            return inputs[node.name]
        left = exec_tree(node.left)
        right = exec_tree(node.right)
        key = tuple(node.key)
        rej_key = key[0] if len(key) == 1 else key
        rej_left = RejectSE(node.left.se, rej_key, node.right.se)
        rej_right = RejectSE(node.right.se, rej_key, node.left.se)
        result, reject_l, reject_r = physical.hash_join(
            left, right, key, rej_left in wanted, rej_right in wanted
        )
        for rej, table in ((rej_left, reject_l), (rej_right, reject_r)):
            if rej in wanted:
                run.rejects[rej] = table
                points[rej] = table
        # a floating operator fires at the first join covering its anchor
        for idx, op in enumerate(block.floating):
            if idx not in applied and op.anchor <= node.se.relations:
                result = physical.apply_step(result, op.step)
                applied.add(idx)
        points[node.se] = result
        return result

    table = exec_tree(tree)
    for step, stage in zip(block.post_steps, block.post_stage_ses()):
        table = physical.apply_step(table, step)
        points[stage] = table
    return table


def _run_boundary(boundary, run, points) -> None:
    node = boundary.node
    table = run.env[boundary.input_name]
    if isinstance(node, Target):
        run.targets[node.name] = table
        return
    if isinstance(node, Aggregate):
        out = physical.group_by(table, node.group_attrs, node.aggregates)
    elif isinstance(node, AggregateUDF):
        out = physical.apply_aggregate_udf(table, node.fn)
    else:
        assert isinstance(node, Materialize), node
        out = table
    run.env[boundary.output_name] = out
    points[SubExpression.of(boundary.output_name)] = out


# -- helpers for the differential suites --------------------------------------


def variant_backend(backend_name: str, shards: int):
    """The backend instance for one variant row; ``shards`` only applies
    to ``multiprocess`` (``inline`` keeps the suites fork-free, the pool
    path is pinned by tests/dist)."""
    if backend_name == "multiprocess":
        from repro.engine.dist import MultiprocessBackend

        return MultiprocessBackend(
            shards=shards,
            inline=True,
            factors={"min_shard_rows": 0},  # tiny test tables still shard
        )
    return get_backend(backend_name)


def rows_of(table: Table) -> list[tuple]:
    """Row multiset under sorted attribute order (backends may differ in
    column order and -- for sharded runs -- never in row content)."""
    return sorted(table.rows(sorted(table.attrs)), key=repr)


def assert_matches_reference(run, ref: ReferenceRun, stats=()) -> None:
    """``run`` (a ``WorkflowRun``) agrees with the oracle on everything
    observable: targets, plan-point sizes, reject tables, statistics."""
    assert set(run.targets) == set(ref.targets)
    for name, table in ref.targets.items():
        got = run.targets[name]
        assert sorted(got.attrs) == sorted(table.attrs), name
        assert rows_of(got) == rows_of(table), name
    assert run.se_sizes == ref.se_sizes
    assert set(run.rejects) == set(ref.rejects)
    for rej, table in ref.rejects.items():
        assert rows_of(run.rejects[rej]) == rows_of(table), rej
    for stat in stats:
        assert run.observations.get(stat) == ref.observations.get(stat), stat
