"""Ground-truth SE cardinalities, computed by brute force.

The tests and the accuracy experiments need the *actual* cardinality of
every SE in ℰ -- including the ones the initial plan never produces.  This
module executes every connected join subset directly (a spanning join
order per subset) and returns the exact counts the estimator must match
(exact histograms admit no estimation error; see Section 3.1).

The brute force itself runs on the reference row-at-a-time operators of
:mod:`repro.engine.physical`, starting from the boundary outputs of one
columnar run.
"""

from __future__ import annotations

from repro.algebra.blocks import Block, BlockAnalysis
from repro.algebra.expressions import AnySE, SubExpression
from repro.engine.backend import BackendExecutor, WorkflowRun
from repro.engine.physical import apply_step, hash_join
from repro.engine.table import Table


def block_input_tables(
    block: Block, env: dict[str, Table]
) -> dict[str, Table]:
    """Processed input tables for a block (stage chains applied)."""
    out: dict[str, Table] = {}
    for name, inp in block.inputs.items():
        table = env[inp.base_name]
        for step in inp.steps:
            table = apply_step(table, step)
        out[name] = table
    return out


def join_subset(
    block: Block,
    inputs: dict[str, Table],
    se: SubExpression,
) -> Table:
    """Evaluate an SE by joining its members along a spanning order."""
    members = sorted(se.relations)
    done = {members[0]}
    table = inputs[members[0]]
    remaining = set(members[1:])
    while remaining:
        progressed = False
        for name in sorted(remaining):
            key = block.graph.crossing_key(frozenset(done), frozenset({name}))
            if not key:
                continue
            table, _l, _r = hash_join(table, inputs[name], key)
            done.add(name)
            remaining.discard(name)
            progressed = True
            break
        if not progressed:  # pragma: no cover - SEs are connected by def.
            raise ValueError(f"{se!r} is not connected in {block.name}")
    return table


def ground_truth_cardinalities(
    analysis: BlockAnalysis,
    sources: dict[str, Table],
) -> dict[AnySE, int]:
    """Exact |e| for every SE in every block's universe.

    Runs the workflow once (initial plans) to build the boundary outputs,
    then brute-forces each block's join subsets from its processed inputs.
    """
    run: WorkflowRun = BackendExecutor(analysis).run(sources)
    truth: dict[AnySE, int] = {}
    for block in analysis.blocks:
        inputs = block_input_tables(block, run.env)
        for name, inp in block.inputs.items():
            table = run.env[inp.base_name]
            stage_names = inp.stage_names()
            truth[SubExpression.of(stage_names[0])] = table.num_rows
            for step, stage in zip(inp.steps, stage_names[1:]):
                table = apply_step(table, step)
                truth[SubExpression.of(stage)] = table.num_rows
        for se in block.join_ses():
            if len(se) == 1:
                truth[se] = inputs[se.base_name].num_rows
            else:
                truth[se] = join_subset(block, inputs, se).num_rows
        # post stages operate on the full join result
        table = join_subset(block, inputs, block.join_se) if len(
            block.join_se
        ) > 1 else inputs[block.join_se.base_name]
        for op in block.floating:
            table = apply_step(table, op.step)
        for step, stage in zip(block.post_steps, block.post_stage_ses()):
            table = apply_step(table, step)
            truth[stage] = table.num_rows
    return truth
