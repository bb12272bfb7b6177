"""Lowering: algebra blocks + join trees -> physical-operator IR.

One :class:`~repro.engine.compile.ir.BlockProgram` is produced per
optimizable block.  Lowering fixes the block's execution order -- stage
chains, a post-order join walk, floating-operator placement (first join
node, in declaration order, whose SE covers the anchor), reject SEs -- and
with it the observation points a run fires (the row-at-a-time oracle in
``tests/oracle.py`` pins both).

The fusion happening here is structural: each input's stage chain, each
join's floating tail, and the block's post-steps become *fused segments*
(tuples of :class:`~repro.engine.compile.ir.FusedStep` with their
operator callables pre-resolved), which the runtime executes over whole
column batches with composed selection vectors instead of per-step table
materialization.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.blocks import Block, BlockAnalysis, Step
from repro.algebra.expressions import RejectSE, SubExpression
from repro.algebra.plans import Leaf, PlanTree, leaves as _tree_leaves
from repro.engine.table import TableError

from repro.engine.compile.ir import (
    BlockProgram,
    ChainIR,
    CompiledProfile,
    FusedStep,
    JoinIR,
    PlanIR,
)


class CompileError(TableError):
    """Raised when a block cannot be lowered to the physical IR."""


def _fused(step: Step, se: Optional[SubExpression]) -> FusedStep:
    """Pre-resolve one anchored step's callable into a fused step."""
    node = step.node
    if step.kind == "filter":
        fn = node.predicate.fn
        out_attr = None
    elif step.kind == "transform":
        fn = node.udf.fn
        out_attr = step.result_attr if step.result_attr else step.attrs[0]
    elif step.kind == "project":
        fn = None
        out_attr = None
    else:  # pragma: no cover - analysis only emits the three kinds
        raise CompileError(f"unknown step kind {step.kind!r}")
    return FusedStep(
        kind=step.kind,
        fn=fn,
        attrs=tuple(step.attrs),
        out_attr=out_attr,
        se=se,
    )


def lower_block(block: Block, tree: PlanTree) -> BlockProgram:
    """Lower one block under the given join tree."""
    if {leaf.name for leaf in _tree_leaves(tree)} != set(block.inputs):
        raise CompileError(
            f"plan tree for {block.name} does not cover its inputs"
        )

    applied: set[int] = set()
    fused_ops = 0

    def chain_of(leaf: Leaf) -> ChainIR:
        nonlocal fused_ops
        inp = block.inputs[leaf.name]
        stage_names = inp.stage_names()
        raw_se = SubExpression.of(stage_names[0])
        steps = tuple(
            _fused(step, SubExpression.of(stage))
            for step, stage in zip(inp.steps, stage_names[1:])
        )
        fused_ops += len(steps)
        return ChainIR(leaf.name, inp.base_name, raw_se, steps)

    def build(node: PlanTree) -> PlanIR:
        nonlocal fused_ops
        if isinstance(node, Leaf):
            return chain_of(node)
        left = build(node.left)
        right = build(node.right)
        key = tuple(node.key)
        rej_key = key[0] if len(key) == 1 else key
        floating = []
        for idx, op in enumerate(block.floating):
            if idx in applied or not (op.anchor <= node.se.relations):
                continue
            floating.append(_fused(op.step, None))
            applied.add(idx)
        fused_ops += len(floating)
        return JoinIR(
            left=left,
            right=right,
            key=key,
            se=node.se,
            rej_left=RejectSE(node.left.se, rej_key, node.right.se),
            rej_right=RejectSE(node.right.se, rej_key, node.left.se),
            floating=tuple(floating),
        )

    root = build(tree)
    post = tuple(
        _fused(step, se)
        for step, se in zip(block.post_steps, block.post_stage_ses())
    )
    fused_ops += len(post)

    return BlockProgram(
        block_name=block.name,
        output_name=block.output_name,
        root=root,
        root_se=tree.se,
        post=post,
        fused_ops=fused_ops,
    )


def compile_block(
    analysis: BlockAnalysis,
    block: Block,
    tree: PlanTree,
    *,
    backend: str = "columnar",
    profile: Optional[CompiledProfile] = None,
    cache=None,
) -> tuple[BlockProgram, bool]:
    """Lower one block, consulting ``cache`` if given.

    Returns ``(program, cache hit?)``.  A program reads no table, so its
    key is the block, the tree and the backend profile alone.
    """
    key = None
    if cache is not None:
        key = cache.block_key(
            cache.signer_for(analysis),
            block,
            tree,
            backend,
            profile or CompiledProfile(),
        )
        program = cache.lookup(key)
        if program is not None:
            return program, True
    program = lower_block(block, tree)
    if cache is not None:
        cache.store(key, program)
    return program, False


__all__ = [
    "CompileError",
    "compile_block",
    "lower_block",
]
