"""A shared index over a workflow's sub-expressions.

Several subsystems (the CSS generator, the plan instrumenter and the
statistics calculator) need to answer the same questions: which block owns
an SE, which attributes are live on it, which join splits produce it, and
whether the initial plan makes it observable.  :class:`SEIndex` computes
those maps once per analysis.
"""

from __future__ import annotations

from repro.algebra.blocks import Block, BlockAnalysis, BlockInput
from repro.algebra.expressions import AnySE, RejectJoinSE, RejectSE, SubExpression
from repro.algebra.plans import JoinNode, JoinSplit, subtrees


class SEIndex:
    """Resolves sub-expressions to blocks, attributes and plan context."""

    def __init__(self, analysis: BlockAnalysis):
        self.analysis = analysis
        self.join_block: dict[SubExpression, Block] = {}
        self.splits: dict[SubExpression, list[JoinSplit]] = {}
        self.stage: dict[str, tuple[Block, BlockInput, int]] = {}
        self.post: dict[str, tuple[Block, int]] = {}
        self.observable: dict[str, set[SubExpression]] = {}
        self.tree_joins: dict[str, list[JoinNode]] = {}
        self._attrs: dict[AnySE, tuple[str, ...]] = {}
        self._ses: dict[AnySE, AnySE] = {}

        for block in analysis.blocks:
            for se, se_splits in block.graph.plan_space().items():
                if len(se) > 1:
                    se = self.one(se)
                    self.join_block.setdefault(se, block)
                    self.splits.setdefault(se, [
                        JoinSplit(self.one(s.left), self.one(s.right), s.key)
                        for s in se_splits
                    ])
            for inp in block.inputs.values():
                for idx, name in enumerate(inp.stage_names()):
                    self.stage.setdefault(name, (block, inp, idx))
            for idx, name in enumerate(block.post_stage_names()):
                self.post.setdefault(name, (block, idx))
            self.observable[block.name] = block.observable_ses()
            self.tree_joins[block.name] = [
                n for n in subtrees(block.initial_tree) if isinstance(n, JoinNode)
            ]

    # ------------------------------------------------------------------
    def one(self, se: AnySE) -> AnySE:
        """The index's one object for ``se`` (``se`` itself when new), so
        that lookups keyed on SEs hit by identity."""
        return self._ses.setdefault(se, se)

    def block_of(self, se: AnySE) -> Block:
        if isinstance(se, RejectSE):
            return self.block_of(se.source)
        if isinstance(se, RejectJoinSE):
            return self.block_of(se.reject)
        if len(se) > 1:
            return self.join_block[se]
        name = se.base_name
        if name in self.stage:
            return self.stage[name][0]
        if name in self.post:
            return self.post[name][0]
        raise KeyError(f"no block owns {se!r}")

    def se_attrs(self, se: AnySE) -> tuple[str, ...]:
        attrs = self._attrs.get(se)
        if attrs is None:
            attrs = self._attrs[se] = self._se_attrs(se)
        return attrs

    def _se_attrs(self, se: AnySE) -> tuple[str, ...]:
        if isinstance(se, RejectSE):
            return self.block_of(se.source).se_attrs(se.source)
        if isinstance(se, RejectJoinSE):
            block = self.block_of(se.reject.source)
            attrs = set(block.se_attrs(se.reject.source))
            attrs.update(block.se_attrs(se.other))
            return tuple(sorted(attrs))
        return self.block_of(se).se_attrs(se)

    def reject_join_node(self, se: RejectSE) -> JoinNode | None:
        """The initial-plan join node realizing this reject link, if any."""
        block = self.block_of(se)
        want_key = (se.key,) if isinstance(se.key, str) else tuple(se.key)
        for node in self.tree_joins[block.name]:
            if (
                {node.left.se, node.right.se} == {se.source, se.against}
                and tuple(node.key) == want_key
            ):
                return node
        return None

    def se_observable(self, se: AnySE) -> bool:
        """Is the SE itself a point of the initial plan?"""
        if isinstance(se, RejectJoinSE):
            return False
        if isinstance(se, RejectSE):
            return self.reject_join_node(se) is not None
        block = self.block_of(se)
        return se in self.observable[block.name]
