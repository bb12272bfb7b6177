"""Canonical, schema-aware signatures for statistics and sub-expressions.

A :class:`~repro.core.statistics.Statistic` is workflow-*local*: its SE
names block inputs such as ``DimCustomer@17`` whose suffixes are DAG node
ids, so the "same" statistic reached through two workflows (or two designs
of the same workflow) compares unequal.  The paper's evaluation runs 30
TPC-DI workflows whose sub-expressions overlap heavily — sharing their
observations across workflows needs an identity that survives renaming.

A *signature* is that identity.  It describes what an SE **computes**
rather than how the workflow spells it:

- a raw source feed is its relation name;
- a staged input is its base feed plus the ordered chain of anchored
  unary steps, each reduced to ``(kind, attrs, payload, result)`` — the
  predicate/UDF *names* stay (they are semantics), the node ids go (they
  are workflow accidents);
- an input fed by another block's boundary output embeds the upstream
  block's own output signature plus the boundary kind and group-by
  attributes, recursively;
- a join SE is the *set* of its member feed signatures plus the join
  edges between them (and any floating operators it absorbs);
- reject links and reject side-joins wrap their member signatures.

Two statistics with equal signatures are interchangeable whenever the
schemas agree: same input data implies same value.  The signature is
hashed (SHA-256 over canonical JSON) into a fixed-length key the
:class:`~repro.catalog.store.StatisticsCatalog` indexes by.
"""

from __future__ import annotations

import hashlib
import json

from repro.algebra.blocks import Block, BlockAnalysis, BlockInput, Step
from repro.algebra.expressions import (
    AnySE,
    RejectJoinSE,
    RejectSE,
    SubExpression,
)
from repro.core.statistics import Statistic

#: hex digest length of catalog keys (collision odds are negligible at 32)
KEY_LENGTH = 32


class SignatureError(ValueError):
    """Raised when an SE cannot be resolved against the analyzed workflow."""


def _step_sig(step: Step) -> list:
    """Canonical form of one anchored unary step (node ids excluded)."""
    return [
        step.kind,
        sorted(step.attrs),
        step.payload,
        step.result_attr or "",
        sorted(step.out_attrs),
    ]


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    """Hash a signature document into a catalog key."""
    return hashlib.sha256(_canonical(doc).encode()).hexdigest()[:KEY_LENGTH]


class WorkflowSigner:
    """Computes canonical signatures for one analyzed workflow.

    The signer resolves every name that can appear inside a statistic's SE
    — raw sources, staged inputs, intermediate stages, post-join stages,
    upstream boundary outputs — to a canonical *feed signature*, then
    assembles SE and statistic signatures from those.
    """

    def __init__(self, analysis: BlockAnalysis):
        self.analysis = analysis
        #: env/stage name -> canonical feed signature document
        self._feeds: dict[str, object] = {}
        #: frozenset of member names -> owning block (for join SEs)
        self._blocks: list[Block] = list(analysis.blocks)
        self._block_sig_cache: dict[str, object] = {}
        #: SE -> its signature: a workflow's candidate statistics sit a
        #: handful to an SE, and each one's key embeds the SE's signature
        self._se_sig_cache: dict[AnySE, object] = {}
        for block in self._blocks:
            self._register_block(block)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _register_block(self, block: Block) -> None:
        for inp in block.inputs.values():
            self._register_input(inp)
        if block.post_steps:
            # the join signature underneath is resolved lazily (_PostStage):
            # it depends on inputs of *other* blocks registered later
            for i, name in enumerate(block.post_stage_names()):
                steps = [_step_sig(s) for s in block.post_steps[: i + 1]]
                self._feeds[name] = _PostStage(self, block, steps)

    def _register_input(self, inp: BlockInput) -> None:
        base = self._base_feed(inp)
        names = inp.stage_names()
        self._feeds.setdefault(names[0], base)
        for i, name in enumerate(names[1:], start=1):
            sig = {"feed": base, "steps": [_step_sig(s) for s in inp.steps[:i]]}
            self._feeds.setdefault(name, sig)

    def _base_feed(self, inp: BlockInput):
        if inp.upstream is None:
            return {"src": inp.base_name}
        link = inp.upstream
        upstream_block = self.analysis.block(link.block_name)
        return {
            "up": {
                "of": self._block_output_sig(upstream_block),
                "kind": link.kind,
                "group": sorted(link.group_attrs),
            }
        }

    def _block_output_sig(self, block: Block):
        """Signature of a block's (post-boundary) output SE."""
        cached = self._block_sig_cache.get(block.name)
        if cached is not None:
            return cached
        sig = self._join_sig(block, frozenset(block.inputs))
        if block.post_steps:
            sig = {"post": sig, "steps": [_step_sig(s) for s in block.post_steps]}
        self._block_sig_cache[block.name] = sig
        return sig

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _feed(self, name: str):
        try:
            sig = self._feeds[name]
        except KeyError:
            raise SignatureError(
                f"unknown SE member {name!r}; it is not a source, stage or "
                "block input of this workflow"
            ) from None
        if isinstance(sig, _PostStage):
            sig = sig.resolve()
            self._feeds[name] = sig
        return sig

    def _owning_block(self, relations: frozenset[str]) -> Block:
        for block in self._blocks:
            if relations <= set(block.inputs):
                return block
        raise SignatureError(
            f"no optimizable block joins all of {sorted(relations)}"
        )

    def _join_sig(self, block: Block, relations: frozenset[str]):
        members = {name: self._feed(name) for name in relations}
        edges = []
        for edge in block.graph.edges:
            if edge.u in relations and edge.v in relations:
                pair = sorted(
                    [_canonical(members[edge.u]), _canonical(members[edge.v])]
                )
                edges.append([edge.attr, pair])
        edges.sort()
        floating = sorted(
            _step_sig(op.step)
            for op in block.floating
            if op.anchor <= relations
        )
        sig = {
            "join": sorted(members.values(), key=_canonical),
            "edges": edges,
        }
        if floating:
            sig["floating"] = floating
        return sig

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def se_signature(self, se: AnySE):
        """Canonical signature document for any SE flavour.

        Derived once per SE; an unresolvable SE raises every time.
        """
        sig = self._se_sig_cache.get(se)
        if sig is None:
            sig = self._se_sig_cache[se] = self._derive_se_signature(se)
        return sig

    def _derive_se_signature(self, se: AnySE):
        if isinstance(se, SubExpression):
            if se.is_base:
                return self._feed(se.base_name)
            block = self._owning_block(se.relations)
            return self._join_sig(block, se.relations)
        if isinstance(se, RejectSE):
            key = list(se.key) if isinstance(se.key, tuple) else se.key
            return {
                "reject": {
                    "source": self.se_signature(se.source),
                    "key": key,
                    "against": self.se_signature(se.against),
                }
            }
        if isinstance(se, RejectJoinSE):
            key = list(se.key) if isinstance(se.key, tuple) else se.key
            return {
                "reject_join": {
                    "reject": self.se_signature(se.reject),
                    "key": key,
                    "other": self.se_signature(se.other),
                }
            }
        raise SignatureError(f"not a sub-expression: {se!r}")

    def se_key(self, se: AnySE) -> str:
        """Catalog key for an SE (shared by all statistics on it)."""
        return digest(self.se_signature(se))

    def block_output_signature(self, block: Block):
        """Canonical signature of a block's output feed.

        Join-tree invariant by construction (edges are canonicalized),
        so consumers that must distinguish plan shapes -- the compiled
        plan cache -- add the tree to their keys separately.
        """
        return self._block_output_sig(block)

    def statistic_signature(self, stat: Statistic):
        return {
            "kind": stat.kind.value,
            "attrs": list(stat.attrs),
            "se": self.se_signature(stat.se),
        }

    def statistic_key(self, stat: Statistic) -> str:
        """Catalog key identifying ``stat`` across workflows and runs."""
        return digest(self.statistic_signature(stat))

    def statistic_keys(self, stats) -> dict[Statistic, str]:
        """Catalog keys of the candidate statistics this workflow can sign.

        A statistic whose SE does not resolve against the analyzed
        workflow has no cross-workflow identity: it is skipped, so it can
        neither be offered at zero cost nor claimed for the fleet.
        """
        keys: dict[Statistic, str] = {}
        for stat in stats:
            try:
                keys[stat] = self.statistic_key(stat)
            except SignatureError:
                continue
        return keys


class _PostStage:
    """Lazy post-stage feed: the join signature underneath is only
    computable after every block input has been registered."""

    def __init__(self, signer: WorkflowSigner, block: Block, steps: list):
        self.signer = signer
        self.block = block
        self.steps = steps

    def resolve(self):
        join_sig = self.signer._join_sig(
            self.block, frozenset(self.block.inputs)
        )
        return {"post": join_sig, "steps": self.steps}


__all__ = ["KEY_LENGTH", "SignatureError", "WorkflowSigner", "digest"]
