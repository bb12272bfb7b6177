"""Signature-keyed cache of compiled block programs.

Keys are built from the existing :class:`~repro.catalog.signatures.
WorkflowSigner` canonical forms, so they survive re-analysis: a warm run
of the same workflow (same block content, same join tree, same backend
execution profile, same source contracts) skips lowering entirely, while
any semantic change -- a different tree chosen by the optimizer, an
edited stage chain, a contract revision -- lands on a fresh key.

Schema drift is handled by *invalidation* rather than keying: a
:class:`~repro.quality.SchemaDriftEvent` means the source's runtime shape
no longer matches what the program was compiled against, so
``invalidate_source`` evicts every cached program whose transitive source
set contains the drifted source (the executor calls it before consulting
the cache).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.algebra.blocks import Block
from repro.algebra.expressions import SubExpression
from repro.algebra.plans import Leaf, PlanTree
from repro.catalog.signatures import WorkflowSigner, digest

from repro.engine.compile.ir import BlockProgram, CompiledProfile


def _tree_sig(signer: WorkflowSigner, node: PlanTree):
    """Canonical join-tree document; leaf feeds use SE signatures."""
    if isinstance(node, Leaf):
        return signer.se_signature(SubExpression.of(node.name))
    return {
        "j": [_tree_sig(signer, node.left), _tree_sig(signer, node.right)],
        "k": list(node.key),
    }


class PlanCache:
    """A bounded LRU of compiled block programs, safe for shared use."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._entries: "OrderedDict[str, BlockProgram]" = OrderedDict()
        self._lock = threading.Lock()
        self._signer: Optional[tuple] = None  # (analysis, signer)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def signer_for(self, analysis) -> WorkflowSigner:
        """A signer for this analysis object (single-slot memo: repeated
        runs of the same pipeline reuse it; re-analyzed copies rebuild)."""
        memo = self._signer
        if memo is not None and memo[0] is analysis:
            return memo[1]
        signer = WorkflowSigner(analysis)
        self._signer = (analysis, signer)
        return signer

    def block_key(
        self,
        signer: WorkflowSigner,
        block: Block,
        tree: PlanTree,
        backend: str,
        profile: CompiledProfile,
        sources: frozenset[str],
        context_tokens: dict[str, str],
    ) -> str:
        """Cache key for one block's compiled program."""
        doc = {
            "v": 1,
            "out": signer.block_output_signature(block),
            "tree": _tree_sig(signer, tree),
            "rejects": sorted(
                signer.se_key(rej) for rej in block.materialized_rejects
            ),
            "backend": backend,
            "chunk": profile.chunk_rows,
            "canon": profile.canonical_output,
            "ctx": sorted(
                [src, context_tokens[src]]
                for src in sources
                if src in context_tokens
            ),
        }
        return digest(doc)

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[BlockProgram]:
        with self._lock:
            program = self._entries.get(key)
            if program is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return program

    def store(self, key: str, program: BlockProgram) -> None:
        with self._lock:
            self._entries[key] = program
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate_source(self, source: str) -> int:
        """Evict every program transitively fed by ``source``."""
        with self._lock:
            stale = [
                key
                for key, program in self._entries.items()
                if source in program.sources
            ]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    def __len__(self) -> int:
        return len(self._entries)


__all__ = ["PlanCache"]
