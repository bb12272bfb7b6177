"""The physical-operator IR compiled plans execute.

Lowering (:mod:`repro.engine.compile.lower`) turns one optimizable block's
algebra -- stage chains, a join tree, floating operators, post-steps --
into a small tree of IR nodes whose operator payloads are *pre-resolved*:
predicate and UDF callables are looked up once at compile time, attribute
tuples are frozen, and every observation point (plan-point size, taps) is
recorded on the node that produces it.  The runtime
(:mod:`repro.engine.compile.runtime`) then walks this IR over column
batches with zero per-row plan interpretation.

The IR is deliberately tiny:

- :class:`FusedStep` -- one unary operator inside a fused segment
  (an anchored chain, a join's floating tail, or the block's post-steps);
- :class:`ChainIR` -- a block input's whole stage chain, fused;
- :class:`JoinIR` -- one hash join plus the floating operators applied
  at that node;
- :class:`BlockProgram` -- one block's executable program plus the
  metadata the cache needs (transitive source dependencies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.algebra.expressions import RejectSE, SubExpression


@dataclass(frozen=True)
class FusedStep:
    """One unary operator inside a fused segment.

    ``se`` is the observation point *after* this step fires (a stage SE
    for chain/post steps), or ``None`` for floating operators, which are
    never observed individually.
    """

    kind: str  # "filter" | "transform" | "project"
    fn: Optional[Callable]
    attrs: tuple[str, ...]
    out_attr: Optional[str]  # transform output column
    se: Optional[SubExpression]


@dataclass(frozen=True)
class ChainIR:
    """A block input's anchored stage chain, fused into one segment."""

    input_name: str
    base_name: str
    raw_se: SubExpression
    steps: tuple[FusedStep, ...]


@dataclass(frozen=True)
class JoinIR:
    """One equi-join node plus its floating-operator tail."""

    left: "PlanIR"
    right: "PlanIR"
    key: tuple[str, ...]
    se: SubExpression
    rej_left: RejectSE
    rej_right: RejectSE
    floating: tuple[FusedStep, ...]


PlanIR = Union[ChainIR, JoinIR]


@dataclass(frozen=True)
class BlockProgram:
    """One optimizable block, lowered and ready to execute."""

    block_name: str
    output_name: str
    root: PlanIR
    root_se: SubExpression
    post: tuple[FusedStep, ...]
    #: operators fused into segments (chains + floating + post)
    fused_ops: int


@dataclass(frozen=True)
class CompiledProfile:
    """How a backend wants its compiled plans executed.

    ``chunk_rows`` turns whole-column execution into batched execution
    over row chunks (the streaming backend's mode);
    ``canonical_output`` emits block outputs and reject tables in the
    block's canonical (sorted) attribute order -- the streaming
    backend's column order.
    """

    chunk_rows: Optional[int] = None
    canonical_output: bool = False


__all__ = [
    "BlockProgram",
    "ChainIR",
    "CompiledProfile",
    "FusedStep",
    "JoinIR",
    "PlanIR",
]
