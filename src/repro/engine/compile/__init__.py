"""The block runtime: lowering, fusion, caching and batched execution.

Every optimizable block executes the same way: it is lowered once to a
physical-operator IR (:mod:`.lower`, :mod:`.ir`), with unary-operator
chains fused into whole-column kernels over plain lists, cached keyed by
:class:`~repro.catalog.signatures.WorkflowSigner` signatures so warm runs
skip lowering entirely (:mod:`.cache`; a program reads no table, so the
key is block, tree and profile), and run over column batches by
:class:`CompiledBlockRunner` (:mod:`.runtime`).  A backend is a
:class:`CompiledProfile` of this path, not a different engine.
"""

from __future__ import annotations

from repro.engine.compile.cache import PlanCache
from repro.engine.compile.ir import (
    BlockProgram,
    ChainIR,
    CompiledProfile,
    FusedStep,
    JoinIR,
)
from repro.engine.compile.lower import (
    CompileError,
    compile_block,
    lower_block,
)
from repro.engine.compile.runtime import (
    CompiledBlockRunner,
    ObservationBuffer,
)

__all__ = [
    "BlockProgram",
    "ChainIR",
    "CompileError",
    "CompiledBlockRunner",
    "CompiledProfile",
    "FusedStep",
    "JoinIR",
    "ObservationBuffer",
    "PlanCache",
    "compile_block",
    "lower_block",
]
