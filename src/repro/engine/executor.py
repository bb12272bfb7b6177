"""The default (columnar) backend and the convenience executors.

The executor is the "run instrumented plan" step of the framework
(Section 3.2.6).  It executes each optimizable block with either its
initial join tree or a caller-supplied re-ordering, applies boundary
operators between blocks, produces the target record-sets, and fires the
:class:`~repro.engine.instrumentation.TapSet` at every plan point.

Every point's row count is recorded in ``se_sizes`` regardless of taps --
this is the passive monitoring signal (the LEO-style baseline) and the
previous-run SE sizes the CPU cost metric needs (Section 5.4).

The plan-walking core (scheduling blocks and boundaries over the analysis
DAG) lives in :class:`~repro.engine.backend.BackendExecutor` and the block
runtime in :mod:`repro.engine.compile`; :class:`ColumnarBackend` is that
runtime over whole columns on the reference (pure Python) gather rung.
"""

from __future__ import annotations

from repro.algebra.plans import PlanTree
from repro.engine.backend import (
    BackendExecutor,
    ExecutionBackend,
    WorkflowRun,
)
from repro.engine.compile import CompiledProfile
from repro.engine.instrumentation import TapSet
from repro.engine.table import Table

__all__ = [
    "ColumnarBackend",
    "Executor",
    "WorkflowRun",
    "execute_workflow",
]


class ColumnarBackend(ExecutionBackend):
    """Whole-column batches on the reference (pure Python) gather rung."""

    name = "columnar"
    profile = CompiledProfile(chunk_rows=None, gather="python")

    def make_taps(self, stats=()):
        return TapSet(stats)


class Executor(BackendExecutor):
    """Executes an analyzed workflow over source tables (columnar)."""

    def __init__(self, analysis, workers: int = 1):
        super().__init__(analysis, ColumnarBackend(), workers=workers)


def execute_workflow(
    analysis,
    sources: dict[str, Table],
    trees: dict[str, PlanTree] | None = None,
    taps: TapSet | None = None,
) -> WorkflowRun:
    """Convenience wrapper over :class:`Executor`."""
    return Executor(analysis).run(sources, trees=trees, taps=taps)
