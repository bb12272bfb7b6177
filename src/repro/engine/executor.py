"""The default (columnar) backend.

Executing a plan is the "run instrumented plan" step of the framework
(Section 3.2.6): each optimizable block runs with either its initial join
tree or a caller-supplied re-ordering, boundary operators apply between
blocks, the target record-sets are produced, and the
:class:`~repro.engine.instrumentation.TapSet` fires at every plan point.

Every point's row count is recorded in ``se_sizes`` regardless of taps --
this is the passive monitoring signal (the LEO-style baseline) and the
previous-run SE sizes the CPU cost metric needs (Section 5.4).

The plan-walking core (scheduling blocks and boundaries over the analysis
DAG) lives in :class:`~repro.engine.backend.BackendExecutor` and the block
runtime in :mod:`repro.engine.compile`; :class:`ColumnarBackend` is that
runtime over whole columns.
"""

from __future__ import annotations

from repro.engine.backend import ExecutionBackend, WorkflowRun
from repro.engine.compile import CompiledProfile
from repro.engine.instrumentation import TapSet

__all__ = [
    "ColumnarBackend",
    "WorkflowRun",
]


class ColumnarBackend(ExecutionBackend):
    """Whole-column batches."""

    name = "columnar"
    profile = CompiledProfile(chunk_rows=None)

    def make_taps(self, stats=()):
        return TapSet(stats)
