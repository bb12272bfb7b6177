"""The streaming backend: the paper's per-tuple instrumentation model.

Section 3.2.5: *"Many commercial ETL engines provide a mechanism to plug in
user defined handlers at any point in the flow.  These handlers are invoked
for every tuple that passes through that point."*  :class:`StreamingBackend`
is the one block runtime (:mod:`repro.engine.compile`) configured for that
model: block inputs are sliced into bounded 2,048-row batches that flow
through the fused operators one batch at a time, so

- counters, histogram buckets and distinct accumulators grow incrementally
  as batches stream past -- the handler fires once per batch of tuples
  instead of once per tuple, with the same accumulated result;
- only hash-join build sides, blocking boundaries and materialized outputs
  buffer rows.

Given the same plan and sources every backend produces identical targets,
SE sizes and observed statistics (the oracle differential suites assert
it); streaming differs in memory profile and in emitting block outputs in
canonical (sorted) column order.
"""

from __future__ import annotations

from repro.engine.backend import ExecutionBackend, WorkflowRun
from repro.engine.compile import CompiledProfile
from repro.engine.instrumentation import TapSet

__all__ = [
    "StreamingBackend",
    "WorkflowRun",
]


class StreamingBackend(ExecutionBackend):
    """Bounded row chunks, canonical column order."""

    name = "streaming"
    profile = CompiledProfile(chunk_rows=2048, canonical_output=True)

    def make_taps(self, stats=()):
        return TapSet(stats)
