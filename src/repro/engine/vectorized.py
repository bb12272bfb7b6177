"""The vectorized backend: whole columns on the best gather rung.

Same runtime and batching as the columnar backend; the only difference is
the gather engine.  Where ``columnar`` pins the reference pure-Python
rung, ``vectorized`` climbs the acceleration ladder of
:mod:`repro.engine.compile.accel` -- ``numpy`` object-dtype fancy indexing
for bulk gathers and selection-vector composition (values round-trip
unchanged, no bool/int/float coercion), ``numba`` for index composition
when installed -- and keeps join outputs array-resident inside a block.
Results are identical either way.
"""

from __future__ import annotations

from repro.engine.compile import CompiledProfile
from repro.engine.executor import ColumnarBackend

__all__ = ["VectorizedBackend"]


class VectorizedBackend(ColumnarBackend):
    """Whole-column batches on the best available gather rung."""

    name = "vectorized"
    profile = CompiledProfile(chunk_rows=None, gather="auto")
