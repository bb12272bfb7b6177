"""The ``vectorized`` backend name: the columnar profile under a second name.

Nothing distinguishes it from ``columnar`` at run time; the name resolves
because the frozen benchmark (``nightbench/``) asks for it.
"""

from __future__ import annotations

from repro.engine.executor import ColumnarBackend

__all__ = ["VectorizedBackend"]


class VectorizedBackend(ColumnarBackend):
    """Same profile as :class:`ColumnarBackend`; only the name differs."""

    name = "vectorized"
