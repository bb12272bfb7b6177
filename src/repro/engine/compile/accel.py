"""Acceleration ladder for fused kernels: numba -> numpy -> pure Python.

Compiled plans move rows with *gathers* (index-based column
materialization) instead of per-row dispatch.  This module supplies the
gather engine behind them, degrading gracefully with whatever the host
has installed:

- **numba** (when importable): a jitted index-composition kernel for
  fused filter runs -- the only loop hot enough to deserve it;
- **numpy** (when importable): object-dtype fancy indexing for gathers
  and selection-vector composition;
- **pure Python**: list comprehensions, always available.

Nothing here is installed on demand; missing rungs are skipped at import
time and :func:`accel_backend` reports whichever rung is active.
"""

from __future__ import annotations

from typing import Optional

try:  # pragma: no cover - exercised indirectly on hosts with numpy
    import numpy as _np
except Exception:  # pragma: no cover - numpy is in the base image
    _np = None

_compose_jit = None
try:  # pragma: no cover - numba is optional and absent from CI images
    import numba as _numba

    if _np is not None:

        @_numba.njit(cache=False)
        def _compose_jit(outer, inner):  # pragma: no cover
            out = _np.empty(inner.shape[0], dtype=_np.intp)
            for i in range(inner.shape[0]):
                out[i] = outer[inner[i]]
            return out

except Exception:  # pragma: no cover
    _numba = None
    _compose_jit = None


#: below this row count numpy conversion overhead beats its gather win
_MIN_NUMPY_GATHER = 64


def accel_backend() -> str:
    """Which rung of the fallback ladder this host runs fused kernels on."""
    if _compose_jit is not None:
        return "numba"
    if _np is not None:
        return "numpy"
    return "python"


class PythonGatherEngine:
    """Reference rung: plain lists end to end."""

    name = "python"

    def index(self, sel):
        """Normalize a selection vector for :meth:`gather`."""
        return sel

    def gather(self, column, index):
        if isinstance(column, list):
            return [column[i] for i in index]
        data = list(column)
        return [data[i] for i in index]

    def aslist(self, column):
        """A list view of a column for per-value loops."""
        if isinstance(column, list):
            return column
        return list(column)

    def compose(self, outer, inner):
        """``outer`` then ``inner``: absolute indexes of a nested selection."""
        return [outer[i] for i in inner]

    def split_hits(self, ris):
        """Split probe results into (left indexes, right indexes of hits)."""
        li = [i for i, r in enumerate(ris) if r is not None]
        ri = [r for r in ris if r is not None]
        return li, ri


class NumpyGatherEngine(PythonGatherEngine):
    """Object-dtype numpy gathers with an id-keyed array cache.

    Columns are immutable for the duration of a block run, so caching
    the ndarray view by ``id(column)`` lets every gather after the first
    skip the list->array conversion.
    """

    name = "numpy"

    def __init__(self):
        self._arrays: dict[int, object] = {}

    def _as_array(self, column):
        if isinstance(column, _np.ndarray):
            return column
        key = id(column)
        entry = self._arrays.get(key)
        if entry is None or entry[0] is not column:
            arr = _np.empty(len(column), dtype=object)
            arr[:] = column
            # keep the source alive so its id cannot be recycled
            self._arrays[key] = (column, arr)
            return arr
        return entry[1]

    def index(self, sel):
        if isinstance(sel, _np.ndarray):
            return sel
        if len(sel) < _MIN_NUMPY_GATHER:
            return sel
        return _np.asarray(sel, dtype=_np.intp)

    def gather(self, column, index):
        if len(index) == 0:
            return []
        if not isinstance(index, _np.ndarray):
            return PythonGatherEngine.gather(self, column, index)
        return self._as_array(column)[index]

    def aslist(self, column):
        if isinstance(column, _np.ndarray):
            return column.tolist()
        return column if isinstance(column, list) else list(column)

    def compose(self, outer, inner):
        n = len(inner)
        if n < _MIN_NUMPY_GATHER:
            return [outer[i] for i in inner]
        outer_arr = (
            outer
            if isinstance(outer, _np.ndarray)
            else _np.asarray(outer, dtype=_np.intp)
        )
        inner_arr = (
            inner
            if isinstance(inner, _np.ndarray)
            else _np.asarray(inner, dtype=_np.intp)
        )
        if _compose_jit is not None:
            return _compose_jit(outer_arr, inner_arr)
        return outer_arr[inner_arr]

    def split_hits(self, ris):
        n = len(ris)
        if n < _MIN_NUMPY_GATHER:
            return PythonGatherEngine.split_hits(self, ris)
        arr = _np.empty(n, dtype=object)
        arr[:] = ris
        mask = _np.not_equal(arr, None)
        li = _np.nonzero(mask)[0]
        ri = arr[mask].astype(_np.intp)
        return li, ri


def make_engine(kind: str = "auto"):
    """Build a gather engine: ``"python"`` pins the reference rung,
    ``"auto"`` takes the best available."""
    if kind == "python" or _np is None:
        return PythonGatherEngine()
    return NumpyGatherEngine()


def numpy_module() -> Optional[object]:
    """The imported numpy module, or None on hosts without it."""
    return _np


__all__ = [
    "NumpyGatherEngine",
    "PythonGatherEngine",
    "accel_backend",
    "make_engine",
    "numpy_module",
]
