"""Execution engine: columnar tables, physical operators, instrumentation.

There is one execution path (see :mod:`repro.engine.backend`): blocks are
lowered and run by :mod:`repro.engine.compile`, observed by one
:class:`TapSet`.  The named backends are configurations of it --
``get_backend("columnar" | "streaming" | "vectorized" | "multiprocess")``
resolves one by name; :class:`BackendExecutor` runs it, walking the
blocks in dependency order.
"""

from repro.engine.backend import (
    BackendExecutor,
    ExecutionBackend,
    RunContext,
    WorkflowRun,
    available_backends,
    get_backend,
)
from repro.engine.executor import ColumnarBackend
from repro.engine.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PermanentFault,
    TransientFault,
)
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.engine.instrumentation import InstrumentationError, TapSet
from repro.engine.scheduler import (
    RetryPolicy,
    RunFailure,
    ScheduleResult,
    SchedulerError,
    classify_error,
    execute_tasks,
)
from repro.engine.streaming import StreamingBackend
from repro.engine.table import Table, TableError
from repro.engine.vectorized import VectorizedBackend

__all__ = [
    "available_backends", "BackendExecutor", "classify_error",
    "ColumnarBackend", "execute_tasks", "ExecutionBackend",
    "FaultInjector", "FaultPlan", "FaultSpec", "get_backend",
    "ground_truth_cardinalities", "InstrumentationError",
    "PermanentFault", "RetryPolicy",
    "RunContext", "RunFailure", "ScheduleResult", "SchedulerError",
    "StreamingBackend", "Table",
    "TableError", "TapSet", "TransientFault",
    "VectorizedBackend", "WorkflowRun",
]
