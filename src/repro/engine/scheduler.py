"""Block scheduling over the analysis DAG, with fault-tolerant execution.

Block analysis (Section 3.2.1) cuts a workflow into optimizable blocks
joined by boundary operators.  The resulting dependency structure is a DAG
over environment names: each block consumes its input feeds and provides
its output record-set, each boundary consumes one feed and provides one.
This module walks that DAG serially, in dependency order: the block
kernels are pure Python, so a thread pool over independent blocks bought
nothing under the GIL (measured in EXPERIMENTS.md); parallelism lives in
the row-sharding backend (:mod:`repro.engine.dist`), below this walk.

The paper's premise makes fault tolerance non-optional: ETL sources (flat
files, foreign DBMSs) are outside the engine's control and fail mid-run in
production.  A nightly observe-and-optimize cycle that aborts on the first
block error loses every statistic already gathered.  The scheduler
therefore supports an optional :class:`RetryPolicy`: transient errors are
retried with exponential backoff and jitter, a per-attempt deadline turns
hung blocks into timeouts, and a task that ultimately fails is recorded as
a structured :class:`RunFailure` -- its dependents are skipped, every
independent task still runs, and the caller receives a
:class:`ScheduleResult` instead of a torn-down wave.

Entry points:

- :func:`classify_error` -- transient-vs-permanent triage for task
  exceptions (duck-typed on a ``transient`` attribute, so the fault
  harness and real I/O errors classify uniformly);
- :func:`execute_tasks` -- runs a task list once each, a task starting
  only after everything it requires exists.  Without a policy, task
  exceptions propagate unchanged.

Tracing: :func:`execute_tasks` accepts an optional
:class:`~repro.obs.trace.Tracer`.  When enabled, every task gets a span
(kind from ``Task.kind``) annotated with its outcome, attempt count and
failure details, plus a ``retry`` point per failed attempt -- the span
is the thread-local parent while the task function runs, so per-operator
points emitted inside a block land under it.  With ``tracer=None``
(the default) the hot path is exactly the untraced walk.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


class SchedulerError(RuntimeError):
    """Raised when the task graph cannot be executed (cycle / missing feed)."""


class BlockTimeout(RuntimeError):
    """An attempt exceeded the policy's per-block deadline."""

    transient = True  # a hung source may answer on the next attempt


#: exception types retried without an explicit ``transient`` marker --
#: the classic flaky-source failure modes of Section 1's external DBMSs
TRANSIENT_ERROR_TYPES = (
    TimeoutError,
    ConnectionError,
    InterruptedError,
    BrokenPipeError,
)


def classify_error(exc: BaseException) -> str:
    """``"transient"`` or ``"permanent"`` triage for a task exception.

    An exception may self-classify through a boolean ``transient``
    attribute (the fault harness' :class:`~repro.engine.faults.TransientFault`
    and :class:`~repro.engine.faults.PermanentFault` do); otherwise common
    flaky-I/O types are transient and everything else -- bad data, bugs,
    schema mismatches -- is permanent, because re-running deterministic
    code over the same input cannot heal it.
    """
    marker = getattr(exc, "transient", None)
    if isinstance(marker, bool):
        return "transient" if marker else "permanent"
    return "transient" if isinstance(exc, TRANSIENT_ERROR_TYPES) else "permanent"


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler handles failing attempts.

    ``max_retries`` counts *re*-tries: a task gets ``1 + max_retries``
    attempts before its failure is recorded.  Backoff between attempts is
    exponential (``base_delay * 2^n`` capped at ``max_delay``) with a
    deterministic seeded jitter so retries from several pipelines do not
    hit a recovering source in lockstep.  ``block_timeout``
    bounds each attempt's wall time; a timed-out attempt counts as
    transient (the attempt's thread is abandoned, so timed-out block
    functions must be side-effect-safe, which ours are: a block publishes
    its output only on success).
    """

    max_retries: int = 0
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    block_timeout: float | None = None
    seed: int = 0
    classify: Callable[[BaseException], str] = classify_error
    sleep: Callable[[float], None] = time.sleep

    def backoff(self, retry_index: int, rng: random.Random) -> float:
        """Delay before retry ``retry_index`` (0-based), jittered."""
        delay = min(self.base_delay * (2.0**retry_index), self.max_delay)
        return delay * (1.0 + self.jitter * rng.random())

    def rng_for(self, task_name: str) -> random.Random:
        """Per-task RNG: a task's jitter does not depend on which other
        tasks retried before it."""
        return random.Random(f"{self.seed}:{task_name}")


@dataclass(frozen=True)
class RunFailure:
    """Structured record of one task that did not complete.

    ``kind`` is ``"permanent"`` (non-retryable error), ``"transient"``
    (retryable but the retry budget ran out), ``"timeout"`` (the final
    attempt hit the deadline) or ``"skipped"`` (a requirement's producer
    failed, listed in ``missing``).
    """

    task: str
    kind: str
    error: str
    error_type: str
    attempts: int
    elapsed: float
    missing: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.kind == "skipped":
            return f"{self.task}: skipped (failed upstream: {', '.join(self.missing)})"
        return (
            f"{self.task}: {self.kind} after {self.attempts} attempt(s) "
            f"[{self.error_type}] {self.error}"
        )


@dataclass
class ScheduleResult:
    """What a policy-governed execution produced."""

    completed: list[str] = field(default_factory=list)
    failures: dict[str, RunFailure] = field(default_factory=dict)


@dataclass(frozen=True)
class Task:
    """One schedulable unit: produce ``provides`` once ``requires`` exist.

    ``kind`` only classifies the task's trace span (``"block"``,
    ``"boundary"``, ...); the scheduler itself treats all tasks alike.
    """

    name: str
    provides: str
    requires: tuple[str, ...]
    fn: Callable[[], None]
    kind: str = "task"




def _run_attempt(task: Task, policy: RetryPolicy, tracer=None, span=None) -> None:
    """One attempt, bounded by the policy's deadline if it has one."""
    if policy.block_timeout is None:
        task.fn()
        return
    outcome: list[BaseException] = []
    finished = threading.Event()

    def runner() -> None:
        try:
            # the attempt runs on its own thread: re-activate the task
            # span there so operator points parent correctly
            if tracer is not None and span is not None:
                with tracer.activate(span):
                    task.fn()
            else:
                task.fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome.append(exc)
        finally:
            finished.set()

    worker = threading.Thread(
        target=runner, name=f"attempt-{task.name}", daemon=True
    )
    worker.start()
    if not finished.wait(policy.block_timeout):
        raise BlockTimeout(
            f"block {task.name!r} exceeded its "
            f"{policy.block_timeout:g}s deadline"
        )
    if outcome:
        raise outcome[0]


def _run_with_retries(
    task: Task, policy: RetryPolicy, tracer=None, span=None
) -> RunFailure | None:
    """Attempt ``task`` until success or budget exhaustion."""
    rng = policy.rng_for(task.name)
    start = time.perf_counter()
    attempts = 0
    while True:
        attempts += 1
        try:
            _run_attempt(task, policy, tracer, span)
            if span is not None and attempts > 1:
                span.annotate(attempts=attempts, retried=True)
            return None
        except Exception as exc:  # noqa: BLE001 - classified below
            timed_out = isinstance(exc, BlockTimeout)
            kind = "timeout" if timed_out else policy.classify(exc)
            retryable = kind != "permanent"
            if not retryable or attempts > policy.max_retries:
                return RunFailure(
                    task=task.name,
                    kind=kind,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    attempts=attempts,
                    elapsed=time.perf_counter() - start,
                )
            if tracer is not None:
                tracer.point(
                    "retry",
                    kind="retry",
                    parent=span,
                    attempt=attempts,
                    failure_kind=kind,
                    error=str(exc),
                )
            policy.sleep(policy.backoff(attempts - 1, rng))


def _run_task(
    task: Task,
    policy: RetryPolicy | None,
    tracer=None,
    trace_parent=None,
) -> RunFailure | None:
    """One task, traced when a tracer is armed.

    The span is opened on the calling thread, so it is the thread-local
    parent for everything the task function records.
    """
    if tracer is None:
        if policy is None:
            task.fn()
            return None
        return _run_with_retries(task, policy)
    span = tracer.start(task.name, kind=task.kind, parent=trace_parent)
    try:
        if policy is None:
            task.fn()
            failure = None
        else:
            failure = _run_with_retries(task, policy, tracer, span)
    except BaseException as exc:
        tracer.end(
            span, outcome="error", error=f"{type(exc).__name__}: {exc}"
        )
        raise
    if failure is None:
        tracer.end(span, outcome="ok")
    else:
        tracer.end(
            span,
            outcome=failure.kind,
            error=failure.error,
            attempts=failure.attempts,
        )
    return failure


def _skip_dependents(
    pending: list[Task],
    failed_provides: dict[str, str],
    result: ScheduleResult,
) -> None:
    """Remove (to fixpoint) every pending task downstream of a failure."""
    changed = True
    while changed:
        changed = False
        for task in list(pending):
            bad = tuple(r for r in task.requires if r in failed_provides)
            if bad:
                result.failures[task.name] = RunFailure(
                    task=task.name,
                    kind="skipped",
                    error=(
                        "not run: requirement(s) produced by failed "
                        f"task(s) {sorted({failed_provides[r] for r in bad})}"
                    ),
                    error_type="SkippedTask",
                    attempts=0,
                    elapsed=0.0,
                    missing=bad,
                )
                failed_provides[task.provides] = task.name
                pending.remove(task)
                changed = True


def execute_tasks(
    tasks: Sequence[Task],
    available: Iterable[str] = (),
    policy: RetryPolicy | None = None,
    tracer=None,
    trace_parent=None,
) -> ScheduleResult:
    """Run every task exactly once, honouring ``requires``/``provides``.

    ``available`` seeds the set of already-existing names (the source
    tables).  Task functions perform their own output publication; the
    walk only tracks readiness.

    Without a ``policy`` a task exception propagates to the caller
    unchanged (the historical contract).  With one, failing attempts
    are retried per the policy and the final outcome is captured in
    the returned :class:`ScheduleResult`; tasks whose requirements
    were produced by a failed task are recorded as ``skipped`` and the
    rest of the graph still executes.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records one span
    per task under ``trace_parent``, annotated with outcome, attempts
    and failure details; skipped tasks become instant points.

    Raises :class:`SchedulerError` if some task can never run -- either a
    dependency cycle or a requirement nothing provides.
    """
    if tracer is not None and not tracer.enabled:
        tracer = None
    done = set(available)
    result = ScheduleResult()
    failed_provides: dict[str, str] = {}
    pending = list(tasks)
    while pending:
        if policy is not None:
            _skip_dependents(pending, failed_provides, result)
        progressed = not pending
        for task in list(pending):
            if all(r in done for r in task.requires):
                failure = _run_task(task, policy, tracer, trace_parent)
                if failure is None:
                    done.add(task.provides)
                    result.completed.append(task.name)
                else:
                    result.failures[task.name] = failure
                    failed_provides[task.provides] = task.name
                pending.remove(task)
                progressed = True
        if not progressed:
            raise SchedulerError(
                "task graph deadlocked; remaining tasks: "
                f"{[t.name for t in pending]}"
            )
    if tracer is not None:
        for failure in result.failures.values():
            if failure.kind == "skipped":
                tracer.point(
                    failure.task,
                    kind="skipped",
                    parent=trace_parent,
                    missing=list(failure.missing),
                )
    return result
