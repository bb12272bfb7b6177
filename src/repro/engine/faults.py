"""Deterministic fault injection for chaos-testing the nightly run.

The paper's Section 1 premise -- ETL sources are flat files and foreign
DBMSs *outside the engine's control* -- is exactly the part of the system
that fails in production: a source goes away mid-extract, a file arrives
truncated, a remote join stalls.  To make every such failure mode testable
(and the recovery machinery in :mod:`repro.engine.scheduler` and
:mod:`repro.framework.recovery` provable), this module injects faults
*deterministically* from a seeded plan:

- :class:`FaultSpec` -- one fault: raise a transient or permanent error,
  delay a block (to trip the scheduler's deadline), truncate a source
  table (the short-file case), or poison source *data*: ``corrupt-row``
  (a sentinel garbage value), ``type-flip`` (values arrive stringified),
  ``null-burst`` (values arrive null) and ``column-rename`` (a column
  arrives under another name) -- the dirty-extract cases the quality gate
  (:mod:`repro.quality`) exists to absorb;
- :class:`FaultPlan` -- a seeded collection of specs, JSON round-trippable
  so chaos runs are reproducible from a ``--faults spec.json`` file;
- :class:`FaultInjector` -- per-run stateful form: wraps scheduler tasks
  so matching faults fire at block-attempt boundaries, and filters the
  source map for truncations.  Attempt counting is per *task*, which is
  what makes ``{"kind": "transient", "times": 2}`` mean "the first two
  attempts fail, the third succeeds" -- the retry loop converges.

Faults raised here self-classify through the ``transient`` attribute that
:func:`repro.engine.scheduler.classify_error` duck-types on, so the
injected errors travel the same triage path as real I/O failures.
"""

from __future__ import annotations

import json
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Sequence

from repro.engine.scheduler import Task
from repro.engine.table import Table

FAULT_KINDS = (
    "transient",
    "permanent",
    "delay",
    "truncate",
    # dirty-data injectors: mutate source tables instead of raising, so the
    # quality gate (repro.quality) can be chaos-tested end to end
    "corrupt-row",
    "type-flip",
    "column-rename",
    "null-burst",
    # catalog-server injectors: fired per client *request* (never in-task),
    # so the CatalogClient's retry/breaker/degradation path is chaos-testable
    "server-kill",
    "server-hang",
    "net-flap",
    # shard-worker injectors: consulted by sharding backends at shard
    # dispatch (``on_shard``), so a worker process dying or hanging mid-run
    # exercises the pool-recovery and shard-retry path
    "worker-kill",
    "worker-hang",
)

#: kinds raised (or slept) inside a task attempt
_TASK_KINDS = ("transient", "permanent", "delay")

#: kinds applied to the source map before execution (never raised in-task)
_SOURCE_KINDS = ("truncate", "corrupt-row", "type-flip", "column-rename", "null-burst")

#: kinds fired at catalog-client request boundaries (see ``on_request``)
_SERVER_KINDS = ("server-kill", "server-hang", "net-flap")

#: kinds fired at shard dispatch inside a sharding backend (see ``on_shard``)
_SHARD_KINDS = ("worker-kill", "worker-hang")

#: source kinds that poison individual rows (need ``fraction`` or ``rows``)
_DIRTY_ROW_KINDS = ("corrupt-row", "type-flip", "null-burst")

#: the value a corrupt-row fault writes; fails any typed or domain check
CORRUPT_SENTINEL = "__CORRUPT__"


class FaultError(ValueError):
    """Raised for malformed fault plans (not by injected faults)."""


class InjectedFault(RuntimeError):
    """Base class of errors the injector raises inside a wrapped task."""

    transient = False


class TransientFault(InjectedFault):
    """An injected error that a retry may outlive (network blip, lock)."""

    transient = True


class PermanentFault(InjectedFault):
    """An injected error no retry heals (missing file, schema break)."""

    transient = False


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault.

    ``target`` matches a block name (``"B2"``), a source/environment name
    (``"customers"``), or a glob over either (``"B*"``); a source-targeted
    error fires in every block that consumes that source, modelling a
    failed source load.  ``times`` bounds how many attempts (per task) the
    fault fires on -- ``None`` means every attempt for ``permanent`` and
    ``delay`` faults and exactly once for ``transient`` ones, so the
    default transient fault is survivable with a single retry.
    ``probability`` gates each firing on the plan's seeded RNG.
    """

    target: str
    kind: str
    times: int | None = None
    probability: float = 1.0
    delay: float = 0.0
    keep: float | None = None  # truncate: fraction of rows kept
    rows: int | None = None  # truncate: rows kept; dirty kinds: rows poisoned
    column: str | None = None  # dirty kinds: the column to poison/rename
    fraction: float | None = None  # dirty row kinds: fraction of rows poisoned
    rename_to: str | None = None  # column-rename: the arriving column name
    shard: int | None = None  # worker kinds: the shard index hit (default 0)
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not self.target:
            raise FaultError("a fault spec needs a target")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError(f"probability must be in [0, 1], got {self.probability}")
        if self.kind == "truncate" and self.keep is None and self.rows is None:
            raise FaultError("a truncate fault needs 'keep' (fraction) or 'rows'")
        if self.keep is not None and not 0.0 <= self.keep <= 1.0:
            raise FaultError(f"keep must be in [0, 1], got {self.keep}")
        if self.delay < 0:
            raise FaultError(f"delay must be >= 0, got {self.delay}")
        if self.kind in _DIRTY_ROW_KINDS:
            if self.fraction is None and self.rows is None:
                raise FaultError(
                    f"a {self.kind} fault needs 'fraction' (of rows) or 'rows'"
                )
        elif self.fraction is not None:
            raise FaultError(f"'fraction' only applies to {_DIRTY_ROW_KINDS}")
        if self.fraction is not None and not 0.0 <= self.fraction <= 1.0:
            raise FaultError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.kind == "column-rename" and not self.column:
            raise FaultError("a column-rename fault needs 'column'")
        if self.rename_to is not None and self.kind != "column-rename":
            raise FaultError("'rename_to' only applies to column-rename faults")
        if self.shard is not None:
            if self.kind not in _SHARD_KINDS:
                raise FaultError(f"'shard' only applies to {_SHARD_KINDS}")
            if self.shard < 0:
                raise FaultError(f"shard must be >= 0, got {self.shard}")

    def matches(self, name: str) -> bool:
        return fnmatchcase(name, self.target)

    @property
    def fire_limit(self) -> int | None:
        """Attempts (per task) this fault fires on; ``None`` = unbounded."""
        if self.times is not None:
            return self.times
        # a lone network flap, like a lone transient, should be outlived
        # by a single retry; a killed server stays dead until restarted.
        # a killed/hung worker is *replaced* by the pool, so its default
        # budget is one firing
        if self.kind in ("transient", "net-flap", "worker-kill", "worker-hang"):
            return 1
        return None

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultSpec":
        if not isinstance(doc, dict):
            raise FaultError(f"fault spec must be an object, got {doc!r}")
        unknown = set(doc) - {
            "target", "kind", "times", "probability", "delay",
            "keep", "rows", "column", "fraction", "rename_to", "shard",
            "message",
        }
        if unknown:
            raise FaultError(f"unknown fault spec field(s): {sorted(unknown)}")
        try:
            return cls(
                target=doc["target"],
                kind=doc["kind"],
                times=doc.get("times"),
                probability=doc.get("probability", 1.0),
                delay=doc.get("delay", 0.0),
                keep=doc.get("keep"),
                rows=doc.get("rows"),
                column=doc.get("column"),
                fraction=doc.get("fraction"),
                rename_to=doc.get("rename_to"),
                shard=doc.get("shard"),
                message=doc.get("message", ""),
            )
        except KeyError as exc:
            raise FaultError(f"fault spec missing required field {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of faults for one chaos run."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def injector(self) -> "FaultInjector":
        """Fresh per-run injector (attempt counters start at zero)."""
        return FaultInjector(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise FaultError(f"fault plan must be a JSON object, got {doc!r}")
        faults = doc.get("faults", [])
        if not isinstance(faults, list):
            raise FaultError("'faults' must be a list of fault specs")
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in faults),
            seed=int(doc.get("seed", 0)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise FaultError(f"cannot read fault plan {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired, for run forensics."""

    task: str
    target: str
    kind: str
    attempt: int


class FaultInjector:
    """Per-run fault state: wraps tasks and filters sources.

    Thread-safe: attempt counters and the seeded RNG sit behind a lock so
    concurrently retrying blocks draw a deterministic *set* of outcomes
    (the per-(spec, task) counters are independent of interleaving;
    probabilistic draws use a per-(spec, task) RNG for the same reason).
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._fired: Counter = Counter()  # (spec index, task name) -> firings
        self._attempts: Counter = Counter()  # task name -> attempts seen
        self._rngs: dict[tuple[int, str], random.Random] = {}
        self.events: list[FaultEvent] = []
        #: rows poisoned per source (indices into the table as it reached
        #: the spec) -- the chaos suite asserts the quality gate quarantines
        #: *exactly* these rows
        self.dirty_rows: dict[str, set[int]] = {}

    # ------------------------------------------------------------------
    def apply_sources(self, sources: dict[str, Table]) -> dict[str, Table]:
        """Apply source faults: truncations and dirty-data mutations.

        Specs apply in plan order, each seeing its predecessors' output.
        Dirty-row kinds draw their victim rows from a deterministic
        per-(spec, source) RNG, so the same plan poisons the same rows on
        every backend and every retry of the run.
        """
        out = dict(sources)
        for index, spec in enumerate(self.plan.specs):
            if spec.kind not in _SOURCE_KINDS:
                continue
            for name in sources:
                if not spec.matches(name):
                    continue
                table = out[name]
                if spec.kind == "truncate":
                    if spec.rows is not None:
                        kept = spec.rows
                    else:
                        kept = int(table.num_rows * spec.keep)
                    kept = max(0, min(kept, table.num_rows))
                    out[name] = table.take(range(kept))
                elif spec.kind == "column-rename":
                    if not table.has_column(spec.column):
                        continue
                    arrived_as = spec.rename_to or f"{spec.column}_v2"
                    out[name] = table.rename_columns({spec.column: arrived_as})
                else:
                    poisoned = self._poison_rows(index, spec, name, table)
                    if poisoned is None:
                        continue
                    out[name] = poisoned
                with self._lock:
                    self._fired[(index, name)] += 1
                    self.events.append(
                        FaultEvent(task=name, target=spec.target, kind=spec.kind,
                                   attempt=1)
                    )
        return out

    def _poison_rows(
        self, index: int, spec: FaultSpec, name: str, table: Table
    ) -> Table | None:
        """One dirty-row mutation; returns ``None`` on an empty table."""
        n = table.num_rows
        if n == 0:
            return None
        if spec.rows is not None:
            count = max(0, min(spec.rows, n))
        else:
            count = min(n, max(1, round(spec.fraction * n)))
        if count == 0:
            return None
        rng = random.Random(f"{self.plan.seed}:{index}:{name}")
        victims = sorted(rng.sample(range(n), count))
        column = (
            spec.column
            if spec.column and table.has_column(spec.column)
            else table.attrs[0]
        )
        values = list(table.column(column))
        for i in victims:
            values[i] = _dirty_value(spec.kind, values[i])
        with self._lock:
            self.dirty_rows.setdefault(name, set()).update(victims)
        return table.with_column(column, values)

    def wrap(self, task: Task) -> Task:
        """A task that consults the plan at the start of every attempt."""
        scopes = (task.name, *task.requires)

        def fn() -> None:
            self.on_attempt(task.name, scopes)
            task.fn()

        return Task(
            name=task.name,
            provides=task.provides,
            requires=task.requires,
            fn=fn,
            kind=task.kind,
        )

    def wrap_tasks(self, tasks: Sequence[Task]) -> list[Task]:
        return [self.wrap(t) for t in tasks]

    # ------------------------------------------------------------------
    def on_attempt(self, task_name: str, scopes: Sequence[str]) -> None:
        """Fire matching faults for one attempt of ``task_name``.

        ``scopes`` are the names a fault may match: the task itself plus
        its requirements, so a fault on source ``customers`` surfaces as a
        load error inside every block that reads ``customers``.
        """
        pause = 0.0
        raised: InjectedFault | None = None
        with self._lock:
            self._attempts[task_name] += 1
            for index, spec in enumerate(self.plan.specs):
                if spec.kind not in _TASK_KINDS:
                    continue
                scope = next((s for s in scopes if spec.matches(s)), None)
                if scope is None:
                    continue
                if not self._draw(index, spec, task_name, task_name):
                    continue
                if spec.kind == "delay":
                    pause += spec.delay
                    continue
                message = spec.message or (
                    f"injected {spec.kind} fault on {scope!r} "
                    f"(attempt {self._attempts[task_name]} of {task_name!r})"
                )
                exc_type = TransientFault if spec.kind == "transient" else PermanentFault
                raised = exc_type(message)
                break  # first raising fault wins; later specs keep their budget
        if pause:
            time.sleep(pause)
        if raised is not None:
            raise raised

    def _draw(
        self, index: int, spec: FaultSpec, fire_key: str, attempt_key: str | None = None
    ) -> bool:
        """Does spec ``index`` fire on ``fire_key`` now?  (Lock held.)

        The budget draw every hook shares: the fire limit, the seeded
        per-(spec, key) probability draw, the ``_fired`` bump and the
        :class:`FaultEvent`.  ``attempt_key`` names the hook's own attempt
        counter; without one the event numbers the firings on ``fire_key``
        (a shard dispatch no fault touches is not an attempt).
        """
        key = (index, fire_key)
        limit = spec.fire_limit
        if limit is not None and self._fired[key] >= limit:
            return False
        if spec.probability < 1.0:
            rng = self._rngs.setdefault(
                key, random.Random(f"{self.plan.seed}:{index}:{fire_key}")
            )
            if rng.random() >= spec.probability:
                return False
        self._fired[key] += 1
        if attempt_key is None:
            attempt_key = fire_key
            self._attempts[fire_key] += 1
        self.events.append(
            FaultEvent(
                task=fire_key,
                target=spec.target,
                kind=spec.kind,
                attempt=self._attempts[attempt_key],
            )
        )
        return True

    def on_request(self, name: str) -> None:
        """Fire matching *server* faults for one catalog-client request.

        ``name`` is the request route (``"/put"``); specs match it by glob
        (``"*"`` for "the whole server").  Semantics mirror the failure
        they model: ``server-kill`` raises a permanent connection error on
        every request until the spec's budget runs out (a dead server does
        not heal by retrying), ``server-hang`` sleeps ``delay`` seconds
        and then times out transiently, ``net-flap`` raises one transient
        error a single retry outlives.
        """
        pause = 0.0
        raised: InjectedFault | None = None
        request_key = f"request:{name}"
        with self._lock:
            self._attempts[request_key] += 1
            for index, spec in enumerate(self.plan.specs):
                if spec.kind not in _SERVER_KINDS or not spec.matches(name):
                    continue
                if not self._draw(index, spec, request_key, request_key):
                    continue
                message = spec.message or (
                    f"injected {spec.kind} fault on catalog request {name!r}"
                )
                if spec.kind == "server-hang":
                    pause += spec.delay
                    raised = TransientFault(message)
                elif spec.kind == "net-flap":
                    raised = TransientFault(message)
                else:  # server-kill
                    raised = PermanentFault(message)
                break
        if pause:
            time.sleep(pause)
        if raised is not None:
            raise raised

    def on_shard(self, block_name: str, shard: int) -> "FaultSpec | None":
        """The worker fault (if any) to apply to one shard dispatch.

        Consulted by sharding backends in the *parent* right before a
        shard task is submitted; the returned spec's kind tells the worker
        what to do to itself (``worker-kill`` -> die abruptly,
        ``worker-hang`` -> stall for ``delay`` seconds).  Matching is by
        block name (glob) plus the spec's ``shard`` index (default 0);
        budgets and probability draws mirror :meth:`on_attempt`, keyed per
        (spec, block) so a retried shard consults the remaining budget --
        which is what makes a default worker-kill survivable by a single
        shard retry.
        """
        shard_key = f"{block_name}#shard{shard}"
        with self._lock:
            for index, spec in enumerate(self.plan.specs):
                if spec.kind not in _SHARD_KINDS:
                    continue
                if not spec.matches(block_name):
                    continue
                if (spec.shard if spec.shard is not None else 0) != shard:
                    continue
                if self._draw(index, spec, shard_key):
                    return spec
        return None


def _dirty_value(kind: str, value):
    """The mutation each dirty-row kind applies to one victim value."""
    if kind == "null-burst":
        return None
    if kind == "corrupt-row":
        return CORRUPT_SENTINEL
    # type-flip: numbers (and None) arrive stringified; strings arrive as 0
    if isinstance(value, str):
        return 0
    return str(value)


def as_injector(faults: "FaultPlan | FaultInjector | None") -> FaultInjector | None:
    """Normalize the ``faults=`` argument executors accept."""
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return faults.injector()
    raise FaultError(f"expected a FaultPlan or FaultInjector, got {faults!r}")


__all__ = [
    "CORRUPT_SENTINEL",
    "FAULT_KINDS",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "PermanentFault",
    "TransientFault",
    "as_injector",
]
