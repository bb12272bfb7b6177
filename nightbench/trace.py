"""Per-layer spans taken from outside ``src/``.

For the length of a traced run, every ``repro.*`` module global and class
attribute bound to one of the public callables in :data:`TARGETS` is
rebound to a wrapper that records a span -- name, layer, start, end,
parent span and the harness context (pass, leg, workflow) -- on an
in-memory, stack-parented list.  Counts are read at the same boundaries
from arguments and return values.  Nothing under ``src/`` is edited and
:meth:`Tracer.uninstall` restores every binding.

Spans only nest under a root span the harness opens around one operation;
a wrapped call made outside an operation (a correctness check re-reading
``all_cardinalities()``, say) passes straight through.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class TraceTargetMissing(RuntimeError):
    """A listed callable no longer exists: fix the table, do not skip."""


@dataclass(frozen=True)
class Target:
    layer: str
    name: str
    module: str
    qualname: str  # "function" or "Class.method"
    #: (args, kwargs, result) -> counts stored on the span
    note: "Callable | None" = None


def _rows(sources) -> int:
    return sum(table.num_rows for table in sources.values())


def _lookup_note(args, kwargs, hits):
    return {"asked": len(args[2]), "hits": len(hits)}


def _save_note(args, kwargs, _result):
    catalog = args[0]
    target = (args[1] if len(args) > 1 else kwargs.get("path")) or catalog.path
    return {"entries": len(catalog.entries), "bytes": os.path.getsize(target)}


def _taps_note(args, kwargs, _result):
    return {"taps": len(args[1]) if len(args) > 1 else 0}


#: the fixed wrapper table: one row per public callable at a layer boundary
TARGETS: tuple[Target, ...] = (
    Target("algebra", "analyze", "repro.algebra.blocks", "analyze",
           lambda a, k, r: {"blocks": len(r.blocks)}),
    Target("algebra", "with_plans", "repro.algebra.blocks", "with_plans"),
    Target("core", "generate_css", "repro.core.generator", "generate_css",
           lambda a, k, r: r.counts()),
    Target("core", "build_problem", "repro.core.selection", "build_problem"),
    Target("core", "solve_ilp", "repro.core.ilp", "solve_ilp",
           lambda a, k, r: {"method": r.method, "cost": r.total_cost}),
    Target("core", "solve_greedy", "repro.core.greedy", "solve_greedy",
           lambda a, k, r: {"cost": r.total_cost}),
    Target("engine", "run", "repro.engine.backend", "BackendExecutor.run",
           lambda a, k, r: {"backend": a[0].backend.name, "rows": _rows(a[1])}),
    Target("engine", "make_taps", "repro.engine.executor",
           "ColumnarBackend.make_taps", _taps_note),
    Target("engine", "make_taps", "repro.engine.streaming",
           "StreamingBackend.make_taps", _taps_note),
    Target("engine", "make_taps", "repro.engine.dist.backend",
           "MultiprocessBackend.make_taps", _taps_note),
    Target("estimation", "estimate", "repro.estimation.estimator",
           "CardinalityEstimator.__init__"),
    Target("estimation", "estimate", "repro.estimation.estimator",
           "CardinalityEstimator.all_cardinalities"),
    Target("estimation", "optimize", "repro.estimation.optimizer",
           "PlanOptimizer.optimize",
           lambda a, k, r: {"improved": sum(p.improved for p in r.values())}),
    Target("catalog", "sign", "repro.catalog.signatures",
           "WorkflowSigner.__init__"),
    Target("catalog", "open", "repro.catalog.store", "StatisticsCatalog.open"),
    Target("catalog", "lookup", "repro.catalog.store",
           "StatisticsCatalog.lookup", _lookup_note),
    Target("catalog", "save", "repro.catalog.store", "StatisticsCatalog.save",
           _save_note),
    Target("catalog", "reconcile", "repro.catalog.drift", "reconcile_run"),
    Target("serve", "connect", "repro.serve.client", "resolve_stats_catalog"),
    Target("serve", "lookup", "repro.serve.client", "CatalogClient.lookup",
           _lookup_note),
    Target("serve", "flush", "repro.serve.client", "CatalogClient.save"),
    Target("serve", "connect", "repro.serve.client", "CatalogClient.close"),
)


def resolve(target: Target):
    """(owner, attribute name, raw attribute) of one table row.

    A method must be defined on the named class itself, so a rename or a
    move up the hierarchy is a hard error rather than a silent skip.
    """
    try:
        module = importlib.import_module(target.module)
        owner = module
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, vars(owner)[attr]
    except (ImportError, AttributeError, KeyError) as exc:
        raise TraceTargetMissing(
            f"{target.module}.{target.qualname}: {exc!r}"
        ) from exc


class Tracer:
    """In-memory span list with stack parenting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        #: harness context copied onto every span (pass, leg, wf)
        self.context: dict = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------
    def begin(self, layer: str, name: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "id": index,
            "parent": self._stack[-1] if self._stack else None,
            "layer": layer,
            "name": name,
            **self.context,
            "start": self.clock(),
            "end": None,
        })
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        index = self.begin(layer, name)
        try:
            yield index
        finally:
            self.end(index)

    # -- rebinding -----------------------------------------------------
    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside any operation: not ours to time
                return fn(*args, **kwargs)
            index = self.begin(target.layer, target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if target.note is not None:
                self.spans[index]["notes"] = target.note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every table row; a missing row raises before any rebind."""
        resolved = [(target, *resolve(target)) for target in TARGETS]
        for target, owner, attr, raw in resolved:
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(target, raw.__func__))
            else:
                replacement = self._wrap(target, raw)
            holders = [(owner, attr)]
            if not isinstance(owner, type):
                # ``from x import f`` copies: every repro module global
                # still bound to the original function
                for name, module in list(sys.modules.items()):
                    if module is None or module is owner:
                        continue
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    holders += [
                        (module, key)
                        for key, value in vars(module).items()
                        if value is raw
                    ]
            for holder, key in holders:
                self._undo.append((holder, key, vars(holder)[key]))
                setattr(holder, key, replacement)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children of one parent never overlap (the tracer is a stack), so the
    covered part is the plain sum of the direct children's durations.
    """
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own
