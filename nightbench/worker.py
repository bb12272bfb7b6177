"""One repetition of one workload, in its own process.

``run.py`` starts this module several times per run (fresh interpreter,
fresh caches, its own peak RSS) with the scratch directory as working
directory, and reads the one JSON document it prints last.

Untraced: set-up, then timed passes until ``--seconds`` are used.
Traced: a few untraced passes first (the reference for the tracing
overhead), then traced passes, then the workload's extra variants.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

from nightbench.checks import q_error_max
from nightbench.layers import layer_metrics
from nightbench.trace import Tracer
from nightbench.workloads import WORKLOADS


class Recorder:
    """Times operations, tallies the correctness gate, carries the tracer."""

    def __init__(self):
        self.tracer = None  # set while a traced pass runs
        self.first_timed = None  # CLOCK_MONOTONIC at the first timed operation
        #: per pass and leg, the wall of every operation in visiting order
        self.passes: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()
        #: pass index -> PipelineReport fields summed over the pass
        self.counts = defaultdict(lambda: defaultdict(float))
        #: metrics a workload reads itself in the traced run
        self.extras: dict[str, float] = {}
        self._pass: dict = {}

    def begin_pass(self, index, traced: bool) -> None:
        self._pass = {"index": index, "traced": traced,
                      "legs": defaultdict(list)}
        self.passes.append(self._pass)

    def begin_leg(self) -> None:
        """Collect before a leg; GC stays enabled, as users run it."""
        gc.collect()

    def span(self, name: str):
        """A harness-side span around a call into ``repro.framework``."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span("framework", name)

    def timed(self, leg: str, label, fn):
        """Run one operation on the clock.  An exception fails the
        operation and returns ``None``; the pass goes on."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.context = {"pass": self._pass["index"], "leg": leg,
                              "wf": label, "op": self.attempted}
            root = tracer.begin("framework", "op")
        if self.first_timed is None:
            self.first_timed = time.monotonic()
        start = time.perf_counter()
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - the gate counts it, not us
            self._fail(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self._pass["legs"][leg].append(time.perf_counter() - start)
            if tracer is not None:
                tracer.end(root)

    def _fail(self, problem: str) -> None:
        self.failed_ops.add(self.attempted)
        self.failures.append(f"pass {self._pass['index']} op {self.attempted}: {problem}")

    def verify(self, problems: list[str]) -> None:
        """Charge correctness problems to the operation just timed."""
        for problem in problems:
            self._fail(problem)

    def count_report(self, report, warm_catalog: bool = False) -> None:
        """Boundary counts read from a ``PipelineReport`` (traced run);
        ``warm_catalog`` marks a night that should find every statistic."""
        if self.tracer is None:
            return
        counts = self.counts[self._pass["index"]]
        counts["catalog_hits"] += report.catalog_hits
        counts["tapped"] += len(report.tapped)
        counts["tapped_warm"] += len(report.tapped) if warm_catalog else 0
        counts["plan_cache_hits"] += report.plan_cache_hits
        counts["plan_cache_misses"] += report.plan_cache_misses
        counts["failovers"] += report.catalog_failovers
        counts["degraded"] += bool(report.catalog_degraded)
        counts["q_error_max"] = max(counts["q_error_max"], q_error_max(report))
        counts["shard_tasks"] += report.shard_stats.get("tasks", 0)
        counts["shard_retries"] += report.shard_stats.get("retries", 0)


def run_passes(workload, rec, seconds: float, first_index: int,
               tracer=None, at_least: int = 1) -> int:
    """Passes while under ``seconds`` (so the last one runs over), and
    ``at_least`` so many.  Returns the next pass index."""
    index = first_index
    start = time.perf_counter()
    while True:
        rec.begin_pass(index, traced=tracer is not None)
        rec.tracer = tracer
        try:
            workload.run_pass(index)
        finally:
            rec.tracer = None
        index += 1
        done = index - first_index
        if done >= at_least and time.perf_counter() - start >= seconds:
            return index


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC when run.py spawned this process")
    parser.add_argument("--spans", help="append the span list here (JSON lines)")
    args = parser.parse_args(argv)

    rec = Recorder()
    workload = WORKLOADS[args.workload](rec, args.seed, args.quick)
    result: dict = {}
    try:
        workload.setup()
        if args.quick:
            args.seconds = 0.0  # one pass of each kind
        if not args.trace:
            # two samples of every operation even when a slow spell makes
            # one pass outlast the budget: the fastest-sample estimator
            # must not lose half its draws exactly when the box is noisy
            run_passes(workload, rec, args.seconds, 0,
                       at_least=1 if args.quick else 2)
        else:
            tracer = Tracer()
            first_traced = run_passes(workload, rec, args.seconds * 0.3, 0)
            tracer.install()
            try:
                end = run_passes(workload, rec, args.seconds * 0.5,
                                 first_traced, tracer)
                rec.begin_pass("extras", traced=True)
                rec.tracer = tracer
                workload.run_extras()
                rec.tracer = None
            finally:
                tracer.uninstall()
            metrics, shares = layer_metrics(
                tracer.spans, rec.counts, range(first_traced, end))
            metrics.update(rec.extras)
            metrics["workloads.datagen_s"] = workload.datagen_s
            metrics["workloads.rows"] = workload.rows
            result["layers"] = metrics
            result["layer_shares"] = shares
            if args.spans:
                with open(args.spans, "a") as handle:
                    for span in tracer.spans:
                        handle.write(json.dumps(
                            {"workload": args.workload, **span}) + "\n")
    finally:
        workload.close()

    result.update(
        setup_s=rec.first_timed - args.t0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=rec.attempted,
        failed=len(rec.failed_ops),
        failures=rec.failures[:20],
        passes=[
            {"traced": p["traced"], **{leg: p["legs"][leg] for leg in ("leg1", "leg2")}}
            for p in rec.passes if p["index"] != "extras"
        ],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
