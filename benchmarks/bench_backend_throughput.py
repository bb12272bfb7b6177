"""Ablation: execution-backend throughput and parallel-scheduler scaling.

The pluggable :class:`~repro.engine.backend.ExecutionBackend` layer claims
that statistics identification is engine-independent while engines differ
in *cost*.  This bench measures the real constants:

- **throughput**: source rows/second for each backend on wf21, the
  suite's largest single-block workload (8-way join), at increasing data
  scales.  The backends are profiles of one runtime, so the spread is
  the price of a profile: the reference gather rung (columnar) versus
  the best one (vectorized), whole columns versus bounded chunks
  (streaming).  No ordering is asserted: on this FK-lookup-heavy block
  most joins pass their probe side through untouched, so the gather rung
  moves few rows and the profiles land within 2x of each other.
- **scheduler scaling**: wall time of wf25 (three blocks, two of them
  independent) under the parallel block scheduler at 1/2/4 workers.  The
  scheduler overlaps independent blocks on a thread pool; with CPU-bound
  pure-Python kernels under the GIL on a small box the win is bounded, so
  the shape to reproduce is "no slowdown, modest overlap" -- the numbers
  calibrate what a multi-core / GIL-free runtime could recover.

Alongside the markdown artifact this bench emits
``results/backend_throughput.json`` so downstream tooling can consume the
measured factors without scraping tables.
"""

import gc
import json
import time

from conftest import DATA_SCALE, single_process_backends, write_report

from repro.algebra.blocks import analyze
from repro.engine.backend import BackendExecutor
from repro.workloads import case

THROUGHPUT_WORKFLOW = 21  # largest single-block workload: 8-way join
SCHEDULER_WORKFLOW = 25  # multi_target: 3 blocks, 2 independent
SCALES = (1.0, 4.0, 10.0)
WORKER_COUNTS = (1, 2, 4)
REPEATS = 3


def _best_wall(analysis, backend, sources, workers=1):
    # one executor across repeats: the plan cache warms on the first
    # repeat, so "best wall" reports the steady state
    executor = BackendExecutor(analysis, backend, workers=workers)
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()  # collection pauses otherwise dominate run-to-run noise
    try:
        for _ in range(REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            executor.run(sources)
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


def _throughput():
    wfcase = case(THROUGHPUT_WORKFLOW)
    analysis = analyze(wfcase.build())
    rows = []
    records = []
    for scale in SCALES:
        sources = wfcase.tables(scale=scale, seed=7)
        n_rows = sum(t.num_rows for t in sources.values())
        walls = {
            b: _best_wall(analysis, b, sources)
            for b in single_process_backends()
        }
        baseline = walls["columnar"]
        for backend, wall in walls.items():
            rows.append(
                [
                    f"wf{THROUGHPUT_WORKFLOW}@{scale:g}",
                    n_rows,
                    backend,
                    round(wall * 1e3, 1),
                    round(n_rows / wall),
                    round(baseline / wall, 2),
                ]
            )
            records.append(
                {
                    "workflow": THROUGHPUT_WORKFLOW,
                    "scale": scale,
                    "source_rows": n_rows,
                    "backend": backend,
                    "wall_s": wall,
                    "rows_per_s": n_rows / wall,
                    "speedup_vs_columnar": baseline / wall,
                }
            )
    return rows, records


def _scheduler_scaling():
    wfcase = case(SCHEDULER_WORKFLOW)
    analysis = analyze(wfcase.build())
    # big enough that per-block work dwarfs thread-pool setup: the point
    # is scheduling overhead, and overhead only shows against real work
    sources = wfcase.tables(scale=max(DATA_SCALE * 100, 30.0), seed=7)
    rows = []
    records = []
    serial = None
    for workers in WORKER_COUNTS:
        wall = _best_wall(analysis, "vectorized", sources, workers=workers)
        if serial is None:
            serial = wall
        rows.append(
            [
                f"wf{SCHEDULER_WORKFLOW}",
                "vectorized",
                workers,
                round(wall * 1e3, 1),
                round(serial / wall, 2),
            ]
        )
        records.append(
            {
                "workflow": SCHEDULER_WORKFLOW,
                "backend": "vectorized",
                "workers": workers,
                "wall_s": wall,
                "speedup_vs_serial": serial / wall,
            }
        )
    return rows, records


def test_backend_throughput(benchmark, results_dir):
    (tp_rows, tp_records), (sc_rows, sc_records) = benchmark.pedantic(
        lambda: (_throughput(), _scheduler_scaling()), rounds=1, iterations=1
    )
    write_report(
        results_dir,
        "backend_throughput",
        f"Backend throughput (wf{THROUGHPUT_WORKFLOW}) and scheduler "
        f"scaling (wf{SCHEDULER_WORKFLOW})",
        ["workload", "source rows", "backend", "best wall ms",
         "rows/s", "x columnar"],
        tp_rows,
    )
    write_report(
        results_dir,
        "backend_scheduler_scaling",
        f"Parallel block-scheduler scaling (wf{SCHEDULER_WORKFLOW}, "
        "vectorized backend)",
        ["workload", "backend", "workers", "best wall ms", "x serial"],
        sc_rows,
    )
    (results_dir / "backend_throughput.json").write_text(
        json.dumps(
            {"throughput": tp_records, "scheduler_scaling": sc_records},
            indent=2,
        )
        + "\n"
    )

    # the parallel scheduler must never make multi-block workflows slower
    # than serial by more than scheduling noise (GIL bounds the upside)
    for r in sc_records:
        assert r["speedup_vs_serial"] > 0.7, r
