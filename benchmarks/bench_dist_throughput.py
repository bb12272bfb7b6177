"""Scaling bench: multiprocess sharded execution vs the in-process engines.

The multiprocess backend exists to buy wall-clock throughput that the GIL
denies the thread-pool scheduler: each block's spine is cut into row
shards executed by forked worker processes over shared-memory inputs, and
the per-shard tap observations merge back exactly.  This bench measures
what that buys on the repo's actual workload -- an *instrumented*
observation night: every run executes wf21 (the suite's largest
single-block workload, an 8-way join) with taps armed for the
greedy-selected statistics, exactly what a nightly session runs.

Sharding is an engine-vs-itself claim: the shard workers run the same
columnar block path the serial reference runs.  Measured per
configuration:

- rows/second for each single-process backend (columnar, streaming,
  vectorized) at one data scale;
- rows/second for the multiprocess backend at 1, 2 and 4 shards over a
  *warm* pool (the steady-state of a nightly session; the first run pays
  the fork + ping, later runs reuse the pool and the workers' plan
  caches).

What to expect: the block runtime moves ~1M source rows/second in one
process, so at this scale a block is ~0.15 s of work and the
shard-and-merge tax (slice copies, result shipping through pickles,
observation merge) is of the same order -- on a 2-core box the sharded
runs are *slower* than the serial reference (0.5-0.75x measured).  The
2x-at-4-shards floor this bench once asserted held only against the
row-at-a-time interpreter that no longer exists, so it is gone; what is
asserted is that adding shards never loses badly to one shard.  The
bench still *calibrates* the box (``os.cpu_count`` is a poor proxy: SMT
siblings and cgroup quotas both inflate it) by timing the same
pure-Python spin work serially and across 4 forked workers, and reports
that next to the table so files from different boxes compare.

Alongside the markdown artifact this bench emits
``results/dist_throughput.json`` for downstream tooling.
"""

import gc
import json
import time
from concurrent.futures import ProcessPoolExecutor

from conftest import DATA_SCALE, single_process_backends, write_report

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor, get_backend
from repro.engine.dist import MultiprocessBackend
from repro.workloads import case

WORKFLOW = 21  # largest single-block workload: 8-way join
SHARD_COUNTS = (1, 2, 4)
SCALE = max(DATA_SCALE * 100, 30.0)
REPEATS = 3


def _spin(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def _measured_parallelism(work=2_000_000, workers=4):
    """Speedup 4 forked workers achieve on pure-Python spin work.

    This is what the box can actually hand the shard pool -- SMT
    siblings typically deliver ~1.2x per physical core, not 2x, and
    cgroup CPU quotas can cap well below ``os.cpu_count()``.
    """
    jobs = [work] * workers
    t0 = time.perf_counter()
    for n in jobs:
        _spin(n)
    serial = time.perf_counter() - t0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_spin, [1] * workers))  # pay the fork outside timing
        t0 = time.perf_counter()
        list(pool.map(_spin, jobs))
        parallel = time.perf_counter() - t0
    return max(serial / parallel, 1.0)


def _best_wall(run, repeats=REPEATS):
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


def _measure():
    wfcase = case(WORKFLOW)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    # the greedy-selected statistics of the paper pipeline: every timed
    # run observes these inline, like a real observation night
    selection = solve_greedy(
        build_problem(generate_css(analysis), CostModel(workflow.catalog))
    )
    stats = selection.observed
    sources = wfcase.tables(scale=SCALE, seed=7)
    n_rows = sum(t.num_rows for t in sources.values())

    rows, records = [], []

    def add(label, shards, wall, baseline):
        rows.append(
            [
                f"wf{WORKFLOW}@{SCALE:g}",
                n_rows,
                label,
                shards if shards else "-",
                round(wall * 1e3, 1),
                round(n_rows / wall),
                round(baseline / wall, 2) if baseline else 1.0,
            ]
        )
        records.append(
            {
                "workflow": WORKFLOW,
                "scale": SCALE,
                "source_rows": n_rows,
                "backend": label,
                "shards": shards,
                "wall_s": wall,
                "rows_per_s": n_rows / wall,
                "speedup_vs_columnar": (baseline / wall) if baseline else 1.0,
            }
        )

    baseline = None
    for name in single_process_backends():
        backend = get_backend(name)
        executor = BackendExecutor(analysis, backend)
        wall = _best_wall(
            lambda: executor.run(sources, taps=backend.make_taps(stats))
        )
        if name == "columnar":
            baseline = wall
        add(name, None, wall, baseline if name != "columnar" else None)

    for shards in SHARD_COUNTS:
        backend = MultiprocessBackend(shards=shards, inline=False)
        try:
            executor = BackendExecutor(analysis, backend)
            # pay the fork + pool ping once, outside the timed repeats
            executor.run(sources, taps=backend.make_taps(stats))
            wall = _best_wall(
                lambda: executor.run(sources, taps=backend.make_taps(stats))
            )
        finally:
            backend.close()
        add("multiprocess", shards, wall, baseline)

    return rows, records, _measured_parallelism()


def test_dist_throughput(benchmark, results_dir):
    rows, records, parallelism = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    write_report(
        results_dir,
        "dist_throughput",
        f"Sharded multiprocess throughput (wf{WORKFLOW}, instrumented "
        "runs, warm pool; measured 4-way parallelism "
        f"{parallelism:.2f}x)",
        ["workload", "source rows", "backend", "shards", "best wall ms",
         "rows/s", "x columnar"],
        rows,
    )
    (results_dir / "dist_throughput.json").write_text(
        json.dumps(
            {
                "dist_throughput": records,
                "measured_parallelism": parallelism,
            },
            indent=2,
        )
        + "\n"
    )

    by_shards = {
        r["shards"]: r for r in records if r["backend"] == "multiprocess"
    }
    # sharding must never *lose* to its own single-shard configuration by
    # more than dispatch noise, even on a small box
    assert by_shards[2]["wall_s"] <= by_shards[1]["wall_s"] * 1.5
    assert by_shards[4]["wall_s"] <= by_shards[1]["wall_s"] * 1.5
