"""The block runtime's lowering cost and plan-cache behaviour.

Every block runs as a lowered program: the algebra DAG becomes a
physical-operator IR, select/project/transform chains fuse into
whole-column kernels, and the result is cached under the workflow's
structural signature.  This bench measures the two claims about that
step on wf21 (the 8-way-join block), per backend:

- **lowering is cheap**: the one-time lowering cost is a small fraction
  of a single run, so a cold run (lowering included in the wall) is
  within noise of a warm one;
- **cache**: the warm run reports zero misses -- recurring loads (the
  paper's premise: the same workflow re-runs nightly) never re-lower.

Alongside the markdown artifact this bench emits
``results/plan_compile.json`` for downstream tooling.
"""

import gc
import json
import time

from conftest import single_process_backends, write_report

from repro.algebra.blocks import analyze
from repro.engine.backend import BackendExecutor
from repro.engine.compile import compile_block
from repro.workloads import case

WORKFLOW = 21  # largest single-block workload: 8-way join
SCALE = 4.0
REPEATS = 5  # best-of-N: the speedup floors must hold under box noise


def _best_wall(fn):
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


def _compile_time(analysis, backend_name):
    """Median one-shot compile wall for the backend's profile."""
    profile = BackendExecutor(analysis, backend_name).backend.profile
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for block in analysis.blocks:
            compile_block(
                analysis, block, block.initial_tree,
                backend=backend_name, profile=profile,
            )
        walls.append(time.perf_counter() - t0)
    return sorted(walls)[len(walls) // 2]


def _measure():
    wfcase = case(WORKFLOW)
    analysis = analyze(wfcase.build())
    sources = wfcase.tables(scale=SCALE, seed=7)
    n_rows = sum(t.num_rows for t in sources.values())

    rows = []
    records = []
    for backend in single_process_backends():
        # cold: a fresh executor per run, so every wall pays lowering
        cold = _best_wall(
            lambda: BackendExecutor(analysis, backend).run(sources)
        )
        # warm: one executor, cache primed before timing
        executor = BackendExecutor(analysis, backend)
        executor.run(sources)
        warm = _best_wall(lambda: executor.run(sources))
        assert executor.plan_cache.misses == len(analysis.blocks)

        compile_s = _compile_time(analysis, backend)
        rows.append(
            [
                backend,
                round(cold * 1e3, 1),
                round(warm * 1e3, 1),
                round(n_rows / warm),
                round(compile_s * 1e3, 2),
                round(compile_s / warm, 4),
            ]
        )
        records.append(
            {
                "workflow": WORKFLOW,
                "scale": SCALE,
                "source_rows": n_rows,
                "backend": backend,
                "cold_wall_s": cold,
                "warm_wall_s": warm,
                "rows_per_s": n_rows / warm,
                "compile_s": compile_s,
                "compile_share_of_run": compile_s / warm,
            }
        )
    return rows, records


def test_plan_compile(benchmark, results_dir):
    rows, records = benchmark.pedantic(_measure, rounds=1, iterations=1)
    write_report(
        results_dir,
        "plan_compile",
        f"Plan lowering: cold vs warm (wf{WORKFLOW} @ {SCALE:g})",
        ["backend", "cold ms", "warm ms", "rows/s", "compile ms",
         "compile / run"],
        rows,
    )
    (results_dir / "plan_compile.json").write_text(
        json.dumps({"plan_compile": records}, indent=2) + "\n"
    )

    # lowering is cheap: a small fraction of one run of the block it lowers
    for r in records:
        assert r["compile_share_of_run"] < 0.1, r
