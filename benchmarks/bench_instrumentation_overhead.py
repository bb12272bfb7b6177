"""Ablation: runtime overhead of statistics instrumentation.

The framework's premise is that observing the chosen statistics during a
normal run is cheap (counters and bounded histograms, one update per tuple
-- the Section 5.4 CPU metric).  We measure wall time of the streaming
executor on the same workflow and data:

- bare: no taps at all;
- counters: the trivial CSSs of every plan point;
- full: the ILP-chosen optimal statistics set (histograms included).

Shape to reproduce: instrumentation costs a modest constant factor, far
from the alternative of extra executions.
"""

import time

from conftest import DATA_SCALE, write_report

from repro.algebra.blocks import analyze
from repro.algebra.plans import tree_ses
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor
from repro.engine.instrumentation import TapSet
from repro.workloads import case

WORKFLOW = 14
REPEATS = 3


def _overhead():
    wfcase = case(WORKFLOW)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    selection = solve_ilp(
        build_problem(catalog, CostModel(workflow.catalog)), time_limit=20
    )
    tables = wfcase.tables(scale=DATA_SCALE, seed=19)
    executor = BackendExecutor(analysis, "streaming")

    counter_stats = []
    for block in analysis.blocks:
        for se in tree_ses(block.initial_tree):
            counter_stats.append(Statistic.card(se))

    def timed(stats):
        best = float("inf")
        for _ in range(REPEATS):
            taps = TapSet(stats)
            t0 = time.perf_counter()
            executor.run(tables, taps=taps)
            best = min(best, time.perf_counter() - t0)
        return best

    bare = timed([])
    counters = timed(counter_stats)
    full = timed(selection.observed)
    return [
        ("bare", round(bare * 1e3, 1), 1.0),
        ("counters (trivial CSSs)", round(counters * 1e3, 1),
         round(counters / bare, 2)),
        ("optimal statistics set", round(full * 1e3, 1),
         round(full / bare, 2)),
    ]


def test_instrumentation_overhead(benchmark, results_dir):
    rows = benchmark.pedantic(_overhead, rounds=1, iterations=1)
    write_report(
        results_dir,
        "instrumentation_overhead",
        f"Per-tuple instrumentation overhead (streaming executor, wf{WORKFLOW})",
        ["instrumentation", "best wall ms", "x bare"],
        [list(r) for r in rows],
    )
    factors = {r[0]: r[2] for r in rows}
    # observing everything the optimizer needs costs a small constant
    # factor on top of the uninstrumented run -- not extra executions
    assert factors["optimal statistics set"] < 3.0
    assert factors["counters (trivial CSSs)"] <= factors["optimal statistics set"] + 0.5
