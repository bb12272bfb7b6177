"""Ablation: what the quality gate costs when every row is clean.

``run_once`` has the gate screen the sources once per night, before it
reads the catalog, so on a healthy extract its price is one schema comparison
plus one whole-column predicate pass per contracted column -- and the
zero-copy clean path in :func:`validate_rows` hands the original tables
straight through.  A dead-letter layer that taxed every clean night to
catch the rare dirty one would be mis-priced, exactly like the fault
harness next door.

This bench runs one full optimizer night (statistic selection, the
instrumented execution with every tap armed, reporting) on wf21 -- the
suite's largest single-block workload, an 8-way join -- bare and with a
full inferred :class:`ContractSet` armed (type, nullability, and domain
checks on every column of every source, zero violations to find), on
every backend.

The enforced budget is the *additive* cost of the gate: screening the
clean extract is timed directly and must stay within 5% of the bare
pipeline wall.  The armed end-to-end wall is reported alongside for the
table, but bare-vs-armed wall deltas on a shared CI box swing by more
than the gate itself costs, so the assertion pins the deterministic
number, not the noise.
"""

import gc
import json
import time

from conftest import DATA_SCALE, single_process_backends, write_report

from repro.framework.pipeline import StatisticsPipeline
from repro.quality import ContractSet, QualityGate
from repro.workloads import case

WORKFLOW = 21  # largest single-block workload: 8-way join
REPEATS = 5
MAX_OVERHEAD = 0.05  # the armed-but-idle gate may cost at most 5%


def _timed(fn):
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()  # collection pauses otherwise dominate run-to-run noise
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


def _measure():
    wfcase = case(WORKFLOW)
    sources = wfcase.tables(scale=max(DATA_SCALE * 10, 3.0), seed=7)
    n_rows = sum(t.num_rows for t in sources.values())
    contracts = ContractSet.infer(sources)

    def screen():
        gate = QualityGate(contracts=contracts)
        screened = gate.screen_sources(sources)
        assert gate.quarantine.total_rows == 0  # the extract is clean
        assert all(screened[name] is sources[name] for name in sources)

    gate_wall = _timed(screen)

    rows, records = [], []
    for backend in single_process_backends():
        pipeline = StatisticsPipeline(
            wfcase.build(), backend=backend, solver="greedy"
        )
        bare = _timed(lambda: pipeline.run_once(sources))
        armed = _timed(
            lambda: pipeline.run_once(
                sources, quality=QualityGate(contracts=contracts)
            )
        )
        gate_share = gate_wall / bare
        for config, wall, note in (
            ("bare", bare, "+0.0%"),
            ("contracts", armed, f"{(armed / bare - 1.0) * 100:+.1f}%"),
            ("gate only", gate_wall, f"{gate_share * 100:+.1f}%"),
        ):
            rows.append(
                [f"wf{WORKFLOW}", backend, config,
                 round(wall * 1e3, 1), note]
            )
        records.append(
            {
                "workflow": WORKFLOW,
                "source_rows": n_rows,
                "backend": backend,
                "bare_wall_s": bare,
                "armed_wall_s": armed,
                "gate_wall_s": gate_wall,
                "gate_share_of_bare": gate_share,
            }
        )
    return rows, records


def test_quarantine_gate_overhead(benchmark, results_dir):
    rows, records = benchmark.pedantic(_measure, rounds=1, iterations=1)
    write_report(
        results_dir,
        "quarantine_overhead",
        f"Quality-gate overhead on a fully clean run (wf{WORKFLOW})",
        ["workload", "backend", "config", "best wall ms", "vs bare"],
        rows,
    )
    (results_dir / "quarantine_overhead.json").write_text(
        json.dumps(records, indent=2) + "\n"
    )

    # the gate's screening pass must stay within MAX_OVERHEAD of the bare
    # pipeline wall on every backend (min-of-REPEATS walls filter noise)
    for record in records:
        assert record["gate_share_of_bare"] <= MAX_OVERHEAD, record
