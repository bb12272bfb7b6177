"""Sketch ablation: distinct-tap accuracy vs memory across precisions.

Extends the Figure 11 memory story to the *observation* side: the exact
``DistinctAccumulator`` holds every distinct value tuple it has seen, so
a distinct tap's working set grows with the data; an HLL sketch caps it
at ``2^p`` one-byte registers.  Per precision this bench taps every base
feed of all 30 suite workflows with per-attribute distinct statistics
through a tap set built with that precision's spec, then reports total
accumulator bytes against the exact baseline and the estimate error it
buys.

Artifacts: ``results/sketch_ablation.md`` (the table) and
``results/sketch_ablation.json`` (the raw series for downstream tooling).

Gate (the PR's acceptance criterion): some precision on the curve must
cut tap memory by >= 4x while keeping every estimate within 5% relative
error (small taps stay in the exact-set fallback on both sides, so the
reduction comes entirely from the large feeds that matter).
"""

from __future__ import annotations

import json

from conftest import DATA_SCALE, write_report

from repro.algebra.expressions import SubExpression
from repro.core.statistics import Statistic
from repro.engine.instrumentation import TapSet
from repro.estimation.sketches import DEFAULT_PRECISION, SketchSpec

PRECISIONS = [8, 10, 12, 14, 16]
SEED = 11


def _tap_suite(workflow_cases, spec=None):
    """Observe every base feed's per-attribute distincts; returns
    ``(estimates, total_bytes)`` keyed by (workflow, source, attr)."""
    estimates: dict[tuple, int] = {}
    total_bytes = 0
    for case in workflow_cases:
        sources = case.tables(scale=DATA_SCALE, seed=SEED)
        for name, table in sorted(sources.items()):
            se = SubExpression.of(name)
            stats = [
                Statistic.distinct(se, attr) for attr in sorted(table.attrs)
            ]
            taps = TapSet(stats, sketch=spec)
            taps.observe_columns(se, table.num_rows, table.columns)
            taps.mark_streamed(se)
            total_bytes += taps.distinct_bytes()
            observed = taps.collect()
            for stat in stats:
                estimates[(case.number, name, stat.attrs[0])] = (
                    observed.get(stat)
                )
    return estimates, total_bytes


def sketch_ablation_rows(workflow_cases):
    exact, exact_bytes = _tap_suite(workflow_cases)
    rows = []
    for precision in PRECISIONS:
        estimates, hll_bytes = _tap_suite(
            workflow_cases, SketchSpec(mode="hll", precision=precision)
        )
        errors = [
            abs(estimates[key] - truth) / max(truth, 1)
            for key, truth in exact.items()
        ]
        rows.append(
            {
                "precision": precision,
                "registers": 1 << precision,
                "bytes": hll_bytes,
                "reduction": exact_bytes / max(hll_bytes, 1),
                "mean_rel_error": sum(errors) / len(errors),
                "max_rel_error": max(errors),
            }
        )
    return exact_bytes, len(exact), rows


def test_sketch_ablation(benchmark, workflow_cases, results_dir):
    exact_bytes, taps, rows = benchmark.pedantic(
        sketch_ablation_rows, args=(workflow_cases,), rounds=1, iterations=1
    )

    header = [
        "precision", "registers", "tap bytes", "reduction vs exact",
        "mean rel err", "max rel err",
    ]
    table = [
        [
            r["precision"],
            r["registers"],
            f"{r['bytes']:,}",
            f"{r['reduction']:.1f}x",
            f"{r['mean_rel_error'] * 100:.2f}%",
            f"{r['max_rel_error'] * 100:.2f}%",
        ]
        for r in rows
    ]
    table.append(["exact", "-", f"{exact_bytes:,}", "1.0x", "0.00%", "0.00%"])
    write_report(
        results_dir,
        "sketch_ablation",
        f"Sketch ablation: distinct-tap accuracy vs memory "
        f"({taps} taps across the 30-workflow suite, scale {DATA_SCALE})",
        header,
        table,
    )
    (results_dir / "sketch_ablation.json").write_text(
        json.dumps(
            {
                "scale": DATA_SCALE,
                "taps": taps,
                "exact_bytes": exact_bytes,
                "default_precision": DEFAULT_PRECISION,
                "series": rows,
            },
            indent=2,
        )
        + "\n"
    )

    # memory grows monotonically with precision...
    assert all(
        a["bytes"] <= b["bytes"] for a, b in zip(rows, rows[1:])
    )
    # ...and the acceptance gate holds: some precision on the curve cuts
    # tap memory >= 4x while keeping every estimate within 5% (p=12 at
    # this scale; the default p=14 trades more memory for <2% worst-case)
    frontier = [
        r for r in rows
        if r["reduction"] >= 4.0 and r["max_rel_error"] <= 0.05
    ]
    assert frontier, rows
