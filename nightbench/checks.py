"""The correctness gate every timed operation passes through.

Each function returns a list of problems (empty = correct); the harness
counts an operation with any problem as failed.  ``golden.json`` pins, per
suite workflow, the optimal selection cost and ``#SE`` at the commit that
defined the benchmark.  ``#CSS`` is reported, not pinned, so a pruning PR
stays legal.  Regenerate with ``python3 -m nightbench.checks`` (PYTHONPATH
holding the repo root and ``src``) only in a PR that claims no gain.
"""

from __future__ import annotations

import json
import math

from nightbench import HERE

GOLDEN_PATH = HERE / "golden.json"


def load_golden() -> dict[int, dict]:
    doc = json.loads(GOLDEN_PATH.read_text())
    return {int(number): row for number, row in doc["workflows"].items()}


def selection_problems(pipeline, selection, golden_row: dict, cold: bool) -> list[str]:
    """Closure covers every required statistic, solved to proven optimality,
    #SE equals the golden file and so does the cost of a ``cold`` selection
    (no catalog hits, no sizes from an earlier night in the cost model)."""
    problems = []
    if not selection.is_valid:
        problems.append("selection closure misses a required statistic")
    if selection.method != "ilp":
        problems.append(f"selection method {selection.method!r}, not 'ilp'")
    se_count = pipeline.catalog.counts()["required"]
    if se_count != golden_row["se"]:
        problems.append(f"#SE {se_count} != golden {golden_row['se']}")
    cost = selection.total_cost
    if cold and not math.isclose(cost, golden_row["cost"], rel_tol=1e-9):
        problems.append(f"selected cost {cost!r} != golden {golden_row['cost']!r}")
    return problems


def q_error_max(report) -> float:
    """Worst estimated/executed ratio over the SEs the run materialised
    (1.0 exactly when every estimate equals the executed size)."""
    estimated = report.estimator.all_cardinalities()
    worst = 1.0
    for se, actual in report.run.se_sizes.items():
        estimate = estimated.get(se)
        if estimate is None or estimate == actual:
            continue  # reject links are observed, not required
        low, high = sorted((float(estimate), float(actual)))
        worst = max(worst, math.inf if low <= 0 else high / low)
    return worst


def night_problems(pipeline, report, golden_row: dict) -> list[str]:
    """One workflow-night: healthy, exact, and soundly selected."""
    problems = []
    if not report.ok:
        problems.append(f"failed blocks {sorted(report.failures)}")
    if report.catalog_degraded:
        problems.append("catalog degraded to the local view")
    have, want = report.estimator.coverage()
    if have != want:
        problems.append(f"only {have} of {want} SE cardinalities computable")
    worst = q_error_max(report)
    if worst != 1.0:
        problems.append(f"q-error {worst!r}: an estimate differs from the run")
    return problems + selection_problems(
        pipeline, report.selection, golden_row, cold=False)


def tree_signature(report) -> dict[str, str]:
    """Chosen plan per block, comparable across backends and nights."""
    return {name: repr(tree) for name, tree in report.chosen_trees.items()}


def write_golden() -> None:
    from repro import StatisticsPipeline
    from repro.workloads import suite

    rows = {}
    for case in suite():
        pipeline = StatisticsPipeline(case.build())
        selection = pipeline.select_statistics()
        assert selection.method == "ilp" and selection.is_valid, case.number
        rows[str(case.number)] = {
            "cost": selection.total_cost,
            "se": pipeline.catalog.counts()["required"],
        }
    lines = ",\n".join(f'  "{n}": {json.dumps(row)}' for n, row in rows.items())
    GOLDEN_PATH.write_text('{"workflows": {\n' + lines + "\n}}\n")


if __name__ == "__main__":
    write_golden()
