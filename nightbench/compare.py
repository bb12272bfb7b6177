"""Compare two nightbench result files.

    python3 nightbench/compare.py A.json B.json

One row per (end-to-end metric, workload): both medians, the ratio B/A
with its base, the bound from ``BENCHMARK.json`` and a verdict:

``ok``          B is no worse than A by more than the bound
``regressed``   B is worse than A by more than the bound
``unresolved``  a side's own repetitions disagree by more than the bound, so
                the pair cannot be told apart -- unless every repetition
                of B reads better than every one of A, which is ``ok``

Exit status 1 on any ``regressed`` row or when B failed more operations
than A.  ``unresolved`` rows do not fail the comparison but are not
agreement either: two runs of one commit should show none.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # see run.py

from nightbench import load_spec  # noqa: E402


def spread(metric: dict, better: str) -> float:
    """How far a side's repetitions disagree, as a share of its value:
    the distance from the best repetition to the median one.  What a
    shared box adds to a repetition only ever makes it worse, so one slow
    repetition out of three is interference, not disagreement; the slower
    half is ignored."""
    reps = metric["reps"]
    best = min(reps) if better == "lower" else max(reps)
    return abs(statistics.median(reps) - best) / metric["value"]


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if max(spread(a, better), spread(b, better)) > bound:
        every_run_better = (max(b["reps"]) < min(a["reps"]) if better == "lower"
                            else min(b["reps"]) > max(a["reps"]))
        return "ok" if every_run_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(doc_a: dict, doc_b: dict, spec: dict) -> tuple[list[dict], bool]:
    """(rows, failed).  Only the untraced halves carry end-to-end metrics."""
    a_workloads = doc_a["untraced"]["workloads"]
    b_workloads = doc_b["untraced"]["workloads"]
    rows = []
    failed = False
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a_workloads or name not in b_workloads:
            continue
        a, b = a_workloads[name], b_workloads[name]
        if b["failed"] > a["failed"]:
            failed = True
        for metric in spec["end_to_end"]:
            ma, mb = a["metrics"][metric["name"]], b["metrics"][metric["name"]]
            row = {
                "workload": name,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": ma["value"],
                "b": mb["value"],
                "ratio": mb["value"] / ma["value"],
                "bound": metric["bound"],
                "verdict": verdict(ma, mb, metric["bound"], metric["better"]),
            }
            failed = failed or row["verdict"] == "regressed"
            rows.append(row)
        rows.append({
            "workload": name, "metric": "failed", "unit": "count",
            "a": a["failed"], "b": b["failed"], "ratio": None, "bound": 0,
            "verdict": "regressed" if b["failed"] > a["failed"] else "ok",
        })
    return rows, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = [json.loads(Path(path).read_text()) for path in argv]
    rows, failed = compare(*docs, load_spec())
    print(f"{'workload':13s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'B/A (base A)':>13s} {'bound':>6s}  verdict")
    for row in rows:
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{row['workload']:13s} {row['metric']:12s} {row['a']:12.5g} "
              f"{row['b']:12.5g} {ratio:>13s} {row['bound']:6.2f}  "
              f"{row['verdict']}  [{row['unit']}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
