"""Collect the per-experiment markdown artifacts into one results document.

Run after ``pytest benchmarks/ --benchmark-only``::

    python benchmarks/collect_results.py > EXPERIMENT_RESULTS.md
"""

from __future__ import annotations

import sys
from pathlib import Path

#: presentation order: the paper's figures first, then the ablations
ORDER = [
    "data_characteristics",
    "fig9_complexity",
    "fig10_identification_time",
    "fig11_memory",
    "fig12_executions",
    "fig1_intro_example",
    "accuracy_vs_independence",
    "ablation_metadata",
    "ablation_solver",
    "ablation_strategies",
    "session_drift",
    "dist_throughput",
    "catalog_service",
]


def collect(results_dir: Path) -> str:
    sections = ["# Experiment results", ""]
    sections.append(
        "Generated by `pytest benchmarks/ --benchmark-only`; see "
        "EXPERIMENTS.md for the paper-vs-measured discussion of each table."
    )
    sections.append("")
    seen = set()
    for name in ORDER:
        path = results_dir / f"{name}.md"
        if path.exists():
            sections.append(path.read_text().rstrip())
            sections.append("")
            seen.add(path.name)
    for path in sorted(results_dir.glob("*.md")):
        if path.name not in seen:
            sections.append(path.read_text().rstrip())
            sections.append("")
    return "\n".join(sections)


def main() -> int:
    results_dir = Path(__file__).parent / "results"
    if not results_dir.exists():
        print(
            "no benchmarks/results directory; run the bench suite first",
            file=sys.stderr,
        )
        return 1
    print(collect(results_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
