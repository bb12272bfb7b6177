"""The Section 7 experiment sweeps as a library.

Each function regenerates one table or figure from the paper's evaluation
over the 30-workflow suite and returns plain rows; the benchmark harness
(`benchmarks/`) asserts their shapes and persists them, and the CLI
(`python -m repro.cli experiments ...`) prints them interactively.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.algebra.blocks import BlockAnalysis, analyze
from repro.baselines.payg import workflow_executions, workflow_lower_bound
from repro.core.costs import CostModel
from repro.core.generator import GeneratorOptions, generate_css
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.estimation.bootstrap import bootstrap_se_sizes
from repro.workloads import suite
from repro.workloads.characteristics import (
    paper_reference,
    summarize,
    synthetic_population,
)
from repro.workloads.tpcdi import WorkflowCase


@dataclass
class SuiteContext:
    """Pre-built workflows and analyses for the whole suite."""

    cases: list[WorkflowCase]
    workflows: list
    analyses: list[BlockAnalysis]

    @classmethod
    def build(cls, numbers: Sequence[int] | None = None) -> "SuiteContext":
        cases = [
            c for c in suite() if numbers is None or c.number in set(numbers)
        ]
        workflows = [c.build() for c in cases]
        analyses = [analyze(w) for w in workflows]
        return cls(cases, workflows, analyses)

    def __iter__(self):
        return iter(zip(self.cases, self.workflows, self.analyses))


def data_characteristics_rows() -> tuple[list[str], list[list]]:
    """The Section 7 data-characteristics table, ours next to the paper's."""
    cards, uvs = synthetic_population()
    ours = summarize(cards, uvs)
    paper = {r.stat: r for r in paper_reference()}
    rows = [
        [
            r.stat,
            f"{r.card:.0f}",
            f"{paper[r.stat].card}",
            f"{r.uv:.0f}",
            f"{paper[r.stat].uv}",
        ]
        for r in ours
    ]
    return ["Stat", "Card (ours)", "Card (paper)", "UV (ours)", "UV (paper)"], rows


def fig9_rows(context: SuiteContext) -> tuple[list[str], list[list]]:
    """Figure 9: #SE and #CSS without/with union-division per workflow."""
    rows = []
    for case, _workflow, analysis in context:
        with_ud = generate_css(analysis, GeneratorOptions(fk_rules=False))
        without = generate_css(
            analysis, GeneratorOptions(union_division=False, fk_rules=False)
        )
        rows.append(
            [
                case.number,
                with_ud.counts()["required"],
                without.counts()["css"],
                with_ud.counts()["css"],
            ]
        )
    return ["wf", "#SE", "#CSS (no UD)", "#CSS (UD)"], rows


def fig10_rows(
    context: SuiteContext, time_limit: float = 15.0
) -> tuple[list[str], list[list]]:
    """Figure 10: identification time per workflow (milliseconds)."""
    rows = []
    for case, workflow, analysis in context:
        t0 = time.perf_counter()
        catalog_ud = generate_css(analysis, GeneratorOptions(fk_rules=False))
        t_gen_ud = time.perf_counter() - t0
        t0 = time.perf_counter()
        generate_css(
            analysis, GeneratorOptions(union_division=False, fk_rules=False)
        )
        t_gen_noud = time.perf_counter() - t0
        cards, dv = case.characteristics(scale=1.0)
        cost_model = CostModel(
            workflow.catalog, se_sizes=bootstrap_se_sizes(analysis, cards, dv)
        )
        t0 = time.perf_counter()
        result = solve_ilp(
            build_problem(catalog_ud, cost_model), time_limit=time_limit
        )
        t_solve = time.perf_counter() - t0
        rows.append(
            [
                case.number,
                round(t_gen_noud * 1e3, 2),
                round(t_gen_ud * 1e3, 2),
                round(t_solve * 1e3, 1),
                result.method,
            ]
        )
    return (
        ["wf", "CSS gen no-UD", "CSS gen UD", "solver", "solver kind"],
        rows,
    )


def fig11_rows(
    context: SuiteContext, time_limit: float = 15.0
) -> tuple[list[str], list[list]]:
    """Figure 11: optimal observation memory without/with union-division."""
    rows = []
    for case, workflow, analysis in context:
        cards, dv = case.characteristics(scale=1.0)
        cost_model = CostModel(
            workflow.catalog, se_sizes=bootstrap_se_sizes(analysis, cards, dv)
        )
        costs = {}
        observed = {}
        for label, options in (
            ("noud", GeneratorOptions(union_division=False, fk_rules=False)),
            ("ud", GeneratorOptions(fk_rules=False)),
        ):
            catalog = generate_css(analysis, options)
            problem = build_problem(catalog, cost_model)
            result = solve_ilp(problem, time_limit=time_limit)
            costs[label] = result.total_cost
            observed[label] = (problem, set(result.observed))
        if costs["ud"] > costs["noud"]:
            # a time-limited incumbent can trail the no-UD optimum, which is
            # always feasible for the UD problem -- fall back to it
            ud_problem, _ = observed["ud"]
            indexes = {ud_problem.index[s] for s in observed["noud"][1]}
            if ud_problem.is_sufficient(indexes):
                costs["ud"] = costs["noud"]
        rows.append(
            [
                case.number,
                costs["noud"],
                costs["ud"],
                "union-division" if costs["ud"] < costs["noud"] else "",
            ]
        )
    return ["wf", "no union-division", "union-division", "UD chosen?"], rows


def fig12_rows(context: SuiteContext) -> tuple[list[str], list[list]]:
    """Figure 12: executions to cover all SEs under pay-as-you-go."""
    rows = []
    for case, _workflow, analysis in context:
        rows.append(
            [
                case.number,
                workflow_lower_bound(analysis),
                workflow_executions(analysis, semantics=False),
                workflow_executions(analysis),
                workflow_executions(analysis, use_fk=True),
                1,
            ]
        )
    return (
        [
            "wf",
            "min executions",
            "found schedule",
            "found (join-graph semantics)",
            "found (FK metadata)",
            "ours",
        ],
        rows,
    )


def format_rows(header: list[str], rows: list[list]) -> str:
    """Plain-text table rendering shared by the CLI."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
