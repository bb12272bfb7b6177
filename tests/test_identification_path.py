"""Every layer identifies through ``repro.core.select_statistics``.

The solvers are replaced at the one dispatch site; an entry point that
still built and solved its own selection problem would keep calling the
real solver and show up here as an uncounted solve.
"""

import pytest

import repro.core as core
from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.workloads import case


@pytest.fixture
def solves(monkeypatch):
    """Solver names requested at the dispatch site, in call order."""
    calls = []
    greedy = core.solve_greedy

    def routed(name):
        def solve(problem, **kwargs):
            calls.append(name)
            result = greedy(problem)
            result.method = "routed"
            return result

        return solve

    monkeypatch.setattr(core, "solve_ilp", routed("ilp"))
    monkeypatch.setattr(core, "solve_greedy", routed("greedy"))
    return calls


@pytest.fixture(scope="module")
def wf9():
    return case(9)


def test_pipeline_select_statistics(solves, wf9):
    from repro.framework.pipeline import StatisticsPipeline

    assert StatisticsPipeline(wf9.build()).select_statistics().method == "routed"
    assert solves == ["ilp"]


@pytest.mark.parametrize("with_catalog", [False, True])
def test_run_once(solves, wf9, with_catalog):
    from repro.catalog import StatisticsCatalog
    from repro.framework.pipeline import StatisticsPipeline

    pipeline = StatisticsPipeline(wf9.build(), solver="greedy")
    report = pipeline.run_once(
        wf9.tables(scale=0.05, seed=7),
        stats_catalog=StatisticsCatalog() if with_catalog else None,
    )
    assert report.selection.method == "routed"
    assert solves == ["greedy"]


def test_plan_fleet_and_its_standalone_cost(solves, wf9):
    from repro.catalog import plan_fleet

    fleet = plan_fleet([wf9.build()], solver="ilp")
    assert fleet.workflows[0].selection.method == "routed"
    assert solves == ["ilp"]
    assert fleet.total_standalone_cost == fleet.total_planned_cost
    assert solves == ["ilp", "ilp"]


def test_plan_constrained(solves, wf9):
    from repro.core.resource import plan_constrained

    workflow = wf9.build()
    analysis = analyze(workflow)
    schedule = plan_constrained(
        analysis, generate_css(analysis), CostModel(workflow.catalog), 1e9
    )
    assert schedule.executions == 1 and solves == ["ilp"]


def test_cli_identify(solves, wf9, tmp_path, capsys):
    from repro.algebra.serialize import workflow_to_json
    from repro.cli import main

    path = tmp_path / "wf9.json"
    path.write_text(workflow_to_json(wf9.build()))
    assert main(["identify", str(path)]) == 0
    assert "Selection [routed]" in capsys.readouterr().out
    assert main(["identify", str(path), "--budget", "100000"]) == 0
    assert solves == ["ilp", "ilp"]
