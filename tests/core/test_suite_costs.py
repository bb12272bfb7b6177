"""Cold identification of the 30 suite workflows pays ``nightbench``'s
golden cost, proven -- the benchmark's gate, seen by tier-1.

``nightbench/golden.json`` is read, never written: a cost that moves is a
finding, not a new pin (wf26 = 181,626 is the optimum a shrunken model
misses by one unit at HiGHS's default gap; wf27 = 549,001,603 is the one
in-gap answer, kept by handing HiGHS the unshrunken model untouched).
"""

import json
from pathlib import Path

import pytest

from repro import StatisticsPipeline
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.workloads import suite

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[2] / "nightbench" / "golden.json").read_text()
)["workflows"]


@pytest.mark.parametrize("case", suite(), ids=lambda case: f"wf{case.number}")
def test_cold_identification_pays_the_golden_cost(case):
    pipeline = StatisticsPipeline(case.build())
    problem = build_problem(pipeline.catalog, pipeline.cost_model())
    result = solve_ilp(problem)
    assert result.method == "ilp"
    assert result.is_valid
    assert result.problem is problem
    golden = GOLDEN[str(case.number)]
    assert result.total_cost == pytest.approx(golden["cost"], rel=1e-9, abs=0)
    assert pipeline.catalog.counts()["required"] == golden["se"]
