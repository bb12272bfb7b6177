"""Tests of the benchmark itself: ``python -m pytest nightbench/tests -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from nightbench import compare, load_spec  # noqa: E402
from nightbench.layers import layer_metrics  # noqa: E402
from nightbench.trace import (  # noqa: E402
    TARGETS, Target, TraceTargetMissing, Tracer, resolve, self_times)
from nightbench.worker import Recorder  # noqa: E402

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_obeys_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} and m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_spec():
    from nightbench.workloads import WORKLOADS

    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_every_wrapper_target_resolves_and_rebinding_is_undone():
    import repro
    import repro.framework.pipeline as pipeline

    for target in TARGETS:
        resolve(target)
    original = repro.solve_ilp
    tracer = Tracer()
    tracer.install()
    try:
        assert repro.solve_ilp is not original
        assert pipeline.solve_ilp is repro.solve_ilp  # every copy rebound
        assert pipeline.solve_ilp.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert repro.solve_ilp is original and pipeline.solve_ilp is original


def test_a_missing_target_is_a_hard_error():
    with pytest.raises(TraceTargetMissing):
        resolve(Target("core", "gone", "repro.core.ilp", "no_such_function"))
    with pytest.raises(TraceTargetMissing):  # inherited, not defined there
        resolve(Target("engine", "make_taps", "repro.engine.vectorized",
                       "VectorizedBackend.make_taps"))


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_span_self_time_is_duration_minus_child_coverage():
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 4.5, 10.0]))
    tracer.context = {"pass": 0, "leg": "leg1", "wf": 1, "op": 1}
    root = tracer.begin("framework", "op")         # 0.0 .. 10.0
    with tracer.span("core", "solve_ilp"):          # 1.0 .. 3.0
        pass
    with tracer.span("engine", "run"):              # 4.0 .. 4.5
        pass
    tracer.end(root)
    own = self_times(tracer.spans)
    assert own == {0: 7.5, 1: 2.0, 2: 0.5}
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
    assert sum(own.values()) == 10.0  # the layers sum to the operation


def test_wrapped_calls_outside_an_operation_pass_through():
    tracer = Tracer()
    wrapped = tracer._wrap(Target("core", "f", "m", "f"), lambda x: x + 1)
    assert wrapped(1) == 2 and tracer.spans == []
    root = tracer.begin("framework", "op")
    assert wrapped(1) == 2
    tracer.end(root)
    assert [s["name"] for s in tracer.spans] == ["op", "f"]


def test_layer_metrics_from_synthetic_spans():
    context = {"pass": 0, "leg": "leg1", "wf": 21, "op": 1}
    spans = [
        {"id": 0, "parent": None, "layer": "framework", "name": "op",
         **context, "start": 0.0, "end": 2.0},
        {"id": 1, "parent": 0, "layer": "core", "name": "solve_ilp",
         **context, "start": 0.2, "end": 1.7,
         "notes": {"method": "ilp", "cost": 5.0}},
        {"id": 2, "parent": 1, "layer": "core", "name": "solve_greedy",
         **context, "start": 0.3, "end": 0.5, "notes": {"cost": 6.0}},
    ]
    counts = {0: Recorder().counts[0], "extras": Recorder().counts[0]}
    metrics, shares = layer_metrics(spans, counts, [0])
    assert metrics["core.solve_ilp_s"] == pytest.approx(1.3)
    assert metrics["core.solve_greedy_s"] == pytest.approx(0.2)
    assert metrics["framework.night_self_s"] == pytest.approx(0.5)
    assert metrics["framework.unattributed_share"] == pytest.approx(0.25)
    assert metrics["core.over_100ms_count"] == 1  # 1.5 s > the paper's 100 ms
    assert metrics["core.ilp_proved_share"] == 1.0
    assert shares["pass"] == pytest.approx({"framework": 0.25, "core": 0.75})
    assert shares["leg1"] == shares["pass"] and "leg2" not in shares


def sample(value, *reps):
    return {"value": value, "reps": list(reps), "n": 9}


def result_file(pass_s, failed=0):
    metrics = {m["name"]: sample(1.0, 0.99, 1.0, 1.01) for m in SPEC["end_to_end"]}
    metrics["pass_s"] = pass_s
    name = SPEC["workloads"][0]["name"]
    return {"untraced": {"workloads": {
        name: {"failed": failed, "attempted": 10, "metrics": metrics}}}}


# pass_s has a bound of 0.25
@pytest.mark.parametrize("b, failed, verdict, status", [
    (sample(1.20, 1.20, 1.21, 1.22), 0, "ok", False),
    (sample(1.30, 1.30, 1.31, 1.32), 0, "regressed", True),
    (sample(1.20, 1.20, 1.21, 2.50), 0, "ok", False),  # one disturbed repetition
    (sample(1.05, 1.05, 1.40, 1.45), 0, "unresolved", False),
    (sample(0.50, 0.50, 0.90, 0.95), 0, "ok", False),  # every repetition better
    (sample(1.00, 0.99, 1.00, 1.01), 1, "ok", True),   # more failures
])
def test_compare_verdicts(b, failed, verdict, status):
    a = result_file(sample(1.0, 1.0, 1.01, 1.02))
    rows, bad = compare.compare(a, result_file(b, failed), SPEC)
    row = next(r for r in rows if r["metric"] == "pass_s")
    assert (row["verdict"], bad) == (verdict, status)
    assert row["ratio"] == pytest.approx(b["value"])


def test_a_failing_check_or_exception_counts_one_failed_operation():
    rec = Recorder()
    rec.begin_pass(0, traced=False)
    assert rec.timed("leg1", 1, lambda: "fine") == "fine"
    rec.verify([])
    assert (rec.attempted, len(rec.failed_ops)) == (1, 0)
    rec.timed("leg1", 2, lambda: "wrong answer")
    rec.verify(["q-error 2.0", "warm night tapped 3 statistics"])
    assert rec.timed("leg2", 3, lambda: 1 / 0) is None
    assert (rec.attempted, len(rec.failed_ops)) == (3, 2)
    assert rec.first_timed is not None and len(rec.failures) == 3


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_exactly_the_contract(workload, trace, group):
    done = subprocess.run(
        [sys.executable, "nightbench/run.py", "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["core.solve_ilp_s"]["value"] > 0
    assert not (ROOT / ".nightbench_tmp").exists()  # nothing left behind
