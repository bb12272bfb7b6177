"""Tests for the repeated-execution session."""

import random

import pytest

from repro.algebra.operators import Join, Source, Target, Workflow
from repro.algebra.schema import Catalog
from repro.engine.table import Table
from repro.framework.pipeline import StatisticsPipeline
from repro.framework.session import EtlSession


def drift_workflow():
    catalog = Catalog()
    catalog.add_relation("F", {"a": 50, "b": 40, "id": 1000})
    catalog.add_relation("A", {"a": 50, "x": 10})
    catalog.add_relation("B", {"b": 40, "y": 10})
    f, a, b = Source(catalog, "F"), Source(catalog, "A"), Source(catalog, "B")
    flow = Join(Join(f, a, "a"), b, "b")
    return Workflow("drift", catalog, [Target(flow, "out")])


def night(a_cov: float, b_cov: float, seed: int, n: int = 800):
    rng = random.Random(seed)
    f = Table(
        {
            "a": [rng.randint(1, 50) for _ in range(n)],
            "b": [rng.randint(1, 40) for _ in range(n)],
            "id": list(range(n)),
        }
    )
    ak = rng.sample(range(1, 51), max(int(50 * a_cov), 1))
    bk = rng.sample(range(1, 41), max(int(40 * b_cov), 1))
    return {
        "F": f,
        "A": Table({"a": ak, "x": [v % 10 + 1 for v in ak]}),
        "B": Table({"b": bk, "y": [v % 10 + 1 for v in bk]}),
    }


class TestEtlSession:
    def test_history_accumulates(self):
        session = EtlSession(StatisticsPipeline(drift_workflow()))
        for i in range(3):
            session.run(night(0.5, 0.5, seed=i))
        assert [r.index for r in session.history] == [0, 1, 2]
        assert len(session.cost_history()) == 3

    def test_first_run_executes_initial_plan(self):
        session = EtlSession(StatisticsPipeline(drift_workflow()))
        record = session.run(night(0.5, 0.5, seed=1))
        assert record.executed_trees == {}
        assert record.reoptimized

    def test_later_runs_execute_chosen_plans(self):
        session = EtlSession(StatisticsPipeline(drift_workflow()))
        first = session.run(night(0.1, 0.9, seed=1))
        second = session.run(night(0.1, 0.9, seed=2))
        assert second.executed_trees == first.report.chosen_trees

    def test_adaptation_flips_join_order(self):
        session = EtlSession(StatisticsPipeline(drift_workflow()))
        session.run(night(0.08, 0.95, seed=1))  # A is tiny -> join A first
        plan_early = str(session.current_trees["B1"])
        session.run(night(0.95, 0.08, seed=2))  # B is tiny now
        session.run(night(0.95, 0.08, seed=3))
        plan_late = str(session.current_trees["B1"])
        assert plan_early != plan_late

    def test_reoptimize_every_n(self):
        session = EtlSession(
            StatisticsPipeline(drift_workflow()), reoptimize_every=2
        )
        r0 = session.run(night(0.5, 0.5, seed=0))
        r1 = session.run(night(0.5, 0.5, seed=1))
        r2 = session.run(night(0.5, 0.5, seed=2))
        assert r0.reoptimized and not r1.reoptimized and r2.reoptimized

    def test_actual_cost_positive_and_finite(self):
        session = EtlSession(StatisticsPipeline(drift_workflow()))
        record = session.run(night(0.5, 0.5, seed=4))
        assert record.actual_plan_cost > 0


class TestPipelineOptions:
    def test_greedy_solver_option(self):
        pipeline = StatisticsPipeline(drift_workflow(), solver="greedy")
        report = pipeline.run_once(night(0.5, 0.5, seed=1))
        assert report.selection.method == "greedy"
        assert report.selection.is_valid

    def test_cpu_weighted_cost_model(self):
        pipeline = StatisticsPipeline(
            drift_workflow(), memory_weight=0.0, cpu_weight=1.0
        )
        # first run: CPU costs come from the coarse default; still solvable
        report = pipeline.run_once(night(0.5, 0.5, seed=1))
        assert report.selection.is_valid
        # second run: CPU costs now use the observed SE sizes
        report2 = pipeline.run_once(night(0.5, 0.5, seed=2))
        assert report2.selection.is_valid

    def test_plan_override_reanalyzes_observability(self):
        """Running a re-ordered plan must re-derive observability: the
        selection for the new plan observes different SEs."""
        pipeline = StatisticsPipeline(drift_workflow())
        report1 = pipeline.run_once(night(0.1, 0.9, seed=1))
        trees = report1.chosen_trees
        report2 = pipeline.run_once(night(0.1, 0.9, seed=2), trees=trees)
        assert report2.selection.is_valid
        # the report's analysis reflects the executed plan
        block = report2.analysis.blocks[0]
        assert str(block.initial_tree) == str(trees["B1"])


class TestDriftPolicy:
    def test_quiet_data_keeps_plan(self):
        session = EtlSession(
            StatisticsPipeline(drift_workflow()), drift_threshold=0.5
        )
        session.run(night(0.5, 0.5, seed=9))
        # same data again: zero drift, no re-adoption
        record = session.run(night(0.5, 0.5, seed=9))
        assert record.drift == pytest.approx(0.0)
        assert not record.reoptimized

    def test_big_shift_triggers_reoptimization(self):
        session = EtlSession(
            StatisticsPipeline(drift_workflow()), drift_threshold=0.5
        )
        session.run(night(0.1, 0.9, seed=1))
        record = session.run(night(0.95, 0.1, seed=2))
        assert record.drift > 0.5
        assert record.reoptimized

    def test_drift_recorded_even_with_periodic_policy(self):
        session = EtlSession(StatisticsPipeline(drift_workflow()))
        session.run(night(0.5, 0.5, seed=3))
        record = session.run(night(0.8, 0.5, seed=4))
        assert record.drift >= 0.0


class TestSessionPersistence:
    def test_save_and_resume(self, tmp_path):
        session = EtlSession(StatisticsPipeline(drift_workflow()))
        session.run(night(0.3, 0.7, seed=11))
        path = tmp_path / "state.json"
        session.save_state(path)

        resumed = EtlSession.resume(
            StatisticsPipeline(drift_workflow()), path, drift_threshold=0.5
        )
        assert resumed.current_trees.keys() == session.current_trees.keys()
        record = resumed.run(night(0.3, 0.7, seed=11))
        # the resumed session executes the previously adopted plan and,
        # with identical data, measures no drift
        assert str(record.executed_trees["B1"]) == str(
            session.current_trees["B1"]
        )


class TestStreamingPipeline:
    def test_streaming_executor_option(self):
        pipeline = StatisticsPipeline(drift_workflow(), backend="streaming")
        report = pipeline.run_once(night(0.5, 0.5, seed=6))
        assert report.selection.is_valid
        have, total = report.estimator.coverage()
        assert have == total

    def test_streaming_matches_columnar_pipeline(self):
        data = night(0.4, 0.6, seed=8)
        columnar = StatisticsPipeline(drift_workflow()).run_once(data)
        streaming = StatisticsPipeline(
            drift_workflow(), backend="streaming"
        ).run_once(data)
        assert columnar.estimator.all_cardinalities() == pytest.approx(
            streaming.estimator.all_cardinalities()
        )
        assert {n: str(p.tree) for n, p in columnar.plans.items()} == {
            n: str(p.tree) for n, p in streaming.plans.items()
        }
