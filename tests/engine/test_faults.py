"""Unit tests for the fault-injection harness and the retrying scheduler.

These are the chaos suite's foundations: fault specs validate and
round-trip, the injector fires deterministically under a fixed seed, and
the scheduler's retry/timeout/skip machinery turns injected errors into
structured :class:`RunFailure` records instead of torn-down runs.
"""

import json
import os
import time

import pytest

from repro.engine.faults import (
    FaultError,
    FaultPlan,
    FaultSpec,
    PermanentFault,
    TransientFault,
    as_injector,
)
from repro.engine.scheduler import (
    BlockTimeout,
    RetryPolicy,
    Task,
    classify_error,
    execute_tasks,
)
from repro.engine.table import Table

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1337"))

#: a policy that retries fast and never really sleeps
FAST = RetryPolicy(max_retries=3, sleep=lambda s: None)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="kind"):
            FaultSpec(target="B1", kind="explode")

    def test_empty_target_rejected(self):
        with pytest.raises(FaultError, match="target"):
            FaultSpec(target="", kind="transient")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(FaultError, match="probability"):
            FaultSpec(target="B1", kind="transient", probability=1.5)

    def test_truncate_needs_keep_or_rows(self):
        with pytest.raises(FaultError, match="truncate"):
            FaultSpec(target="src", kind="truncate")

    def test_negative_delay_rejected(self):
        with pytest.raises(FaultError, match="delay"):
            FaultSpec(target="B1", kind="delay", delay=-1.0)

    def test_default_fire_limits(self):
        assert FaultSpec(target="B1", kind="transient").fire_limit == 1
        assert FaultSpec(target="B1", kind="permanent").fire_limit is None
        assert FaultSpec(target="B1", kind="transient", times=3).fire_limit == 3

    def test_glob_target(self):
        spec = FaultSpec(target="B*", kind="permanent")
        assert spec.matches("B1") and spec.matches("B17")
        assert not spec.matches("customers")

    def test_dict_round_trip(self):
        spec = FaultSpec(target="B2", kind="transient", times=2,
                         probability=0.5, message="flaky source")
        assert FaultSpec.from_dict({"target": "B2", "kind": "transient",
                                    "times": 2, "probability": 0.5,
                                    "message": "flaky source"}) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultError, match="unknown"):
            FaultSpec.from_dict({"target": "B1", "kind": "transient",
                                 "bogus": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(FaultError, match="missing"):
            FaultSpec.from_dict({"target": "B1"})


class TestDirtyFaultSpecs:
    def test_dirty_kind_needs_fraction_or_rows(self):
        for kind in ("corrupt-row", "type-flip", "null-burst"):
            with pytest.raises(FaultError, match="fraction"):
                FaultSpec(target="src", kind=kind)

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(FaultError, match="fraction"):
            FaultSpec(target="src", kind="corrupt-row", fraction=1.5)
        with pytest.raises(FaultError, match="fraction"):
            FaultSpec(target="src", kind="null-burst", fraction=-0.1)

    def test_fraction_rejected_on_non_dirty_kinds(self):
        with pytest.raises(FaultError, match="fraction"):
            FaultSpec(target="B1", kind="transient", fraction=0.1)

    def test_column_rename_needs_column(self):
        with pytest.raises(FaultError, match="column"):
            FaultSpec(target="src", kind="column-rename")

    def test_rename_to_only_for_column_rename(self):
        with pytest.raises(FaultError, match="rename_to"):
            FaultSpec(target="src", kind="null-burst", rows=1,
                      rename_to="x")

    def test_dirty_dict_round_trip(self):
        docs = (
            {"target": "Trade", "kind": "corrupt-row", "fraction": 0.01},
            {"target": "DimAccount", "kind": "null-burst", "rows": 3,
             "column": "account_id"},
            {"target": "DimSecurity", "kind": "type-flip", "fraction": 0.5},
            {"target": "DimDate", "kind": "column-rename",
             "column": "year_id", "rename_to": "yr"},
        )
        for doc in docs:
            assert FaultSpec.from_dict(doc) == FaultSpec(**doc)

    def test_injection_is_deterministic_and_tracked(self):
        table = Table.wrap({"id": list(range(100)), "v": list(range(100))})
        plan = FaultPlan(
            (FaultSpec(target="src", kind="null-burst", fraction=0.1),),
            seed=CHAOS_SEED,
        )
        first = plan.injector()
        poisoned = first.apply_sources({"src": table})
        victims = first.dirty_rows["src"]
        assert victims and len(victims) == 10
        # same seed, fresh injector: identical victim set and values
        second = plan.injector()
        again = second.apply_sources({"src": table})
        assert second.dirty_rows["src"] == victims
        assert list(again["src"].rows()) == list(poisoned["src"].rows())
        # the untouched original is untouched
        assert None not in set(table.column("v"))

    def test_rename_of_missing_column_is_a_noop(self):
        # glob targets may span heterogeneous schemas; a rename that finds
        # nothing to rename silently passes the table through
        table = Table.wrap({"id": [1, 2]})
        inj = FaultPlan(
            (FaultSpec(target="src", kind="column-rename",
                       column="ghost", rename_to="boo"),),
            seed=CHAOS_SEED,
        ).injector()
        out = inj.apply_sources({"src": table})
        assert out["src"].attrs == ("id",)


class TestFaultPlan:
    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan(
            specs=(
                FaultSpec(target="B1", kind="transient"),
                FaultSpec(target="customers", kind="truncate", keep=0.5),
            ),
            seed=CHAOS_SEED,
        )
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"seed": CHAOS_SEED, "faults": [
            {"target": "B1", "kind": "transient"},
            {"target": "customers", "kind": "truncate", "keep": 0.5},
        ]}))
        assert FaultPlan.from_file(path) == plan

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FaultError, match="cannot read"):
            FaultPlan.from_file(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(FaultError, match="JSON"):
            FaultPlan.from_file(path)

    def test_as_injector_normalizes(self):
        plan = FaultPlan()
        injector = plan.injector()
        assert as_injector(None) is None
        assert as_injector(injector) is injector
        assert as_injector(plan).plan is plan
        with pytest.raises(FaultError):
            as_injector("not a plan")


class TestFaultInjector:
    def test_transient_fires_once_by_default(self):
        inj = FaultPlan((FaultSpec(target="B1", kind="transient"),)).injector()
        with pytest.raises(TransientFault):
            inj.on_attempt("B1", ("B1",))
        inj.on_attempt("B1", ("B1",))  # second attempt is clean
        assert len(inj.events) == 1

    def test_permanent_fires_on_every_attempt(self):
        inj = FaultPlan((FaultSpec(target="B1", kind="permanent"),)).injector()
        for _ in range(3):
            with pytest.raises(PermanentFault):
                inj.on_attempt("B1", ("B1",))
        assert len(inj.events) == 3

    def test_times_bounds_firings(self):
        inj = FaultPlan(
            (FaultSpec(target="B1", kind="transient", times=2),)
        ).injector()
        for _ in range(2):
            with pytest.raises(TransientFault):
                inj.on_attempt("B1", ("B1",))
        inj.on_attempt("B1", ("B1",))

    def test_source_fault_fires_in_consuming_block(self):
        """A fault on a source surfaces as a load error in its reader."""
        inj = FaultPlan(
            (FaultSpec(target="customers", kind="permanent"),)
        ).injector()
        inj.on_attempt("B1", ("B1", "orders"))  # does not read customers
        with pytest.raises(PermanentFault, match="customers"):
            inj.on_attempt("B2", ("B2", "customers"))

    def test_per_task_budgets_are_independent(self):
        inj = FaultPlan((FaultSpec(target="B*", kind="transient"),)).injector()
        with pytest.raises(TransientFault):
            inj.on_attempt("B1", ("B1",))
        with pytest.raises(TransientFault):
            inj.on_attempt("B2", ("B2",))

    def test_truncate_keep_fraction(self):
        inj = FaultPlan(
            (FaultSpec(target="customers", kind="truncate", keep=0.5),)
        ).injector()
        sources = {"customers": Table({"id": list(range(10))}),
                   "orders": Table({"id": list(range(4))})}
        out = inj.apply_sources(sources)
        assert out["customers"].num_rows == 5
        assert out["orders"].num_rows == 4  # untouched
        assert sources["customers"].num_rows == 10  # input not mutated

    def test_truncate_absolute_rows(self):
        inj = FaultPlan(
            (FaultSpec(target="customers", kind="truncate", rows=3),)
        ).injector()
        out = inj.apply_sources({"customers": Table({"id": list(range(10))})})
        assert out["customers"].num_rows == 3

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(target="customers", kind="truncate", keep=0.5,
                      probability=0.0),
            FaultSpec(target="customers", kind="truncate", keep=0.5, times=0),
            FaultSpec(target="customers", kind="corrupt-row", rows=5,
                      probability=0.0),
        ],
        ids=["truncate-p0", "truncate-times0", "corrupt-row-p0"],
    )
    def test_source_faults_respect_their_budget(self, spec):
        inj = FaultPlan((spec,), seed=CHAOS_SEED).injector()
        table = Table({"id": list(range(10))})
        out = inj.apply_sources({"customers": table})
        assert list(out["customers"].rows()) == list(table.rows())
        assert inj.events == [] and inj.dirty_rows == {}

    def test_source_fault_event_names_the_source_once(self):
        inj = FaultPlan(
            (FaultSpec(target="customers", kind="truncate", keep=0.5),
             FaultSpec(target="customers", kind="null-burst", rows=2)),
            seed=CHAOS_SEED,
        ).injector()
        inj.apply_sources({"customers": Table({"id": list(range(10))})})
        assert [(e.task, e.kind, e.attempt) for e in inj.events] == [
            ("customers", "truncate", 1), ("customers", "null-burst", 1)
        ]

    def test_probabilistic_faults_are_seed_deterministic(self):
        plan = FaultPlan(
            (FaultSpec(target="B1", kind="transient", times=100,
                       probability=0.5),),
            seed=CHAOS_SEED,
        )

        def outcomes():
            inj = plan.injector()
            fired = []
            for _ in range(30):
                try:
                    inj.on_attempt("B1", ("B1",))
                    fired.append(False)
                except TransientFault:
                    fired.append(True)
            return fired

        first, second = outcomes(), outcomes()
        assert first == second
        assert any(first) and not all(first)  # p=0.5 actually gates

    def test_delay_fault_pauses_the_attempt(self):
        inj = FaultPlan(
            (FaultSpec(target="B1", kind="delay", delay=0.05, times=1),)
        ).injector()
        t0 = time.perf_counter()
        inj.on_attempt("B1", ("B1",))
        assert time.perf_counter() - t0 >= 0.05
        t0 = time.perf_counter()
        inj.on_attempt("B1", ("B1",))  # budget spent: no pause
        assert time.perf_counter() - t0 < 0.05


class TestClassifyError:
    @pytest.mark.parametrize(
        ("exc", "expected"),
        [
            (TransientFault("x"), "transient"),
            (PermanentFault("x"), "permanent"),
            (BlockTimeout("x"), "transient"),
            (TimeoutError("x"), "transient"),
            (ConnectionError("x"), "transient"),
            (ValueError("bad data"), "permanent"),
            (KeyError("missing"), "permanent"),
        ],
    )
    def test_triage(self, exc, expected):
        assert classify_error(exc) == expected


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy()
        rng = policy.rng_for("B1")
        for i in range(8):
            base = min(RetryPolicy.BASE_DELAY * 2**i, RetryPolicy.MAX_DELAY)
            assert base <= policy.backoff(i, rng) <= base * (1 + RetryPolicy.JITTER)

    def test_jitter_is_deterministic_per_task(self):
        policy = RetryPolicy(seed=CHAOS_SEED)
        a = [policy.backoff(i, policy.rng_for("B1")) for i in range(3)]
        b = [policy.backoff(i, policy.rng_for("B1")) for i in range(3)]
        assert a == b
        assert a != [policy.backoff(i, policy.rng_for("B2")) for i in range(3)]


def _task(name, requires, provides, fn):
    return Task(name=name, provides=provides, requires=tuple(requires), fn=fn)


class TestSchedulerRetries:
    def test_transient_failures_are_retried_to_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFault("still warming up")

        result = execute_tasks(
            [_task("a", ["s"], "a", flaky)], available=["s"], policy=FAST
        )
        assert not result.failures and result.completed == ["a"]
        assert len(calls) == 3

    def test_permanent_failure_is_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise PermanentFault("schema break")

        result = execute_tasks(
            [_task("a", ["s"], "a", broken)], available=["s"], policy=FAST
        )
        failure = result.failures["a"]
        assert failure.kind == "permanent" and failure.attempts == 1
        assert failure.error_type == "PermanentFault"
        assert len(calls) == 1

    def test_exhausted_retry_budget_records_transient(self):
        def always_flaky():
            raise TransientFault("never recovers")

        result = execute_tasks(
            [_task("a", ["s"], "a", always_flaky)], available=["s"],
            policy=FAST,
        )
        failure = result.failures["a"]
        assert failure.kind == "transient"
        assert failure.attempts == FAST.max_retries + 1

    def test_timeout_is_classified_and_retryable(self):
        policy = RetryPolicy(max_retries=1, block_timeout=0.05,
                             sleep=lambda s: None)
        started = []

        def hang():
            started.append(1)
            time.sleep(30)

        result = execute_tasks(
            [_task("a", ["s"], "a", hang)], available=["s"], policy=policy
        )
        failure = result.failures["a"]
        assert failure.kind == "timeout" and failure.attempts == 2
        assert len(started) == 2
        assert "deadline" in failure.error

    def test_dependents_of_a_failure_are_skipped(self):
        log = []

        def boom():
            raise PermanentFault("dead")

        tasks = [
            _task("a", ["s"], "a", boom),
            _task("b", ["a"], "b", lambda: log.append("b")),
            _task("c", ["b"], "c", lambda: log.append("c")),
            _task("x", ["s"], "x", lambda: log.append("x")),
        ]
        result = execute_tasks(
            tasks, available=["s"], policy=FAST
        )
        assert set(result.failures) == {"a", "b", "c"}
        assert result.failures["b"].kind == "skipped"
        assert result.failures["b"].missing == ("a",)
        assert result.failures["c"].kind == "skipped"
        assert log == ["x"]  # the independent branch still ran
        assert "skipped" in result.failures["b"].describe()

    def test_without_policy_exceptions_propagate(self):
        def boom():
            raise PermanentFault("dead")

        with pytest.raises(PermanentFault):
            execute_tasks(
                [_task("a", ["s"], "a", boom)], available=["s"]
            )

    def test_injector_wrapped_tasks_survive_with_one_retry(self):
        inj = FaultPlan(
            (FaultSpec(target="ta", kind="transient"),), seed=CHAOS_SEED
        ).injector()
        done = []
        tasks = inj.wrap_tasks([
            _task("ta", ["s"], "a", lambda: done.append("a")),
            _task("tb", ["a"], "b", lambda: done.append("b")),
        ])
        result = execute_tasks(
            tasks, available=["s"], policy=FAST
        )
        assert not result.failures and sorted(done) == ["a", "b"]
        assert len(inj.events) == 1


def test_backoff_sleeps_between_attempts():
    slept = []
    policy = RetryPolicy(max_retries=2, sleep=slept.append)

    def always_flaky():
        raise TransientFault("no luck")

    execute_tasks(
        [_task("a", ["s"], "a", always_flaky)], available=["s"], policy=policy
    )
    bases = [RetryPolicy.BASE_DELAY, 2 * RetryPolicy.BASE_DELAY]
    assert len(slept) == 2
    for delay, base in zip(slept, bases):
        assert base <= delay <= base * (1 + RetryPolicy.JITTER)
