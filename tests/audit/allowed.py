"""Functions under ``src/repro/`` that no user flow executes, and why they stay.

Each key is ``file::qualified.name`` (file relative to ``src/repro/``);
each value is ``(category, executor)``: one of :data:`CATEGORIES` and the
test, bench or nightbench file that executes the function.
"""

CATEGORIES = {
    "safety": "checks outside input, handles an error a call can return, "
              "or detects / recovers from a fault (simplicity-review guide)",
    "reference": "a reference implementation the oracle tests compare against",
    "paper-rule": "a paper rule or plan construct no flow selects "
                  "(J3-J5, D1, G2 evaluation; materialized reject links)",
    "nightbench": "a name nightbench/ binds",
    "special": "a special method Python calls implicitly",
    "baseline": "a Section 2 baseline a bench reproduces",
}

_STRATEGIES = "benchmarks/bench_ablation_strategies.py"
_CALCULATOR = "tests/estimation/test_calculator.py"

ALLOWED: dict[str, tuple[str, str]] = {
    # XPLUS-style explore/exploit [8] and the exhaustive tree space it samples
    "algebra/enumeration.py::JoinGraph.enumerate_trees": ("baseline", _STRATEGIES),
    "algebra/enumeration.py::JoinGraph.enumerate_trees.build": ("baseline", _STRATEGIES),
    "baselines/explore.py::ExploreExploitSession.__post_init__": ("baseline", _STRATEGIES),
    "baselines/explore.py::ExploreExploitSession.estimate": ("baseline", _STRATEGIES),
    "baselines/explore.py::ExploreExploitSession.plan_cost": ("baseline", _STRATEGIES),
    "baselines/explore.py::ExploreExploitSession.unknown_ses": ("baseline", _STRATEGIES),
    "baselines/explore.py::ExploreExploitSession.choose_trees": ("baseline", _STRATEGIES),
    "baselines/explore.py::ExploreExploitSession.run": ("baseline", _STRATEGIES),
    "baselines/explore.py::ExploreExploitSession.fully_explored": (
        "baseline", "tests/baselines/test_explore.py"),
    "baselines/explore.py::ExploreExploitSession.cumulative_cost": ("baseline", _STRATEGIES),
    # the uniformity + independence estimate the accuracy bench compares with
    "baselines/independence.py::IndependenceEstimator.all_cardinalities": (
        "baseline", "benchmarks/bench_accuracy.py"),
    # the per-block bound the coverage schedules are checked against
    "baselines/payg.py::semantic_lower_bound": (
        "reference", "tests/baselines/test_payg.py"),
    # J3 (multiply), J4/J5 (divide, add), D1 (distinct_count): the rules the
    # calculator evaluates when a selection picks them; no flow's does
    "core/histogram.py::Histogram.multiply": ("paper-rule", _CALCULATOR),
    "core/histogram.py::Histogram.divide": ("paper-rule", _CALCULATOR),
    "core/histogram.py::Histogram._broadcast": ("paper-rule", _CALCULATOR),
    "core/histogram.py::Histogram.add": ("paper-rule", _CALCULATOR),
    "core/histogram.py::Histogram.distinct_count": ("paper-rule", _CALCULATOR),
    "estimation/calculator.py::group_distinct": ("paper-rule", _CALCULATOR),
    "core/histogram.py::Histogram.__eq__": ("special", "tests/core/test_histogram.py"),
    "core/histogram.py::Histogram.__hash__": ("special", "tests/core/test_histogram.py"),
    # the full fixpoint the estimator's targeted one is compared against
    "estimation/calculator.py::StatisticsCalculator.compute_all": (
        "reference", "tests/proptest/test_css_ground_truth.py"),
    "estimation/calculator.py::compute_statistics": (
        "reference", "tests/proptest/test_css_ground_truth.py"),
    # the row-at-a-time operators tests/oracle.py replays every plan with
    "engine/physical.py::apply_transform": (
        "reference", "tests/engine/test_backend_equivalence.py"),
    "engine/physical.py::apply_project": (
        "reference", "tests/engine/test_backend_equivalence.py"),
    # the per-draw sampler sample_many must equal draw for draw
    "workloads/datagen.py::ZipfSampler.sample": (
        "reference", "tests/workloads/test_workloads.py"),
    # a materialized reject link (reject_left / reject_right): no suite
    # workflow materializes one, so no flow executes its table or its
    # sharded observation
    "engine/compile/runtime.py::_reject_table": (
        "paper-rule", "tests/engine/test_executor.py"),
    "engine/compile/runtime.py::ObservationBuffer.add_reject": (
        "paper-rule", "tests/engine/test_executor.py"),
    "engine/dist/sharding.py::reject_is_sharded": (
        "paper-rule", "tests/dist/test_sharding.py"),
    "algebra/operators.py::Predicate.__call__": (
        "special", "tests/algebra/test_operators.py"),
    "algebra/operators.py::UdfSpec.__call__": (
        "special", "tests/algebra/test_operators.py"),
    "engine/compile/cache.py::PlanCache.__len__": (
        "special", "tests/engine/test_compile.py"),
    # faults: injected ones (the hooks the chaos suites drive) and the paths
    # that recover from them
    "engine/dist/backend.py::MultiprocessBackend._inline_fault": (
        "safety", "tests/dist/test_multiprocess_backend.py"),
    "engine/faults.py::FaultInjector.on_request": (
        "safety", "tests/serve/test_server_client.py"),
    "catalog/store.py::CatalogHits.prior_values": (
        "safety", "tests/framework/test_recovery.py"),
    # a traced attempt under a block deadline runs on its own thread
    "obs/trace.py::Tracer.activate": ("safety", "tests/obs/test_trace.py"),
    # the untraced tracer: a cold-path call is a no-op, not an AttributeError
    "obs/trace.py::NullTracer.root": ("safety", "tests/obs/test_trace.py"),
    "obs/trace.py::NullTracer.current": ("safety", "tests/obs/test_trace.py"),
    "obs/trace.py::NullTracer.point": ("safety", "tests/obs/test_trace.py"),
    "obs/trace.py::NullTracer.activate": ("safety", "tests/obs/test_trace.py"),
    "obs/trace.py::NullTracer.finish": ("safety", "tests/obs/test_trace.py"),
    "obs/trace.py::NullTracer.find": ("safety", "tests/obs/test_trace.py"),
    "obs/trace.py::NullTracer.to_dict": ("safety", "tests/obs/test_trace.py"),
    # contracts screening extracts that come from outside the program
    "quality/contracts.py::_is_number": ("safety", "tests/quality/test_contracts.py"),
    "quality/contracts.py::_compile_domain.all_of": (
        "safety", "tests/quality/test_contracts.py"),
    "quality/contracts.py::ColumnContract.checker.ok": (
        "safety", "tests/quality/test_contracts.py"),
    "quality/drift.py::_coerce_value": ("safety", "tests/quality/test_drift.py"),
    # snapshots make the daemon's state durable and bound its WAL
    "serve/service.py::CatalogService.snapshot_due": (
        "safety", "tests/serve/test_service.py"),
    "serve/service.py::CatalogService.maybe_snapshot": (
        "safety", "tests/serve/test_service.py"),
    "serve/service.py::SnapshotDaemon.run_once": (
        "safety", "tests/serve/test_service.py"),
}
