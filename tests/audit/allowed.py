"""Functions under ``src/repro/`` that no user flow executes, knobs that no
user flow sets, and why they stay.

:data:`ALLOWED`: each key is ``file::qualified.name`` (file relative to
``src/repro/``); each value is ``(category, executor)``: one of
:data:`CATEGORIES` and the test, bench or nightbench file that executes
the function.

:data:`KNOBS`: each key is ``file::Qualified.name(parameter)`` (a class's
``__init__`` or dataclass field written ``Class(field)``) or ``repro-etl
command --option``; each value is ``(category, why)``: one of
:data:`KNOB_CATEGORIES` and the file that sets it (a test, bench or
nightbench file) or the reason it stays.
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

KNOB_CATEGORIES = {
    "deployment": "an address or a path",
    "test-seam": "an injected clock, sleep, now, RNG seed or fault hook",
    "paper": "a Section 5.4 cost weight or a Fig 9/11 ablation",
    "nightbench": "a name or argument nightbench/ sets or reads",
    "safety": "bounds or checks what comes from outside the program "
              "(simplicity-review guide)",
    "record": "a field of a result record, filled after construction",
}

_FILLED = "filled after construction"
_CATALOG_STATE = "tests/serve/test_catalog_state.py"
_FAULTS = "tests/engine/test_faults.py"
_DIST = "tests/dist/test_multiprocess_backend.py"

KNOBS: dict[str, tuple[str, str]] = {
    # result records: the producer fills them in after building the record
    **{f"algebra/schema.py::Catalog({f})": (
        "record", "filled by add_relation / add_foreign_key")
       for f in ("relations", "foreign_keys")},
    **{f"catalog/drift.py::DriftReport({f})": ("record", "filled by reconcile_run")
       for f in ("added", "drifted", "max_rel_error", "refreshed", "stale_marked")},
    "catalog/fleet.py::FleetPlan(workflows)": ("record", "filled by plan_fleet"),
    **{f"catalog/store.py::CatalogHits({f})": ("record", "filled by lookup")
       for f in ("free", "keys", "unusable", "values")},
    **{f"core/css.py::CssCatalog({f})": ("record", "filled by generate_css")
       for f in ("block_of", "css", "observable", "required", "steps")},
    **{f"engine/backend.py::WorkflowRun({f})": ("record", "filled by the executor")
       for f in ("failures", "observations", "rejects", "restored_statistics",
                 "resumed", "se_sizes", "shard_stats", "targets")},
    **{f"engine/scheduler.py::ScheduleResult({f})": ("record", "filled by execute_tasks")
       for f in ("completed", "failures")},
    "framework/session.py::EtlSession(history)": ("record", "one RunRecord per run"),
    "quality/contracts.py::ContractSet(contracts)": ("record", "filled by infer / from_file"),
    **{f"quality/quarantine.py::QuarantineStore({f})": ("record", "filled by the gate")
       for f in ("drift", "tables", "violations")},
    "workloads/datagen.py::TableSpec(columns)": ("record", "filled by TableSpec.column"),
    # injected clocks, sleeps, `now`s, seeds and fault hooks
    "catalog/drift.py::reconcile_run(now)": ("test-seam", "tests/catalog/test_drift.py"),
    "catalog/fleet.py::plan_fleet(now)": ("test-seam", "tests/catalog/test_fleet.py"),
    "catalog/store.py::StatisticsCatalog.gc(now)": ("test-seam", "tests/catalog/test_store.py"),
    "catalog/store.py::StatisticsCatalog.lookup(now)": (
        "test-seam", "tests/catalog/test_store.py"),
    "serve/client.py::CatalogClient.gc(now)": ("test-seam", _CATALOG_STATE),
    "serve/client.py::CatalogClient.lookup(now)": ("test-seam", _CATALOG_STATE),
    "serve/client.py::CatalogClient.usable_keys(now)": ("test-seam", _CATALOG_STATE),
    "serve/service.py::CatalogService.lookup(now)": ("test-seam", _CATALOG_STATE),
    "serve/service.py::CatalogService.usable_keys(now)": ("test-seam", _CATALOG_STATE),
    "serve/service.py::CatalogService(clock)": ("test-seam", "tests/serve/test_service.py"),
    **{f"serve/client.py::CatalogClient({f})": (
        "test-seam", "tests/serve/test_server_client.py")
       for f in ("sleep", "seed", "faults")},
    "engine/scheduler.py::RetryPolicy(sleep)": ("test-seam", _FAULTS),
    "framework/pipeline.py::StatisticsPipeline(clock)": (
        "test-seam", "tests/obs/test_pipeline_tracing.py"),
    "obs/trace.py::Tracer(clock)": ("test-seam", "tests/obs/test_trace.py"),
    "obs/trace.py::Tracer(wall_clock)": ("test-seam", "tests/obs/test_trace.py"),
    "framework/session.py::EtlSession(faults)": (
        "test-seam", "tests/quality/test_pipeline_quality.py"),
    **{f"engine/faults.py::FaultSpec({f})": ("test-seam", _FAULTS)
       for f in ("delay", "keep", "probability", "rows", "shard")},
    "cli.py::main(argv)": ("test-seam", "tests/test_cli.py"),
    "repro-etl run --seed": ("test-seam", "the synthetic sources' RNG seed"),
    # shards run in-process (as on a platform without fork); the fork
    # state is then passed in, and tiny test tables still shard
    "engine/dist/backend.py::MultiprocessBackend(inline)": (
        "test-seam", "tests/engine/test_compile.py"),
    "engine/dist/backend.py::MultiprocessBackend(factors)": ("test-seam", "tests/oracle.py"),
    "engine/dist/worker.py::run_shard(state)": (
        "test-seam", "tests/engine/test_compile.py"),
    # names and arguments nightbench/ reads
    "catalog/store.py::StatisticsCatalog.save(path)": ("nightbench", "nightbench/trace.py"),
    # the Section 5.4 cost weights and the Figure 9/11 rule ablations
    **{f"{where}({f})": ("paper", "tests/framework/test_session.py")
       for where in ("core/costs.py::CostModel",
                     "framework/pipeline.py::StatisticsPipeline")
       for f in ("memory_weight", "cpu_weight")},
    "repro-etl identify --no-union-division": (
        "paper", "the Figure 9/11 with/without union-division ablation"),
    "repro-etl identify --no-fk": (
        "paper", "the Figure 10 harness's rule set (fk_rules=False)"),
    # a materialized reject link (Figure 3); no suite workflow executes one
    "algebra/operators.py::Join(reject_right)": ("paper", "tests/engine/test_physical.py"),
    "engine/physical.py::hash_join(want_reject_left)": (
        "paper", "tests/engine/test_physical.py"),
    "engine/physical.py::hash_join(want_reject_right)": (
        "paper", "tests/engine/test_physical.py"),
    # the Figure 2 loop "can either repeat at each run or" every n runs
    "framework/session.py::EtlSession(reoptimize_every)": (
        "paper", "tests/framework/test_session.py"),
    # bounds on a wait or a failure, and checks of outside input
    **{f"catalog/store.py::catalog_lock({f})": ("safety", "tests/catalog/test_lock.py")
       for f in ("poll", "stale_after", "timeout")},
    **{f"serve/client.py::CatalogClient({f})": (
        "safety", "tests/serve/test_server_client.py")
       for f in ("timeout",)},
    **{f"engine/dist/backend.py::MultiprocessBackend({f})": ("safety", _DIST)
       for f in ("shard_retries", "shard_timeout")},
    "framework/session.py::EtlSession(retry)": ("safety", "tests/framework/test_recovery.py"),
    "framework/session.py::EtlSession(quality)": (
        "safety", "tests/quality/test_pipeline_quality.py"),
    "quality/contracts.py::ColumnContract(domain)": (
        "safety", "tests/quality/test_contracts.py"),
    # where a deployment keeps its statistics: a catalog file or a served URL
    "framework/session.py::EtlSession(stats_catalog)": (
        "deployment", "tests/framework/test_recovery.py"),
}
