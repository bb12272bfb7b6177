"""Command-line interface.

Entry points (``python -m repro.cli <command>`` or the ``repro-etl``
console script):

- ``analyze <workflow.json|.xml>`` -- print the optimizable-block
  decomposition of a serialized workflow;
- ``identify <workflow.json|.xml>`` -- run statistics identification
  (Algorithm 1 + the Section 5 selection) and print the chosen set;
- ``run --number N`` -- execute a suite workflow end to end on a chosen
  execution backend (``--backend columnar|streaming|vectorized|
  multiprocess``; ``--shards K`` for multi-process row sharding, which
  selects the multiprocess backend when ``--backend`` is not given) and
  print the observe-and-optimize report.  ``run`` selects statistics with
  the Section 5.3 greedy solver unless ``--solver ilp`` is given, so a
  default night never starts HiGHS.  Resilience flags: ``--faults spec.json``
  injects a deterministic chaos plan, ``--max-retries N`` and
  ``--block-timeout S`` configure the scheduler's retry/deadline policy,
  ``--resume checkpoint.json`` journals per-block progress to (and, if
  the file exists, resumes from) a run checkpoint; a failed block's
  estimates are backfilled from the ``--catalog``.  Observability:
  ``--trace [trace.json]`` records a span tree for the run (rendered to
  stdout; persisted when a path is given) and ``--metrics-out out.prom``
  exports the run's metric series (Prometheus text for ``.prom`` /
  ``.txt`` / ``.metrics`` suffixes, JSON otherwise);
- ``suite [--number N]`` -- describe the built-in 30-workflow benchmark;
- ``experiments <data|fig9|fig10|fig11|fig12>`` -- regenerate a Section 7
  table/figure and print it;
- ``export --number N --format json|xml`` -- dump a suite workflow as a
  document other tools (or the ``analyze``/``identify`` commands)
  consume; JSON output is byte-deterministic (sorted keys, stable node
  ordering) so exports diff cleanly in git;
- ``catalog <show|gc|import|export|plan-fleet>`` -- manage the shared
  statistics catalog: inspect entries with provenance and quality,
  garbage-collect expired/stale/low-quality entries, merge catalogs,
  print the deterministic JSON document, or compute the combined nightly
  observation plan that observes each statistic shared across suite
  workflows exactly once;
- ``serve --catalog CATALOG.JSON [--listen host:port|unix:///p.sock]`` --
  run the crash-safe statistics-catalog server: every write lands in a
  checksummed write-ahead log before it is acknowledged, snapshots are
  written behind and the WAL truncated, and a SIGKILL'd server replays
  the log on restart without losing an acknowledged entry.  Point runs
  at it with ``run --catalog http://host:port`` (or the unix URL); an
  unreachable server degrades the run to the local view
  (``--catalog-fallback``) with plan confidence demoted one rung.  A
  catalog is one daemon: ``--catalog`` names exactly one endpoint;
- ``trace show <trace.json>`` -- render a persisted run trace as an
  indented span tree, with the slowest blocks and the worst
  estimated-vs-actual row errors summarized below it;
- ``quality <infer|report>`` -- bootstrap source contracts from a suite
  workflow's clean sources, or summarize a quarantine dead-letter
  directory written by ``run --quarantine-dir``.

Data quality: ``run --contracts CONTRACTS.JSON`` arms the quality gate
(schema drift reconciled under ``--on-drift strict|coerce|ignore-extra``,
invalid rows quarantined before any block executes, so every observed
statistic excludes them); ``--quarantine-dir DIR`` persists the
dead-letter rows with structured violation records.

``run`` and ``identify`` accept ``--catalog CATALOG.JSON``: statistics
already in the catalog enter selection at zero cost (Section 6.2) and are
consumed instead of re-observed; after a ``run`` the catalog is
reconciled (drift-checked) and saved back.

Operational errors -- an unknown workflow number, an unreadable or corrupt
workflow/fault/checkpoint/trace file, a bad backend name -- exit with a
one-line message on stderr and status 1, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.algebra.blocks import analyze
from repro.algebra.operators import WorkflowError
from repro.algebra.serialize import (
    workflow_from_json,
    workflow_from_xml,
    workflow_to_json,
    workflow_to_xml,
)
from repro.core import select_statistics
from repro.core.costs import CostModel
from repro.core.generator import GeneratorOptions, generate_css
from repro.core.persistence import PersistenceError
from repro.engine.backend import available_backends
from repro.engine.faults import FaultError
from repro.quality import QualityError
from repro.workloads import case, suite


class CliError(Exception):
    """An operational error reported as one line on stderr, exit status 1."""


def _load_workflow(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read workflow file {path}: {exc}") from exc
    try:
        if path.endswith(".xml"):
            return workflow_from_xml(text)
        return workflow_from_json(text)
    except (ValueError, KeyError, TypeError, SyntaxError, WorkflowError) as exc:
        raise CliError(f"corrupt workflow file {path}: {exc}") from exc


def _case(number: int):
    try:
        return case(number)
    except KeyError as exc:
        raise CliError(
            f"unknown workflow number {number}; the suite has wf01..wf30 "
            "(see `repro-etl suite`)"
        ) from exc


def _cmd_analyze(args) -> int:
    workflow = _load_workflow(args.workflow)
    analysis = analyze(workflow)
    print(analysis.describe())
    for block in analysis.blocks:
        universe = block.universe()
        print(
            f"\n{block.name}: {len(universe)} sub-expressions, "
            f"{block.graph.count_trees()} join trees"
        )
        for se in universe:
            print(f"  {se!r}")
    return 0


def _open_catalog(path: str, must_exist: bool = False, fallback: str | None = None):
    from repro.serve.client import resolve_stats_catalog

    catalog = resolve_stats_catalog(path, fallback=fallback)
    # a file store's path is a Path, a served catalog's its URL
    if must_exist and isinstance(catalog.path, Path) and not catalog.path.exists():
        raise CliError(f"catalog file not found: {path}")
    return catalog


def _close_catalog(catalog) -> None:
    """Drop a served catalog's connections (a file store holds none)."""
    close = getattr(catalog, "close", None)
    if close is not None:
        close()


def _cmd_identify(args) -> int:
    workflow = _load_workflow(args.workflow)
    analysis = analyze(workflow)
    options = GeneratorOptions(
        union_division=not args.no_union_division,
        fk_rules=not args.no_fk,
    )
    catalog = generate_css(analysis, options)
    counts = catalog.counts()
    print(
        f"identified {counts['statistics']} statistics, "
        f"{counts['css']} candidate statistics sets "
        f"({counts['required']} cardinalities to cover)"
    )
    free_statistics = set()
    if args.catalog:
        from repro.catalog import WorkflowSigner

        # identify never writes a catalog, so a missing file is a typo
        stats_catalog = _open_catalog(args.catalog, must_exist=True)
        try:
            hits = stats_catalog.lookup(
                WorkflowSigner(analysis),
                catalog.all_statistics,
                count_hits=False,
            )
        finally:
            _close_catalog(stats_catalog)
        free_statistics = hits.free
        print(
            f"catalog {args.catalog}: {len(hits.free)} statistics already "
            "available at zero cost"
        )
    cost_model = CostModel(workflow.catalog)
    if args.budget is not None:
        from repro.core.resource import plan_constrained

        schedule = plan_constrained(
            analysis, catalog, cost_model, budget=args.budget,
            solver=args.solver, free=free_statistics,
            time_limit=args.time_limit,
        )
        print(
            f"memory budget {args.budget:g}: {schedule.executions} "
            f"execution(s), peak memory {schedule.peak_memory:g}"
        )
        if free_statistics and schedule.executions > 1:
            print(
                "  the optimum does not fit even with the catalog's "
                "zero-cost statistics; the multi-execution schedule below "
                "does not use them"
            )
        for i, step in enumerate(schedule.steps, start=1):
            print(f"  run {i}: observe {len(step.observe)} statistics "
                  f"({step.memory:g} units)")
            for name, tree in sorted(step.trees.items()):
                print(f"    {name}: {tree}")
        return 0
    result = select_statistics(
        catalog,
        cost_model,
        free=free_statistics,
        solver=args.solver,
        time_limit=args.time_limit,
    )
    print(result.describe())
    if args.verbose:
        print()
        print(catalog.describe())
    return 0


def _cmd_run(args) -> int:
    from repro.engine.faults import FaultPlan
    from repro.engine.scheduler import RetryPolicy
    from repro.framework.pipeline import StatisticsPipeline
    from repro.framework.recovery import RunCheckpoint

    wfcase = _case(args.number)
    workflow = wfcase.build()
    sources = wfcase.tables(scale=args.scale, seed=args.seed)
    if args.shards is not None:
        import os

        if args.backend not in (None, "multiprocess"):
            raise CliError(
                f"--shards needs the multiprocess backend, "
                f"not --backend {args.backend}"
            )
        if args.shards < 1:
            raise CliError(
                f"--shards must be a positive integer, got {args.shards}"
            )
        cap = (os.cpu_count() or 1) * 8
        if args.shards > cap:
            raise CliError(
                f"--shards {args.shards} exceeds {cap} "
                f"(8 x the {os.cpu_count() or 1} available CPUs); "
                "that many row shards would only add merge overhead"
            )
    pipeline = StatisticsPipeline(
        workflow,
        solver=args.solver,
        backend=args.backend or "columnar",
        shards=args.shards,
    )

    faults = FaultPlan.from_file(args.faults) if args.faults else None
    retry = None
    if args.max_retries or args.block_timeout is not None or faults is not None:
        retry = RetryPolicy(
            max_retries=args.max_retries,
            block_timeout=args.block_timeout,
            seed=args.seed,
        )
    checkpoint = None
    if args.resume:
        checkpoint = RunCheckpoint.open(
            args.resume, workflow=workflow.name, backend=pipeline.backend
        )
        if checkpoint.completed:
            print(
                f"resuming from {args.resume}: "
                f"{', '.join(sorted(checkpoint.completed))} already done"
            )
    stats_catalog = (
        _open_catalog(args.catalog, fallback=args.catalog_fallback)
        if args.catalog
        else None
    )

    quality = None
    if args.quarantine_dir and not args.contracts:
        raise CliError(
            "--quarantine-dir needs --contracts to arm the quality gate"
        )
    if args.contracts:
        from repro.quality import DEFAULT_POLICY, ContractSet, QualityGate

        contracts_path = Path(args.contracts)
        if contracts_path.exists():
            contracts = ContractSet.from_file(contracts_path)
        else:
            # first clean run: infer the contracts from tonight's sources
            # and persist them as the baseline future runs are held to
            contracts = ContractSet.infer(sources)
            contracts.save(contracts_path)
            print(
                f"contracts inferred from tonight's sources and saved to "
                f"{args.contracts} ({len(contracts)} source(s))"
            )
        quality = QualityGate(contracts, args.on_drift or DEFAULT_POLICY)

    tracer = None
    if args.trace is not None:
        from repro.obs import Tracer

        tracer = Tracer()
    metrics = None
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()

    report = pipeline.run_once(
        sources,
        faults=faults,
        retry=retry,
        checkpoint=checkpoint,
        stats_catalog=stats_catalog,
        run_id=f"wf{wfcase.number:02d}-seed{args.seed}",
        tracer=tracer,
        quality=quality,
    )
    total_in = sum(t.num_rows for t in sources.values())
    sharded = f" shards={pipeline.shards}" if pipeline.shards else ""
    print(
        f"wf{wfcase.number:02d} {wfcase.name} on "
        f"backend={pipeline.backend}{sharded} "
        f"({total_in} source rows)"
    )
    for name in sorted(report.run.targets):
        print(f"  target {name}: {report.run.targets[name].num_rows} rows")
    print(report.describe())
    print(
        "timings: "
        + ", ".join(f"{k} {v * 1e3:.1f}ms" for k, v in report.timings.items())
    )
    if stats_catalog is not None:
        print(
            f"catalog {args.catalog}: {report.catalog_hits} reused, "
            f"{len(report.tapped)} observed fresh, "
            f"{len(stats_catalog)} entries after reconcile"
        )
        _close_catalog(stats_catalog)
    if quality is not None:
        print(
            f"quality gate: {report.rows_quarantined} row(s) quarantined, "
            f"{len(report.violations)} violation(s), "
            f"{len(report.schema_drift)} schema drift event(s)"
        )
        if args.quarantine_dir:
            written = quality.quarantine.save(args.quarantine_dir)
            if written:
                print(
                    f"dead letter: {len(written)} artifact(s) written to "
                    f"{args.quarantine_dir}"
                )
            else:
                print(
                    f"dead letter: all sources clean, nothing written to "
                    f"{args.quarantine_dir}"
                )
    if tracer is not None:
        from repro.obs import render_trace, write_trace

        print()
        print(render_trace(tracer.root, top=args.top))
        if args.trace:
            write_trace(tracer, args.trace)
            print(f"trace written to {args.trace}")
    if metrics is not None:
        from repro.obs import record_run_metrics, write_metrics

        record_run_metrics(metrics, report)
        fmt = write_metrics(metrics, args.metrics_out)
        print(f"metrics ({fmt}) written to {args.metrics_out}")
    if report.failures:
        print(
            f"degraded run: {len(report.failures)} task(s) failed or were "
            f"skipped; plan confidence: "
            + ", ".join(f"{k}={v}" for k, v in sorted(report.plan_confidence.items()))
        )
        return 1
    return 0


def _cmd_suite(args) -> int:
    if args.number is not None:
        wfcase = _case(args.number)
        workflow = wfcase.build()
        print(f"wf{wfcase.number:02d} {wfcase.name}: {wfcase.description}")
        print(workflow.describe())
        print()
        print(analyze(workflow).describe())
        return 0
    for wfcase in suite():
        analysis = analyze(wfcase.build())
        arities = "/".join(str(b.n_way) for b in analysis.blocks)
        print(
            f"wf{wfcase.number:02d} {wfcase.name:24s} "
            f"blocks={len(analysis.blocks)} arities={arities:8s} "
            f"{wfcase.description}"
        )
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments import (
        SuiteContext,
        data_characteristics_rows,
        fig9_rows,
        fig10_rows,
        fig11_rows,
        fig12_rows,
        format_rows,
    )

    if args.figure == "data":
        header, rows = data_characteristics_rows()
    else:
        context = SuiteContext.build(args.workflows)
        if args.figure == "fig9":
            header, rows = fig9_rows(context)
        elif args.figure == "fig10":
            header, rows = fig10_rows(context, time_limit=args.time_limit)
        elif args.figure == "fig11":
            header, rows = fig11_rows(context, time_limit=args.time_limit)
        else:
            header, rows = fig12_rows(context)
    print(format_rows(header, rows))
    return 0


def _cmd_export(args) -> int:
    workflow = _case(args.number).build()
    if args.format == "xml":
        print(workflow_to_xml(workflow))
    else:
        print(workflow_to_json(workflow))
    return 0


# ---------------------------------------------------------------------------
# catalog command group
# ---------------------------------------------------------------------------


def _cmd_catalog_show(args) -> int:
    catalog = _open_catalog(args.path, must_exist=True)
    try:
        print(catalog.describe(stale_only=args.stale))
    finally:
        _close_catalog(catalog)
    return 0


def _cmd_catalog_gc(args) -> int:
    catalog = _open_catalog(args.path, must_exist=True)
    before = len(catalog.entries)
    removed = catalog.gc(
        ttl=args.ttl,
        min_quality=args.min_quality,
        drop_stale=not args.keep_stale,
    )
    # merge=False: a merging save would re-adopt the just-dropped entries
    # from the on-disk file and undo the collection
    try:
        catalog.save(merge=False)
    except OSError as exc:
        raise CliError(f"cannot write catalog {args.path}: {exc}") from exc
    print(f"gc: removed {removed} of {before} entries, {len(catalog.entries)} kept")
    return 0


def _cmd_catalog_export(args) -> int:
    import json as _json

    catalog = _open_catalog(args.path, must_exist=True)
    try:
        print(_json.dumps(catalog.to_dict(), indent=1, sort_keys=True))
    finally:
        _close_catalog(catalog)
    return 0


def _cmd_catalog_import(args) -> int:
    catalog = _open_catalog(args.path)
    imported = 0
    for source in args.sources:
        imported += catalog.merge(_open_catalog(source, must_exist=True))
    try:
        catalog.save()
    except OSError as exc:
        raise CliError(f"cannot write catalog {args.path}: {exc}") from exc
    print(f"imported {imported} entries; catalog has {len(catalog.entries)}")
    return 0


def _cmd_catalog_plan_fleet(args) -> int:
    from repro.catalog import plan_fleet

    catalog = _open_catalog(args.path) if args.path else None
    numbers = args.numbers or [c.number for c in suite()]
    workflows = [_case(n).build() for n in numbers]
    plan = plan_fleet(workflows, catalog, solver=args.solver)
    print(plan.describe())
    return 0


# ---------------------------------------------------------------------------
# catalog server
# ---------------------------------------------------------------------------


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.core.persistence import PersistenceError
    from repro.serve.server import make_server

    try:
        server = make_server(
            args.listen,
            args.catalog,
            wal_path=args.wal,
            log_path=args.log,
            snapshot_every=args.snapshot_every,
            snapshot_interval=args.snapshot_interval,
            gc_interval=args.gc_interval,
            fsync=not args.no_fsync,
        )
    except (OSError, PersistenceError) as exc:
        raise CliError(f"cannot start catalog server: {exc}") from exc
    service = server.service
    print(
        f"catalog server: {args.listen} serving "
        f"{args.catalog} ({len(service.all_entries())} entries, "
        f"{service.replayed_records} WAL record(s) replayed)",
        flush=True,
    )

    def _term(signum, frame):
        # SIGTERM drains gracefully: stop accepting, let in-flight
        # requests finish replying, take a final snapshot, drop the
        # WAL lock, exit 0.  shutdown() blocks until serve_forever
        # returns, so it must not run on this (main) thread's signal
        # frame -- hand it to a helper and fall through to the drain.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _term)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.drain(10.0)
        server.server_close()
        server.shutdown_service()
    print("catalog server stopped: snapshot taken, WAL truncated")
    return 0


# ---------------------------------------------------------------------------
# quality command group
# ---------------------------------------------------------------------------


def _cmd_quality_infer(args) -> int:
    from repro.quality import ContractSet

    wfcase = _case(args.number)
    sources = wfcase.tables(scale=args.scale, seed=args.seed)
    contracts = ContractSet.infer(sources)
    contracts.save(args.out)
    print(
        f"contracts for wf{wfcase.number:02d} ({len(contracts)} "
        f"source(s)) inferred and saved to {args.out}"
    )
    print(contracts.describe())
    return 0


def _cmd_quality_report(args) -> int:
    from repro.quality import QuarantineStore

    store = QuarantineStore.load_dir(args.directory)
    print(store.describe())
    return 0


# ---------------------------------------------------------------------------
# trace command group
# ---------------------------------------------------------------------------


def _cmd_trace_show(args) -> int:
    from repro.obs import load_trace, render_trace

    doc = load_trace(args.path)
    header = []
    if doc.workflow:
        header.append(doc.workflow)
    if doc.run_id:
        header.append(f"run {doc.run_id}")
    if header:
        print(f"trace of {' '.join(header)} ({args.path})")
    print(render_trace(doc.root, top=args.top, verbose=args.verbose))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro-etl argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro-etl",
        description="Essential-statistics identification for ETL workflows "
        "(EDBT 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decompose a workflow into blocks")
    p.add_argument("workflow", help="path to a .json or .xml workflow export")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("identify", help="select the optimal statistics set")
    p.add_argument("workflow")
    p.add_argument("--solver", choices=("ilp", "greedy"), default="ilp")
    p.add_argument("--time-limit", type=float, default=30.0)
    p.add_argument("--no-union-division", action="store_true")
    p.add_argument("--no-fk", action="store_true")
    p.add_argument(
        "--budget",
        type=float,
        default=None,
        help="observation-memory budget; schedules multiple executions "
        "when the optimum does not fit (Section 6.1)",
    )
    p.add_argument(
        "--catalog",
        default=None,
        metavar="CATALOG.JSON",
        help="shared statistics catalog; entries it covers enter the "
        "selection problem at zero cost (Section 6.2)",
    )
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_identify)

    p = sub.add_parser(
        "run", help="execute a suite workflow on a chosen backend"
    )
    p.add_argument("--number", type=int, required=True)
    p.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="execution backend for the instrumented run (default: "
        "columnar, or multiprocess when --shards is given)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="row shards per block on the multiprocess backend",
    )
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--solver", choices=("ilp", "greedy"), default="greedy")
    p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC.JSON",
        help="fault-injection plan for a deterministic chaos run",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="retries per block for transient failures (exponential backoff)",
    )
    p.add_argument(
        "--block-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt deadline; a hung block counts as a transient failure",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="CHECKPOINT.JSON",
        help="run-checkpoint file: progress is journaled here after every "
        "block, and an existing file resumes the run (finished blocks are "
        "restored, not re-executed)",
    )
    p.add_argument(
        "--catalog",
        default=None,
        metavar="CATALOG.JSON|URL",
        help="shared statistics catalog: covered statistics are consumed "
        "at zero cost instead of re-observed, and what it remembers "
        "backfills a block that permanently fails; the run reconciles "
        "(drift-checks) and saves the catalog afterwards.  A "
        "http://host:port or unix:///path.sock URL talks to a "
        "`repro-etl serve` daemon instead of a local file",
    )
    p.add_argument(
        "--catalog-fallback",
        default=None,
        metavar="CATALOG.JSON",
        help="local catalog file a URL --catalog degrades to when the "
        "server is unreachable (the run completes either way)",
    )
    p.add_argument(
        "--contracts",
        default=None,
        metavar="CONTRACTS.JSON",
        help="source-contract file arming the data-quality gate; a missing "
        "file is bootstrapped by inferring contracts from tonight's "
        "sources and saving them here",
    )
    p.add_argument(
        "--quarantine-dir",
        default=None,
        metavar="DIR",
        help="write one dead-letter artifact per unclean source here "
        "(inspect with `repro-etl quality report`); needs --contracts",
    )
    p.add_argument(
        "--on-drift",
        choices=("strict", "coerce", "ignore-extra"),
        default=None,
        help="schema-drift policy for contracted sources "
        "(default: coerce)",
    )
    p.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="TRACE.JSON",
        help="record a span tree for the run and render it; with a path, "
        "also persist it for `repro-etl trace show`",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="OUT",
        help="export the run's metric series here (Prometheus text for "
        ".prom/.txt/.metrics suffixes, JSON otherwise)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=5,
        help="rows in the slowest-blocks / worst-estimates tables (--trace)",
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("suite", help="describe the 30-workflow benchmark")
    p.add_argument("--number", type=int, default=None)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("experiments", help="regenerate a Section 7 figure")
    p.add_argument(
        "figure", choices=("data", "fig9", "fig10", "fig11", "fig12")
    )
    p.add_argument("--time-limit", type=float, default=15.0)
    p.add_argument(
        "--workflows",
        type=int,
        nargs="*",
        default=None,
        help="restrict to these workflow numbers",
    )
    p.set_defaults(fn=_cmd_experiments)

    p = sub.add_parser("export", help="dump a suite workflow as json/xml")
    p.add_argument("--number", type=int, required=True)
    p.add_argument("--format", choices=("json", "xml"), default="json")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser(
        "serve",
        help="run the crash-safe statistics-catalog server "
        "(point clients at it with `run --catalog URL`)",
    )
    p.add_argument(
        "--listen",
        default="127.0.0.1:8642",
        metavar="HOST:PORT|unix:///PATH.sock",
        help="address to serve on (unix sockets give the lowest latency)",
    )
    p.add_argument(
        "--catalog",
        required=True,
        metavar="CATALOG.JSON",
        help="the catalog snapshot file; created if missing",
    )
    p.add_argument(
        "--wal",
        default=None,
        metavar="WAL",
        help="write-ahead log path (default: <catalog>.wal)",
    )
    p.add_argument(
        "--log",
        default=None,
        metavar="LOG",
        help="append request/error lines to this file",
    )
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help="write-behind snapshot + WAL truncation cadence in records",
    )
    p.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip per-record fsync (faster, loses crash durability)",
    )
    p.add_argument(
        "--snapshot-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="background snapshot+GC daemon cadence (default 30s); the "
        "write path only flags snapshot debt, the daemon pays it",
    )
    p.add_argument(
        "--gc-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire aged catalog entries on the snapshot daemon at this "
        "cadence (default: never)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "catalog", help="manage the shared cross-workflow statistics catalog"
    )
    catalog_sub = p.add_subparsers(dest="catalog_command", required=True)

    c = catalog_sub.add_parser("show", help="list entries with provenance")
    c.add_argument("path", help="catalog file")
    c.add_argument("--stale", action="store_true", help="stale entries only")
    c.set_defaults(fn=_cmd_catalog_show)

    c = catalog_sub.add_parser(
        "gc", help="drop expired, stale and low-quality entries"
    )
    c.add_argument("path")
    c.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="expire entries older than this (default: the catalog TTL)",
    )
    c.add_argument(
        "--min-quality", type=float, default=None, metavar="Q",
        help="drop entries whose quality score is below Q",
    )
    c.add_argument(
        "--keep-stale", action="store_true",
        help="keep drift-marked entries (they still never match lookups)",
    )
    c.set_defaults(fn=_cmd_catalog_gc)

    c = catalog_sub.add_parser(
        "export", help="print the deterministic catalog document"
    )
    c.add_argument("path")
    c.set_defaults(fn=_cmd_catalog_export)

    c = catalog_sub.add_parser("import", help="merge other catalogs in")
    c.add_argument("path", help="destination catalog file")
    c.add_argument(
        "sources", nargs="+", help="other catalog files to merge in"
    )
    c.set_defaults(fn=_cmd_catalog_import)

    c = catalog_sub.add_parser(
        "plan-fleet",
        help="one combined nightly observation plan across suite workflows",
    )
    c.add_argument(
        "path", nargs="?", default=None,
        help="catalog file contributing zero-cost entries (optional)",
    )
    c.add_argument(
        "--numbers", type=int, nargs="*", default=None,
        help="suite workflow numbers (default: all 30)",
    )
    c.add_argument("--solver", choices=("ilp", "greedy"), default="greedy")
    c.set_defaults(fn=_cmd_catalog_plan_fleet)

    p = sub.add_parser(
        "quality", help="source contracts and quarantine dead letters"
    )
    quality_sub = p.add_subparsers(dest="quality_command", required=True)

    q = quality_sub.add_parser(
        "infer", help="bootstrap contracts from a suite workflow's sources"
    )
    q.add_argument("--number", type=int, required=True)
    q.add_argument("--scale", type=float, default=0.1)
    q.add_argument("--seed", type=int, default=7)
    q.add_argument(
        "--out", required=True, metavar="CONTRACTS.JSON",
        help="where to save the inferred contract set",
    )
    q.set_defaults(fn=_cmd_quality_infer)

    q = quality_sub.add_parser(
        "report", help="summarize a quarantine dead-letter directory"
    )
    q.add_argument(
        "directory", help="directory written by `run --quarantine-dir`"
    )
    q.set_defaults(fn=_cmd_quality_report)

    p = sub.add_parser("trace", help="inspect persisted run traces")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    t = trace_sub.add_parser(
        "show", help="render a trace file as an indented span tree"
    )
    t.add_argument("path", help="trace file written by `run --trace`")
    t.add_argument(
        "--top",
        type=int,
        default=5,
        help="rows in the slowest-blocks / worst-estimates tables",
    )
    t.add_argument(
        "--verbose", action="store_true",
        help="show every operator point (no per-block elision)",
    )
    t.set_defaults(fn=_cmd_trace_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, FaultError, PersistenceError, QualityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (e.g. piped into `head`); exit quietly --
        # point stdout at devnull so the interpreter's final flush does
        # not raise a second time
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
