"""The four closed-loop, single-client workloads.

Each workload times one *pass* made of two *legs* (``leg1_s`` / ``leg2_s``
in ``BENCHMARK.json``; ``pass_s`` is their sum):

================  ==============================  ===============================
workload          leg 1                           leg 2
================  ==============================  ===============================
``ident-suite``   cold identification of wf21     ... of the other 29 workflows
``exec-scale``    four warm nights, default       the same nights, ``streaming``
``fleet-file``    fleet night 1, empty catalog    fleet night 2, catalog full
``fleet-served``  the same against a daemon       the same against a daemon
================  ==============================  ===============================

The system is driven only through its public surface:
``StatisticsPipeline(workflow, backend=...)``, ``.select_statistics()``,
``.run_once(sources, stats_catalog=<path or URL string>, run_id=...)``,
``repro.workloads.suite()/case(n)`` and ``python -m repro.cli serve`` as a
child process.  ``--seed`` drives ``case.tables(seed=...)`` and, where the
operations are independent of each other, the order in which workflows are
visited.  Sizes are chosen so one pass takes 2-4 s on a 2-core box; see
README.md for why each workload exists.
"""

from __future__ import annotations

import glob
import os
import random
import signal
import statistics
import subprocess
import sys
import time

import repro
from repro import BackendExecutor, StatisticsPipeline, get_backend
from repro.core.selection import build_problem
from repro.serve.client import CatalogClient, CatalogUnavailable
from repro.workloads import case

from nightbench import checks

#: the hardest identification instance (774 statistics, 4,897 CSSs)
FLAGSHIP = 21


class Workload:
    """Shared plumbing: seeded order, golden rows, data generation."""

    name = ""

    def __init__(self, rec, seed: int, quick: bool):
        self.rec = rec
        self.seed = seed
        self.quick = quick
        self.golden = checks.load_golden()
        self.datagen_s = 0.0
        self.rows = 0

    def shuffled(self, numbers) -> list:
        """Seeded visiting order, for operations that do not feed each other."""
        cases = [case(n) for n in numbers]
        random.Random(self.seed).shuffle(cases)
        return cases

    def generate(self, cases, scale: float) -> dict:
        start = time.perf_counter()
        data = {c.number: c.tables(scale=scale, seed=self.seed) for c in cases}
        self.datagen_s += time.perf_counter() - start
        self.rows += sum(t.num_rows for d in data.values() for t in d.values())
        return data

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> None:
        raise NotImplementedError

    def run_extras(self) -> None:
        """Traced run only, after the passes that feed the shared metrics."""

    def close(self) -> None:
        pass


class IdentSuite(Workload):
    """Cold identification of the suite.  No data, no engine, no catalog."""

    name = "ident-suite"

    def setup(self) -> None:
        numbers = (2, 9, 11, FLAGSHIP) if self.quick else range(1, 31)
        self.cases = self.shuffled(numbers)
        for number in (2, 11, 28):  # finish lazy imports (HiGHS, scipy.sparse)
            StatisticsPipeline(case(number).build()).select_statistics()

    def identify(self, workflow):
        with self.rec.span("pipeline_init"):
            pipeline = StatisticsPipeline(workflow)
        with self.rec.span("night"):
            return pipeline, pipeline.select_statistics()

    def run_pass(self, index: int) -> None:
        rec = self.rec
        # a fresh Workflow per identification, built off the clock
        workflows = [(c.number, c.build()) for c in self.cases]
        rec.begin_leg()
        for number, workflow in workflows:
            leg = "leg1" if number == FLAGSHIP else "leg2"
            done = rec.timed(leg, number, lambda: self.identify(workflow))
            if done is not None:
                pipeline, selection = done
                rec.verify(checks.selection_problems(
                    pipeline, selection, self.golden[number], cold=True))

    def run_extras(self) -> None:
        """Greedy on the same problems: its time and its cost ratio."""
        ilp_cost = greedy_cost = 0.0
        for c in self.cases:
            pipeline = StatisticsPipeline(c.build())
            problem = build_problem(pipeline.catalog, pipeline.cost_model())
            # looked up at call time: the tracer rebinds ``repro.solve_greedy``
            greedy = self.rec.timed("greedy", c.number,
                                    lambda: repro.solve_greedy(problem))
            if greedy is not None:
                greedy_cost += greedy.total_cost
                ilp_cost += self.golden[c.number]["cost"]
        self.rec.extras["core.greedy_cost_ratio"] = (
            greedy_cost / ilp_cost if ilp_cost else 0.0)


class ExecScale(Workload):
    """Warm nights at scale: the pipeline is reused and the plan cache warm,
    so the engine does the night and identification is a small fixed cost."""

    name = "exec-scale"
    NUMBERS = (11, 19, 22, 30)
    BACKENDS = {"leg1": "columnar", "leg2": "streaming"}

    def setup(self) -> None:
        self.cases = self.shuffled(self.NUMBERS)
        self.data = self.generate(self.cases, scale=2 if self.quick else 30)
        self.pipelines = {
            leg: {c.number: StatisticsPipeline(c.build(), backend=backend)
                  for c in self.cases}
            for leg, backend in self.BACKENDS.items()
        }
        for pipelines in self.pipelines.values():  # warm the plan caches
            for number, pipeline in pipelines.items():
                pipeline.run_once(self.data[number], run_id="warm-up")

    def night(self, pipeline, number: int, run_id: str):
        with self.rec.span("night"):
            return pipeline.run_once(self.data[number], run_id=run_id)

    def run_nights(self, leg: str, pipelines: dict, run_id: str) -> dict:
        """One leg: every workflow's night on ``pipelines``; returns trees."""
        rec = self.rec
        trees = {}
        rec.begin_leg()
        for c in self.cases:
            pipeline = pipelines[c.number]
            report = rec.timed(
                leg, c.number, lambda: self.night(pipeline, c.number, run_id))
            if report is not None:
                rec.verify(checks.night_problems(
                    pipeline, report, self.golden[c.number]))
                rec.count_report(report)
                trees[c.number] = checks.tree_signature(report)
        return trees

    def run_pass(self, index: int) -> None:
        default = self.run_nights("leg1", self.pipelines["leg1"], f"p{index}")
        stream = self.run_nights("leg2", self.pipelines["leg2"], f"p{index}")
        if default != stream:
            self.rec.verify(["chosen plans differ between default and streaming"])

    def run_extras(self) -> None:
        """The other engine variants on the same extracts, once each."""
        rec = self.rec
        shards = min(2, os.cpu_count() or 1)
        variants = {
            "vectorized": {"backend": "vectorized"},
            "multiprocess": {"shards": shards},
        }
        for leg, kwargs in variants.items():
            pipelines = {c.number: StatisticsPipeline(c.build(), **kwargs)
                         for c in self.cases}
            try:
                for number, pipeline in pipelines.items():  # warm-up, untraced
                    pipeline.run_once(self.data[number], run_id="warm-up")
                self.run_nights(leg, pipelines, leg)
            finally:
                for pipeline in pipelines.values():
                    pipeline.close()
        # the same blocks with no taps: what instrumentation costs the engine
        rec.begin_leg()
        for c in self.cases:
            pipeline = self.pipelines["leg1"][c.number]
            executor = BackendExecutor(
                pipeline.analysis, get_backend("columnar"),
                plan_cache=pipeline.plan_cache)
            executor.run(self.data[c.number])  # compile the untapped plan
            rec.timed("untapped", c.number,
                      lambda: executor.run(self.data[c.number]))


class Fleet(Workload):
    """Two consecutive nights of a fleet against one shared catalog, a
    fresh ``StatisticsPipeline`` per workflow-night, as ``repro-etl run
    --catalog`` does.  Night 1 starts from an empty catalog (taps and
    writes), night 2 reuses it (reads, no taps).

    The fleet is the 14 odd-numbered suite workflows 1-27 (flagship 21 and
    the cyclic 27 included): the full 30 take 13 s a pass, too long to
    repeat inside one run of the driver.
    """

    def setup(self) -> None:
        numbers = (2, 9, 11, 13) if self.quick else range(1, 29, 2)
        # ascending, whatever the seed: through the shared catalog each
        # night's work depends on who ran before it, and a shuffled fleet
        # moved the cold night by 2x between seeds
        self.cases = [case(n) for n in numbers]
        self.data = self.generate(self.cases, scale=1.0)
        # one throw-away night finishes the lazy imports of the catalog path
        c = case(2)
        StatisticsPipeline(c.build()).run_once(
            c.tables(scale=1.0, seed=self.seed),
            stats_catalog="warm-up.json", run_id="warm-up")
        os.remove("warm-up.json")

    def open_catalog(self, index: int) -> str:
        raise NotImplementedError

    def close_catalog(self, index: int) -> None:
        raise NotImplementedError

    def night(self, workflow, number: int, spec: str, run_id: str):
        with self.rec.span("pipeline_init"):
            pipeline = StatisticsPipeline(workflow)
        with self.rec.span("night"):
            report = pipeline.run_once(
                self.data[number], stats_catalog=spec, run_id=run_id)
        return pipeline, report

    def run_pass(self, index: int) -> None:
        rec = self.rec
        spec = self.open_catalog(index)
        try:
            cold_trees = {}
            for leg in ("leg1", "leg2"):
                workflows = [(c.number, c.build()) for c in self.cases]
                rec.begin_leg()
                for number, workflow in workflows:
                    done = rec.timed(leg, number, lambda: self.night(
                        workflow, number, spec, f"p{index}-{leg}"))
                    if done is None:
                        continue
                    pipeline, report = done
                    problems = checks.night_problems(
                        pipeline, report, self.golden[number])
                    trees = checks.tree_signature(report)
                    if leg == "leg1":
                        cold_trees[number] = trees
                    else:
                        if report.tapped:
                            problems.append(
                                f"warm night tapped {len(report.tapped)} statistics")
                        if trees != cold_trees.get(number):
                            problems.append("chosen plans differ cold vs warm")
                    rec.verify(problems)
                    rec.count_report(report, warm_catalog=leg == "leg2")
            self.end_of_pass(index)
        finally:
            self.close_catalog(index)

    def end_of_pass(self, index: int) -> None:
        """Traced run: read the catalog's size while it still exists."""


class FleetFile(Fleet):
    name = "fleet-file"

    def open_catalog(self, index: int) -> str:
        return f"p{index}.json"

    def close_catalog(self, index: int) -> None:
        remove_catalog(index)


class FleetServed(Fleet):
    """The same two nights against ``python -m repro.cli serve`` (default
    flush policy: fsync on, default snapshot cadence), a fresh daemon and an
    empty catalog per pass, on a unix socket in the scratch directory."""

    name = "fleet-served"
    START_TIMEOUT = 30.0
    STOP_TIMEOUT = 20.0
    daemon = None  # the running ``repro.cli serve`` child, if any

    def open_catalog(self, index: int) -> str:
        url = f"unix://p{index}.sock"
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--listen", url,
             "--catalog", f"p{index}.json"],
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + self.START_TIMEOUT
        while True:
            probe = CatalogClient(url, max_retries=0)
            try:
                probe.healthz()
                return url
            except CatalogUnavailable:
                if self.daemon.poll() is not None:
                    raise RuntimeError(
                        f"catalog daemon exited with {self.daemon.returncode}")
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
            finally:
                probe.close()

    def end_of_pass(self, index: int) -> None:
        if self.rec.tracer is None:
            return
        url = f"unix://p{index}.sock"
        extras = self.rec.extras
        client = CatalogClient(url, max_retries=0)
        try:
            health = client.healthz()
            # requests the two nights cost the daemon, before our own probes
            extras["serve.requests"] = scrape_requests(f"p{index}.sock")
            rtts = []
            for _ in range(300):
                start = time.perf_counter()
                client.healthz()
                rtts.append(time.perf_counter() - start)
        finally:
            client.close()
        extras["serve.rtt_p50_ms"] = statistics.median(rtts) * 1e3
        extras["catalog.entries"] = health["entries"]
        wal = f"p{index}.json.wal"
        extras["serve.wal_bytes"] = os.path.getsize(wal) if os.path.exists(wal) else 0
        extras["serve.daemon_rss_mb"] = peak_rss_mb_of(self.daemon.pid)

    def close_catalog(self, index: int) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is not None:
            stop(daemon, self.STOP_TIMEOUT)
        remove_catalog(index)

    def close(self) -> None:
        if self.daemon is not None:
            stop(self.daemon, self.STOP_TIMEOUT)


def remove_catalog(index: int) -> None:
    """The pass's catalog, its lock, WAL and socket (cwd is the scratch dir)."""
    for leftover in glob.glob(f"p{index}.*"):
        os.remove(leftover)


def stop(process: subprocess.Popen, timeout: float) -> None:
    """SIGTERM (graceful drain), then SIGKILL; always reaped."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()


def scrape_requests(socket_path: str) -> int:
    """Sum of ``catalog_server_requests_total`` from ``GET /metrics``."""
    import http.client
    import socket

    class Connection(http.client.HTTPConnection):
        def connect(self):
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.connect(socket_path)

    connection = Connection("localhost", timeout=10)
    try:
        connection.request("GET", "/metrics")
        text = connection.getresponse().read().decode("utf-8")
    finally:
        connection.close()
    return sum(
        int(float(line.rsplit(" ", 1)[1]))
        for line in text.splitlines()
        if line.startswith("catalog_server_requests_total{")
    )


def peak_rss_mb_of(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


WORKLOADS = {w.name: w for w in (IdentSuite, ExecScale, FleetFile, FleetServed)}
