"""High-availability chaos: the tentpole's failover acceptance criteria.

1. the primary goes permanently dark mid-night with a warm standby on
   the client's endpoint list: the night completes at *full* confidence
   (no degradation), the chosen plans are identical to a local-catalog
   baseline, and the client counted at least one failover;
2. the old primary resurrects still believing it leads: a client
   carrying the cluster epoch bounces off it (409 ``stale_epoch``) and
   its write lands on the promoted server -- split-brain never commits;
3. end to end with real processes: SIGKILL a ``repro-etl serve``
   primary under a replicating standby and the next night fails over.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.catalog.store import StatisticsCatalog
from repro.engine.faults import FaultPlan, FaultSpec
from repro.framework.pipeline import StatisticsPipeline
from repro.serve.client import CatalogClient
from repro.serve.server import ServerThread
from repro.workloads import case

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1337"))
WORKFLOW = 11


def _sources():
    return case(WORKFLOW).tables(scale=0.2, seed=7)


def _run(**kwargs):
    pipeline = StatisticsPipeline(case(WORKFLOW).build(), backend="columnar")
    return pipeline.run_once(_sources(), **kwargs)


def _plan_key(report):
    return {name: (repr(p.tree), p.cost) for name, p in report.plans.items()}


def _stat(name="R"):
    from repro.algebra.expressions import SubExpression
    from repro.core.statistics import Statistic

    return Statistic.card(SubExpression.of(name))


def _baseline(tmp_path):
    """Two healthy nights against a plain local catalog file."""
    path = tmp_path / "baseline.json"
    _run(stats_catalog=StatisticsCatalog(path), run_id="night1")
    return _run(stats_catalog=StatisticsCatalog.open(path), run_id="night2")


def _wait_caught_up(primary_service, standby_service, deadline=10.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if standby_service.wal.last_seq >= primary_service.wal.last_seq:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"standby never caught up: {standby_service.wal.last_seq} < "
        f"{primary_service.wal.last_seq}"
    )


class TestFailoverMidNight:
    def test_primary_dies_mid_night_and_the_run_never_degrades(
        self, tmp_path
    ):
        baseline = _baseline(tmp_path)

        p_url = f"unix://{tmp_path / 'p.sock'}"
        s_url = f"unix://{tmp_path / 's.sock'}"
        with ServerThread(
            p_url, tmp_path / "p.json", fsync=False
        ) as p_thread, ServerThread(
            s_url,
            tmp_path / "s.json",
            fsync=False,
            replicate_from=p_url,
            poll_interval=0.02,
            auto_promote_after=0,  # promotion is the client's call here
        ) as s_thread:
            # night 1: a healthy run through the HA client warms both
            client = CatalogClient(
                f"{p_url},{s_url}",
                max_retries=0, base_delay=0.0, max_delay=0.0,
                seed=CHAOS_SEED, timeout=2.0,
            )
            report1 = _run(stats_catalog=client, run_id="night1")
            assert report1.failures == {}
            assert report1.catalog_failovers == 0
            _wait_caught_up(p_thread.server.service, s_thread.server.service)
            client.close()

            # night 2: every request to the primary's box now dies with a
            # permanent connection error (the injected SIGKILL) -- the
            # client must fail over to the standby and promote it
            plan = FaultPlan(specs=(
                FaultSpec(target=f"{p_url}*", kind="primary-kill"),
            ))
            chaos_client = CatalogClient(
                f"{p_url},{s_url}",
                max_retries=0, base_delay=0.0, max_delay=0.0,
                seed=CHAOS_SEED, timeout=2.0, faults=plan,
            )
            report2 = _run(stats_catalog=chaos_client, run_id="night2")

            assert report2.failures == {}
            assert not report2.catalog_degraded
            assert not chaos_client.degraded
            assert report2.catalog_failovers >= 1
            assert chaos_client.epoch == 2  # the standby was promoted
            assert s_thread.server.service.role == "primary"
            assert _plan_key(report2) == _plan_key(baseline)
            for name, plan_ in report2.plans.items():
                assert plan_.confidence == baseline.plans[name].confidence, (
                    f"{name}: confidence was demoted despite the standby"
                )

            # the failover surfaces on the metrics endpoint the CI job
            # scrapes: catalog_failovers_total >= 1
            from repro.obs.metrics import MetricsRegistry
            from repro.obs.record import record_run_metrics

            registry = MetricsRegistry()
            record_run_metrics(registry, report2)
            text = registry.render_prometheus()
            assert "catalog_failovers_total" in text

            # -- split-brain regression ---------------------------------
            # the old primary is in fact still running (the kill was
            # injected at the client); to a writer carrying the cluster
            # epoch it is a resurrected stale primary and must be fenced
            fleet = CatalogClient(
                f"{p_url},{s_url}",
                max_retries=0, base_delay=0.0, max_delay=0.0,
                seed=CHAOS_SEED, timeout=2.0,
            )
            fleet.epoch = chaos_client.epoch  # a synced fleet member
            fleet.record("split", "se:split", _stat(), 99.0,
                         workflow="wf", run_id="late")
            fleet.save()
            assert not fleet.degraded
            assert fleet.failovers >= 1  # the walk left the stale box
            assert p_thread.server.service.get("split") is None
            assert p_thread.server.service.epoch == 1
            assert s_thread.server.service.get("split").value() == 99.0
            fleet.close()
            chaos_client.close()


def _wait_healthy(url, deadline=15.0):
    probe = CatalogClient(
        url, max_retries=0, base_delay=0.0, timeout=1.0,
        breaker_threshold=10**6,
    )
    end = time.monotonic() + deadline
    try:
        while time.monotonic() < end:
            try:
                return probe.healthz()
            except Exception:
                probe.degraded = False  # keep probing past a failure
                time.sleep(0.05)
        raise AssertionError(f"server at {url} never became healthy")
    finally:
        probe.close()


class TestRealProcessFailover:
    def _serve(self, tmp_path, name, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--listen", f"unix://{tmp_path / (name + '.sock')}",
                "--catalog", str(tmp_path / (name + ".json")),
                "--log", str(tmp_path / (name + ".log")),
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )

    def test_sigkilled_primary_fails_over_to_the_standby(self, tmp_path):
        baseline = _baseline(tmp_path)
        p_url = f"unix://{tmp_path / 'primary.sock'}"
        s_url = f"unix://{tmp_path / 'standby.sock'}"
        primary = self._serve(tmp_path, "primary")
        standby = None
        try:
            _wait_healthy(p_url)
            standby = self._serve(
                tmp_path, "standby",
                "--replicate-from", p_url,
                "--auto-promote-after", "0",
            )
            assert _wait_healthy(s_url)["role"] == "standby"

            client = CatalogClient(
                f"{p_url},{s_url}",
                max_retries=0, base_delay=0.0, max_delay=0.0,
                seed=CHAOS_SEED, timeout=5.0,
            )
            report1 = _run(stats_catalog=client, run_id="night1")
            assert report1.failures == {}
            client.close()

            # let replication drain, then SIGKILL the primary box
            end = time.monotonic() + 10.0
            while time.monotonic() < end:
                p_seq = _wait_healthy(p_url)["wal_seq"]
                if _wait_healthy(s_url)["wal_seq"] >= p_seq:
                    break
                time.sleep(0.05)
            os.kill(primary.pid, signal.SIGKILL)
            primary.wait(timeout=10)

            night2 = CatalogClient(
                f"{p_url},{s_url}",
                max_retries=0, base_delay=0.0, max_delay=0.0,
                seed=CHAOS_SEED, timeout=5.0,
            )
            report2 = _run(stats_catalog=night2, run_id="night2")
            assert report2.failures == {}
            assert not report2.catalog_degraded
            assert not night2.degraded
            assert report2.catalog_failovers >= 1
            assert _plan_key(report2) == _plan_key(baseline)
            for name, plan in report2.plans.items():
                assert plan.confidence == baseline.plans[name].confidence

            health = _wait_healthy(s_url)
            assert health["role"] == "primary"
            assert health["epoch"] >= 2
            night2.close()
        finally:
            for proc in (primary, standby):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
