"""Catalog-service chaos: the ISSUE's degradation-equivalence criterion.

1. server down all night: ``run_once`` against the degrading client still
   completes, every plan is identical to the local-baseline run, plan
   confidence is demoted exactly one rung, and nothing is recorded as a
   failure -- across the chaos backend matrix;
2. SIGKILL a real ``repro-etl serve`` subprocess after an acknowledged
   night of writes: a restart replays the WAL and restores every entry
   without a snapshot ever having been taken.

Backend coverage is parametrized (restrict with ``REPRO_CHAOS_BACKEND``
for the CI matrix); retries are seeded via ``REPRO_CHAOS_SEED``.
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
from repro.framework.pipeline import StatisticsPipeline
from repro.framework.recovery import demote_confidence
from repro.serve.client import CatalogClient
from repro.serve.service import CatalogService
from repro.workloads import case

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1337"))
_only = os.environ.get("REPRO_CHAOS_BACKEND", "")
BACKENDS = [_only] if _only else ["columnar", "streaming", "vectorized"]

WORKFLOW = 11


def _sources():
    return case(WORKFLOW).tables(scale=0.2, seed=7)


def _run(backend, **kwargs):
    pipeline = StatisticsPipeline(case(WORKFLOW).build(), backend=backend)
    return pipeline.run_once(_sources(), **kwargs)


def _plan_key(report):
    return {name: (repr(p.tree), p.cost) for name, p in report.plans.items()}


def _dead_client(tmp_path, fallback=None):
    return CatalogClient(
        f"unix://{tmp_path / 'nobody-home.sock'}",
        fallback=fallback,
        max_retries=0,
        seed=CHAOS_SEED,
        sleep=lambda s: None,
    )


class TestDegradationEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_server_down_all_night_matches_local_baseline(
        self, tmp_path, backend
    ):
        fallback = tmp_path / "local.json"

        # an earlier night populated the client's local fallback file
        _run(
            backend,
            stats_catalog=StatisticsCatalog(fallback),
            run_id="night0",
        )

        # the local baseline: a healthy warm run straight off that file
        baseline = _run(
            backend,
            stats_catalog=StatisticsCatalog.open(fallback),
            run_id="baseline",
        )
        assert not baseline.catalog_degraded

        # tonight the server is gone; the degrading client runs the whole
        # night from its local view and must not fail anything
        client = _dead_client(tmp_path, fallback=fallback)
        report = _run(backend, stats_catalog=client, run_id="dark")

        assert report.catalog_degraded
        assert client.degraded
        assert report.failures == {}
        assert _plan_key(report) == _plan_key(baseline)
        for name, plan in report.plans.items():
            assert plan.confidence == demote_confidence(
                baseline.plans[name].confidence
            ), f"{name}: confidence not demoted exactly one rung"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_server_down_with_no_fallback_still_completes(
        self, tmp_path, backend
    ):
        # worst case: no server AND no local file -- a fully cold
        # degraded night taps everything itself and still finishes
        client = _dead_client(tmp_path)
        report = _run(backend, stats_catalog=client, run_id="dark")
        cold = _run(backend, run_id="cold")
        assert report.catalog_degraded
        assert report.failures == {}
        assert _plan_key(report) == _plan_key(cold)


def _wait_healthy(url, deadline=15.0):
    probe = CatalogClient(
        url, max_retries=0, timeout=1.0, sleep=lambda s: None,
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


class TestServerSigkill:
    def test_wal_replay_restores_the_catalog(self, tmp_path):
        sock = tmp_path / "catalog.sock"
        url = f"unix://{sock}"
        catalog_path = tmp_path / "catalog.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--listen", url,
                "--catalog", str(catalog_path),
                "--snapshot-every", "1000000",  # never snapshot: WAL only
                "--log", str(tmp_path / "server.log"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            _wait_healthy(url)

            # a full night against the live server
            client = CatalogClient(url, seed=CHAOS_SEED)
            report = _run("columnar", stats_catalog=client, run_id="night1")
            assert not report.catalog_degraded
            client.close()

            reader = CatalogClient(url, seed=CHAOS_SEED)
            before = {k: e.value() for k, e in reader.entries.items()}
            assert before  # the night actually wrote something
            reader.close()

            # SIGKILL: no snapshot, no graceful close -- only the WAL
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            assert not catalog_path.exists()

            # restart: replay must restore every acknowledged entry
            revived = CatalogService(catalog_path)
            try:
                assert revived.replayed_records > 0
                after = {
                    e.key: e.value() for e in revived.all_entries()
                }
                assert after == before
            finally:
                revived.wal.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
