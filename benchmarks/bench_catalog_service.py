"""Catalog service: served reuse, client latency, WAL replay budgets.

The statistics server (``repro serve``) must make fleet-wide reuse as
cheap as the in-process catalog while adding crash safety.  Three budgets
pin that down:

- a second nightly pass over the suite *through the server* taps zero
  statistics (everything is served back at zero observation cost) while
  choosing exactly the cold pass's plans;
- the client's p50 round-trip on a unix socket stays under 5 ms, so
  looking statistics up over the wire is never the bottleneck;
- replaying a 10k-entry WAL on startup takes under 2 s, so crash
  recovery is a restart, not an incident.
"""

import json
import statistics
import sys
import time
from pathlib import Path

from conftest import write_report

from repro.framework.pipeline import StatisticsPipeline
from repro.serve.client import CatalogClient
from repro.serve.service import CatalogService
from repro.workloads import suite

# the in-process daemon the serve tests use
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.serve.thread import ServerThread  # noqa: E402

SCALE = 0.08
SEED = 5
P50_BUDGET_MS = 5.0
REPLAY_ENTRIES = 10_000
REPLAY_BUDGET_S = 2.0


def _client(url):
    return CatalogClient(url, timeout=5.0, base_delay=0.0, max_delay=0.0)


def _nightly_pass(url, run_id):
    tapped = reused = 0
    plans = {}
    for wfcase in suite():
        pipeline = StatisticsPipeline(wfcase.build(), solver="greedy")
        client = _client(url)
        report = pipeline.run_once(
            wfcase.tables(scale=SCALE, seed=SEED),
            stats_catalog=client,
            run_id=run_id,
        )
        assert not report.catalog_degraded, "server vanished mid-bench"
        client.close()
        tapped += len(report.tapped)
        reused += report.catalog_hits
        plans[wfcase.number] = {
            name: repr(tree) for name, tree in report.chosen_trees.items()
        }
    return {"tapped": tapped, "reused": reused, "plans": plans}


def _round_trip_p50_ms(url, samples=300):
    client = _client(url)
    client.healthz()  # connection warm-up outside the timed loop
    laps = []
    for _ in range(samples):
        start = time.perf_counter()
        client.healthz()
        laps.append((time.perf_counter() - start) * 1000.0)
    client.close()
    return statistics.median(laps)


def _wal_replay_seconds(tmp_path):
    path = tmp_path / "big-catalog.json"
    svc = CatalogService(path, fsync=False)
    docs = [
        {
            "key": f"k{i}",
            "se_key": f"se:{i}",
            "stat": {"kind": "card"},
            "value": float(i),
            "repr": f"T[{i}]",
            "workflow": "wf",
            "run_id": "r",
            "observed_at": 1_000_000.0,
        }
        for i in range(REPLAY_ENTRIES)
    ]
    for off in range(0, REPLAY_ENTRIES, 100):
        svc.commit([["put", docs[off:off + 100]]])
    svc.wal.close()  # crash: no snapshot -- the WAL holds everything

    start = time.perf_counter()
    revived = CatalogService(path, fsync=False)
    elapsed = time.perf_counter() - start
    assert len(revived) == REPLAY_ENTRIES
    revived.wal.close()
    return elapsed


def test_catalog_service_budgets(results_dir, tmp_path):
    url = f"unix://{tmp_path / 'catalog.sock'}"
    with ServerThread(
        url, tmp_path / "catalog.json", fsync=False
    ) as thread:
        cold = _nightly_pass(thread.url, "night1")
        warm = _nightly_pass(thread.url, "night2")
        p50 = _round_trip_p50_ms(thread.url)
    replay_s = _wal_replay_seconds(tmp_path)

    rows = [
        ["served cold pass", f"{cold['tapped']} tapped",
         f"{cold['reused']} reused", ""],
        ["served warm pass", f"{warm['tapped']} tapped",
         f"{warm['reused']} reused", "budget: 0 taps"],
        ["client round-trip p50", f"{p50:.2f} ms", "unix socket",
         f"budget: < {P50_BUDGET_MS:g} ms"],
        [f"WAL replay ({REPLAY_ENTRIES} entries)", f"{replay_s:.2f} s", "",
         f"budget: < {REPLAY_BUDGET_S:g} s"],
    ]
    write_report(
        results_dir,
        "catalog_service",
        "Catalog service: served reuse, round-trip latency, WAL replay",
        ["measure", "value", "detail", "budget"],
        rows,
    )
    (results_dir / "catalog_service.json").write_text(
        json.dumps(
            {
                "scale": SCALE,
                "seed": SEED,
                "cold_tapped": cold["tapped"],
                "cold_reused": cold["reused"],
                "warm_tapped": warm["tapped"],
                "warm_reused": warm["reused"],
                "plans_identical": cold["plans"] == warm["plans"],
                "round_trip_p50_ms": p50,
                "wal_replay_entries": REPLAY_ENTRIES,
                "wal_replay_seconds": replay_s,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    assert cold["tapped"] > 0
    assert warm["tapped"] == 0, (
        f"warm served pass tapped {warm['tapped']} of {cold['tapped']}"
    )
    assert cold["plans"] == warm["plans"], (
        "served reuse must not change any chosen plan"
    )
    assert p50 < P50_BUDGET_MS, f"p50 round-trip {p50:.2f} ms over budget"
    assert replay_s < REPLAY_BUDGET_S, (
        f"WAL replay took {replay_s:.2f} s for {REPLAY_ENTRIES} entries"
    )
