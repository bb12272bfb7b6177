"""CatalogService: durability, fencing, snapshots, fleet scheduling.

The crash-safety property here is the ISSUE's acceptance criterion: for
any prefix of a seeded workload, SIGKILL the server (modelled as dropping
the service without a snapshot), restart it, and the replayed catalog
must equal -- byte for byte -- a reference that applied the same prefix
synchronously with no crash.
"""

import json
import random
import time

import pytest

from repro.core.persistence import PersistenceError
from repro.serve.service import CatalogService, FenceError, SnapshotDaemon

pytestmark = pytest.mark.catalog

NOW = 1_000_000.0


def entry_doc(key, value=1.0, se_key=None, observed_at=NOW, **over):
    doc = {
        "key": key,
        "se_key": se_key if se_key is not None else f"se:{key}",
        "stat": {"kind": "card"},
        "value": value,
        "repr": f"T[{key}]",
        "workflow": "wf",
        "run_id": "r1",
        "observed_at": observed_at,
    }
    doc.update(over)
    return doc


def service(tmp_path, **kwargs):
    kwargs.setdefault("clock", lambda: NOW)
    kwargs.setdefault("fsync", False)  # tests do not need real disk flushes
    return CatalogService(tmp_path / "catalog.json", **kwargs)


class TestMutations:
    def test_put_then_lookup(self, tmp_path):
        svc = service(tmp_path)
        svc.put_entries([entry_doc("a", 10), entry_doc("b", 20)])
        assert len(svc) == 2
        found = svc.lookup(["a", "b", "missing"])
        assert [e.key for e in found] == ["a", "b"]
        svc.wal.close()

    def test_lookup_counts_hits_but_does_not_wal_them(self, tmp_path):
        svc = service(tmp_path)
        svc.put_entries([entry_doc("a")])
        before = svc.wal.records_written
        svc.lookup(["a"])
        svc.lookup(["a"])
        assert svc.get("a").hits == 2
        assert svc.wal.records_written == before  # advisory only
        svc.wal.close()

    def test_merge_newer_observation_wins(self, tmp_path):
        svc = service(tmp_path)
        svc.put_entries([entry_doc("a", 1, observed_at=NOW)])
        svc.merge_entries([entry_doc("a", 2, observed_at=NOW - 10)])
        assert svc.get("a").value() == 1  # older loses
        svc.merge_entries([entry_doc("a", 3, observed_at=NOW + 10)])
        assert svc.get("a").value() == 3  # newer wins
        svc.wal.close()

    def test_stale_and_quality(self, tmp_path):
        svc = service(tmp_path)
        svc.put_entries([entry_doc("a"), entry_doc("b")])
        svc.mark_stale(["a"])
        assert svc.get("a").stale and not svc.get("b").stale
        assert svc.lookup(["a"]) == []  # stale never matches
        svc.adjust_quality([["b", 1.0]])  # full error halves quality
        assert svc.get("b").quality == pytest.approx(0.5)
        svc.wal.close()

    def test_gc_logs_an_explicit_delete(self, tmp_path):
        svc = service(tmp_path)
        svc.put_entries([
            entry_doc("keep"),
            entry_doc("old", observed_at=NOW - 10**9),
            entry_doc("bad", quality=0.1),
        ])
        removed = svc.gc()
        assert removed == 2
        assert {e.key for e in svc.all_entries()} == {"keep"}
        # restart from WAL alone: the delete replays deterministically
        svc.wal.close()
        again = service(tmp_path)
        assert {e.key for e in again.all_entries()} == {"keep"}
        again.wal.close()


class TestLeases:
    def test_fenced_write_rejected_after_takeover(self, tmp_path):
        clock = {"now": NOW}
        svc = service(tmp_path, clock=lambda: clock["now"], lease_ttl=60.0)
        stale_fence = svc.acquire_lease("night-a")
        clock["now"] += 120  # night-a stalls past its TTL
        fresh_fence = svc.acquire_lease("night-b")
        assert fresh_fence > stale_fence
        with pytest.raises(FenceError, match="stale fence"):
            svc.put_entries([entry_doc("x")], fence=stale_fence)
        svc.put_entries([entry_doc("x")], fence=fresh_fence)
        assert svc.get("x") is not None
        svc.wal.close()

    def test_live_lease_is_not_stolen(self, tmp_path):
        svc = service(tmp_path, lease_ttl=60.0)
        svc.acquire_lease("night-a")
        with pytest.raises(FenceError, match="held by"):
            svc.acquire_lease("night-b")
        svc.wal.close()

    def test_release_frees_the_lease_for_the_next_holder(self, tmp_path):
        svc = service(tmp_path, lease_ttl=60.0)
        fence = svc.acquire_lease("night-a")
        assert svc.release_lease(fence)
        svc.acquire_lease("night-b")  # no FenceError: lease was given back
        svc.wal.close()

    def test_release_with_stale_fence_is_a_noop(self, tmp_path):
        clock = {"now": NOW}
        svc = service(tmp_path, clock=lambda: clock["now"], lease_ttl=60.0)
        old = svc.acquire_lease("night-a")
        clock["now"] += 120
        svc.acquire_lease("night-b")
        assert not svc.release_lease(old)  # a's late release frees nothing
        assert svc.lease_holder == "night-b"
        svc.wal.close()

    def test_fence_survives_restart_and_snapshot(self, tmp_path):
        svc = service(tmp_path, lease_ttl=10**9)
        fence = svc.acquire_lease("night-a")
        svc.snapshot()  # truncates the WAL but re-seeds the lease record
        svc.wal.close()
        again = service(tmp_path, lease_ttl=10**9)
        assert again.fence == fence
        with pytest.raises(FenceError):
            again.acquire_lease("night-b")  # still held across restart
        again.wal.close()


class TestSnapshots:
    def test_snapshot_cadence_flags_debt_and_maybe_snapshot_pays_it(
        self, tmp_path
    ):
        svc = service(tmp_path, snapshot_every=3)
        for i in range(7):
            svc.put_entries([entry_doc(f"k{i}")])
        # the write path only *flags* snapshot debt at the cadence -- the
        # background daemon (or an explicit maybe_snapshot) pays it, so
        # the fsync'd request path never blocks on a snapshot write
        assert svc.snapshot_due
        assert svc.snapshot_seq == 0
        assert svc.maybe_snapshot()
        assert svc.snapshot_seq == 7
        assert not svc.snapshot_due
        assert not svc.maybe_snapshot()  # no new debt, no snapshot
        svc.wal.close()
        again = service(tmp_path)
        assert len(again) == 7
        again.wal.close()

    def test_snapshot_file_is_a_plain_catalog(self, tmp_path):
        from repro.catalog.store import StatisticsCatalog

        svc = service(tmp_path)
        svc.put_entries([entry_doc("a", 42)])
        svc.snapshot()
        svc.wal.close()
        catalog = StatisticsCatalog.open(tmp_path / "catalog.json")
        assert catalog.entries["a"].value() == 42


class TestSnapshotDaemon:
    def test_pays_snapshot_debt_off_the_write_path(self, tmp_path):
        svc = service(tmp_path, snapshot_every=2)
        daemon = SnapshotDaemon(svc, interval=0.01).start()
        try:
            for i in range(5):
                svc.put_entries([entry_doc(f"k{i}")])
            deadline = time.monotonic() + 5.0
            while svc.snapshot_seq == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert svc.snapshot_seq > 0
            assert daemon.snapshots >= 1
        finally:
            daemon.stop()
            svc.wal.close()

    def test_gc_runs_on_the_daemon(self, tmp_path):
        late = NOW + 10**9  # every NOW-observed entry is long expired
        svc = service(tmp_path, clock=lambda: late)
        svc.put_entries([entry_doc("old", observed_at=NOW)])
        daemon = SnapshotDaemon(svc, interval=60.0, gc_interval=0.0)
        daemon._last_gc = -10**12  # "a gc interval has elapsed"
        daemon.run_once()
        assert daemon.collected == 1
        assert len(svc) == 0
        svc.wal.close()


class TestCrashSafetyProperty:
    """Any prefix of a seeded workload + SIGKILL == synchronous reference."""

    OPS_PER_RUN = 40

    def _workload(self, seed):
        rng = random.Random(seed)
        ops = []
        for i in range(self.OPS_PER_RUN):
            kind = rng.choice(["put", "merge", "stale", "quality", "gc"])
            key = f"k{rng.randrange(8)}"
            if kind in ("put", "merge"):
                ops.append((kind, [entry_doc(
                    key, rng.randrange(100),
                    observed_at=NOW + rng.randrange(100),
                )]))
            elif kind == "stale":
                ops.append(("stale", [key]))
            elif kind == "quality":
                ops.append(("quality", [[key, rng.random()]]))
            else:
                ops.append(("gc", None))
        return ops

    def _apply(self, svc, op):
        kind, payload = op
        if kind == "put":
            svc.put_entries(payload)
        elif kind == "merge":
            svc.merge_entries(payload)
        elif kind == "stale":
            svc.mark_stale(payload)
        elif kind == "quality":
            svc.adjust_quality(payload)
        else:
            svc.gc(min_quality=0.4)

    def _doc(self, svc):
        doc = svc.to_dict()
        doc.pop("wal_seq")  # seq bookkeeping differs; the catalog may not
        return json.dumps(doc, sort_keys=True).encode()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_killed_replay_equals_synchronous_reference(
        self, tmp_path, seed
    ):
        ops = self._workload(seed)
        prefixes = sorted({0, 1, 7, len(ops) // 2, len(ops)})
        for prefix in prefixes:
            crash_dir = tmp_path / f"crash-{seed}-{prefix}"
            ref_dir = tmp_path / f"ref-{seed}-{prefix}"
            crash_dir.mkdir(), ref_dir.mkdir()

            victim = service(crash_dir, snapshot_every=5)
            reference = service(ref_dir, snapshot_every=10**9)
            for op in ops[:prefix]:
                self._apply(victim, op)
                self._apply(reference, op)
            victim.wal.close()  # SIGKILL: no snapshot, no graceful close

            revived = service(crash_dir)
            assert self._doc(revived) == self._doc(reference), (
                f"seed={seed} prefix={prefix}: replayed state diverged"
            )
            revived.wal.close()
            reference.wal.close()


class TestStartup:
    def test_corrupt_snapshot_raises_persistence_error(self, tmp_path):
        (tmp_path / "catalog.json").write_text("{ nope")
        with pytest.raises(PersistenceError):
            CatalogService(tmp_path / "catalog.json", fsync=False)

    def test_stats_document(self, tmp_path):
        svc = service(tmp_path)
        svc.put_entries([entry_doc("a")])
        doc = svc.stats()
        assert doc["entries"] == 1
        assert doc["wal_seq"] == 1
        svc.wal.close()
