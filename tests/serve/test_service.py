"""CatalogService: durability, whole commits, snapshots.

The crash-safety property: for any prefix of a seeded workload of
commits, SIGKILL the server (modelled as dropping the service without a
snapshot), restart it, and the replayed catalog must equal -- byte for
byte -- a reference that applied the same prefix synchronously with no
crash.  A commit is one WAL record: a torn one is lost whole, a malformed
one is refused whole.
"""

import json
import random
import time

import pytest

from repro.core.persistence import PersistenceError
from repro.serve.service import CatalogService, SnapshotDaemon

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
    return CatalogService(tmp_path / "catalog.json", **kwargs)


def put(svc, *docs) -> int:
    """Commit one ``put`` of ``docs``; its WAL seq."""
    return svc.commit([["put", list(docs)]])


class TestMutations:
    def test_put_then_lookup(self, tmp_path):
        svc = service(tmp_path)
        put(svc, entry_doc("a", 10), entry_doc("b", 20))
        assert len(svc) == 2
        found = svc.lookup(["a", "b", "missing"])
        assert [e.key for e in found] == ["a", "b"]
        svc.wal.close()

    def test_lookup_counts_hits_but_does_not_wal_them(self, tmp_path):
        svc = service(tmp_path)
        put(svc, entry_doc("a"))
        before = svc.wal.records_written
        svc.lookup(["a"])
        svc.lookup(["a"])
        assert svc.get("a").hits == 2
        assert svc.wal.records_written == before  # advisory only
        svc.wal.close()

    def test_merge_newer_observation_wins(self, tmp_path):
        svc = service(tmp_path)
        put(svc, entry_doc("a", 1, observed_at=NOW))
        svc.commit([["merge", [entry_doc("a", 2, observed_at=NOW - 10)]]])
        assert svc.get("a").value() == 1  # older loses
        svc.commit([["merge", [entry_doc("a", 3, observed_at=NOW + 10)]]])
        assert svc.get("a").value() == 3  # newer wins
        svc.wal.close()

    def test_stale_and_quality(self, tmp_path):
        svc = service(tmp_path)
        put(svc, entry_doc("a"), entry_doc("b"))
        svc.commit([["stale", ["a"]]])
        assert svc.get("a").stale and not svc.get("b").stale
        assert svc.lookup(["a"]) == []  # stale never matches
        svc.commit([["quality", [["b", 1.0]]]])  # full error halves quality
        assert svc.get("b").quality == pytest.approx(0.5)
        svc.wal.close()

    def test_gc_logs_an_explicit_delete(self, tmp_path):
        svc = service(tmp_path)
        put(
            svc,
            entry_doc("keep"),
            entry_doc("old", observed_at=NOW - 10**9),
            entry_doc("bad", quality=0.1),
        )
        removed = svc.gc()
        assert removed == 2
        assert {e.key for e in svc.all_entries()} == {"keep"}
        # restart from WAL alone: the delete replays deterministically
        svc.wal.close()
        again = service(tmp_path)
        assert {e.key for e in again.all_entries()} == {"keep"}
        again.wal.close()


class TestWholeCommits:
    def test_a_commit_is_one_record_applied_in_order(self, tmp_path):
        svc = service(tmp_path)
        seq = svc.commit([
            ["put", [entry_doc("a"), entry_doc("b")]],
            ["stale", ["a"]],
            ["quality", [["b", 1.0]]],
        ])
        assert seq == svc.wal.last_seq == svc.wal.records_written == 1
        assert svc.get("a").stale and svc.get("b").quality == 0.5
        svc.wal.close()

    def test_torn_commit_leaves_none_of_its_ops(self, tmp_path):
        svc = service(tmp_path)
        put(svc, entry_doc("a", 1))
        svc.commit([["stale", ["b"]]])  # no such key yet: a no-op commit
        svc.commit([
            ["put", [entry_doc("b", 2)]],
            ["stale", ["a"]],
            ["quality", [["a", 1.0]]],
        ])
        svc.wal.close()
        wal = tmp_path / "catalog.json.wal"
        data = wal.read_bytes()
        wal.write_bytes(data[:-7])  # SIGKILL mid-append of the last commit

        revived = service(tmp_path)
        assert revived.replayed_records == 2
        assert revived.get("b") is None  # not the put...
        a = revived.get("a")
        assert a.value() == 1 and not a.stale  # ...nor the stale mark...
        assert a.quality == 1.0  # ...nor the quality blend
        revived.wal.close()

    def test_an_empty_commit_writes_nothing(self, tmp_path):
        svc = service(tmp_path)
        assert svc.commit([]) == 0 and svc.wal.records_written == 0
        with pytest.raises(ValueError):
            svc.commit({"put": []})
        svc.wal.close()

    def test_commits_after_a_restart_from_a_snapshot_replay(self, tmp_path):
        """The snapshot truncates the log; the commits after a restart must
        still number past it, or replay skips them as absorbed."""
        svc = service(tmp_path)
        put(svc, entry_doc("a"))
        svc.close()
        again = service(tmp_path)
        assert put(again, entry_doc("b")) == 2
        again.wal.close()  # SIGKILL
        revived = service(tmp_path)
        assert {e.key for e in revived.all_entries()} == {"a", "b"}
        revived.wal.close()


class TestSnapshots:
    def test_snapshot_cadence_flags_debt_and_maybe_snapshot_pays_it(
        self, tmp_path
    ):
        svc = service(tmp_path, snapshot_every=3)
        for i in range(7):
            put(svc, entry_doc(f"k{i}"))
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
        put(svc, entry_doc("a", 42))
        svc.snapshot()
        svc.wal.close()
        catalog = StatisticsCatalog.open(tmp_path / "catalog.json")
        assert catalog.entries["a"].value() == 42


class TestSnapshotDaemon:
    def test_pays_snapshot_debt_off_the_write_path(self, tmp_path):
        svc = service(tmp_path, snapshot_every=2)
        daemon = SnapshotDaemon(svc).start()
        try:
            for i in range(5):
                put(svc, entry_doc(f"k{i}"))
            deadline = time.monotonic() + 5.0
            while svc.snapshot_seq == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert svc.snapshot_seq > 0
            assert daemon.snapshots >= 1
        finally:
            daemon.stop()
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
        if kind == "gc":
            svc.gc()
        else:
            svc.commit([[kind, payload]])

    def _commits(self, ops, seed):
        """The workload cut into commits of one to three ops; a gc is not
        a commit op and runs on its own."""
        rng = random.Random(seed)
        commits = []
        for op in ops:
            last = commits[-1] if commits else [("gc", None)]
            if "gc" not in (op[0], last[0][0]) and len(last) < rng.randint(1, 3):
                last.append(op)
            else:
                commits.append([op])
        return commits

    def _apply_commit(self, svc, commit):
        if commit[0][0] == "gc":
            self._apply(svc, commit[0])
        else:
            svc.commit([[kind, payload] for kind, payload in commit])

    def _doc(self, svc):
        doc = svc.to_dict()
        doc.pop("wal_seq")  # seq bookkeeping differs; the catalog may not
        return json.dumps(doc, sort_keys=True).encode()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_killed_replay_equals_synchronous_reference(
        self, tmp_path, seed
    ):
        commits = self._commits(self._workload(seed), seed)
        assert any(len(commit) > 1 for commit in commits)
        prefixes = sorted({0, 1, 7, len(commits) // 2, len(commits)})
        for prefix in prefixes:
            crash_dir = tmp_path / f"crash-{seed}-{prefix}"
            ref_dir = tmp_path / f"ref-{seed}-{prefix}"
            crash_dir.mkdir(), ref_dir.mkdir()

            victim = service(crash_dir, snapshot_every=5)
            reference = service(ref_dir, snapshot_every=10**9)
            for commit in commits[:prefix]:
                self._apply_commit(victim, commit)
                self._apply_commit(reference, commit)
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
            CatalogService(tmp_path / "catalog.json")

    def test_stats_document(self, tmp_path):
        svc = service(tmp_path)
        put(svc, entry_doc("a"))
        doc = svc.stats()
        assert doc["entries"] == 1
        assert doc["wal_seq"] == 1
        svc.wal.close()
