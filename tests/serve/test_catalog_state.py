"""One catalog state machine: the store is the daemon's specification.

``StatisticsCatalog.apply`` is the definition of the five mutations; the
daemon's commits, the degraded client and WAL replay only call it.  These
tests pin that from four sides: a seeded differential (store == service
== degraded client), readers against concurrent writers, the ``gc`` scan
and its ``delete`` record under one hold of the write lock, and a WAL +
snapshot written by earlier versions (one-op and lease records, lease
state in the snapshot) replaying to the same entries.
"""

import json
import sys
import threading

import pytest

from repro.algebra.expressions import SubExpression
from repro.catalog.store import CatalogEntry, StatisticsCatalog
from repro.core.persistence import PersistenceError
from repro.core.statistics import Statistic
from repro.serve.client import CatalogClient
from repro.serve.service import CatalogService

from tests.serve import test_service as base
from tests.serve.test_service import NOW, entry_doc, service

pytestmark = pytest.mark.catalog


def entries_doc(entries) -> bytes:
    """The ``entries`` document of a store, in the on-disk spelling."""
    if isinstance(entries, dict):
        entries = [entries[key].to_dict() for key in sorted(entries)]
    return json.dumps(entries, sort_keys=True).encode()


def recorded(doc) -> dict:
    """``doc`` as ``record()`` would have written it: a real statistic, so
    the client -- whose only spelling of ``put`` is ``record`` -- can be
    driven with the same workload as the store and the service."""
    stat = Statistic.card(SubExpression.of(f"R_{doc['key']}"))
    entry = StatisticsCatalog().record(
        doc["key"], doc["se_key"], stat, doc["value"],
        workflow=doc["workflow"], run_id=doc["run_id"],
        observed_at=doc["observed_at"],
    )
    return entry.to_dict()


def workload(seed):
    ops = base.TestCrashSafetyProperty()._workload(seed)
    return [
        (kind, [recorded(doc) for doc in payload])
        if kind in ("put", "merge") else (kind, payload)
        for kind, payload in ops
    ]


def drive_store(catalog, op):
    kind, payload = op
    if kind == "gc":
        catalog.apply("delete", catalog.collectable_keys(now=NOW))
    else:
        catalog.apply(kind, payload)


def drive_client(client, op):
    kind, payload = op
    if kind == "put":
        for doc in payload:
            entry = CatalogEntry.from_dict(doc)
            client.record(
                entry.key, entry.se_key, entry.statistic(), entry.value(),
                workflow=entry.workflow, run_id=entry.run_id,
                observed_at=entry.observed_at,
            )
    elif kind == "merge":
        other = StatisticsCatalog()
        other.apply("put", payload)
        client.merge(other)
    elif kind == "stale":
        client.mark_stale(payload)
    elif kind == "quality":
        for key, rel_error in payload:
            client.adjust_quality(key, rel_error)
    else:
        client.gc(now=NOW)


class TestStoreIsTheSpecification:
    """Same ops into the store, the daemon and a degraded client's fallback
    file: three byte-equal ``entries`` documents."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_store_service_and_degraded_client_agree(self, tmp_path, seed):
        ops = workload(seed)
        assert {kind for kind, _ in ops} == {
            "put", "merge", "stale", "quality", "gc"
        }
        store = StatisticsCatalog()
        svc = service(tmp_path)
        fallback = tmp_path / "fallback.json"
        client = CatalogClient(
            f"unix://{tmp_path / 'nobody-listens.sock'}",
            fallback=fallback, max_retries=0, sleep=lambda seconds: None,
        )
        assert client.get("k0") is None and client.degraded
        crash_safety = base.TestCrashSafetyProperty()
        for commit in crash_safety._commits(ops, seed):
            crash_safety._apply_commit(svc, commit)  # one to three ops each
        for op in ops:
            drive_store(store, op)
            drive_client(client, op)
        # gc staged deletions: merging the file back in would resurrect them
        client.save(merge=False)

        expected = entries_doc(store.entries)
        assert len(store) >= 2  # the workload leaves something to compare
        assert entries_doc(svc.to_dict()["entries"]) == expected
        assert entries_doc(client.entries) == expected  # the live mirror
        assert entries_doc(StatisticsCatalog.open(fallback).entries) == expected
        svc.wal.close()

    def test_unknown_mutation_is_refused(self):
        with pytest.raises(PersistenceError, match="unknown catalog mutation"):
            StatisticsCatalog().apply("upsert", [])

    def test_the_vocabulary_is_declared_once(self):
        from repro.catalog.store import MUTATIONS
        from repro.serve import client, wal
        from repro.serve import service as service_module

        assert MUTATIONS == {
            "put": "entries", "merge": "entries", "stale": "keys",
            "quality": "adjust", "delete": "keys",
        }
        for module in (client, service_module, wal):
            assert module.MUTATIONS is MUTATIONS

    def test_shards_option_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            CatalogService(tmp_path / "catalog.json", shards=4)


class TestReadersAgainstWriters:
    def test_reads_never_see_a_dict_mid_mutation(self, tmp_path):
        """Without the state lock ``usable_keys`` / ``to_dict`` iterate a
        dict a concurrent put or gc resizes: "dictionary changed size
        during iteration", or a ``KeyError`` for a key gc just took."""
        svc = service(tmp_path, snapshot_every=10**9)
        keys = [f"k{i}" for i in range(64)]
        errors: list[Exception] = []
        done = threading.Event()

        def guarded(body):
            def run():
                try:
                    body()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    done.set()
            return threading.Thread(target=run)

        def write():
            for round_ in range(150):
                fresh = round_ % 2 == 0
                svc.commit([["put", [
                    entry_doc(key, round_, quality=1.0 if fresh else 0.1)
                    for key in keys[round_ % 7::7]
                ]]])
                svc.gc()  # drops every low-quality entry: the dict shrinks
            done.set()

        def read():
            while not done.is_set():
                svc.lookup(keys)
                svc.usable_keys()
                svc.to_dict()
                svc.entries_on_se(["se:k3"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [guarded(write), guarded(read), guarded(read)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        svc.wal.close()


class _ObservedLock:
    """A lock that says when a second thread starts waiting for it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.contended = threading.Event()

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self.contended.set()
            self._lock.acquire()

    def __exit__(self, *exc):
        self._lock.release()


class TestGcNeverDeletesAnAcknowledgedRefresh:
    def test_put_racing_the_gc_scan_survives(self, tmp_path):
        """A put refreshes an expired key while gc waits for the write
        lock.  Scanning before taking the lock deleted the refreshed,
        acknowledged entry -- here and on replay."""
        svc = service(tmp_path)
        svc.commit([["put", [entry_doc("k", 1, observed_at=NOW - 10**9)]]])
        svc._write_lock = _ObservedLock()

        inside, release = threading.Event(), threading.Event()
        append = svc.wal.append

        def paused_append(seq, ops):
            if ops[0][0] == "put":  # the refresh: hold the write lock, mid-put
                inside.set()
                assert release.wait(30)
            return append(seq, ops)

        svc.wal.append = paused_append
        acked: list[int] = []
        put = threading.Thread(
            target=lambda: acked.append(
                svc.commit([["put", [entry_doc("k", 2)]]])
            )
        )
        removed: list[int] = []
        gc = threading.Thread(target=lambda: removed.append(svc.gc()))

        put.start()
        assert inside.wait(30)
        gc.start()
        assert svc._write_lock.contended.wait(30)  # gc has reached the lock
        release.set()
        put.join(30), gc.join(30)
        assert not put.is_alive() and not gc.is_alive()

        assert acked and removed == [0]
        assert svc.get("k").value() == 2
        svc.wal.close()
        replayed = service(tmp_path)
        assert replayed.get("k").value() == 2
        replayed.wal.close()


#: written by earlier versions of the daemon (sharded service, two-server
#: releases, writer leases): a snapshot at seq 2 carrying a top-level
#: ``epoch``, a ``fence`` and the lease, and the WAL suffix after it -- a seq 0
#: header record, lease, put, merge, stale, quality, delete, lease, each
#: mutation a one-op record
PARENT_SNAPSHOT = '''{
"entries":[
{"backend":"","hits":0,"key":"a","observed_at":1000000.0,"quality":1.0,"repr":"T[a]","run_id":"r1","se_key":"se:a","stale":false,"stat":{"kind":"card"},"value":10,"workflow":"wf"},
{"backend":"","hits":0,"key":"b","observed_at":1000000.0,"quality":1.0,"repr":"T[b]","run_id":"r1","se_key":"se:b","stale":false,"stat":{"kind":"card"},"value":20,"workflow":"wf"},
{"backend":"","hits":0,"key":"old","observed_at":-999000000.0,"quality":1.0,"repr":"T[old]","run_id":"r1","se_key":"se:old","stale":false,"stat":{"kind":"card"},"value":5,"workflow":"wf"}
],
"epoch":2,
"fence":1,
"format_version":2,
"kind":"statistics-catalog",
"lease_deadline":1000060.0,
"lease_holder":"night-a",
"wal_seq":2
}
'''

PARENT_WAL = '''fbc07784 {"epoch":2,"op":"epoch","seq":0,"v":1}
71a37eae {"deadline":1000060.0,"fence":1,"holder":"night-a","op":"lease","seq":3,"v":1}
e58d7435 {"entries":[{"backend":"","hits":0,"key":"c","observed_at":1000000.0,"quality":1.0,"repr":"T[c]","run_id":"r1","se_key":"se:c","stale":false,"stat":{"kind":"card"},"value":30,"workflow":"wf"},{"backend":"","hits":0,"key":"d","observed_at":1000000.0,"quality":1.0,"repr":"T[d]","run_id":"r1","se_key":"se:d","stale":false,"stat":{"kind":"card"},"value":40,"workflow":"wf"}],"op":"put","seq":4,"v":1}
23ffb1a0 {"entries":[{"backend":"","hits":0,"key":"a","observed_at":1000005.0,"quality":1.0,"repr":"T[a]","run_id":"r1","se_key":"se:a","stale":false,"stat":{"kind":"card"},"value":11,"workflow":"wf"},{"backend":"","hits":0,"key":"b","observed_at":999995.0,"quality":1.0,"repr":"T[b]","run_id":"r1","se_key":"se:b","stale":false,"stat":{"kind":"card"},"value":19,"workflow":"wf"}],"op":"merge","seq":5,"v":1}
58eeb29f {"keys":["b","missing"],"op":"stale","seq":6,"v":1}
ff5a5c13 {"adjust":[["a",0.5],["c",1.0]],"op":"quality","seq":7,"v":1}
245cf855 {"keys":["b","c","old"],"op":"delete","seq":8,"v":1}
2d0ee8a0 {"deadline":0.0,"fence":1,"holder":"","op":"lease","seq":9,"v":1}
'''

PARENT_ENTRIES = [
    entry_doc("a", 11, observed_at=NOW + 5, quality=0.75),
    entry_doc("d", 40),
]


class TestParentFilesReplay:
    def test_parent_snapshot_and_wal_replay_to_the_same_entries(self, tmp_path):
        (tmp_path / "catalog.json").write_text(PARENT_SNAPSHOT)
        (tmp_path / "catalog.json.wal").write_text(PARENT_WAL)
        svc = service(tmp_path)
        assert svc.replayed_records == 5  # the two lease records are skipped
        assert entries_doc(svc.to_dict()["entries"]) == entries_doc([
            CatalogEntry.from_dict(doc).to_dict() for doc in PARENT_ENTRIES
        ])
        assert (svc.snapshot_seq, svc.wal.last_seq) == (2, 9)

        # nothing new writes the old header, the lease or their fields
        svc.snapshot()
        assert (tmp_path / "catalog.json.wal").read_text() == ""
        snapshot = json.loads((tmp_path / "catalog.json").read_text())
        assert not {"epoch", "fence", "lease_holder", "lease_deadline"} & set(
            snapshot
        )
        assert snapshot["wal_seq"] == 9
        svc.wal.close()
        again = service(tmp_path)
        assert entries_doc(again.to_dict()["entries"]) == entries_doc(
            svc.to_dict()["entries"]
        )
        assert again.wal.last_seq == 9
        assert again.commit([["stale", ["a"]]]) == 10
        again.wal.close()
        revived = service(tmp_path)  # the commit after the snapshot replays
        assert revived.replayed_records == 1 and revived.get("a").stale
        assert '"ops"' in (tmp_path / "catalog.json.wal").read_text()
        revived.wal.close()
