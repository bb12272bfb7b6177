"""Advisory catalog locking and merge-on-save (concurrent fleet runs)."""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.core.persistence import PersistenceError
from repro.core.statistics import Statistic
from repro.catalog.store import (
    CatalogLockHandle,
    StatisticsCatalog,
    catalog_lock,
)

pytestmark = pytest.mark.catalog


def _stat(name="R"):
    from repro.algebra.expressions import SubExpression

    return Statistic.card(SubExpression.of(name))


def _catalog(path, **entries):
    catalog = StatisticsCatalog.open(path)
    for key, (value, observed_at) in entries.items():
        catalog.record(
            key, f"se:{key}", _stat(), value,
            workflow="wf", run_id="r", observed_at=observed_at,
        )
    return catalog


def _count_decodes(monkeypatch, forget: bool = True) -> list:
    """Every entry line decoded from here on appends its entry's key.

    With ``forget`` every read starts with nothing held, as a fresh
    process's would: each parse of a file then decodes every line once.
    """
    from repro.catalog import store

    decoded: list = []
    decode, load = store._decode_entry, StatisticsCatalog._load_text

    def counting(line):
        entry = decode(line)
        decoded.append(entry.key)
        return entry

    def forgetful(catalog, text):
        StatisticsCatalog._held = {}
        return load(catalog, text)

    monkeypatch.setattr(store, "_decode_entry", counting)
    if forget:
        monkeypatch.setattr(StatisticsCatalog, "_load_text", forgetful)
    return decoded


class TestCatalogLock:
    def test_lock_file_created_and_removed(self, tmp_path):
        target = tmp_path / "catalog.json"
        lock = tmp_path / "catalog.json.lock"
        with catalog_lock(target):
            assert lock.exists()
        assert not lock.exists()

    def test_live_contender_times_out(self, tmp_path):
        target = tmp_path / "catalog.json"
        with catalog_lock(target):
            with pytest.raises(PersistenceError, match="locked by another run"):
                with catalog_lock(target, timeout=0.15, poll=0.01):
                    pass  # pragma: no cover - acquisition must fail

    def test_stale_lock_is_taken_over(self, tmp_path):
        target = tmp_path / "catalog.json"
        lock = tmp_path / "catalog.json.lock"
        # a dead run's leftover: present, flocked by nobody, old mtime
        lock.write_text("pid=0\n")
        old = time.time() - 3600
        os.utime(lock, (old, old))
        acquired = False
        with catalog_lock(target, timeout=1.0, stale_after=60.0, poll=0.01):
            acquired = True
        assert acquired

    def test_reentrant_after_release(self, tmp_path):
        target = tmp_path / "catalog.json"
        for _ in range(3):
            with catalog_lock(target):
                pass


class TestLockFence:
    """The stale-takeover race: a paused holder must not clobber its
    successor.  The fence token in the lock file is what detects it."""

    def test_handle_carries_a_validating_token(self, tmp_path):
        target = tmp_path / "catalog.json"
        with catalog_lock(target) as lock:
            assert isinstance(lock, CatalogLockHandle)
            assert lock.held()
            lock.validate()  # must not raise while we own the file

    def test_validate_fails_after_takeover(self, tmp_path):
        target = tmp_path / "catalog.json"
        lock_path = tmp_path / "catalog.json.lock"
        with catalog_lock(target) as lock:
            # simulate a takeover: the successor unlinked our stale file
            # and wrote its own (our flock is on the orphaned inode)
            lock_path.unlink()
            lock_path.write_text("pid=0\ntoken=somebody-else\n")
            assert not lock.held()
            with pytest.raises(PersistenceError, match="taken over"):
                lock.validate()
        # release must NOT delete the new holder's lock file
        assert lock_path.exists()
        assert "somebody-else" in lock_path.read_text()

    def test_validate_fails_when_lock_file_vanished(self, tmp_path):
        target = tmp_path / "catalog.json"
        with catalog_lock(target) as lock:
            (tmp_path / "catalog.json.lock").unlink()
            with pytest.raises(PersistenceError, match="taken over"):
                lock.validate()

    def test_two_process_stale_takeover_is_fenced(self, tmp_path):
        """Process A stalls holding the lock; we take it over; A's late
        save must abort with the fence error, not overwrite our file."""
        path = tmp_path / "catalog.json"
        flag = tmp_path / "takeover.done"
        script = textwrap.dedent(
            f"""
            import sys, time
            from repro.catalog.store import StatisticsCatalog, catalog_lock

            catalog = StatisticsCatalog.open({str(path)!r})
            try:
                catalog.save()          # lock -> merge -> validate -> write
            except Exception as exc:
                print("SAVE-FAILED", type(exc).__name__, flush=True)

            # now model the pause *inside* the critical section
            from repro.core.persistence import PersistenceError
            with catalog_lock({str(path)!r}) as lock:
                print("HELD", flush=True)
                deadline = time.time() + 20
                while time.time() < deadline:   # "GC pause" until takeover
                    if {str(flag)!r} and __import__("pathlib").Path({str(flag)!r}).exists():
                        break
                    time.sleep(0.02)
                try:
                    lock.validate()
                except PersistenceError:
                    print("FENCED", flush=True)
                    sys.exit(0)
                print("CLOBBERED", flush=True)
                sys.exit(1)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stdout.readline().strip()
            while line and line != "HELD":
                line = proc.stdout.readline().strip()
            assert line == "HELD"
            # age A's lock past the stale deadline and take it over
            lock_path = Path(str(path) + ".lock")
            old = time.time() - 3600
            os.utime(lock_path, (old, old))
            with catalog_lock(
                path, timeout=5.0, stale_after=60.0, poll=0.01
            ) as mine:
                flag.write_text("go")
                out, _ = proc.communicate(timeout=30)
                assert "FENCED" in out
                assert proc.returncode == 0
                mine.validate()  # the takeover still holds its own fence
        finally:
            if proc.poll() is None:  # pragma: no cover - only on failure
                proc.kill()


class TestMergeOnSave:
    def test_concurrent_saves_converge_to_the_union(self, tmp_path):
        path = tmp_path / "catalog.json"
        a = _catalog(path, ka=(10, 100.0))
        b = _catalog(path, kb=(20, 100.0))
        a.save()
        b.save()  # must fold a's entry in, not clobber it
        merged = StatisticsCatalog.open(path)
        assert set(merged.entries) == {"ka", "kb"}

    def test_interleaved_saver_is_still_merged(self, tmp_path, monkeypatch):
        """A opens -> B (another run) opens, records, saves -> A records,
        saves: B's save changed the file's identity, so A re-reads it (each
        of B's lines once) under the lock and the file ends as the union,
        newer ``observed_at`` winning."""
        path = tmp_path / "catalog.json"
        _catalog(path, shared=(1, 100.0), old=(5, 100.0)).save()
        a = StatisticsCatalog.open(path)
        b = _catalog(path, kb=(20, 150.0), shared=(2, 300.0), old=(6, 120.0))
        b.save()
        decoded = _count_decodes(monkeypatch)
        for key, (value, at) in {"ka": (10, 150.0), "shared": (3, 200.0),
                                 "old": (7, 130.0)}.items():
            a.record(key, f"se:{key}", _stat(), value, observed_at=at)
        a.save()
        assert sorted(decoded) == ["kb", "old", "shared"]
        merged = StatisticsCatalog.open(path)
        assert {k: e.value() for k, e in merged.entries.items()} == {
            "ka": 10, "kb": 20, "shared": 2, "old": 7}

    def test_saver_alone_with_the_file_does_not_reread_it(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "catalog.json"
        _catalog(path, k0=(1, 100.0)).save()
        decoded = _count_decodes(monkeypatch)
        catalog = _catalog(path, k1=(2, 100.0))  # the one parse
        catalog.save()
        catalog.record("k2", "se:k2", _stat(), 3, observed_at=100.0)
        catalog.save()  # holds what it wrote: still no re-read
        assert decoded == ["k0"]
        assert set(StatisticsCatalog.open(path).entries) == {"k0", "k1", "k2"}

    def test_newer_observation_wins_on_both_sides(self, tmp_path):
        path = tmp_path / "catalog.json"
        older = _catalog(path, k=(1, 100.0))
        newer = _catalog(path, k=(2, 200.0))
        newer.save()
        older.save()  # disk entry is newer: keep it
        assert StatisticsCatalog.open(path).entries["k"].value() == 2
        newest = _catalog(path, k=(3, 300.0))
        newest.save()  # in-memory entry is newer: overwrite
        assert StatisticsCatalog.open(path).entries["k"].value() == 3

    def test_same_timestamp_keeps_local_stale_mark(self, tmp_path):
        # tonight's drift scan marks an entry stale; a merge against the
        # identically-timestamped on-disk copy must not resurrect it
        path = tmp_path / "catalog.json"
        catalog = _catalog(path, k=(1, 100.0))
        catalog.save()
        catalog.mark_stale(["k"])
        catalog.save()
        assert StatisticsCatalog.open(path).entries["k"].stale

    def test_gc_save_does_not_resurrect_dropped_entries(self, tmp_path):
        path = tmp_path / "catalog.json"
        catalog = _catalog(path, keep=(1, time.time()), drop=(2, 1.0))
        catalog.save()
        removed = catalog.gc()
        assert removed == 1
        catalog.save(merge=False)  # the gc contract: no merge
        assert set(StatisticsCatalog.open(path).entries) == {"keep"}

    def test_save_without_merge_clobbers(self, tmp_path):
        path = tmp_path / "catalog.json"
        _catalog(path, ka=(10, 100.0)).save()
        other = _catalog(tmp_path / "other.json", kb=(20, 100.0))
        other.save(path, merge=False)
        assert set(StatisticsCatalog.open(path).entries) == {"kb"}

    def test_corrupt_disk_catalog_is_replaced_not_fatal(self, tmp_path):
        path = tmp_path / "catalog.json"
        catalog = _catalog(path, k=(1, 100.0))
        path.write_text("{ truncated")  # corrupted between open and save
        catalog.save()
        assert set(StatisticsCatalog.open(path).entries) == {"k"}
