"""The persistent, cross-workflow statistics catalog.

Section 6.2 integrates pre-existing source statistics at zero cost into
CSS selection; the catalog generalizes that idea to *every* statistic any
workflow in the fleet ever observed.  Entries are keyed by the canonical
signatures of :mod:`repro.catalog.signatures`, so the same statistic
reached via different workflows (or via a redesigned plan of the same
workflow) lands on one key, and tonight's observation in workflow A is
tomorrow's zero-cost statistic in workflow B.

Each entry carries:

- the **value** (counter / distinct count / exact histogram), serialized
  with the same machinery as :mod:`repro.core.persistence`;
- **provenance**: which workflow and run observed it, on which execution
  backend, and when;
- **quality**: a [0, 1] score maintained by the drift detector
  (:mod:`repro.catalog.drift`) plus a ``stale`` flag — stale entries are
  never offered to the selection problem, which is exactly what forces
  their re-observation on the next run;
- a human-readable ``repr`` of the statistic (keys are hashes; the repr
  keeps ``repro-etl catalog show`` and catalog diffs meaningful).

The file format rides on :mod:`repro.core.persistence`'s
``format_version`` machinery: atomic writes, validated loads, canonical
form (sorted keys, one entry per line) — a catalog diffs per entry in git.
A night pays for the entries that changed: each entry encodes its line
once, ``save`` splices the lines, and ``open`` decodes only the lines the
last version this process read or wrote does not hold.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

try:  # advisory flock; absent on some platforms -> O_EXCL fallback
    import fcntl
except ImportError:  # pragma: no cover - posix everywhere we run
    fcntl = None

from repro.core.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    _encode,
    _parse_json,
    _read_text,
    atomic_write_text,
    canonical_json,
    statistic_from_dict,
    statistic_to_dict,
    value_from_doc,
    value_to_doc,
)
from repro.core.statistics import Statistic, StatisticsStore, StatValue

#: catalog entries older than this many seconds are expired by default
DEFAULT_TTL = 30 * 24 * 3600.0

#: entries whose quality score sinks below this are not offered for reuse
DEFAULT_MIN_QUALITY = 0.5

#: how long :func:`catalog_lock` waits for a contended lock
DEFAULT_LOCK_TIMEOUT = 10.0

#: a lock file untouched for this long belongs to a dead run -- take it over
DEFAULT_LOCK_STALE = 120.0

#: the mutation vocabulary, op -> what its items are: a commit, a WAL record
#: and a client's staged write are ``[op, items]`` pairs, and
#: :meth:`StatisticsCatalog.apply` interprets them (an earlier version's
#: one-op WAL record spells one as ``{"op": op, field: items}``)
MUTATIONS = {
    "put": "entries",
    "merge": "entries",
    "stale": "keys",
    "quality": "adjust",
    "delete": "keys",
}


def _try_lock(fd: int) -> bool:
    if fcntl is not None:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            return True
        except OSError:
            return False
    return True  # O_EXCL creation below is the lock on fcntl-less platforms


@dataclass
class CatalogLockHandle:
    """Proof of a held :func:`catalog_lock`, carrying its fence token.

    Stale takeover unlinks the *path*, but a paused holder's ``flock`` is
    on the old inode -- the two holders do not conflict at the OS level.
    The token written into the lock file is what disambiguates them:
    :meth:`validate` re-reads the file at the path and raises unless it
    still carries *this* holder's token, so a holder that slept through
    its own takeover aborts its write instead of clobbering the
    successor's.
    """

    path: Path  # the <catalog>.lock sidecar
    token: str

    def held(self) -> bool:
        """Does the lock file still carry this holder's fence token?"""
        try:
            content = self.path.read_text()
        except OSError:
            return False
        return f"token={self.token}" in content

    def validate(self) -> None:
        """Raise unless this holder still owns the lock (fence check)."""
        if not self.held():
            raise PersistenceError(
                f"lock {self.path} was taken over while held (stale-lock "
                "takeover by another run); aborting the write instead of "
                "clobbering the new holder's"
            )


@contextmanager
def catalog_lock(
    path: str | Path,
    timeout: float = DEFAULT_LOCK_TIMEOUT,
    stale_after: float = DEFAULT_LOCK_STALE,
    poll: float = 0.05,
):
    """Advisory lock serializing read-modify-write on one catalog file.

    Two concurrent nightly fleet runs that ``save()`` the same catalog
    used to interleave plain read/write and silently drop each other's
    entries; holding this lock around reload-merge-write makes the last
    writer *add* rather than clobber.

    The lock is an ``fcntl.flock`` on a ``<catalog>.lock`` sidecar (an
    ``O_EXCL``-created sidecar where ``fcntl`` is unavailable).  Stale
    takeover: a lock file whose mtime is older than ``stale_after`` is a
    dead run's leftover -- it is unlinked and acquisition retries, so one
    crashed fleet run never wedges every later night.  A *live* contender
    wins a :class:`~repro.core.persistence.PersistenceError` after
    ``timeout`` seconds instead of deadlocking the fleet.

    Yields a :class:`CatalogLockHandle` whose fence token fixes the
    takeover race: a holder paused past ``stale_after`` (a stopped VM, a
    20-minute GC pause) comes back believing it holds a lock somebody
    else has since taken over.  Its handle's :meth:`~CatalogLockHandle.
    validate` fails -- :meth:`StatisticsCatalog.save` calls it right
    before the write -- so the zombie aborts instead of overwriting the
    successor's merge.
    """
    lock_path = Path(str(path) + ".lock")
    token = f"{os.getpid()}-{os.urandom(8).hex()}"
    deadline = time.monotonic() + timeout
    fd: int | None = None
    try:
        while True:
            flags = os.O_CREAT | os.O_RDWR
            if fcntl is None:
                flags |= os.O_EXCL
            try:
                fd = os.open(lock_path, flags, 0o644)
            except FileExistsError:
                fd = None  # O_EXCL path: somebody holds it
            if fd is not None and _try_lock(fd):
                os.truncate(fd, 0)
                os.write(fd, f"pid={os.getpid()}\ntoken={token}\n".encode())
                os.utime(lock_path)  # freshness signal for stale takeover
                break
            if fd is not None:
                os.close(fd)
                fd = None
            try:
                age = time.time() - lock_path.stat().st_mtime
            except OSError:
                continue  # holder vanished between attempts; retry now
            if age > stale_after:
                try:
                    lock_path.unlink()
                except OSError:  # pragma: no cover - racing another takeover
                    pass
                continue
            if time.monotonic() >= deadline:
                raise PersistenceError(
                    f"catalog {path} is locked by another run "
                    f"(lock {lock_path}, held {age:.0f}s); remove the lock "
                    "file if that run is dead"
                )
            time.sleep(poll)
        handle = CatalogLockHandle(path=lock_path, token=token)
        yield handle
    finally:
        if fd is not None:
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - unlock cannot fail here
                    pass
            os.close(fd)
            # only remove the file if it is still *ours* -- after a
            # takeover the path belongs to the new holder
            if CatalogLockHandle(path=lock_path, token=token).held():
                try:
                    lock_path.unlink()
                except OSError:  # pragma: no cover - racing a takeover
                    pass


def _catalog_doc(entries: list) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "statistics-catalog",
        "entries": entries,
    }


#: a non-empty catalog file is ``_HEAD + ",\n".join(entry lines) + _TAIL``
_HEAD, _TAIL = canonical_json(_catalog_doc([None])).split("null")


def _decode_entry(line: str) -> "CatalogEntry":
    """The one decode of a catalog file's entry line."""
    return CatalogEntry.from_dict(json.loads(line))


def _file_identity(path: str | Path) -> tuple | None:
    """What tells one ``os.replace``d version of ``path`` from the next."""
    try:
        st = os.stat(path)
        return (st.st_ino, st.st_size, st.st_mtime_ns)
    except OSError:
        return None


@dataclass(frozen=True)
class CatalogEntry:
    """One catalogued statistic value with provenance and quality."""

    key: str  # canonical statistic signature digest
    se_key: str  # canonical SE signature digest (groups entries per SE)
    stat_doc: dict  # workflow-local statistic description (provenance)
    value_doc: dict  # serialized value ({"value": ...} | {"histogram": ...})
    repr: str
    workflow: str = ""
    run_id: str = ""
    backend: str = ""
    observed_at: float = 0.0
    quality: float = 1.0
    stale: bool = False
    hits: int = 0

    @cached_property
    def line(self) -> str:
        """This entry's line in the catalog file, encoded once per object
        (a changed entry is a new object).  Fields hold JSON values only,
        so the line decodes to an equal entry."""
        return _encode(self.to_dict())

    def value(self) -> StatValue:
        return value_from_doc(self.value_doc)

    def statistic(self) -> Statistic:
        """The (workflow-local) statistic this entry was recorded under."""
        return statistic_from_dict(self.stat_doc)

    def expired(self, now: float, ttl: float) -> bool:
        return now - self.observed_at > ttl

    def usable(self, now: float, ttl: float, min_quality: float) -> bool:
        return (
            not self.stale
            and self.quality >= min_quality
            and not self.expired(now, ttl)
        )

    # -- the entry rules; only StatisticsCatalog applies them --
    def collectable(self, now: float, ttl: float, min_quality: float) -> bool:
        """Should ``gc`` drop this entry?"""
        return self.expired(now, ttl) or self.quality < min_quality or self.stale

    def supersedes(self, mine: "CatalogEntry | None") -> bool:
        """Merge rule: an entry replaces ``mine`` only if observed later."""
        return mine is None or self.observed_at > mine.observed_at

    def as_stale(self) -> "CatalogEntry":
        """Flagged so the next run re-observes it instead of reusing it."""
        return replace(self, stale=True)

    def with_error(self, rel_error: float) -> "CatalogEntry":
        """A fresh prediction error blended half-and-half into the quality."""
        accuracy = max(0.0, 1.0 - min(float(rel_error), 1.0))
        return replace(self, quality=0.5 * self.quality + 0.5 * accuracy)

    @staticmethod
    def reobserved_quality(rel_error: float) -> float:
        """Quality of an entry a tap just re-observed, in [0.5, 1]: the
        fresh value is exact, the old one's miss costs at most half."""
        return 1.0 - min(float(rel_error), 1.0) / 2

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "se_key": self.se_key,
            "stat": self.stat_doc,
            **self.value_doc,
            "repr": self.repr,
            "workflow": self.workflow,
            "run_id": self.run_id,
            "backend": self.backend,
            "observed_at": self.observed_at,
            "quality": self.quality,
            "stale": self.stale,
            "hits": self.hits,
        }

    @classmethod
    def of(cls, item: "CatalogEntry | dict") -> "CatalogEntry":
        return item if isinstance(item, cls) else cls.from_dict(item)

    @classmethod
    def from_dict(cls, doc: dict) -> "CatalogEntry":
        try:
            if "histogram" in doc:
                value_doc = {"histogram": doc["histogram"]}
            else:
                value_doc = {"value": doc["value"]}
            return cls(
                key=doc["key"],
                se_key=doc.get("se_key", ""),
                stat_doc=doc["stat"],
                value_doc=value_doc,
                repr=doc.get("repr", ""),
                workflow=doc.get("workflow", ""),
                run_id=doc.get("run_id", ""),
                backend=doc.get("backend", ""),
                observed_at=float(doc.get("observed_at", 0.0)),
                quality=float(doc.get("quality", 1.0)),
                stale=bool(doc.get("stale", False)),
                hits=int(doc.get("hits", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"corrupt catalog entry {doc!r}: {exc}") from exc


@dataclass
class CatalogHits:
    """The slice of the catalog covering one workflow's candidate stats.

    ``unusable`` maps the rest to their stale, expired or low-quality
    entries, undecoded until a degraded night asks :meth:`prior_values`.
    """

    free: set[Statistic] = field(default_factory=set)
    values: StatisticsStore = field(default_factory=StatisticsStore)
    keys: dict[Statistic, str] = field(default_factory=dict)
    unusable: dict[Statistic, CatalogEntry] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.free)

    @classmethod
    def of(
        cls,
        keys: dict[Statistic, str],
        usable: dict[str, CatalogEntry],
        present: dict[str, CatalogEntry],
    ) -> "CatalogHits":
        """The signed candidates ``keys`` that a usable entry covers; the
        rest that ``present`` holds an entry for are ``unusable``."""
        hits = cls()
        for stat, key in keys.items():
            entry = usable.get(key)
            if entry is None:
                entry = present.get(key)
                if entry is not None:
                    hits.unusable[stat] = entry
                continue
            hits.free.add(stat)
            hits.values.put(stat, entry.value())
            hits.keys[stat] = key
        return hits

    def prior_values(self) -> StatisticsStore:
        """The ``prior`` rung: the usable values plus the unusable ones."""
        store = self.values.copy()
        for stat, entry in self.unusable.items():
            store.put(stat, entry.value())
        return store


class StatisticsCatalog:
    """File-backed store of statistics shared across workflows and runs."""

    #: the last catalog version this process parsed or wrote, line -> entry;
    #: one version for every path (entries are frozen, so sharing them
    #: between catalogs cannot leak an edit)
    _held: dict[str, CatalogEntry] = {}

    #: an entry whose quality fell below this is not offered at zero cost
    min_quality = DEFAULT_MIN_QUALITY

    def __init__(self, path: str | Path | None = None, ttl: float = DEFAULT_TTL):
        self.path = Path(path) if path is not None else None
        self.ttl = ttl
        self.entries: dict[str, CatalogEntry] = {}
        self._on_disk: tuple | None = None  # identity of the version we hold

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str | Path) -> "StatisticsCatalog":
        """Load the catalog at ``path``, or start an empty one there."""
        catalog = cls(path)
        # identity first: a save landing in between then costs a re-read,
        # it is not mistaken for the version we hold
        identity = _file_identity(path)
        if identity is not None:
            catalog._load_text(_read_text(path, "catalog"))
            catalog._on_disk = identity
        return catalog

    def _load_text(self, text: str) -> None:
        """Decode the entry lines the held version does not hold.  A file
        not in the canonical layout, or a line that does not parse on its
        own, is decoded whole: acceptance is the whole-document decode's."""
        held = StatisticsCatalog._held
        try:
            if not (text.startswith(_HEAD) and text.endswith(_TAIL)):
                raise ValueError("not the canonical layout")
            lines = text[len(_HEAD):-len(_TAIL)].split(",\n")
            entries = [held.get(line) or _decode_entry(line) for line in lines]
        except ValueError:  # JSONDecodeError and PersistenceError too
            self._load_doc(_parse_json(text, self.path, "catalog"))
            return
        StatisticsCatalog._held = dict(zip(lines, entries))
        self.entries = {entry.key: entry for entry in entries}

    def _load_doc(self, doc: dict) -> None:
        entries = doc.get("entries", [])
        if not isinstance(entries, list):
            raise PersistenceError("corrupt catalog: 'entries' is not a list")
        for entry_doc in entries:
            entry = CatalogEntry.from_dict(entry_doc)
            self.entries[entry.key] = entry

    def to_dict(self) -> dict:
        return _catalog_doc(
            [self.entries[key].to_dict() for key in sorted(self.entries)]
        )

    def _text(self) -> str:
        """``canonical_json(self.to_dict())``, spliced from entry lines."""
        if not self.entries:
            return canonical_json(self.to_dict())
        lines = (self.entries[key].line for key in sorted(self.entries))
        return _HEAD + ",\n".join(lines) + _TAIL

    def save(self, path: str | Path | None = None, merge: bool = True) -> None:
        """Persist the catalog under the advisory file lock.

        With ``merge`` (the default) an on-disk catalog that is not the
        version this object loaded or last wrote (every save is an
        ``os.replace``: a new file identity) is re-read inside the lock and
        folded in first (newer ``observed_at`` wins), so two concurrent
        fleet runs saving the same file converge to the union of their
        entries, and a night alone with the file parses it once.
        Deliberate removals (``gc``) must pass ``merge=False`` or the
        merge would resurrect every entry they just dropped.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise PersistenceError("catalog has no path to save to")
        with catalog_lock(target) as lock:
            if merge and _file_identity(target) not in (None, self._on_disk):
                try:
                    disk = StatisticsCatalog.open(target)
                except PersistenceError:
                    pass  # corrupt on-disk catalog: ours replaces it
                else:
                    self.merge(disk)
            # fence check: if we slept past the stale deadline and another
            # run took the lock over, fail here rather than clobber it
            lock.validate()
            atomic_write_text(self._text(), target)
            self._on_disk = _file_identity(target)
            StatisticsCatalog._held = {e.line: e for e in self.entries.values()}

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: str) -> CatalogEntry | None:
        return self.entries.get(key)

    def usable_keys(self, now: float | None = None) -> set[str]:
        return set(self.usable_among(self.entries, now, count_hits=False))

    def usable_among(
        self, keys, now: float | None = None, count_hits: bool = True
    ) -> dict[str, CatalogEntry]:
        """The usable entries among ``keys``, by key.

        Stale, expired and low-quality entries never match (that is what
        triggers their re-observation).  Hit counts are advisory telemetry:
        bumped here, never logged.
        """
        now = time.time() if now is None else now
        usable: dict[str, CatalogEntry] = {}
        for key in keys:
            entry = self.entries.get(key)
            if entry is None or not entry.usable(now, self.ttl, self.min_quality):
                continue
            if count_hits:
                entry = self.entries[key] = replace(entry, hits=entry.hits + 1)
            usable[key] = entry
        return usable

    def lookup(
        self, signer, stats, now: float | None = None, count_hits: bool = True
    ) -> CatalogHits:
        """Match a workflow's candidate statistics against the catalog.

        Returns the statistics the catalog can satisfy — they enter the
        selection problem at zero cost and their values back the estimator
        without being re-observed — and the unusable entries of the rest.
        """
        keys = signer.statistic_keys(stats)
        return CatalogHits.of(
            keys, self.usable_among(keys.values(), now, count_hits), self.entries
        )

    def entries_on_se(self, se_keys) -> list[CatalogEntry]:
        """Every entry describing a statistic on one of the given SEs,
        sorted by key.  ``se_keys`` is a collection of SE keys (a bare
        ``str`` would be read as its characters)."""
        wanted = set(se_keys)
        return sorted(
            (e for e in self.entries.values() if e.se_key in wanted),
            key=lambda e: e.key,
        )

    def collectable_keys(self, now: float | None = None) -> list[str]:
        """The expired, low-quality and stale keys ``gc`` drops."""
        now = time.time() if now is None else now
        return sorted(
            key
            for key, entry in self.entries.items()
            if entry.collectable(now, self.ttl, self.min_quality)
        )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def apply(self, op: str, items) -> int:
        """Interpret one mutation of :data:`MUTATIONS`; returns the count of
        entries it changed.

        This is the definition of the five ops.  ``put`` inserts or
        replaces whole entries, ``merge`` folds entries in with the newer
        ``observed_at`` winning, ``stale`` flags keys for re-observation,
        ``quality`` blends ``[key, rel_error]`` pairs into quality scores,
        ``delete`` drops keys.  Entries arrive as documents or as
        :class:`CatalogEntry`; a key that is not there is skipped.
        """
        entries = self.entries
        changed = 0
        if op in ("put", "merge"):
            for item in items:
                entry = CatalogEntry.of(item)
                if op == "put" or entry.supersedes(entries.get(entry.key)):
                    entries[entry.key] = entry
                    changed += 1
        elif op == "stale":
            for key in items:
                entry = entries.get(key)
                if entry is not None and not entry.stale:
                    entries[key] = entry.as_stale()
                    changed += 1
        elif op == "quality":
            for key, rel_error in items:
                entry = entries.get(key)
                if entry is not None:
                    entries[key] = entry.with_error(rel_error)
                    changed += 1
        elif op == "delete":
            for key in items:
                changed += entries.pop(key, None) is not None
        else:
            raise PersistenceError(f"unknown catalog mutation {op!r}")
        return changed

    def record(
        self,
        key: str,
        se_key: str,
        stat: Statistic,
        value: StatValue,
        *,
        workflow: str = "",
        run_id: str = "",
        backend: str = "",
        observed_at: float | None = None,
        quality: float | None = None,
    ) -> CatalogEntry:
        """Insert or refresh one observed statistic."""
        previous = self.entries.get(key)
        entry = CatalogEntry(
            key=key,
            se_key=se_key,
            stat_doc=statistic_to_dict(stat),
            value_doc=value_to_doc(value),
            repr=repr(stat),
            workflow=workflow,
            run_id=run_id,
            backend=backend,
            # floats, as a decoded entry's: its line must read back equal
            observed_at=time.time() if observed_at is None else float(observed_at),
            quality=1.0 if quality is None else float(quality),
            stale=False,
            hits=previous.hits if previous is not None else 0,
        )
        self.entries[key] = entry
        return entry

    def correct(
        self, key, se_key, stat, actual, rel_error, **provenance
    ) -> CatalogEntry:
        """Penalise, then refresh in place.

        A prediction that missed costs the entry ``rel_error`` of quality;
        the observed ``actual`` -- itself a valid observation -- then
        replaces the value, carrying the penalised quality forward.
        """
        self.adjust_quality(key, rel_error)
        return self.record(
            key, se_key, stat, actual,
            quality=self.get(key).quality, **provenance,
        )

    def mark_stale(self, keys) -> int:
        """Flag entries so the next run re-observes them; returns count."""
        return self.apply("stale", keys)

    def adjust_quality(self, key: str, rel_error: float) -> None:
        """Blend a fresh prediction error into an entry's quality score."""
        self.apply("quality", [(key, rel_error)])

    def gc(self, now: float | None = None) -> int:
        """Drop expired, low-quality and stale entries."""
        return self.apply("delete", self.collectable_keys(now))

    def merge(self, other: "StatisticsCatalog") -> int:
        """Import entries from another catalog; newer observation wins."""
        return self.apply("merge", other.entries.values())

    # ------------------------------------------------------------------
    def describe(self) -> str:
        now = time.time()
        lines = [
            f"catalog: {len(self.entries)} entries "
            f"({len(self.usable_keys(now))} usable, ttl {self.ttl:g}s)"
        ]
        for key in sorted(self.entries):
            entry = self.entries[key]
            age = now - entry.observed_at
            flags = []
            if entry.stale:
                flags.append("stale")
            if entry.expired(now, self.ttl):
                flags.append("expired")
            if entry.quality < self.min_quality:
                flags.append("low-quality")
            note = f" [{','.join(flags)}]" if flags else ""
            lines.append(
                f"  {key[:12]} {entry.repr}  q={entry.quality:.2f} "
                f"hits={entry.hits} age={age:.0f}s "
                f"from={entry.workflow or '?'}/{entry.run_id or '?'}"
                f"{note}"
            )
        return "\n".join(lines)


__all__ = [
    "DEFAULT_LOCK_STALE",
    "DEFAULT_LOCK_TIMEOUT",
    "DEFAULT_MIN_QUALITY",
    "DEFAULT_TTL",
    "MUTATIONS",
    "CatalogEntry",
    "CatalogHits",
    "CatalogLockHandle",
    "StatisticsCatalog",
    "catalog_lock",
]
