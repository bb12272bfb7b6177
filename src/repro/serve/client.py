"""The degrading catalog client.

:class:`CatalogClient` speaks to a ``repro-etl serve`` daemon while
presenting the exact duck interface of
:class:`~repro.catalog.store.StatisticsCatalog`, so the pipeline, the
drift reconciler and the fleet planner cannot tell (and must not care)
whether the catalog is a local file or a server across a socket.

The robustness contract is the headline: **a vanished server demotes
confidence, it never fails the run.**  The machinery, outermost first:

- every request runs behind a **timeout** and seeded exponential
  **retry/backoff** (the :class:`~repro.engine.scheduler.RetryPolicy`
  discipline -- transient errors are retried, a dead server is not);
- on the first unrecoverable failure the client **degrades**: its
  in-memory mirror (what this client has read from and written to the
  server so far, plus a local fallback catalog file if one was given)
  serves every later read, writes are folded into the fallback file at
  :meth:`save`, and ``degraded`` flips ``True`` -- which the pipeline
  translates into plan confidence dropping one rung down the observed →
  catalog → prior → independence ladder.  A degraded client sends no
  further request from any read or write path, so a dead server costs
  one round of retries per night, not one per call.

**The mirror is a read-through cache, not a replica.**  A night reads
what it asks for: :meth:`lookup` is one ``POST /lookup`` carrying the
workflow's candidate keys, and the answer -- the usable entries plus,
under ``unusable``, the entries that exist for those keys but are stale,
expired or of low quality -- is absorbed into the mirror, so the
reconciler's ``get(key)`` still finds a stale predecessor without
another request.  ``get`` of a key the server was never asked about
reads through by key (never counting a hit), ``entries_on_se`` reads
through ``POST /entries``, ``len()`` is ``/healthz``'s entry count, and
only the whole-catalog readers (``entries``, ``usable_keys``,
``describe``) download ``GET /export``.  No read overwrites an entry
this client has written but not yet flushed: the mirror keeps its version,
and :meth:`lookup` judges that key's usability on it.

Writes -- ``merge`` included -- are *staged* locally in order and flushed
by :meth:`save` as one ``POST /commit``: the server logs the night's ops
as one WAL record and applies them whole, so a flush is never half
applied, and two nights flushing at once both land, one after the other.

A client speaks to exactly one daemon: the ``url`` names one endpoint,
and a comma-separated list is rejected rather than read as a socket path.

Chaos tests drive all of this deterministically through the
``server-kill`` / ``server-hang`` / ``net-flap`` fault kinds of
:mod:`repro.engine.faults`, consulted at every request boundary.
"""

from __future__ import annotations

import http.client
import socket
import threading
import time
from pathlib import Path

from repro.catalog.store import (
    MUTATIONS,
    CatalogEntry,
    CatalogHits,
    StatisticsCatalog,
)
from repro.core.persistence import PersistenceError
from repro.engine.faults import PermanentFault, TransientFault, as_injector
from repro.engine.scheduler import RetryPolicy

#: URL prefixes that select the client over the file-backed store
CATALOG_URL_PREFIXES = ("http://", "https://", "unix://")

#: per-request socket timeout, seconds
DEFAULT_TIMEOUT = 2.0


class CatalogUnavailable(PersistenceError):
    """The server could not be reached (a permanent fault, or retries
    exhausted)."""


class CatalogRequestError(PersistenceError):
    """The server answered, but with an error status."""


def is_catalog_url(spec) -> bool:
    """Does this ``stats_catalog=`` value name a served catalog?"""
    return isinstance(spec, str) and spec.startswith(CATALOG_URL_PREFIXES)


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket."""

    def __init__(self, path: str, timeout: float):
        super().__init__("localhost", timeout=timeout)
        self.unix_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.unix_path)
        self.sock = sock


def connect(url: str, timeout: float) -> http.client.HTTPConnection:
    """A (not yet connected) HTTP connection to a catalog URL, TCP or unix."""
    if url.startswith("unix://"):
        return _UnixHTTPConnection(url[len("unix://"):], timeout)
    hostport = url.split("://", 1)[-1]
    host, _, port = hostport.rpartition(":")
    return http.client.HTTPConnection(
        host or hostport, int(port) if port.isdigit() else 80, timeout=timeout
    )


class CatalogClient:
    """A ``StatisticsCatalog`` look-alike backed by one catalog server."""

    def __init__(
        self,
        url: str,
        *,
        fallback: StatisticsCatalog | str | Path | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_retries: int = 2,
        seed: int = 0,
        faults=None,
        sleep=time.sleep,
    ):
        if "," in url:
            raise PersistenceError(
                f"one catalog endpoint per client, got the list {url!r}"
            )
        self.url = url.rstrip("/")
        self.timeout = timeout

        if isinstance(fallback, StatisticsCatalog):
            self._fallback = fallback
        elif fallback is not None:
            self._fallback = StatisticsCatalog.open(fallback)
        else:
            self._fallback = None

        #: the entries this client has read from or written to the server;
        #: after degradation it IS the catalog (plus the fallback file)
        self._mirror = StatisticsCatalog(None)
        #: keys the server has answered for: one of these missing from the
        #: mirror is the server's "no such entry", not a question to ask
        self._answered: set[str] = set()
        self._exported = False  # GET /export absorbed: every key answered
        self._staged: list[tuple[str, list]] = []  # ordered, coalesced ops
        self.degraded = False
        self.requests_sent = 0
        self.retries = 0

        self._policy = RetryPolicy(
            max_retries=max_retries,
            seed=seed,
            sleep=sleep,
        )
        self._rng = self._policy.rng_for(self.url)
        self._injector = as_injector(faults)
        self._conn: http.client.HTTPConnection | None = None
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # transport: timeout -> retry/backoff
    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = connect(self.url, self.timeout)
        return self._conn

    def _drop_conn(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - close cannot matter here
                pass
            self._conn = None

    def _once(self, method: str, path: str, doc) -> tuple[int, dict]:
        import json

        conn = self._connect()
        body = None
        headers = {}
        if doc is not None:
            body = json.dumps(doc).encode("utf-8")
            headers = {"Content-Type": "application/json"}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        payload = response.read()
        try:
            answer = json.loads(payload) if payload else {}
        except json.JSONDecodeError:
            answer = {"error": payload.decode("utf-8", "replace")[:200]}
        return response.status, answer

    def _request(self, method: str, path: str, doc=None) -> dict:
        """One logical request, retrying transients.

        :class:`CatalogUnavailable` (a permanent fault, or retries
        exhausted) is the only path to degradation; an error status is a
        :class:`CatalogRequestError`.
        """
        with self._lock:
            attempt = 0
            while True:
                self.requests_sent += 1
                try:
                    if self._injector is not None:
                        self._injector.on_request(path)
                    status, answer = self._once(method, path, doc)
                except PermanentFault as exc:
                    # a dead server does not heal by retrying
                    self._drop_conn()
                    raise CatalogUnavailable(
                        f"catalog {self.url} unreachable: {exc}"
                    ) from exc
                except (
                    TransientFault,
                    OSError,
                    http.client.HTTPException,
                ) as exc:
                    self._drop_conn()
                    if attempt >= self._policy.max_retries:
                        raise CatalogUnavailable(
                            f"catalog {self.url} unreachable after "
                            f"{attempt + 1} attempt(s): {exc}"
                        ) from exc
                    self._policy.sleep(self._policy.backoff(attempt, self._rng))
                    attempt += 1
                    self.retries += 1
                    continue
                break
            if status >= 400:
                raise CatalogRequestError(
                    answer.get("error", f"catalog server answered {status}")
                )
            return answer

    # ------------------------------------------------------------------
    # degradation
    # ------------------------------------------------------------------
    def _degrade(self) -> None:
        """Fall back to the local view; reads and writes keep working."""
        if not self.degraded:
            self.degraded = True
            if self._fallback is not None:
                # fallback entries fill whatever the mirror never saw
                for key, entry in self._fallback.entries.items():
                    self._mirror.entries.setdefault(key, entry)

    # ------------------------------------------------------------------
    # the read-through mirror
    # ------------------------------------------------------------------
    def _staged_keys(self) -> set[str]:
        keys: set[str] = set()
        for op, items in self._staged:
            field = MUTATIONS[op]
            if field == "entries":
                keys.update(doc["key"] for doc in items)
            elif field == "keys":
                keys.update(items)
            else:
                keys.update(key for key, _ in items)
        return keys

    def _absorb(self, entry_docs) -> list[CatalogEntry]:
        """Fold entries the server sent into the mirror.

        A key with a staged write keeps the mirror's version: the server
        has not seen that write yet, so its copy is the older one.
        """
        entries = [CatalogEntry.from_dict(doc) for doc in entry_docs]
        mine = self._staged_keys()
        for entry in entries:
            if entry.key not in mine:
                self._mirror.entries[entry.key] = entry
        return entries

    def _read(self, method: str, path: str, doc=None) -> dict | None:
        """One read request; a failed one degrades and answers ``None``."""
        if self.degraded:
            return None
        try:
            return self._request(method, path, doc)
        except (CatalogUnavailable, CatalogRequestError):
            self._degrade()
            return None

    def _ask(
        self, keys: list[str], now: float | None = None, count_hits: bool = False
    ) -> dict[str, CatalogEntry] | None:
        """``POST /lookup``: the usable entries among ``keys``, by key.

        The mirror absorbs them and the unusable ones the answer carries
        beside them; ``keys`` are answered for from here on.  ``None``
        if the server could not be asked.
        """
        body = {"keys": keys, "count_hits": bool(count_hits)}
        if now is not None:
            body["now"] = now
        answer = self._read("POST", "/lookup", body)
        if answer is None:
            return None
        self._absorb(answer.get("unusable", []))
        usable = {e.key: e for e in self._absorb(answer.get("entries", []))}
        self._answered.update(keys)
        # a key this client has a staged write on is judged on the mirror's
        # version: the server's answer predates that write
        mine = self._staged_keys().intersection(keys)
        if mine:
            for key in mine:
                usable.pop(key, None)
            usable.update(self._mirror.usable_among(mine, now, count_hits=False))
        return usable

    def _read_through(self, keys) -> None:
        """Ask, counting no hit, for the keys the mirror cannot answer."""
        if self._exported:
            return
        unknown = [
            key
            for key in keys
            if key not in self._answered and key not in self._mirror.entries
        ]
        if unknown:
            self._ask(unknown)

    def _export(self) -> None:
        """Whole-catalog readers download the catalog, once per client."""
        doc = None if self._exported else self._read("GET", "/export")
        if doc is not None:
            self._absorb(doc.get("entries", []))
            self._exported = True

    # ------------------------------------------------------------------
    # StatisticsCatalog duck interface: reads
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        # truthy, so the pipeline calls save(); the URL doubles as the
        # display name in CLI output
        return self.url

    @property
    def entries(self) -> dict[str, CatalogEntry]:
        self._export()
        return self._mirror.entries

    def __len__(self) -> int:
        health = self._read("GET", "/healthz")
        if health is None:
            return len(self._mirror.entries)
        return int(health["entries"])

    def get(self, key: str) -> CatalogEntry | None:
        self._read_through([key])
        return self._mirror.get(key)

    def usable_keys(self, now: float | None = None) -> set[str]:
        self._export()
        return self._mirror.usable_keys(now)

    def entries_on_se(self, se_keys) -> list[CatalogEntry]:
        se_keys = sorted(se_keys)
        if not self._exported:
            answer = self._read("POST", "/entries", {"se_keys": se_keys})
            if answer is not None:
                self._absorb(answer.get("entries", []))
        return self._mirror.entries_on_se(se_keys)

    def describe(self) -> str:
        self._export()
        mode = "degraded to local view" if self.degraded else "connected"
        return (
            f"catalog service {self.url} ({mode})\n"
            + self._mirror.describe()
        )

    def to_dict(self) -> dict:
        self._export()
        return self._mirror.to_dict()

    def lookup(
        self, signer, stats, now: float | None = None, count_hits: bool = True
    ) -> CatalogHits:
        """Match candidate statistics; server answers, mirror absorbs.

        The night's one read.  When the server is healthy the answer is
        authoritative (and bumps server-side hit counters), and the
        unusable entries it carries, absorbed into the mirror, are the
        hits' ``unusable``; after degradation the mirror -- what this
        client read before the server vanished, plus the fallback file --
        answers instead, with one rung knocked off by the pipeline.
        """
        if not self.degraded:
            keys = signer.statistic_keys(stats)
            usable = self._ask(sorted(set(keys.values())), now, count_hits)
            if usable is not None:
                return CatalogHits.of(keys, usable, self._mirror.entries)
        return self._mirror.lookup(signer, stats, now=now, count_hits=count_hits)

    # ------------------------------------------------------------------
    # StatisticsCatalog duck interface: writes (staged, flushed by save)
    # ------------------------------------------------------------------
    def _stage(self, op: str, *items) -> None:
        if self._staged and self._staged[-1][0] == op:
            self._staged[-1][1].extend(items)
        else:
            self._staged.append((op, list(items)))

    def record(self, key, se_key, stat, value, **provenance) -> CatalogEntry:
        entry = self._mirror.record(key, se_key, stat, value, **provenance)
        self._stage("put", entry.to_dict())
        return entry

    #: penalise (stages ``quality``), then refresh in place (stages ``put``)
    correct = StatisticsCatalog.correct

    def mark_stale(self, keys) -> int:
        keys = list(keys)
        self._read_through(keys)
        marked = self._mirror.mark_stale(keys)
        self._stage("stale", *keys)
        return marked

    def adjust_quality(self, key: str, rel_error: float) -> None:
        self._read_through([key])
        self._mirror.adjust_quality(key, rel_error)
        self._stage("quality", [key, float(rel_error)])

    def gc(self, now: float | None = None) -> int:
        if not self.degraded:
            try:
                answer = self._request("POST", "/gc", {})
                self._mirror.gc(now)
                return int(answer.get("removed", 0))
            except (CatalogUnavailable, CatalogRequestError):
                self._degrade()
        # no server to decide: the doomed keys are staged for the fallback
        doomed = self._mirror.collectable_keys(now)
        if doomed:
            self._staged.append(("delete", doomed))
        return self._mirror.apply("delete", doomed)

    def merge(self, other: StatisticsCatalog) -> int:
        self._stage("merge", *(e.to_dict() for e in other.entries.values()))
        return self._mirror.merge(other)

    def save(self, merge: bool = True) -> None:
        """Flush the staged writes as one commit.

        Healthy path: the staged ops, in order, are one ``POST /commit``,
        which the server checks whole, logs as one fsync'd WAL record and
        applies whole; with nothing staged, nothing is sent.  Degraded
        path (or a commit the server could not take): the staged ops are
        folded into the local fallback catalog file instead (merge-on-save,
        advisory-locked), so the night's observations survive for
        tomorrow's server merge.
        """
        ops, self._staged = self._staged, []
        if not self.degraded:
            if not ops:
                return
            try:
                self._request("POST", "/commit", {"ops": ops})
                return
            except (CatalogUnavailable, CatalogRequestError):
                self._degrade()
        if self._fallback is not None:
            for op, items in ops:
                self._fallback.apply(op, items)
            if self._fallback.path is not None:
                self._fallback.save(merge=merge)

    # ------------------------------------------------------------------
    # extras (not part of the store interface)
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def close(self) -> None:
        self._drop_conn()


def resolve_stats_catalog(spec, **client_kwargs):
    """``stats_catalog=`` coercion: URL -> client, path -> file store."""
    if is_catalog_url(spec):
        return CatalogClient(spec, **client_kwargs)
    if isinstance(spec, (str, Path)):
        return StatisticsCatalog.open(spec)
    return spec


__all__ = [
    "CATALOG_URL_PREFIXES",
    "CatalogClient",
    "CatalogRequestError",
    "CatalogUnavailable",
    "is_catalog_url",
    "resolve_stats_catalog",
]
