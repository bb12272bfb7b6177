"""HTTP transport for the statistics-catalog service.

Stdlib only: :class:`http.server.ThreadingHTTPServer` over TCP, or a
``ThreadingMixIn`` + :class:`socketserver.UnixStreamServer` composition
for unix-domain sockets (the low-latency same-host path the benchmarks
measure).  Requests and responses are JSON; connections are HTTP/1.1
keep-alive so a client's nightly conversation pays the connect cost once.

Endpoints
---------

===========================  ====================================================
``GET /healthz``             liveness + store summary (entries, WAL seqs)
``GET /metrics``             Prometheus 0.0.4 text (the shared exporter)
``GET /export``              the full catalog document (whole-catalog readers
                             and ``catalog export``; a night never asks for it)
``POST /lookup``             ``{keys, now?, count_hits?}`` -> ``{entries, unusable}``
``POST /entries``            ``{se_keys}`` -> every entry on those SEs
``POST /commit``             ``{ops: [[op, items]..]}`` -> ``{seq}``: one WAL
                             record, applied whole (op: put, merge, stale,
                             quality)
``POST /gc``                 ``{ttl?, min_quality?, drop_stale?}``
``POST /snapshot``           force a write-behind snapshot + WAL truncation
===========================  ====================================================

``/lookup`` answers for exactly the asked keys: ``entries`` are the usable
ones (their hit counters bumped unless ``count_hits`` is false),
``unusable`` the ones that exist but are stale, expired or of low quality
-- never offered for reuse, but what a reconciling client needs to report
a re-observation as a refresh rather than an admission.  A key in neither
list has no entry.

A commit is checked whole before anything is logged: a malformed body
(not a JSON object) or op (unknown, ``delete``, items that are not a list,
an entry that does not decode, a non-numeric ``rel_error``) answers
**400** with nothing written.  Two writers' commits queue on the write
lock and both land.
"""

from __future__ import annotations

import json
import os
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.core.persistence import PersistenceError
from repro.obs.metrics import MetricsRegistry
from repro.serve.service import CatalogService, SnapshotDaemon


class CatalogRequestHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP facade over one :class:`CatalogService`."""

    server_version = "repro-catalog/1"
    protocol_version = "HTTP/1.1"  # keep-alive: one connection per night

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def service(self) -> CatalogService:
        return self.server.service

    @property
    def metrics(self) -> MetricsRegistry:
        return self.server.metrics

    def address_string(self) -> str:  # unix sockets have no peer address
        try:
            return super().address_string()
        except (TypeError, IndexError):  # pragma: no cover - platform quirk
            return "unix"

    def log_message(self, format: str, *args) -> None:
        self.server.log(f"{self.address_string()} {format % args}")

    def _reply(self, status: int, doc: dict | str) -> None:
        if isinstance(doc, str):  # /metrics is Prometheus text, not JSON
            body, content_type = doc.encode("utf-8"), "text/plain; version=0.0.4"
        else:
            body = json.dumps(doc, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0) or 0)
        raw = self.rfile.read(length) if length else b"{}"
        doc = json.loads(raw or b"{}")
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def _handle(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        route = f"{method} {path}"
        started = time.perf_counter()
        self.server.request_began()
        try:
            status, doc = self._dispatch(method)
        except (PersistenceError, ValueError, KeyError) as exc:
            status, doc = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the server must not die
            status, doc = 500, {"error": f"{type(exc).__name__}: {exc}"}
            self.server.log(f"ERROR {route}: {doc['error']}")
        try:
            self._reply(status, doc)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client vanished mid-reply; its retry will re-ask
        finally:
            # the drain in shutdown counts a request done only once its
            # reply is on the wire
            self.server.request_ended()
        self.metrics.counter(
            "catalog_server_requests_total", "requests by route and status"
        ).inc(route=path, status=str(status))
        self.metrics.histogram(
            "catalog_server_request_seconds", "server-side request latency"
        ).observe(time.perf_counter() - started, route=path)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._handle("POST")

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> tuple[int, dict | str]:
        service = self.service
        path = self.path.split("?", 1)[0]
        if method == "GET":
            if path == "/healthz":
                return 200, service.stats()
            if path == "/metrics":
                return 200, self.metrics.render_prometheus()
            if path == "/export":
                # the full catalog document (also a valid on-disk catalog
                # file); a client's night reads by key and never asks for it
                return 200, service.to_dict()
            return 404, {"error": f"no such endpoint {path}"}

        body = self._body()
        if path == "/lookup":
            keys = body.get("keys", [])
            entries = service.lookup(
                keys,
                now=body.get("now"),
                count_hits=bool(body.get("count_hits", True)),
            )
            usable = {entry.key for entry in entries}
            unusable = [service.get(key) for key in keys if key not in usable]
            return 200, {
                "entries": [e.to_dict() for e in entries],
                "unusable": [e.to_dict() for e in unusable if e is not None],
            }
        if path == "/entries":
            entries = service.entries_on_se(body.get("se_keys", []))
            return 200, {"entries": [e.to_dict() for e in entries]}
        if path == "/commit":
            return 200, {"seq": service.commit(body.get("ops", []))}
        if path == "/gc":
            removed = service.gc()
            return 200, {"removed": removed}
        if path == "/snapshot":
            service.snapshot()
            return 200, {"wal_seq": service.wal.last_seq}
        return 404, {"error": f"no such endpoint {path}"}


class _ServerCore:
    """State shared by the TCP and unix-socket server classes."""

    daemon_threads = True

    def init_core(
        self,
        service: CatalogService,
        metrics: MetricsRegistry | None,
        log_path: str | Path | None,
    ) -> None:
        self.service = service
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._log_path = Path(log_path) if log_path else None
        self._log_lock = threading.Lock()
        self.snapshot_daemon = None
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    def request_began(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def request_ended(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait for in-flight requests to finish replying (SIGTERM path).

        Keep-alive connections idle between requests do not count -- only
        requests whose reply is not yet on the wire.  Returns ``False``
        if stragglers remained at the deadline (the shutdown proceeds
        anyway; their writes are WAL-durable or never acknowledged).
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if self._inflight <= 0:
                    return True
            time.sleep(0.02)
        with self._inflight_lock:
            return self._inflight <= 0

    def log(self, message: str) -> None:
        line = f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {message}\n"
        if self._log_path is None:
            return
        with self._log_lock:
            with open(self._log_path, "a") as handle:
                handle.write(line)

    def stop_daemons(self) -> None:
        if self.snapshot_daemon is not None:
            self.snapshot_daemon.stop()

    def shutdown_service(self) -> None:
        """Snapshot and close the store (a *graceful* stop; SIGKILL skips
        this, which is exactly what the WAL is for)."""
        self.stop_daemons()
        self.service.close()


class TcpCatalogServer(_ServerCore, ThreadingHTTPServer):
    """``repro-etl serve --listen host:port``."""


class UnixCatalogServer(
    _ServerCore, socketserver.ThreadingMixIn, socketserver.UnixStreamServer
):
    """``repro-etl serve --listen unix:///path.sock``."""

    allow_reuse_address = True

    def get_request(self):
        request, _ = self.socket.accept()
        return request, ("unix", 0)

    def server_bind(self):
        # a dead server's socket file blocks rebinding; it is garbage
        try:
            os.unlink(self.server_address)
        except OSError:
            pass
        super().server_bind()


def parse_listen(listen: str) -> tuple[str, object]:
    """``host:port`` or ``unix:///path.sock`` -> (kind, address).

    Malformed addresses raise :class:`PersistenceError` (which the CLI
    turns into a one-line exit 1): the host must be non-empty and the
    port numeric within 0..65535 (0 binds an ephemeral port).
    """
    raw = listen
    if listen.startswith("unix://"):
        path = listen[len("unix://"):]
        if not path:
            raise PersistenceError(f"empty unix socket path in {raw!r}")
        return "unix", path
    if listen.startswith("http://"):
        listen = listen[len("http://"):].rstrip("/")
    host, sep, port = listen.rpartition(":")
    if not sep or not port or not port.isdigit():
        raise PersistenceError(
            f"bad listen address {raw!r}; want host:port or unix:///path"
        )
    if not host:
        raise PersistenceError(
            f"bad listen address {raw!r}: empty host "
            f"(use 127.0.0.1:{port} or 0.0.0.0:{port})"
        )
    port_number = int(port)
    if port_number > 65535:
        raise PersistenceError(
            f"bad listen address {raw!r}: port {port_number} out of "
            "range 0-65535"
        )
    return "tcp", (host, port_number)


def make_server(
    listen: str,
    catalog_path: str | Path,
    *,
    log_path: str | Path | None = None,
    snapshot_every: int | None = None,
):
    """Build a ready-to-``serve_forever`` catalog server.

    The server runs a :class:`~repro.serve.service.SnapshotDaemon` so
    snapshots happen off the request path.
    """
    metrics = MetricsRegistry()
    kwargs = {}
    if snapshot_every is not None:
        kwargs["snapshot_every"] = snapshot_every
    service = CatalogService(catalog_path, metrics=metrics, **kwargs)
    kind, address = parse_listen(listen)
    if kind == "unix":
        server = UnixCatalogServer(address, CatalogRequestHandler)
    else:
        server = TcpCatalogServer(address, CatalogRequestHandler)
    server.init_core(service, metrics, log_path)
    server.snapshot_daemon = SnapshotDaemon(service).start()
    server.log(f"serving catalog {catalog_path} on {listen}")
    return server


__all__ = [
    "CatalogRequestHandler",
    "TcpCatalogServer",
    "UnixCatalogServer",
    "make_server",
    "parse_listen",
]
