"""An in-process catalog daemon for tests: ``make_server`` on a thread."""

import threading
from pathlib import Path

from repro.serve.server import UnixCatalogServer, make_server


class ServerThread:
    """An in-process server for tests: start, talk, stop (or kill)."""

    def __init__(self, listen: str, catalog_path: str | Path, **kwargs):
        self.server = make_server(listen, catalog_path, **kwargs)
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def url(self) -> str:
        if isinstance(self.server, UnixCatalogServer):
            return f"unix://{self.server.server_address}"
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.server.shutdown_service()

    def kill(self) -> None:
        """Stop *without* snapshotting -- the in-process stand-in for
        SIGKILL (recovery must come from the WAL alone)."""
        self.server.shutdown()
        self.server.server_close()
        # background threads die with a real SIGKILL too; stop_daemons
        # halts them without a snapshot (their stop paths never fold)
        self.server.stop_daemons()
        self.server.service.wal.close()
