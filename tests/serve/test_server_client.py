"""HTTP server round trips, whole commits and the degrading client's
failure ladder."""

import threading
from types import SimpleNamespace

import pytest

from repro.core.persistence import PersistenceError
from repro.core.statistics import Statistic
from repro.engine.faults import FaultPlan, FaultSpec
from repro.serve.client import (
    CatalogClient,
    CatalogRequestError,
    CatalogUnavailable,
    is_catalog_url,
    resolve_stats_catalog,
)
from repro.serve.server import make_server, parse_listen
from tests.serve.thread import ServerThread
from repro.serve.service import CatalogService

from tests.serve.test_catalog_state import _ObservedLock

pytestmark = pytest.mark.catalog


def _stat(name="R"):
    from repro.algebra.expressions import SubExpression

    return Statistic.card(SubExpression.of(name))


@pytest.fixture()
def server(tmp_path):
    listen = f"unix://{tmp_path / 'catalog.sock'}"
    with ServerThread(
        listen, tmp_path / "catalog.json", fsync=False,
        log_path=tmp_path / "server.log",
    ) as thread:
        yield thread


def fast_client(url, **kwargs):
    kwargs.setdefault("timeout", 2.0)
    kwargs.setdefault("base_delay", 0.0)
    kwargs.setdefault("max_delay", 0.0)
    return CatalogClient(url, **kwargs)


def hold_first_append(service):
    """Block the daemon's next WAL append -- inside the write lock -- until
    ``release`` is set.  ``inside`` says it is blocked there, ``contended``
    that another writer has queued behind it."""
    held = SimpleNamespace(inside=threading.Event(), release=threading.Event())
    service._write_lock = _ObservedLock()
    held.contended = service._write_lock.contended
    append = service.wal.append

    def first_append(*args, **kwargs):
        service.wal.append = append
        held.inside.set()
        assert held.release.wait(30)
        return append(*args, **kwargs)

    service.wal.append = first_append
    return held


class TestParseListen:
    def test_forms(self):
        assert parse_listen("unix:///tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_listen("127.0.0.1:8642") == ("tcp", ("127.0.0.1", 8642))
        assert parse_listen("http://0.0.0.0:9000") == ("tcp", ("0.0.0.0", 9000))
        # port 0 stays valid: tests bind ephemeral ports through it
        assert parse_listen("127.0.0.1:0") == ("tcp", ("127.0.0.1", 0))

    def test_bad_forms(self):
        from repro.core.persistence import PersistenceError

        with pytest.raises(PersistenceError):
            parse_listen("no-port-here")
        with pytest.raises(PersistenceError):
            parse_listen("unix://")
        with pytest.raises(PersistenceError, match="empty host"):
            parse_listen(":8000")
        with pytest.raises(PersistenceError, match="out of range"):
            parse_listen("127.0.0.1:70000")
        with pytest.raises(PersistenceError, match="bad listen address"):
            parse_listen("127.0.0.1:")
        with pytest.raises(PersistenceError, match="bad listen address"):
            parse_listen("127.0.0.1:80a0")


class TestIsCatalogUrl:
    def test_urls_and_paths(self):
        assert is_catalog_url("http://host:1")
        assert is_catalog_url("unix:///p.sock")
        assert not is_catalog_url("/var/catalog.json")
        assert not is_catalog_url(None)


class TestHttpRoundTrips:
    def test_healthz(self, server):
        client = fast_client(server.url)
        doc = client.healthz()
        assert doc["entries"] == 0 and doc["wal_seq"] == 0
        client.close()

    def test_record_save_visible_to_second_client(self, server):
        writer = fast_client(server.url)
        writer.record("k1", "se:k1", _stat(), 42.0, workflow="wf", run_id="r")
        writer.save()
        assert not writer.degraded
        reader = fast_client(server.url)
        assert reader.get("k1").value() == 42.0
        assert len(reader.entries) == 1
        writer.close(), reader.close()

    def test_metrics_endpoint_renders_prometheus(self, server):
        client = fast_client(server.url)
        client.healthz()
        status, text = 200, None
        conn = client._connect()
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        status, text = response.status, response.read().decode()
        assert status == 200
        assert "catalog_server_requests_total" in text
        client.close()

    def test_unknown_endpoint_is_404(self, server):
        from repro.serve.client import CatalogRequestError

        client = fast_client(server.url)
        with pytest.raises(CatalogRequestError, match="no such endpoint"):
            client._request("GET", "/nope")
        client.close()

    def test_mark_stale_and_gc_round_trip(self, server):
        client = fast_client(server.url)
        client.record("k1", "se:k1", _stat(), 1.0, workflow="wf", run_id="r")
        client.record("k2", "se:k2", _stat("S"), 2.0, workflow="wf", run_id="r")
        client.save()
        client.mark_stale(["k1"])
        client.save()
        removed = client.gc()
        assert removed == 1
        fresh = fast_client(server.url)
        assert set(fresh.entries) == {"k2"}
        client.close(), fresh.close()

    def test_mirror_and_server_apply_the_same_entry_rules(self, server):
        """The mirror runs StatisticsCatalog's transitions, the server
        CatalogService._apply's: after a flush they must hold equal entries
        (hits aside -- advisory, never WAL'd)."""
        client = fast_client(server.url)
        assert len(client) == 0  # synced now: later reads are the mirror's own
        client.record("k1", "se:k1", _stat(), 1.0, workflow="wf", run_id="r")
        client.record("k2", "se:k2", _stat("S"), 2.0, workflow="wf", run_id="r")
        client.adjust_quality("k1", 0.4)
        client.adjust_quality("k1", 3.0)  # errors clamp at 1.0
        client.mark_stale(["k2", "missing"])
        client.save()
        service = server.server.service
        for key in ("k1", "k2"):
            assert service.get(key) == client.get(key)
        assert client.get("k1").quality == pytest.approx(0.4)  # 1.0 -> 0.8 -> 0.4
        assert client.get("k2").stale
        client.close()

    def test_tcp_listener_works_too(self, tmp_path):
        with ServerThread(
            "127.0.0.1:0", tmp_path / "catalog.json", fsync=False
        ) as thread:
            client = fast_client(thread.url)
            assert client.healthz()["entries"] == 0
            client.close()


class TestOneCommit:
    def test_second_save_lands_while_the_first_is_inside_the_daemon(
        self, server
    ):
        """Two nights whose flushes overlap: the second queues on the write
        lock behind the first, and both land."""
        service = server.server.service
        held = hold_first_append(service)
        a, b = fast_client(server.url), fast_client(server.url)
        a.record("ka", "se:ka", _stat(), 1.0, workflow="wf", run_id="a")
        b.record("kb", "se:kb", _stat("S"), 2.0, workflow="wf", run_id="b")
        errors = []

        def save(client):
            try:
                client.save()
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        first = threading.Thread(target=save, args=(a,))
        first.start()
        assert held.inside.wait(30)  # a's flush is inside the daemon
        second = threading.Thread(target=save, args=(b,))
        second.start()
        assert held.contended.wait(30)  # b's flush is waiting behind it
        held.release.set()
        first.join(30), second.join(30)
        assert not first.is_alive() and not second.is_alive()
        assert not errors, errors
        assert not a.degraded and not b.degraded
        assert service.get("ka").value() == 1.0
        assert service.get("kb").value() == 2.0
        a.close(), b.close()

    def test_a_save_is_one_request_and_one_record(self, server):
        from repro.catalog.store import StatisticsCatalog

        client = fast_client(server.url)
        client.record("k1", "se:k1", _stat(), 1.0, workflow="wf", run_id="r")
        client.record("k2", "se:k2", _stat("S"), 2.0, workflow="wf", run_id="r")
        client.mark_stale(["k1"])
        client.adjust_quality("k2", 0.5)
        other = StatisticsCatalog()
        other.record("k3", "se:k3", _stat("T"), 3.0, workflow="wf", run_id="r")
        client.merge(other)  # staged like every other write
        before = client.requests_sent
        assert server.server.service.get("k3") is None
        client.save()
        assert client.requests_sent == before + 1
        service = server.server.service
        assert service.wal.records_written == 1
        assert service.get("k1").stale and service.get("k2").quality == 0.75
        assert service.get("k3").value() == 3.0
        client.close()

    @pytest.mark.parametrize("bad", [
        ["upsert", []],
        ["delete", ["k1"]],
        ["stale", "k1"],
        ["put", [{"key": "broken"}]],
        ["quality", [["k1", "a lot"]]],
        ["quality", [["k1", None]]],
        ["put"],
        "put",
    ], ids=["unknown-op", "delete", "items-not-a-list", "bad-entry",
            "non-numeric-error", "null-error", "no-items", "not-a-pair"])
    def test_malformed_commit_is_400_and_writes_nothing(self, server, bad):
        client = fast_client(server.url)
        client.record("k1", "se:k1", _stat(), 1.0, workflow="wf", run_id="r")
        client.save()
        service = server.server.service
        seq = service.wal.last_seq
        good = client.get("k1").to_dict()
        status, answer = client._once("POST", "/commit", {"ops": [
            ["put", [dict(good, key="k2")]], ["stale", ["k1"]], bad,
        ]})
        assert status == 400 and "error" in answer
        assert service.wal.last_seq == seq
        assert service.get("k2") is None and not service.get("k1").stale
        client.close()

    @pytest.mark.parametrize(
        "route", ["/put", "/merge", "/stale", "/quality", "/lease",
                  "/lease/release"],
    )
    def test_per_op_and_lease_routes_are_gone(self, server, route):
        client = fast_client(server.url)
        status, answer = client._once("POST", route, {"keys": ["k"]})
        assert status == 404 and "no such endpoint" in answer["error"]
        assert server.server.service.wal.last_seq == 0
        client.close()


class TestDegradation:
    def test_unreachable_server_degrades_not_raises(self, tmp_path):
        client = fast_client(
            f"unix://{tmp_path / 'nobody-home.sock'}", max_retries=1
        )
        assert client.get("k") is None  # served by the (empty) mirror
        assert client.degraded

    def test_fallback_file_seeds_the_mirror(self, tmp_path):
        from repro.catalog.store import StatisticsCatalog

        fallback = StatisticsCatalog(tmp_path / "fallback.json")
        fallback.record(
            "k", "se:k", _stat(), 7.0, workflow="wf", run_id="r"
        )
        fallback.save()
        client = fast_client(
            f"unix://{tmp_path / 'gone.sock'}",
            fallback=tmp_path / "fallback.json",
            max_retries=0,
        )
        assert client.get("k").value() == 7.0
        assert client.degraded

    def test_degraded_save_folds_into_fallback_file(self, tmp_path):
        from repro.catalog.store import StatisticsCatalog

        client = fast_client(
            f"unix://{tmp_path / 'gone.sock'}",
            fallback=tmp_path / "fallback.json",
            max_retries=0,
        )
        client.record("k", "se:k", _stat(), 9.0, workflow="wf", run_id="r")
        client.save()
        assert StatisticsCatalog.open(
            tmp_path / "fallback.json"
        ).entries["k"].value() == 9.0

    def test_breaker_opens_after_threshold(self, tmp_path):
        clock = {"now": 0.0}
        client = CatalogClient(
            f"unix://{tmp_path / 'gone.sock'}",
            max_retries=0, base_delay=0.0, max_delay=0.0,
            breaker_threshold=2, breaker_cooldown=30.0,
            clock=lambda: clock["now"],
        )
        for _ in range(2):
            with pytest.raises(CatalogUnavailable):
                client._request("GET", "/healthz")
        with pytest.raises(CatalogUnavailable, match="circuit breaker open"):
            client._request("GET", "/healthz")
        clock["now"] += 31.0  # cooldown over: probes are allowed again
        with pytest.raises(CatalogUnavailable, match="unreachable"):
            client._request("GET", "/healthz")


class TestChaosFaults:
    def _plan(self, kind, **over):
        return FaultPlan(
            (FaultSpec(target="*", kind=kind, **over),), seed=1337
        )

    def test_net_flap_survived_by_one_retry(self, server):
        client = fast_client(
            server.url, faults=self._plan("net-flap"), max_retries=2
        )
        assert client.healthz()["entries"] == 0
        assert client.retries >= 1
        assert not client.degraded
        client.close()

    def test_server_hang_is_transient(self, server):
        client = fast_client(
            server.url,
            faults=self._plan("server-hang", delay=0.01, times=1),
            max_retries=2,
        )
        assert client.healthz() is not None
        assert not client.degraded
        client.close()

    def test_server_kill_degrades_immediately(self, server):
        client = fast_client(
            server.url, faults=self._plan("server-kill"), max_retries=3
        )
        assert client.get("k") is None
        assert client.degraded
        assert client.retries == 0  # permanent: retrying would be pointless
        client.close()


class TestResolve:
    def test_resolution_paths(self, tmp_path, server):
        from repro.catalog.store import StatisticsCatalog

        client = resolve_stats_catalog(server.url)
        assert isinstance(client, CatalogClient)
        client.close()
        store = resolve_stats_catalog(str(tmp_path / "c.json"))
        assert isinstance(store, StatisticsCatalog)
        assert resolve_stats_catalog(store) is store

    def test_an_endpoint_list_is_refused(self, tmp_path):
        urls = f"unix://{tmp_path / 'a.sock'},unix://{tmp_path / 'b.sock'}"
        with pytest.raises(PersistenceError, match="one catalog endpoint"):
            CatalogClient(urls)
        with pytest.raises(PersistenceError, match="one catalog endpoint"):
            resolve_stats_catalog(urls)


class TestOneDaemon:
    def test_pair_options_are_gone(self, tmp_path):
        with pytest.raises(TypeError):
            CatalogService(tmp_path / "c.json", role="primary")
        with pytest.raises(TypeError):
            make_server(
                f"unix://{tmp_path / 'c.sock'}", tmp_path / "c.json",
                replicate_from="unix:///p.sock",
            )

    @pytest.mark.parametrize("option", [
        "serve --lease-ttl", "CatalogService(lease_ttl=)",
        "make_server(lease_ttl=)", "CatalogClient(client_id=)",
    ])
    def test_lease_options_are_gone(self, tmp_path, option):
        from repro.cli import main

        calls = {
            "serve --lease-ttl": lambda: main([
                "serve", "--catalog", str(tmp_path / "c.json"),
                "--lease-ttl", "60",
            ]),
            "CatalogService(lease_ttl=)": lambda: CatalogService(
                tmp_path / "c.json", lease_ttl=60.0
            ),
            "make_server(lease_ttl=)": lambda: make_server(
                f"unix://{tmp_path / 'c.sock'}", tmp_path / "c.json",
                lease_ttl=60.0,
            ),
            "CatalogClient(client_id=)": lambda: CatalogClient(
                f"unix://{tmp_path / 'c.sock'}", client_id="night-a"
            ),
        }
        if option.startswith("serve"):
            with pytest.raises(SystemExit) as exit_:
                calls[option]()
            assert exit_.value.code == 2
        else:
            with pytest.raises(TypeError):
                calls[option]()

    def test_healthz_and_replies_carry_no_pair_state(self, server):
        client = fast_client(server.url)
        client.record("k", "se:k", _stat(), 1.0, workflow="wf", run_id="r")
        client.save()
        health = client.healthz()
        assert not {"role", "epoch", "primary", "fence", "lease_holder"} & set(
            health
        )
        answer = client._request("POST", "/lookup", {"keys": ["k"]})
        assert set(answer) == {"entries", "unusable"}
        with pytest.raises(CatalogRequestError, match="no such endpoint"):
            client._request("GET", "/wal/stream")
        client.close()
