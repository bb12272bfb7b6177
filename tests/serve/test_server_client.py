"""HTTP server round trips and the degrading client's failure ladder."""

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
from repro.serve.server import ServerThread, make_server, parse_listen
from repro.serve.service import CatalogService, FenceError

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


class TestLeaseFencing:
    def test_save_under_lease_releases_for_the_next_writer(self, server):
        a = fast_client(server.url, client_id="a")
        a.record("ka", "se:ka", _stat(), 1.0, workflow="wf", run_id="r")
        a.save()
        b = fast_client(server.url, client_id="b")
        b.record("kb", "se:kb", _stat("S"), 2.0, workflow="wf", run_id="r")
        b.save()  # would 409 if a's lease were still held
        assert {  # both writes landed
            "ka", "kb"
        } <= set(fast_client(server.url).entries)
        a.close(), b.close()

    def test_second_writer_blocked_while_lease_live(self, server):
        a = fast_client(server.url, client_id="a")
        a.fence = int(a._request("POST", "/lease", {"holder": "a"})["fence"])
        b = fast_client(server.url, client_id="b")
        b.record("kb", "se:kb", _stat(), 1.0, workflow="wf", run_id="r")
        with pytest.raises(FenceError):
            b.save()
        a._request("POST", "/lease/release", {"fence": a.fence})
        # the fenced-out write was not acknowledged, so it is still b's to
        # send: the retry after the release must land it
        assert server.server.service.get("kb") is None
        b.save()
        assert server.server.service.get("kb").value() == 1.0
        a.close(), b.close()

    @pytest.mark.parametrize("fence", ["1", 1.0, True, [1]])
    def test_non_integer_fence_is_a_bad_request(self, server, fence):
        client = fast_client(server.url)
        token = client._request("POST", "/lease", {"holder": "a"})["fence"]
        assert token == 1  # so "1" names the live token in the wrong type
        doc = {"keys": ["k"], "fence": fence}
        # 400, not the 409 that tells a writer its lease was taken over
        with pytest.raises(CatalogRequestError, match="bad fence"):
            client._request("POST", "/stale", doc)
        with pytest.raises(CatalogRequestError, match="bad fence"):
            client._request("POST", "/lease/release", {"fence": fence})
        assert server.server.service.lease_holder == "a"
        client.close()

    def test_lease_lost_mid_flush_keeps_the_unsent_ops_in_order(self, server):
        b = fast_client(server.url, client_id="b")
        b.record("k1", "se:k1", _stat(), 1.0, workflow="wf", run_id="r")
        b.mark_stale(["k1"])
        b.record("k2", "se:k2", _stat("S"), 2.0, workflow="wf", run_id="r")
        service = server.server.service
        put_entries = service.put_entries

        def put_then_lose_the_lease(*args, **kwargs):
            seq = put_entries(*args, **kwargs)
            service.put_entries = put_entries
            service.lease_deadline = 0.0  # b stalls past its lease...
            service.acquire_lease("a")  # ...and a takes it over
            return seq

        service.put_entries = put_then_lose_the_lease
        with pytest.raises(FenceError):
            b.save()  # k1's put was acknowledged, the rest is fenced out
        assert service.get("k1") is not None and not service.get("k1").stale
        assert service.get("k2") is None
        service.release_lease(service.fence)
        b.save()  # sends the stale mark and k2, not k1's put again
        assert service.get("k1").stale and service.get("k2").value() == 2.0
        puts = server.server.metrics.counter(
            "catalog_server_wal_records_total"
        ).value(op="put")
        assert puts == 2  # k1 once, k2 once
        b.save()  # nothing left: no third lease
        assert service.fence == b.fence
        b.close()


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

    def test_healthz_and_replies_carry_no_pair_state(self, server):
        client = fast_client(server.url)
        client.record("k", "se:k", _stat(), 1.0, workflow="wf", run_id="r")
        client.save()
        health = client.healthz()
        assert not {"role", "epoch", "primary"} & set(health)
        answer = client._request("POST", "/lookup", {"keys": ["k"]})
        assert set(answer) == {"entries", "unusable"}
        with pytest.raises(CatalogRequestError, match="no such endpoint"):
            client._request("GET", "/wal/stream")
        client.close()
