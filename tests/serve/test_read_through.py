"""The client's mirror is a read-through cache: a served night reads what
it asks for, reports what the file store reports, and closes what it opens.

1. differential: three nights of wf11 + wf12 (the third with a stale
   entry, a shrunk source and a grown one whose SE carries a sibling entry
   recorded by another workflow) against a catalog file and a served
   catalog give equal drift reports, taps, plans and final entries;
2. traffic: one workflow-night is one ``POST /lookup``, one ``POST
   /commit`` and no ``GET /export``; ``len(client)`` and the ``run`` banner
   are one ``GET /healthz``; an empty ``save()`` sends nothing;
3. a server that dies right after the lookup degrades the night, which
   still chooses the local baseline's plans and lands its writes in the
   fallback file;
4. two nights whose flushes overlap inside the daemon both land;
5. ``run_once`` closes the client it built from a URL, and only that one.
"""

import shutil
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.catalog import drift
from repro.catalog.signatures import WorkflowSigner
from repro.catalog.store import StatisticsCatalog
from repro.core.statistics import Statistic
from repro.framework.pipeline import StatisticsPipeline
from repro.framework.recovery import demote_confidence
from repro.serve.client import CatalogClient
from tests.serve.thread import ServerThread
from repro.workloads import case

from tests.serve.test_server_client import hold_first_append

pytestmark = pytest.mark.catalog

SCALE = 0.2


@pytest.fixture()
def server(tmp_path):
    with ServerThread(
        f"unix://{tmp_path / 'catalog.sock'}", tmp_path / "served.json",
    ) as thread:
        yield thread


def route_counts(server) -> dict[str, int]:
    """``catalog_server_requests_total`` by route, read off ``GET /metrics``
    (a request is counted after its reply, so the scrape misses itself)."""
    client = CatalogClient(server.url)
    try:
        conn = client._connect()
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        client.close()
    counts: dict[str, int] = {}
    for line in text.splitlines():
        if line.startswith("catalog_server_requests_total{"):
            labels, value = line.rsplit(" ", 1)
            route = labels.split('route="', 1)[1].split('"', 1)[0]
            counts[route] = counts.get(route, 0) + int(float(value))
    return counts


def resized(table, rows: int):
    """The table cycled or cut to ``rows`` rows (an injected data shift)."""
    old = list(table.rows())
    return type(table).from_rows(
        table.attrs, [old[i % len(old)] for i in range(rows)]
    )


def night(number, spec, run_id, resize=None):
    sources = case(number).tables(scale=SCALE, seed=7)
    for name, rows in (resize or {}).items():
        sources[name] = resized(sources[name], rows)
    pipeline = StatisticsPipeline(case(number).build())
    return pipeline.run_once(sources, stats_catalog=spec, run_id=run_id)


def outcome(report):
    d = report.drift
    return {
        "drift": (d.added, d.refreshed, d.drifted, d.stale_marked,
                  d.max_rel_error),
        "tapped": sorted(map(repr, report.tapped)),
        "plans": {
            name: (repr(plan.tree), plan.cost)
            for name, plan in report.plans.items()
        },
        "degraded": report.catalog_degraded,
    }


def wf12_keys():
    signer = WorkflowSigner(analyze(case(12).build()))
    account = SubExpression.of("DimAccount")
    sibling = Statistic.distinct(account, "broker_id")
    return SimpleNamespace(
        cash=signer.statistic_key(Statistic.card(SubExpression.of("CashTxn"))),
        account=signer.statistic_key(Statistic.card(account)),
        account_se=signer.se_key(account),
        sibling=signer.statistic_key(sibling),
        sibling_stat=sibling,
    )


def three_nights(spec, open_store, clock):
    """The scenario of this module, against either store.

    ``open_store()`` hands back a writable view of the store for the one
    edit made between nights (a file catalog or a client).
    """
    keys = wf12_keys()
    outcomes = []
    for index in (1, 2):
        clock.now += 1.0
        for number in (11, 12):
            outcomes.append(outcome(night(number, spec, f"night{index}")))
    # before night 3: wf12's own CashTxn count goes stale, and some other
    # workflow records a statistic on DimAccount that wf12 never asks for
    store = open_store()
    assert store.mark_stale([keys.cash]) == 1
    store.record(
        keys.sibling, keys.account_se, keys.sibling_stat, 40,
        workflow="wf_other", run_id="elsewhere", observed_at=clock.now,
    )
    store.save()
    if hasattr(store, "close"):
        store.close()
    clock.now += 1.0
    # night 3: CashTxn shrank (the stale entry is re-observed: a refresh at
    # a blended quality), DimAccount tripled (its SE drifts; the foreign
    # sibling on it must go stale)
    outcomes.append(outcome(night(
        12, spec, "night3", resize={"CashTxn": 600, "DimAccount": 4500}
    )))
    outcomes.append(outcome(night(11, spec, "night3")))
    return outcomes


@pytest.fixture()
def clock(monkeypatch):
    """Reconciles stamp ``observed_at`` from here, so two stores fed the
    same nights hold equal entries; kept near the wall clock so nothing
    expires under the stores' own (real) clocks."""
    fake = SimpleNamespace(now=float(int(time.time())))
    monkeypatch.setattr(drift, "time", SimpleNamespace(time=lambda: fake.now))
    return fake


class TestServedEqualsFile:
    def test_three_nights_agree(self, tmp_path, server, clock):
        start = clock.now
        path = tmp_path / "file.json"
        on_file = three_nights(
            str(path), lambda: StatisticsCatalog.open(path), clock
        )
        clock.now = start
        served = three_nights(
            server.url, lambda: CatalogClient(server.url), clock
        )
        assert served == on_file
        assert not any(o["degraded"] for o in served)

        file_entries = StatisticsCatalog.open(path).entries
        served_entries = {
            entry.key: entry
            for entry in server.server.service.all_entries()
        }
        assert served_entries.keys() == file_entries.keys()
        for key, entry in file_entries.items():
            assert replace(served_entries[key], hits=0) == replace(
                entry, hits=0
            ), entry.repr

        # the scenario did what its comments say (on both stores alike)
        keys = wf12_keys()
        wf12_night3 = served[4]["drift"]
        assert "|SE(CashTxn)|" in wf12_night3[1]  # refreshed, not added
        assert "|SE(CashTxn)|" not in wf12_night3[0]
        assert served_entries[keys.cash].quality == pytest.approx(0.875)
        assert "SE(DimAccount)" in wf12_night3[2]
        assert wf12_night3[3] >= 1
        assert served_entries[keys.sibling].stale
        assert served_entries[keys.sibling].workflow == "wf_other"
        assert served_entries[keys.account].value() == 1500  # wf11 ran last


class TestTraffic:
    def test_a_night_is_one_lookup_and_no_export(self, server):
        night(11, server.url, "cold")
        cold = route_counts(server)
        assert cold["/lookup"] == 1
        assert "/export" not in cold and "/healthz" not in cold
        assert cold["/commit"] == 1  # the whole flush
        service = server.server.service
        assert service.wal.records_written == 1

        night(11, server.url, "warm")
        warm = route_counts(server)
        assert warm["/lookup"] == 2
        assert "/export" not in warm
        assert warm["/commit"] == 2 and service.wal.records_written == 2
        # nothing tapped: the warm flush is the drift scan's quality blends
        warm_record = list(service.wal.replay(after_seq=1))
        assert [op for op, _ in warm_record[0]["ops"]] == ["quality"]
        # the one lookup carried every candidate key and counted its hits
        # once; nothing else the night read counted any
        entries = service.all_entries()
        assert entries and {entry.hits for entry in entries} == {1}

    def test_len_is_one_healthz(self, server):
        night(11, server.url, "cold")
        before = route_counts(server)
        client = CatalogClient(server.url)
        assert len(client) == len(server.server.service) > 0
        client.close()
        after = route_counts(server)
        assert after.get("/healthz", 0) == before.get("/healthz", 0) + 1
        assert "/export" not in after

    def test_run_banner_is_one_healthz(self, server, capsys):
        from repro.cli import main

        assert main([
            "run", "--number", "11", "--scale", "0.05",
            "--catalog", server.url,
        ]) == 0
        entries = len(server.server.service)
        assert f"{entries} entries after reconcile" in capsys.readouterr().out
        counts = route_counts(server)
        assert counts["/lookup"] == 1 and counts["/healthz"] == 1
        assert "/export" not in counts

    def test_empty_save_sends_nothing(self, server):
        client = CatalogClient(server.url)
        client.save()
        client.close()
        assert not client.degraded
        assert route_counts(server) == {}

    def test_read_through_get_counts_no_hit(self, server):
        writer = CatalogClient(server.url)
        stat = Statistic.card(SubExpression.of("R"))
        writer.record("k", "se:k", stat, 7.0, workflow="wf", run_id="r")
        writer.save()
        writer.close()
        reader = CatalogClient(server.url)
        assert reader.get("k").value() == 7.0
        assert reader.get("absent") is None
        reader.close()
        counts = route_counts(server)
        assert counts["/lookup"] == 2  # one per key, asked once each
        assert "/export" not in counts
        assert server.server.service.get("k").hits == 0

    def test_reads_never_overwrite_staged_writes(self, server):
        stat = Statistic.card(SubExpression.of("R"))
        other = CatalogClient(server.url)
        other.record("k", "se:r", stat, 1.0, workflow="other", run_id="r")
        other.record("sib", "se:r", stat, 2.0, workflow="other", run_id="r")
        other.save()
        other.close()
        client = CatalogClient(server.url)
        client.record("k", "se:r", stat, 9.0, workflow="mine", run_id="r")
        on_se = {entry.key: entry for entry in client.entries_on_se(["se:r"])}
        assert on_se["k"].value() == 9.0  # the staged write, not the server's
        assert on_se["sib"].value() == 2.0  # read through
        assert client.entries["k"].value() == 9.0  # nor does an export
        client.save()
        client.close()
        assert server.server.service.get("k").value() == 9.0


class TestServerDiesAfterLookup:
    def test_night_completes_degraded_on_the_local_view(self, tmp_path):
        fallback = tmp_path / "local.json"
        # earlier nights left the same state in the local fallback file and
        # on the server; the local baseline is a warm night off that file
        night(11, str(fallback), "night0")
        shutil.copy(fallback, tmp_path / "baseline.json")
        baseline = night(
            11, str(tmp_path / "baseline.json"), "baseline",
            resize={"DimSecurity": 1800},
        )
        thread = ServerThread(
            f"unix://{tmp_path / 'catalog.sock'}", tmp_path / "served.json",
        ).__enter__()
        killed = False
        try:
            seed = CatalogClient(thread.url)
            seed.merge(StatisticsCatalog.open(fallback))
            seed.save()
            seed.close()

            class DiesAfterLookup(CatalogClient):
                def lookup(self, *args, **kwargs):
                    nonlocal killed
                    hits = super().lookup(*args, **kwargs)
                    # SIGKILL's stand-in: the listener and every socket go
                    thread.kill()
                    killed = True
                    self.close()
                    return hits

            client = DiesAfterLookup(
                thread.url, fallback=fallback,
                max_retries=0, sleep=lambda s: None,
            )
            # DimSecurity tripled: tonight's reconcile has writes to stage
            report = night(
                11, client, "dark", resize={"DimSecurity": 1800}
            )
        finally:
            if not killed:
                thread.stop()
        assert killed and client.degraded and report.catalog_degraded
        assert report.failures == {}
        assert outcome(report)["plans"] == outcome(baseline)["plans"]
        assert outcome(report)["drift"] == outcome(baseline)["drift"]
        for name, plan in report.plans.items():
            assert plan.confidence == demote_confidence(
                baseline.plans[name].confidence
            )
        # the staged writes landed in the fallback file
        assert report.drift.drifted
        security = WorkflowSigner(analyze(case(11).build())).statistic_key(
            Statistic.card(SubExpression.of("DimSecurity"))
        )
        landed = StatisticsCatalog.open(fallback).entries[security]
        assert landed.value() == 1800 and landed.run_id == "dark"


class TestOverlappingNights:
    def test_two_nights_flushing_at_once_both_land(self, server):
        """wf11's flush is held inside the daemon while wf13's night runs
        and flushes: wf13 waits for the write lock instead of failing, and
        the catalog holds both nights' statistics."""
        held = hold_first_append(server.server.service)
        reports, errors = {}, []

        def run(number):
            try:
                reports[number] = night(number, server.url, f"wf{number}")
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        first = threading.Thread(target=run, args=(11,))
        first.start()
        assert held.inside.wait(60)  # wf11's commit is inside the daemon
        second = threading.Thread(target=run, args=(13,))
        second.start()
        assert held.contended.wait(60)  # wf13 has reached its flush
        held.release.set()
        first.join(60), second.join(60)
        assert not first.is_alive() and not second.is_alive()
        assert not errors, errors

        held_keys = {entry.key for entry in server.server.service.all_entries()}
        for number, report in reports.items():
            assert not report.catalog_degraded and report.failures == {}
            signer = WorkflowSigner(analyze(case(number).build()))
            tapped = set(signer.statistic_keys(report.tapped).values())
            assert tapped and tapped <= held_keys, number


def handler_threads() -> int:
    return sum(
        "process_request_thread" in thread.name
        for thread in threading.enumerate()
    )


def settled_handlers(at_most: int, timeout: float = 5.0) -> int:
    """The live handler-thread count once it is down to ``at_most`` (a
    handler notices its client's close a moment after it happens)."""
    deadline = time.monotonic() + timeout
    while handler_threads() > at_most and time.monotonic() < deadline:
        time.sleep(0.01)
    return handler_threads()


class TestRunOnceClosesWhatItOpened:
    def test_url_client_is_closed_after_a_night(self, server):
        before = handler_threads()
        report = night(11, server.url, "cold")
        assert not report.catalog_degraded
        assert settled_handlers(before) == before

    def test_url_client_is_closed_after_a_night_that_raises(
        self, server, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("reconcile blew up")

        monkeypatch.setattr(drift, "reconcile_run", boom)
        before = handler_threads()
        # the excinfo's traceback pins run_once's frame, client included:
        # without the close the daemon's handler thread outlives the night
        with pytest.raises(RuntimeError, match="blew up") as excinfo:
            night(11, server.url, "doomed")
        assert settled_handlers(before) == before
        assert excinfo.traceback  # still held

    def test_callers_client_is_left_open(self, server):
        before = handler_threads()
        client = CatalogClient(server.url)
        night(11, client, "cold")
        assert settled_handlers(before) == before + 1
        assert client.healthz()["entries"] > 0  # still usable, same socket
        client.close()
        assert settled_handlers(before) == before
