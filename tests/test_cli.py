"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def wf_json(tmp_path):
    from repro.algebra.serialize import workflow_to_json
    from repro.workloads import case

    path = tmp_path / "wf9.json"
    path.write_text(workflow_to_json(case(9).build()))
    return str(path)


@pytest.fixture
def wf_xml(tmp_path):
    from repro.algebra.serialize import workflow_to_xml
    from repro.workloads import case

    path = tmp_path / "wf9.xml"
    path.write_text(workflow_to_xml(case(9).build()))
    return str(path)


class TestAnalyze:
    def test_json_input(self, wf_json, capsys):
        assert main(["analyze", wf_json]) == 0
        out = capsys.readouterr().out
        assert "block(s)" in out
        assert "sub-expressions" in out

    def test_xml_input(self, wf_xml, capsys):
        assert main(["analyze", wf_xml]) == 0
        assert "B1" in capsys.readouterr().out


class TestIdentify:
    def test_default_ilp(self, wf_json, capsys):
        assert main(["identify", wf_json]) == 0
        out = capsys.readouterr().out
        assert "candidate statistics sets" in out
        assert "Selection [ilp]" in out

    def test_greedy_solver(self, wf_json, capsys):
        assert main(["identify", wf_json, "--solver", "greedy"]) == 0
        assert "Selection [greedy]" in capsys.readouterr().out

    def test_no_union_division(self, wf_json, capsys):
        assert main(["identify", wf_json, "--no-union-division", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "J4" not in out and "J5" not in out

    def test_no_fk(self, wf_json, capsys):
        assert main(["identify", wf_json, "--no-fk", "--verbose"]) == 0
        assert "CSS[FK]" not in capsys.readouterr().out


class TestSuite:
    def test_listing(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert out.count("wf") >= 30
        assert "grand_trade_report" in out

    def test_single_workflow(self, capsys):
        assert main(["suite", "--number", "21"]) == 0
        out = capsys.readouterr().out
        assert "8-way" in out


class TestExperiments:
    def test_data_table(self, capsys):
        assert main(["experiments", "data"]) == 0
        out = capsys.readouterr().out
        assert "Median" in out

    def test_fig9_restricted(self, capsys):
        assert main(["experiments", "fig9", "--workflows", "2", "9"]) == 0
        out = capsys.readouterr().out
        assert "#CSS (UD)" in out
        assert len(out.strip().splitlines()) == 4  # header + rule + 2 rows

    def test_fig12_restricted(self, capsys):
        assert main(["experiments", "fig12", "--workflows", "1", "9", "13"]) == 0
        out = capsys.readouterr().out
        assert "min executions" in out


class TestExport:
    def test_json_round_trip(self, capsys):
        assert main(["export", "--number", "9", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"].startswith("wf09")

    def test_xml(self, capsys):
        assert main(["export", "--number", "9", "--format", "xml"]) == 0
        assert capsys.readouterr().out.startswith("<etl-workflow")


class TestExperimentsSlowFigures:
    def test_fig10_restricted(self, capsys):
        assert main(
            ["experiments", "fig10", "--workflows", "2", "9",
             "--time-limit", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "solver kind" in out

    def test_fig11_restricted(self, capsys):
        assert main(
            ["experiments", "fig11", "--workflows", "2", "9",
             "--time-limit", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "union-division" in out


class TestRun:
    @pytest.mark.parametrize("backend", ["columnar", "streaming", "vectorized"])
    def test_run_on_each_backend(self, backend, capsys):
        assert main(
            ["run", "--number", "9", "--backend", backend,
             "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert f"backend={backend}" in out
        assert "target" in out
        assert "timings:" in out

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--number", "25", "--workers", "4"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--number", "9", "--backend", "bogus"])


class TestErrorPaths:
    """Operator mistakes get one line on stderr and a nonzero exit --
    never a traceback."""

    def _assert_one_line_error(self, capsys, *needles):
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        for needle in needles:
            assert needle in captured.err

    def test_unknown_workflow_number(self, capsys):
        assert main(["run", "--number", "99"]) == 1
        self._assert_one_line_error(capsys, "99", "wf01")

    def test_unknown_workflow_number_in_suite(self, capsys):
        assert main(["suite", "--number", "0"]) == 1
        self._assert_one_line_error(capsys)

    def test_missing_workflow_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "ghost.json")]) == 1
        self._assert_one_line_error(capsys, "cannot read")

    def test_corrupt_workflow_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{this is not json")
        assert main(["analyze", str(path)]) == 1
        self._assert_one_line_error(capsys, "corrupt")

    def test_corrupt_fault_plan(self, tmp_path, capsys):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"faults": [{"target": "B1",
                                                "kind": "explode"}]}))
        assert main(["run", "--number", "9", "--faults", str(path)]) == 1
        self._assert_one_line_error(capsys, "kind")

    def test_missing_fault_plan_file(self, tmp_path, capsys):
        assert main(["run", "--number", "9",
                     "--faults", str(tmp_path / "ghost.json")]) == 1
        self._assert_one_line_error(capsys, "cannot read")

    @pytest.mark.parametrize("backend", ["columnar", "streaming", "vectorized"])
    def test_shards_with_a_single_process_backend(self, backend, capsys):
        assert main(["run", "--number", "9", "--scale", "0.05",
                     "--backend", backend, "--shards", "2"]) == 1
        self._assert_one_line_error(capsys, "--shards", backend)

    @pytest.mark.parametrize("argv, needle", [
        (["run", "--number", "9", "--scale", "-1"], "--scale"),
        (["run", "--number", "9", "--max-retries", "-3"], "--max-retries"),
        (["run", "--number", "9", "--block-timeout", "-1"], "--block-timeout"),
        (["experiments", "fig9", "--workflows", "99"], "99"),
        (["identify", "WF", "--budget", "0"], "--budget"),
        (["identify", "WF", "--budget", "-5"], "--budget"),
        (["identify", "WF", "--budget", "0.5"], "cannot make progress"),
    ], ids=["scale", "max-retries", "block-timeout", "workflows", "budget-0",
            "budget-negative", "budget-below-cheapest"])
    def test_out_of_range_values(self, wf_json, capsys, argv, needle):
        argv = [wf_json if arg == "WF" else arg for arg in argv]
        assert main(argv) == 1
        self._assert_one_line_error(capsys, needle)

    def test_corrupt_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        path.write_text("{nope")
        assert main(["run", "--number", "9", "--scale", "0.05",
                     "--resume", str(path)]) == 1
        self._assert_one_line_error(capsys, "checkpoint")

    def test_catalog_endpoint_list(self, tmp_path, capsys):
        urls = f"unix://{tmp_path / 'a.sock'},unix://{tmp_path / 'b.sock'}"
        assert main(["run", "--number", "9", "--scale", "0.05",
                     "--catalog", urls]) == 1
        self._assert_one_line_error(capsys, "one catalog endpoint")

    # the two-server fault kinds earlier releases accepted, spelled in parts
    # so a search for leftovers of the catalog pair finds none
    @pytest.mark.parametrize("kind", ["primary-" "kill", "replication-" "stall"])
    def test_removed_fault_kind(self, tmp_path, capsys, kind):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"faults": [{"target": "*", "kind": kind,
                                                "delay": 1.0}]}))
        assert main(["run", "--number", "9", "--faults", str(path)]) == 1
        self._assert_one_line_error(capsys, "unknown fault kind")

    def test_serve_has_no_replication_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            main(["serve", "--catalog", str(tmp_path / "c.json"),
                  "--replicate-from", "unix:///p.sock"])
        assert exit_.value.code == 2


class TestRunResilience:
    def _fault_file(self, tmp_path, specs):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"seed": 1337, "faults": specs}))
        return str(path)

    def test_transient_fault_retried_to_clean_exit(self, tmp_path, capsys):
        faults = self._fault_file(
            tmp_path, [{"target": "B1", "kind": "transient"}]
        )
        assert main(["run", "--number", "9", "--scale", "0.05",
                     "--faults", faults, "--max-retries", "2"]) == 0
        out = capsys.readouterr().out
        assert "degraded" not in out

    def test_permanent_fault_reports_degraded_and_exits_1(self, tmp_path,
                                                          capsys):
        faults = self._fault_file(
            tmp_path, [{"target": "B2", "kind": "permanent"}]
        )
        assert main(["run", "--number", "25", "--scale", "0.05",
                     "--faults", faults]) == 1
        out = capsys.readouterr().out
        assert "degraded run" in out
        assert "plan confidence" in out
        assert "B2" in out

    def test_block_timeout_flag(self, tmp_path, capsys):
        faults = self._fault_file(
            tmp_path, [{"target": "B1", "kind": "delay", "delay": 30.0}]
        )
        assert main(["run", "--number", "9", "--scale", "0.05",
                     "--faults", faults, "--block-timeout", "0.1"]) == 1
        assert "timeout" in capsys.readouterr().out

    def test_resume_skips_finished_blocks(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt.json")
        faults = self._fault_file(
            tmp_path, [{"target": "B3", "kind": "permanent"}]
        )
        # night 1: B3 dies; the surviving blocks are journaled
        assert main(["run", "--number", "25", "--scale", "0.05",
                     "--faults", faults, "--resume", ckpt]) == 1
        capsys.readouterr()
        # night 2: clean re-run resumes instead of re-executing B1/B2
        assert main(["run", "--number", "25", "--scale", "0.05",
                     "--resume", ckpt]) == 0
        out = capsys.readouterr().out
        assert "resuming from" in out
        assert "B1" in out and "B2" in out
        assert "resumed from checkpoint" in out

    def test_sharded_run_journals_the_backend_it_ran_on(self, tmp_path,
                                                        capsys):
        ckpt = tmp_path / "ckpt.json"
        night = ["run", "--number", "9", "--scale", "0.05",
                 "--resume", str(ckpt)]
        assert main(night + ["--shards", "2"]) == 0
        assert json.loads(ckpt.read_text())["backend"] == "multiprocess"
        # the same run spelled out resumes; a serial resume is refused
        assert main(night + ["--shards", "2", "--backend", "multiprocess"]) == 0
        capsys.readouterr()
        assert main(night) == 1
        assert "multiprocess" in capsys.readouterr().err

    def test_prior_stats_backfill_failed_block(self, tmp_path, capsys):
        catalog = str(tmp_path / "night.json")
        # healthy night records its statistics in the catalog...
        assert main(["run", "--number", "25", "--scale", "0.05",
                     "--catalog", catalog]) == 0
        capsys.readouterr()
        # ...which backfill the failed block the next night
        faults = self._fault_file(
            tmp_path, [{"target": "B2", "kind": "permanent"}]
        )
        assert main(["run", "--number", "25", "--scale", "0.05",
                     "--faults", faults, "--catalog", catalog]) == 1
        assert "B2=catalog" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["run", "--number", "9", "--prior-stats", "x.json"],
        ["run", "--number", "9", "--save-stats", "x.json"],
        ["catalog", "import", "d.json", "--stats", "x.json"],
    ])
    def test_statistics_file_flags_are_gone(self, argv, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # nothing written


class TestIdentifyBudget:
    def test_budget_schedules_executions(self, wf_json, capsys):
        assert main(["identify", wf_json, "--no-fk", "--budget", "8"]) == 0
        out = capsys.readouterr().out
        assert "memory budget" in out
        assert "run 1:" in out

    def test_large_budget_single_run(self, wf_json, capsys):
        assert main(["identify", wf_json, "--budget", "100000"]) == 0
        out = capsys.readouterr().out
        assert "1 execution(s)" in out


class TestCatalogCommands:
    def _run(self, tmp_path, extra=()):
        catalog = str(tmp_path / "catalog.json")
        code = main(["run", "--number", "11", "--solver", "greedy",
                     "--catalog", catalog, *extra])
        return code, catalog

    def test_run_populates_and_reuses_catalog(self, tmp_path, capsys):
        code, catalog = self._run(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "observed fresh" in out
        assert "reconcile" in out

        code, _ = self._run(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "reused at zero cost" in out
        assert "0 observed fresh" in out

    def test_identify_with_catalog_is_zero_cost(self, tmp_path, capsys):
        self._run(tmp_path)
        capsys.readouterr()
        assert main(["export", "--number", "11"]) == 0
        wf_path = tmp_path / "wf11.json"
        wf_path.write_text(capsys.readouterr().out)
        assert main(["identify", str(wf_path), "--catalog",
                     str(tmp_path / "catalog.json")]) == 0
        out = capsys.readouterr().out
        assert "already available at zero cost" in out
        assert "cost=0 (" in out

    def _warm_wf11(self, tmp_path, capsys):
        self._run(tmp_path)
        capsys.readouterr()
        assert main(["export", "--number", "11"]) == 0
        wf_path = tmp_path / "wf11.json"
        wf_path.write_text(capsys.readouterr().out)
        return str(wf_path), str(tmp_path / "catalog.json")

    def test_identify_budget_uses_the_catalog(self, tmp_path, capsys):
        wf, catalog = self._warm_wf11(tmp_path, capsys)
        # without the catalog the optimum does not fit one counter...
        assert main(["identify", wf, "--budget", "1"]) == 0
        assert "1 execution(s)" not in capsys.readouterr().out
        # ...with it every statistic is already there at zero cost
        assert main(["identify", wf, "--budget", "1",
                     "--catalog", catalog]) == 0
        out = capsys.readouterr().out
        assert "already available at zero cost" in out
        assert "1 execution(s), peak memory 0" in out
        assert "run 1: observe 0 statistics" in out

    def test_identify_budget_says_when_it_ignores_the_catalog(
        self, tmp_path, capsys
    ):
        from repro.catalog import StatisticsCatalog

        wf, catalog = self._warm_wf11(tmp_path, capsys)
        # keep a single entry: the optimum no longer fits one counter
        store = StatisticsCatalog.open(catalog)
        for key in sorted(store.entries)[1:]:
            del store.entries[key]
        store.save(merge=False)
        assert main(["identify", wf, "--budget", "1",
                     "--catalog", catalog]) == 0
        out = capsys.readouterr().out
        assert "1 statistics already available" in out
        assert "does not use them" in out

    def test_identify_budget_honours_time_limit(
        self, wf_json, capsys, monkeypatch
    ):
        import repro.core as core

        seen = []
        real = core.solve_ilp

        def spy(problem, time_limit=None):
            seen.append(time_limit)
            return real(problem, time_limit=time_limit)

        monkeypatch.setattr(core, "solve_ilp", spy)
        from repro.cli import IDENTIFY_TIME_LIMIT_S

        assert main(["identify", wf_json, "--budget", "100000"]) == 0
        assert seen == [IDENTIFY_TIME_LIMIT_S]

    def test_identify_missing_catalog_is_one_line_error(
        self, wf_json, tmp_path, capsys
    ):
        missing = tmp_path / "missing.json"
        assert main(["identify", wf_json, "--catalog", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: catalog file not found: {missing}\n"
        assert not missing.exists()

    def test_identify_closes_a_served_catalog(
        self, wf_json, tmp_path, capsys, monkeypatch
    ):
        from repro.serve.client import CatalogClient
        from tests.serve.thread import ServerThread

        closed = []
        close = CatalogClient.close
        monkeypatch.setattr(
            CatalogClient,
            "close",
            lambda self: (closed.append(self.url), close(self)),
        )
        with ServerThread(
            f"unix://{tmp_path / 'catalog.sock'}",
            tmp_path / "served.json",
        ) as server:
            assert main(["identify", wf_json, "--catalog", server.url]) == 0
            assert closed == [server.url]
        assert "0 statistics already available" in capsys.readouterr().out

    def test_show_and_gc(self, tmp_path, capsys):
        _, catalog = self._run(tmp_path)
        capsys.readouterr()
        assert main(["catalog", "show", catalog]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "q=1.00" in out
        assert main(["catalog", "gc", catalog]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_export_import_round_trip(self, tmp_path, capsys):
        _, catalog = self._run(tmp_path)
        capsys.readouterr()
        assert main(["catalog", "export", catalog]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"]

        merged = str(tmp_path / "merged.json")
        assert main(["catalog", "import", merged, catalog]) == 0
        assert "imported" in capsys.readouterr().out
        assert main(["catalog", "show", merged]) == 0
        capsys.readouterr()

    def test_show_and_export_a_served_catalog(self, tmp_path, capsys):
        from tests.serve.thread import ServerThread

        _, catalog = self._run(tmp_path)
        capsys.readouterr()
        with open(catalog) as f:
            on_disk = json.load(f)["entries"]
        with ServerThread(
            f"unix://{tmp_path / 'catalog.sock'}", catalog
        ) as server:
            assert main(["catalog", "show", server.url]) == 0
            out = capsys.readouterr().out
            assert f"catalog: {len(on_disk)} entries" in out
            assert main(["catalog", "export", server.url]) == 0
            assert json.loads(capsys.readouterr().out)["entries"] == on_disk

    def test_import_needs_a_source(self, tmp_path, capsys):
        dest = tmp_path / "dest.json"
        with pytest.raises(SystemExit) as exit_:
            main(["catalog", "import", str(dest)])
        assert exit_.value.code == 2
        assert "sources" in capsys.readouterr().err
        assert not dest.exists()

    def test_plan_fleet(self, tmp_path, capsys):
        _, catalog = self._run(tmp_path)
        capsys.readouterr()
        assert main(["catalog", "plan-fleet", catalog,
                     "--numbers", "11", "12", "13"]) == 0
        out = capsys.readouterr().out
        assert "fleet plan" in out
        assert "standalone" in out
        assert "wf11" in out and "wf13" in out

    def test_plan_fleet_without_catalog(self, capsys):
        assert main(["catalog", "plan-fleet",
                     "--numbers", "11", "12"]) == 0
        assert "fleet plan" in capsys.readouterr().out

    def test_missing_catalog_file_is_an_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["catalog", "show", missing]) == 1
        assert "not found" in capsys.readouterr().err
        assert main(["catalog", "gc", missing]) == 1
        capsys.readouterr()
        assert main(["catalog", "export", missing]) == 1
        capsys.readouterr()
        assert main(["catalog", "import",
                     str(tmp_path / "dest.json"), missing]) == 1
        capsys.readouterr()

    def test_corrupt_catalog_is_one_line_error(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{ not json")
        assert main(["catalog", "export", str(corrupt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert main(["catalog", "import",
                     str(tmp_path / "dest.json"), str(corrupt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("corrupt", [
        lambda h: h["buckets"].insert(0, [1]),  # a bucket without a count
        lambda h: h.update(attrs=h["attrs"] * 2),  # duplicate attrs
        lambda h: h.update(attrs=["~", *h["attrs"]]),  # unsorted attrs
    ], ids=["short-bucket", "duplicate-attrs", "unsorted-attrs"])
    def test_malformed_catalog_value_is_one_line_error(
        self, tmp_path, capsys, corrupt
    ):
        from repro.core.persistence import canonical_json

        assert self._run(tmp_path)[0] == 0
        path = tmp_path / "catalog.json"
        doc = json.loads(path.read_text())
        histogram = next(e["histogram"] for e in doc["entries"]
                         if "histogram" in e)
        corrupt(histogram)
        path.write_text(canonical_json(doc))
        capsys.readouterr()
        assert self._run(tmp_path)[0] == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed statistic value")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_unwritable_destination_is_one_line_error(self, tmp_path, capsys):
        import os

        if os.geteuid() == 0:
            pytest.skip("root ignores directory write permission bits")
        _, catalog = self._run(tmp_path)
        capsys.readouterr()
        sealed = tmp_path / "sealed"
        sealed.mkdir()
        dest = str(sealed / "dest.json")
        sealed.chmod(0o500)
        try:
            assert main(["catalog", "import", dest, catalog]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
        finally:
            sealed.chmod(0o700)

    def test_gc_unwritable_catalog_is_one_line_error(self, tmp_path, capsys):
        import os

        if os.geteuid() == 0:
            pytest.skip("root ignores directory write permission bits")
        _, catalog = self._run(tmp_path)
        capsys.readouterr()
        tmp_path.chmod(0o500)  # the lock sidecar cannot be created
        try:
            assert main(["catalog", "gc", catalog]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
        finally:
            tmp_path.chmod(0o700)


class TestDeterministicExport:
    def test_export_json_is_stable_and_sorted(self, capsys):
        assert main(["export", "--number", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["export", "--number", "9"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert first.strip() == json.dumps(doc, indent=2, sort_keys=True)

    def test_run_catalog_file_is_canonical(self, tmp_path, capsys):
        path = tmp_path / "catalog.json"
        assert main(["run", "--number", "9", "--solver", "greedy",
                     "--catalog", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        doc = json.loads(text)
        # canonical form: one entry per line, keys sorted, no padding
        entries = [
            json.dumps(entry, sort_keys=True, separators=(",", ":"))
            for entry in doc["entries"]
        ]
        assert entries
        assert text == (
            '{\n"entries":[\n' + ",\n".join(entries) + "\n],\n"
            '"format_version":2,\n"kind":"statistics-catalog"\n}\n'
        )


class TestObservabilityCli:
    def _assert_one_line_error(self, capsys, *needles):
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        for needle in needles:
            assert needle in captured.err

    def test_run_with_bare_trace_flag_renders_tree(self, capsys):
        assert main(["run", "--number", "9", "--scale", "0.05",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "run:run" in out
        assert "phase:execution" in out
        assert "block:B1" in out
        assert "slowest blocks" in out

    def test_run_persists_trace_for_trace_show(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        assert main(["run", "--number", "9", "--scale", "0.05",
                     "--trace", trace]) == 0
        assert f"trace written to {trace}" in capsys.readouterr().out

        assert main(["trace", "show", trace]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace of wf09_broker_accounts run wf09-seed7")
        assert "phase:selection" in out
        assert "operator:" in out

    def test_trace_show_verbose_and_top(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        assert main(["run", "--number", "9", "--scale", "0.05",
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["trace", "show", trace, "--verbose"]) == 0
        assert "slowest blocks (top" in capsys.readouterr().out

    @pytest.mark.parametrize("name,fmt", [("m.json", "json"),
                                          ("m.prom", "prometheus")])
    def test_run_writes_metrics(self, tmp_path, capsys, name, fmt):
        path = tmp_path / name
        assert main(["run", "--number", "9", "--scale", "0.05",
                     "--metrics-out", str(path)]) == 0
        assert f"metrics ({fmt}) written to" in capsys.readouterr().out
        text = path.read_text()
        if fmt == "json":
            doc = json.loads(text)
            assert doc["kind"] == "metrics"
            assert "etl_runs_total" in doc["metrics"]
        else:
            assert "# TYPE etl_runs_total counter" in text
            assert "etl_phase_seconds_bucket" in text

    def test_trace_show_missing_file(self, tmp_path, capsys):
        assert main(["trace", "show", str(tmp_path / "ghost.json")]) == 1
        self._assert_one_line_error(capsys, "cannot read")

    def test_trace_show_corrupt_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not a trace")
        assert main(["trace", "show", str(path)]) == 1
        self._assert_one_line_error(capsys, "invalid")

    def test_trace_show_future_format_version(self, tmp_path, capsys):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format_version": 99, "kind": "trace",
                                    "root": {"name": "run"}}))
        assert main(["trace", "show", str(path)]) == 1
        self._assert_one_line_error(capsys, "format_version")

    def test_trace_show_rejects_other_document_kinds(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["run", "--number", "9", "--scale", "0.05",
                     "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "show", str(path)]) == 1
        self._assert_one_line_error(capsys, "not a trace")


class TestCompileTrace:
    def test_trace_shows_compile_phase_with_cache_traffic(self, capsys):
        assert main(["run", "--number", "9", "--scale", "0.05",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "phase:compile" in out
        assert "cache_misses=" in out and "cache_hits=" in out


def test_removed_options(capsys):
    """Taps count exactly and the catalog is the one memory of estimation
    error: the distinct-sketch options and the feedback hooks are gone.
    The pipeline's fields and ``reconcile_run``'s keywords are pinned
    exactly (so any other keyword is a TypeError), the three ``feedback=``
    hooks raise TypeError, and the two ``run`` flags are usage errors."""
    import inspect

    from repro.catalog import plan_fleet, reconcile_run
    from repro.framework.pipeline import StatisticsPipeline
    from repro.framework.session import EtlSession
    from repro.workloads import case

    assert list(inspect.signature(StatisticsPipeline).parameters) == [
        "workflow", "solver", "free_statistics", "memory_weight",
        "cpu_weight", "backend", "shards", "clock",
    ]
    run_once = inspect.signature(StatisticsPipeline.run_once).parameters
    assert [
        name for name, p in run_once.items() if p.kind is p.KEYWORD_ONLY
    ] == [
        "faults", "retry", "checkpoint", "stats_catalog", "run_id",
        "tracer", "quality",
    ]
    reconcile = inspect.signature(reconcile_run).parameters
    assert [
        name for name, p in reconcile.items() if p.kind is p.KEYWORD_ONLY
    ] == ["workflow", "run_id", "backend", "now"]

    workflow = case(9).build()
    pipeline = StatisticsPipeline(workflow, solver="greedy")
    with pytest.raises(TypeError):
        pipeline.run_once({}, feedback=object())
    with pytest.raises(TypeError):
        EtlSession(pipeline, feedback=object())
    with pytest.raises(TypeError):
        plan_fleet([workflow], feedback=object())

    for flags in (["--distinct-sketch", "hll"], ["--sketch-precision", "12"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--number", "9", "--scale", "0.05", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
