"""The executed-code audit: its collector sees every process a flow starts,
and its allow-list stays closed."""

import sys
from pathlib import Path

from tests.audit import run as audit
from tests.audit.allowed import ALLOWED, CATEGORIES

REPO = Path(__file__).resolve().parents[2]

FIXTURE = '''
import multiprocessing
from concurrent.futures import ProcessPoolExecutor


def called():
    return 1


def never_called():
    return 2


def in_a_forked_worker():
    return 3


def in_a_spawned_worker():
    return 4


def main():
    called()
    for method, job, want in (("fork", in_a_forked_worker, 3),
                              ("spawn", in_a_spawned_worker, 4)):
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            assert pool.submit(job).result() == want
'''


def test_collector_sees_pool_workers_and_flags_only_the_uncalled(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "fixture.py").write_text(FIXTURE)

    def flows(copy, work):
        return [("fixture", [sys.executable, "-c",
                             "from repro.fixture import main; main()"])]

    report, flagged = audit.audit(tmp_path, flows)
    assert flagged == ["fixture.py::never_called"], report
    assert "| fixture | 0 |" in report


def test_allow_list_names_existing_functions_categories_and_executors():
    found = {f"{rel}::{name}" for (rel, _), (name, _) in
             audit.defs(REPO / "src" / "repro").items()}
    for key, (category, executor) in ALLOWED.items():
        assert key in found, f"{key}: no such function (drop the entry)"
        assert category in CATEGORIES, f"{key}: unknown category {category!r}"
        assert (REPO / executor).is_file(), f"{key}: no executor {executor}"


def test_a_failing_flow_fails_the_audit(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("def called():\n    return 1\n")

    def flows(copy, work):
        return [("crash", [sys.executable, "-c",
                           "import repro; repro.called(); raise RuntimeError"])]

    report, flagged = audit.audit(tmp_path, flows)
    assert flagged == ["flow crash: 1 (traceback)"], report


def test_tutorial_script_stops_at_the_first_unexpected_failure(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("```console\n$ repro-etl run --number 25 \\\n"
                   "      --faults f.json  # bad night\n...\n"
                   "degraded run: 1 task(s) failed\n$ echo /tmp/x\n/tmp/x\n```\n")
    script = audit.shell_script(doc, tmp_path / "work").splitlines()
    assert script[0] == "set -e"
    assert script[3] == "      --faults f.json || [ $? = 1 ]  # bad night"
    assert f"echo {tmp_path}/work/x" in script
