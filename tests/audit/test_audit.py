"""The executed-code audit: its collector sees every process a flow starts,
flags the functions no flow calls and the knobs no flow sets, and its
allow-lists stay closed."""

import sys
from pathlib import Path

from repro.cli import build_parser
from tests.audit import run as audit
from tests.audit.allowed import ALLOWED, CATEGORIES, KNOB_CATEGORIES, KNOBS

REPO = Path(__file__).resolve().parents[2]

FIXTURE = '''
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field


@dataclass
class Options:
    passed: int = 0
    not_passed: list = field(default_factory=list)


def knobs(x, set_here=1, unset=2, *, set_in_worker=None):
    return x


def set_in_a_worker():
    return knobs(0, set_in_worker="worker")


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
    knobs(0, set_here=5)
    knobs(0, unset=2)  # the default, passed explicitly: still unset
    Options(passed=1)
    for method, job, want in (("fork", in_a_forked_worker, 3),
                              ("spawn", in_a_spawned_worker, 4)):
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            assert pool.submit(job).result() == want
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(set_in_a_worker).result() == 0
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
    assert flagged == ["fixture.py::never_called", "fixture.py::Options(not_passed)",
                       "fixture.py::knobs(unset)"], report
    assert "| fixture | 0 |" in report


def test_census_marks_the_options_a_command_line_sets():
    every, given, bad = audit.census(
        [["run", "--number", "9", "--scale", "0.5"]], build_parser())
    assert {"run --scale", "run --seed", "run --number"} <= every
    assert given == {"run --number", "run --scale"}
    assert not bad


def test_census_reads_commands_as_the_shell_splits_them():
    assert audit.cli_argv("repro-etl run --number 9 \\\n  --scale 0.5 > out  # x") == [
        "run", "--number", "9", "--scale", "0.5"]
    assert audit.cli_argv("python -m repro.cli suite | head") == ["suite"]
    assert audit.cli_argv("echo $?") is None


def test_allow_list_names_existing_functions_categories_and_executors():
    found = {f"{rel}::{name}" for (rel, _), (name, _) in
             audit.defs(REPO / "src" / "repro").items()}
    for key, (category, executor) in ALLOWED.items():
        assert key in found, f"{key}: no such function (drop the entry)"
        assert category in CATEGORIES, f"{key}: unknown category {category!r}"
        assert (REPO / executor).is_file(), f"{key}: no executor {executor}"


def test_knob_allow_list_names_existing_knobs_and_categories():
    every = {f"repro-etl {key}" for key in audit.options(build_parser())}
    params = audit.parameters(REPO / "src" / "repro")
    for key, (category, why) in KNOBS.items():
        assert key in every or key in params, f"{key}: no such knob (drop the entry)"
        assert category in KNOB_CATEGORIES, f"{key}: unknown category {category!r}"
        assert why, f"{key}: no executor or reason"
        if why.endswith(".py"):
            assert (REPO / why).is_file(), f"{key}: no executor {why}"


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
