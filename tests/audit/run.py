"""Which functions do the user flows execute?

    python tests/audit/run.py [--report FILE]

Copies this checkout to a temporary directory, puts ``collector.py`` at
the copy's root as ``sitecustomize.py`` and runs every user flow against
the copy: the five ``repro-etl experiments`` figures, ``nightbench/run.py
--quick`` with and without ``--trace 1`` (all four workloads each), every
``examples/*.py``, the Python and shell blocks of docs/TUTORIAL.md and
README's quick-start.  Unit tests and benches are not flows.  Every
``def`` under ``src/repro/`` (found with ``ast``) that no flow executed
and that ``allowed.py`` does not list is flagged, and so is every flow
that exits non-zero, times out or prints a traceback; the report lists
them and the exit status is 1 if there is any.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from allowed import ALLOWED  # noqa: E402

FIGURES = ("data", "fig9", "fig10", "fig11", "fig12")
#: the TUTORIAL's JSON blocks, in order, are the files its commands read
TUTORIAL_FILES = ("faults.json", "dirty.json")
FLOW_TIMEOUT_S = 900


def blocks(doc: Path, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", doc.read_text(), re.S)


def shell_script(doc: Path, work: Path) -> str:
    """The ``$`` commands of the console blocks, under ``set -e``; a
    command whose shown output is a degraded run may exit 1, its
    documented status.  A daemon goes to the background, ``/tmp/`` is the
    flow's own directory."""
    lines = ["set -e", "repro-etl() { python -m repro.cli \"$@\"; }"]

    def emit(command: list[str], output: list[str]) -> None:
        text = "\n".join(command)
        if text.startswith("repro-etl serve"):
            # the daemon itself, not a shell function, is the job
            text = "python -m repro.cli" + text[9:].rstrip(" &") + " &\nsleep 2"
        elif any(line.startswith("degraded run:") for line in output):
            # before a trailing comment, which would swallow it
            text = re.sub(r"(\s+#.*)?$", r" || [ $? = 1 ]\1", text, count=1)
        # only the flow's own daemon is killed: it runs in a session
        text = text.replace("pgrep -f", "pgrep -s 0 -f")
        lines.append(text.replace("/tmp/", f"{work}/"))

    for block in blocks(doc, "console"):
        command, output, heredoc = [], [], False
        for line in block.splitlines():
            if heredoc or command and command[-1].endswith("\\"):
                command.append(line)
            elif line.startswith("$ "):
                if command:
                    emit(command, output)
                command, output = [line[2:]], []
            else:
                output.append(line)
            heredoc = heredoc and line != "EOF" or "<<'EOF'" in line
        if command:
            emit(command, output)
    lines.append("kill $(jobs -p) 2>/dev/null || true; wait")
    return "\n".join(lines) + "\n"


def flows(copy: Path, work: Path) -> list[tuple[str, list[str]]]:
    py, bench = sys.executable, str(copy / "nightbench" / "run.py")
    tutorial, readme = copy / "docs" / "TUTORIAL.md", copy / "README.md"
    for name, text in zip(TUTORIAL_FILES, blocks(tutorial, "json")):
        (work / name).write_text(text)
    (work / "tutorial.sh").write_text(shell_script(tutorial, work))
    return [
        *((f"experiments {f}", [py, "-m", "repro.cli", "experiments", f])
          for f in FIGURES),
        ("nightbench --quick", [py, bench, "--quick"]),
        ("nightbench --quick --trace 1", [py, bench, "--quick", "--trace", "1"]),
        *((f"examples/{p.name}", [py, str(p)])
          for p in sorted((copy / "examples").glob("*.py"))),
        ("TUTORIAL python", [py, "-c", "\n".join(blocks(tutorial, "python"))]),
        ("TUTORIAL shell", ["bash", str(work / "tutorial.sh")]),
        ("README quickstart", [py, "-c", "\n".join(blocks(readme, "python"))]),
        ("README CLI", ["bash", "-c", "\n".join(["set -e"] + [
            line for block in blocks(readme, "bash") for line in block.splitlines()
            if line.startswith("python -m repro.cli")])]),
    ]


def run_flow(argv: list[str], work: Path, env: dict) -> str:
    """Run one flow in its own session; whatever it leaves running (a
    daemon) is killed when it returns."""
    with open(work / "stderr", "w+b") as err:
        flow = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        try:
            code = flow.wait(timeout=FLOW_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        try:
            os.killpg(flow.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        flow.wait()
        err.seek(0)
        return f"{code}{' (traceback)' if b'Traceback' in err.read() else ''}"


def defs(src: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (qualified name, lines) of every ``def``."""
    found = {}

    def walk(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[rel, first] = (name, child.end_lineno - first + 1)
                walk(child, rel, name + ".")
            else:
                walk(child, rel, prefix + child.name + "." if
                     isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(src.rglob("*.py")):
        walk(ast.parse(path.read_text()), path.relative_to(src).as_posix(), "")
    return found


def audit(tree: Path, flow_list=flows) -> tuple[str, list[str]]:
    """Run the flows on a copy of ``tree``; the report, and the failed
    flows followed by the flagged ``file::name`` keys."""
    with tempfile.TemporaryDirectory(prefix="audit-") as tmp:
        copy, work, log = Path(tmp, "tree"), Path(tmp, "work"), Path(tmp, "calls")
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".*_cache", ".hypothesis", ".nightbench_tmp"))
        shutil.copy(HERE / "collector.py", copy / "sitecustomize.py")
        src = copy / "src" / "repro"
        env = dict(os.environ, AUDIT_SRC=f"{src}/", AUDIT_LOG=str(log),
                   PYTHONPATH=os.pathsep.join([str(copy), str(copy / "src")]))
        work.mkdir()
        report = ["| flow | exit |", "|---|---|"]
        failed = []
        for name, argv in flow_list(copy, work):
            status = run_flow(argv, work, env)
            report.append(f"| {name} | {status} |")
            if status != "0":
                failed.append(f"flow {name}: {status}")
        called = {(Path(f).relative_to(src).as_posix(), int(n)) for f, n in
                  (line.rsplit(":", 1) for line in log.read_text().split())}
        found = defs(src)
    packages: dict[str, list[int]] = {}
    flagged, unlisted = [], []
    for (rel, first), (name, size) in sorted(found.items()):
        key = f"{rel}::{name}"
        state = 0 if (rel, first) in called else 1 if key in ALLOWED else 2
        row = packages.setdefault(rel.split("/")[0] if "/" in rel else ".", [0] * 6)
        row[state] += 1
        row[3 + state] += size
        if state == 2:
            flagged.append(key)
            unlisted.append(f"- `{key}` ({size} lines)")
    rows = sorted(packages.items())
    rows.append(("total", [sum(column) for column in zip(*packages.values())]))
    report += ["", "| package | executed | allow-listed | flagged "
               "| lines executed / allow-listed / flagged |", "|---|---|---|---|---|"]
    report += [f"| {pkg} | {r[0]} | {r[1]} | {r[2]} | {r[3]} / {r[4]} / {r[5]} |"
               for pkg, r in rows]
    report += ["", f"{len(flagged)} function(s) unexecuted and unlisted", *unlisted]
    report += [f"failed {flow}" for flow in failed]
    ran = sorted(set(ALLOWED) & {f"{rel}::{name}" for (rel, first), (name, _)
                                 in found.items() if (rel, first) in called})
    report += [f"allow-listed but executed this time: `{key}`" for key in ran]
    return "\n".join(report), failed + flagged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", type=Path, help="also write the report here")
    args = parser.parse_args()
    report, flagged = audit(HERE.parents[1])
    print(report)
    if args.report:
        args.report.write_text(report + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
