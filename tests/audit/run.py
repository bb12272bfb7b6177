"""Which functions do the user flows execute, and which knobs do they set?

    python tests/audit/run.py [--report FILE]

Copies this checkout to a temporary directory, puts ``collector.py`` at
the copy's root as ``sitecustomize.py`` and runs every user flow against
the copy: the five ``repro-etl experiments`` figures, ``nightbench/run.py
--quick`` with and without ``--trace 1`` (all four workloads each), every
``examples/*.py``, the Python and shell blocks of docs/TUTORIAL.md and
README's quick-start.  Unit tests and benches are not flows.  Every
``def`` under ``src/repro/`` (found with ``ast``) that no flow executed
and that ``allowed.py`` does not list is flagged, and so is every flow
that exits non-zero, times out or prints a traceback.  So is every knob
no flow sets that ``allowed.py`` does not list: a defaulted parameter of
an executed public function, method or dataclass (the collector's
``knob`` lines), and a ``repro-etl`` option that no flow command line --
TUTORIAL's ``$`` lines, README's CLI lines, the figure flows, nightbench's
``serve`` argv -- gives a non-default value (parsed with
``build_parser()``).  The report lists them and the exit status is 1 if
there is any.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from allowed import ALLOWED, KNOBS  # noqa: E402

FIGURES = ("data", "fig9", "fig10", "fig11", "fig12")
#: the TUTORIAL's JSON blocks, in order, are the files its commands read
TUTORIAL_FILES = ("faults.json", "dirty.json")
FLOW_TIMEOUT_S = 900
#: shell tokens that end a command's own arguments
SHELL_STOP = {"|", "||", "&&", ";", "&", ">", ">>", "2>", "<"}


def blocks(doc: Path, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", doc.read_text(), re.S)


def console_commands(doc: Path):
    """(command lines, shown output lines) of every ``$`` command in the
    console blocks; a command continues over ``\\`` and a heredoc."""
    for block in blocks(doc, "console"):
        command, output, heredoc = [], [], False
        for line in block.splitlines():
            if heredoc or command and command[-1].endswith("\\"):
                command.append(line)
            elif line.startswith("$ "):
                if command:
                    yield command, output
                command, output = [line[2:]], []
            else:
                output.append(line)
            heredoc = heredoc and line != "EOF" or "<<'EOF'" in line
        if command:
            yield command, output


def shell_script(doc: Path, work: Path) -> str:
    """The ``$`` commands of the console blocks, under ``set -e``; a
    command whose shown output is a degraded run may exit 1, its
    documented status.  A daemon goes to the background, ``/tmp/`` is the
    flow's own directory."""
    lines = ["set -e", "repro-etl() { python -m repro.cli \"$@\"; }"]
    for command, output in console_commands(doc):
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
    lines.append("kill $(jobs -p) 2>/dev/null || true; wait")
    return "\n".join(lines) + "\n"


def cli_argv(text: str) -> list[str] | None:
    """The ``repro-etl`` arguments of one shell command, or None."""
    tokens = shlex.split(text.replace("\\\n", " "), comments=True)
    for i, token in enumerate(tokens):
        start = (i + 1 if token == "repro-etl" else
                 i + 3 if tokens[i:i + 3] == ["python", "-m", "repro.cli"] else None)
        if start is not None:
            argv = []
            for token in tokens[start:]:
                if token in SHELL_STOP or token.startswith((">", "2>")):
                    break
                argv.append(token)
            return argv
    return None


def nightbench_argv(copy: Path) -> list[list[str]]:
    """The ``repro.cli`` argv lists ``nightbench/`` spells out; a computed
    element reads ``X``."""
    found = []
    for path in sorted((copy / "nightbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.List):
                items = [e.value if isinstance(e, ast.Constant) else "X"
                         for e in node.elts]
                if "repro.cli" in items:
                    found.append([str(e) for e in items[items.index("repro.cli") + 1:]])
    return found


def cli_lines(copy: Path, flow_list) -> list[list[str]]:
    """Every ``repro-etl`` command line a flow runs."""
    lines = [argv[argv.index("repro.cli") + 1:] for _, argv in flow_list
             if "repro.cli" in argv]
    commands = ["\n".join(command) for command, _ in
                console_commands(copy / "docs" / "TUTORIAL.md")]
    commands += [line for block in blocks(copy / "README.md", "bash")
                 for line in block.splitlines()]
    lines += [argv for argv in map(cli_argv, commands) if argv is not None]
    return lines + nightbench_argv(copy)


def options(parser) -> dict[str, tuple]:
    """``command --option`` -> (subcommand path, action) of every option."""
    found = {}

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, path + [(action.dest, name)])
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                key = " ".join([name for _, name in path] + [action.option_strings[-1]])
                found[key] = (path, action)

    walk(parser, [])
    return found


def census(lines: list[list[str]], parser) -> tuple[set[str], set[str], list[str]]:
    """(every option, the options some line gives a non-default value,
    the lines that do not parse)."""
    known = options(parser)
    given, bad = set(), []
    for argv in lines:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            bad.append(" ".join(argv))
            continue
        for key, (path, action) in known.items():
            if (all(getattr(args, dest, None) == name for dest, name in path)
                    and getattr(args, action.dest) != action.default):
                given.add(key)
    return set(known), given, bad


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


def package(rel: str) -> str:
    return rel.split("/")[0] if "/" in rel else "."


def table(title: str, columns: str, rows: dict[str, list[int]]) -> list[str]:
    """A per-package markdown table of counts, with a total row."""
    width = len(next(iter(rows.values()), [0]))
    total = [sum(column) for column in zip(*rows.values())] or [0] * width
    return ["", f"| {title} | {columns} |", "|---" * (2 + columns.count("|")) + "|",
            *(f"| {name} | {' | '.join(map(str, r))} |"
              for name, r in [*sorted(rows.items()), ("total", total)])]


def knob_report(declared: set[str], given: set[str], cli: tuple | None):
    """Rows of set / allow-listed / flagged knobs per package (the CLI's
    options under ``cli``), the flagged keys, and the allow-listed ones
    that were set this time."""
    universe = {key: package(key.split("::")[0]) for key in declared}
    if cli is not None:
        every, cli_given, _ = cli
        universe.update({f"repro-etl {key}": "cli" for key in every})
        given = given | {f"repro-etl {key}" for key in cli_given}
    rows: dict[str, list[int]] = {}
    flagged = []
    for key, pkg in sorted(universe.items()):
        state = 0 if key in given else 1 if key in KNOBS else 2
        rows.setdefault(pkg, [0, 0, 0])[state] += 1
        if state == 2:
            flagged.append(key)
    return rows, flagged, sorted(set(KNOBS) & given)


def parameters(src: Path) -> set[str]:
    """``file::Qualified.name(parameter)`` of every defaulted parameter and
    every dataclass field with a default under ``src`` (written the way
    the collector writes them), to check the allow-list against."""
    found = set()

    def walk(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                args = child.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
                found.update(f"{rel}::{name.removesuffix('.__init__')}({arg.arg})"
                             for arg in named)
                walk(child, rel, name + ".")
            elif isinstance(child, ast.ClassDef):
                found.update(f"{rel}::{prefix}{child.name}({item.target.id})"
                             for item in child.body if isinstance(item, ast.AnnAssign)
                             and item.value is not None
                             and isinstance(item.target, ast.Name))
                walk(child, rel, prefix + child.name + ".")
            else:
                walk(child, rel, prefix)

    for path in sorted(src.rglob("*.py")):
        walk(ast.parse(path.read_text()), path.relative_to(src).as_posix(), "")
    return found


def audit(tree: Path, flow_list=flows) -> tuple[str, list[str]]:
    """Run the flows on a copy of ``tree``; the report, and the failed
    flows followed by the flagged ``file::name`` functions and knobs."""
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
        listed = flow_list(copy, work)
        for name, argv in listed:
            status = run_flow(argv, work, env)
            report.append(f"| {name} | {status} |")
            if status != "0":
                failed.append(f"flow {name}: {status}")
        records = log.read_text().splitlines()
        called = {(Path(f).relative_to(src).as_posix(), int(n)) for f, n in
                  (line.rsplit(":", 1) for line in records
                   if not line.startswith("knob\t"))}
        knobs = [line.split("\t")[1:] for line in records if line.startswith("knob\t")]
        cli = None
        if (src / "cli.py").is_file():
            sys.path.insert(0, str(tree / "src"))
            from repro.cli import build_parser

            cli = census(cli_lines(copy, listed), build_parser())
            failed += [f"census: cannot parse `repro-etl {line}`" for line in cli[2]]
        found = defs(src)
    packages: dict[str, list[int]] = {}
    flagged, unlisted = [], []
    for (rel, first), (name, size) in sorted(found.items()):
        key = f"{rel}::{name}"
        state = 0 if (rel, first) in called else 1 if key in ALLOWED else 2
        row = packages.setdefault(package(rel), [0] * 6)
        row[state] += 1
        row[3 + state] += size
        if state == 2:
            flagged.append(key)
            unlisted.append(f"- `{key}` ({size} lines)")
    report += table("package", "executed | allow-listed | flagged | lines executed "
                    "| lines allow-listed | lines flagged", packages)
    report += ["", f"{len(flagged)} function(s) unexecuted and unlisted", *unlisted]
    rows, unset, knobs_ran = knob_report(
        {key for key, _ in knobs}, {key for key, state in knobs if state == "1"}, cli)
    report += table("package", "knobs set | allow-listed | flagged", rows)
    report += ["", f"{len(unset)} knob(s) unset and unlisted",
               *(f"- `{key}`" for key in unset)]
    report += [f"failed {flow}" for flow in failed]
    ran = sorted(set(ALLOWED) & {f"{rel}::{name}" for (rel, first), (name, _)
                                 in found.items() if (rel, first) in called})
    report += [f"allow-listed but executed this time: `{key}`" for key in ran]
    report += [f"allow-listed but set this time: `{key}`" for key in knobs_ran]
    return "\n".join(report), failed + flagged + unset


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
