"""Who runs this?  Every module under ``src/repro/`` is reached, by
following imports literally, from something that executes code for a user --
the CLI, the figure harnesses, the public ``import repro`` surface, what
``nightbench/`` imports -- or it is in the allow-list below, which names the
docs/PAPER_MAPPING.md row and the bench/example that executes it.

"Literally": every ``import`` statement in a reached file counts, lazy ones
inside functions included, but a package ``__init__`` counts only when the
package itself is what is named (``import repro.core`` / ``from repro.core
import select_statistics``), not when a submodule is (``from
repro.core.ilp import solve_ilp`` reaches ``core/ilp.py`` alone) -- otherwise
every re-export list would keep its whole package alive.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: what runs code: the CLI, the figure/section harnesses, ``import repro``,
#: and the three modules ``nightbench/`` imports besides ``repro`` itself
ROOTS = (
    "repro",
    "repro.cli",
    "repro.experiments",
    "repro.core.selection",
    "repro.serve.client",
    "repro.workloads",
)

#: unreached but kept: paper-mapped extensions, each with the section row of
#: docs/PAPER_MAPPING.md it implements and what executes it
ALLOWED = {
    "src/repro/core/bucketized.py": (
        "§8.1", "benchmarks/bench_ablation_bucketized.py"
    ),
    "src/repro/core/error_aware.py": (
        "§8.1", "benchmarks/bench_ablation_error_aware.py"
    ),
    "src/repro/core/external.py": ("§6.2", "examples/source_statistics.py"),
    "src/repro/baselines/explore.py": (
        "XPLUS [8]", "benchmarks/bench_ablation_strategies.py"
    ),
}


def _file_of(module: str) -> Path | None:
    """The source file of a dotted module name (None: not under src/)."""
    base = SRC.joinpath(*module.split("."))
    if base.with_suffix(".py").is_file():
        return base.with_suffix(".py")
    if (base / "__init__.py").is_file():
        return base / "__init__.py"
    return None


def _imports(path: Path):
    """Dotted names of every module ``path`` imports, anywhere in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path}: relative import; src/ spells them out"
            for alias in node.names:
                # ``from pkg import sub`` names the submodule when there is
                # one, else an attribute of ``pkg`` itself
                sub = f"{node.module}.{alias.name}"
                yield sub if _file_of(sub) is not None else node.module


def reached_files() -> set[Path]:
    seen: set[Path] = set()
    todo = list(ROOTS)
    while todo:
        module = todo.pop()
        path = _file_of(module)
        if path is None or path in seen:
            continue
        seen.add(path)
        todo.extend(_imports(path))
    return seen


def test_every_module_is_reached_or_answers_for_itself():
    reached = reached_files()
    assert all(_file_of(root) in reached for root in ROOTS)
    unreached = {
        path.relative_to(REPO).as_posix()
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py" and path not in reached
    }
    assert unreached == set(ALLOWED), (
        "modules no CLI flow, figure harness, nightbench workload or public "
        f"export executes: {sorted(unreached - set(ALLOWED))}; allow-listed "
        f"but reached (drop the entry): {sorted(set(ALLOWED) - unreached)}"
    )


def test_allow_listed_modules_name_their_mapping_row_and_executor():
    mapping = (REPO / "docs" / "PAPER_MAPPING.md").read_text()
    for module, (row, executor) in ALLOWED.items():
        short = module.removeprefix("src/repro/")
        lines = [line for line in mapping.splitlines() if short in line]
        assert lines, f"{short} has no row in docs/PAPER_MAPPING.md"
        assert any(row in line and executor in line for line in lines), (
            f"{short}: no PAPER_MAPPING.md row names both {row} and {executor}"
        )
        executed = (REPO / executor).read_text()
        dotted = module.removeprefix("src/").removesuffix(".py").replace("/", ".")
        assert dotted in executed, f"{executor} does not import {dotted}"
