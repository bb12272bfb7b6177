"""A process loads only what it runs.

scipy is imported by the first HiGHS solve, numpy by the first synthetic
draw (or that solve), and the sharded backend (``repro.engine.dist``, with
``multiprocessing``) when it is chosen.  So ``import repro``, the CLI, the
catalog daemon and a greedy or warm night never pay for them.  Every case
runs in a fresh interpreter: this test process has long since imported all
of them.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

HEAVY = ("scipy", "numpy", "multiprocessing", "repro.engine.dist")


def loaded_after(script: str) -> set[str]:
    """The ``HEAVY`` modules a fresh interpreter holds after ``script``."""
    probe = textwrap.dedent(script) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize("module", ["repro", "repro.cli", "repro.serve.server"])
def test_import_loads_no_heavy_dependency(module):
    assert loaded_after(f"import {module}") == set()


def test_only_the_chosen_backend_is_imported():
    assert "repro.engine.dist" not in loaded_after("""
        from repro import available_backends, get_backend
        assert "multiprocess" in available_backends()
        get_backend("columnar")
    """)
    assert "repro.engine.dist" in loaded_after("""
        from repro import get_backend
        get_backend("multiprocess").close()
    """)


def test_default_run_nights_never_import_scipy(tmp_path):
    catalog = tmp_path / "night.json"
    loaded = loaded_after(f"""
        from repro.cli import main
        for _night in ("cold", "warm"):
            rc = main(["run", "--number", "9", "--catalog", {str(catalog)!r}])
            assert rc == 0, rc
    """)
    assert "scipy" not in loaded and "repro.engine.dist" not in loaded


def test_first_highs_solve_imports_scipy():
    assert "scipy" in loaded_after("""
        import sys
        from repro import StatisticsPipeline
        from repro.core.ilp import solve_ilp
        from repro.core.selection import build_problem
        from repro.workloads import case

        pipeline = StatisticsPipeline(case(9).build())
        problem = build_problem(pipeline.catalog, pipeline.cost_model())
        assert "scipy" not in sys.modules
        assert solve_ilp(problem).method == "ilp"
    """)
