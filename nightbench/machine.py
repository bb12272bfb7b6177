"""The machine header every output file carries, so that files from
different boxes can be normalised.  Not a metric of the system."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from importlib import metadata

import numpy as np

from nightbench import ROOT


def calibration_kernel() -> None:
    """Fixed work in the three styles the night is made of: a pure-Python
    dict loop, a numpy sort, and JSON encoding of a fixed document."""
    counts: dict[int, int] = {}
    for i in range(200_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    np.arange(500_000, dtype=np.int64)[::-1].copy().argsort()
    json.dumps([{"key": i, "values": [i] * 5} for i in range(20_000)])


def calibration_s(repeats: int = 7) -> float:
    calibration_kernel()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # a checkout that is no repository must not find one above it
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def header(calibration: float, **run_settings) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        **run_settings,
        "nightbench.calibration_s": calibration,
    }
