"""nightbench: the one stopwatch for the nightly loop.

Everything here drives ``repro`` through its public surface only; see
``nightbench/README.md`` for the glossary and ``BENCHMARK.json`` for the
metric contract this package is checked against.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def load_spec() -> dict:
    """``BENCHMARK.json``: the names, units and bounds every output obeys."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
