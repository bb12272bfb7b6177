"""Per-layer metrics from spans and boundary counts.

Times are *self* times (duration minus child coverage) summed per traced
pass, so the layers of one pass add up to that pass; the reported value is
the median over traced passes.  Counts are summed per pass the same way.
The variants that only the traced run executes (other engine backends,
untapped execution, greedy) are one extra pass each, told apart by the
``leg`` label the harness puts on their spans.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from nightbench.trace import self_times

MAIN_LEGS = ("leg1", "leg2")
IDENTIFICATION_LAYERS = ("algebra", "core")
#: the paper's identification budget (Fig 10)
PAPER_BUDGET_S = 0.100


def span_metric(span: dict) -> str | None:
    """The time metric a span's self time is added to."""
    layer, name, leg = span["layer"], span["name"], span["leg"]
    if leg in MAIN_LEGS:
        if layer == "framework":
            return ("framework.pipeline_init_s" if name == "pipeline_init"
                    else "framework.night_self_s")
        if (layer, name) == ("engine", "run"):
            backend = span.get("notes", {}).get("backend", "columnar")
            return ("engine.run_s" if backend == "columnar"
                    else f"engine.{backend}.run_s")
        return f"{layer}.{name}_s"
    # an extra pass contributes only the one call it exists to time
    if (layer, name) == ("engine", "run"):
        return ("engine.untapped_run_s" if leg == "untapped"
                else f"engine.{leg}.run_s")
    if (layer, name) == ("core", "solve_greedy") and leg == "greedy":
        return "core.solve_greedy_s"
    return None


def pass_metrics(spans: list[dict], own: dict[int, float]) -> dict[str, float]:
    """Metrics of the main legs of one traced pass."""
    out: dict[str, float] = defaultdict(float)
    by_id = {span["id"]: span for span in spans}
    identification: dict[int, float] = defaultdict(float)  # per operation
    ilp_calls = ilp_proved = 0
    last_save = None
    for span in spans:
        metric = span_metric(span)
        if metric is not None:
            out[metric] += own[span["id"]]
        layer, name = span["layer"], span["name"]
        if layer in IDENTIFICATION_LAYERS:
            parent = by_id[span["parent"]]
            if parent["layer"] not in IDENTIFICATION_LAYERS:
                identification[span["op"]] += span["end"] - span["start"]
        notes = span.get("notes")
        if notes is None:  # the call raised: timed, but nothing to count
            continue
        if (layer, name) == ("algebra", "analyze"):
            out["algebra.blocks"] += notes["blocks"]
        elif (layer, name) == ("core", "generate_css"):
            out["algebra.se_count"] += notes["required"]
            out["core.css_count"] += notes["css"]
            out["core.statistics_count"] += notes["statistics"]
        elif (layer, name) == ("core", "solve_ilp"):
            out["core.selected_cost"] += notes["cost"]
            ilp_calls += 1
            ilp_proved += notes["method"] == "ilp"
        elif (layer, name) == ("engine", "run") and notes["backend"] == "columnar":
            out["engine.rows"] += notes["rows"]
        elif (layer, name) == ("engine", "make_taps"):
            out["engine.tapped_statistics"] += notes["taps"]
        elif (layer, name) == ("estimation", "optimize"):
            out["estimation.plans_improved"] += notes["improved"]
        elif (layer, name) == ("catalog", "save"):
            out["catalog.save_bytes"] += notes["bytes"]
            last_save = notes
    if last_save is not None:
        out["catalog.file_bytes"] = last_save["bytes"]
        out["catalog.entries"] = last_save["entries"]
    out["core.ilp_proved_share"] = ilp_proved / ilp_calls if ilp_calls else 0.0
    out["core.over_100ms_count"] = sum(
        seconds > PAPER_BUDGET_S for seconds in identification.values())
    rows = out.pop("engine.rows", 0.0)
    run_s = out.get("engine.run_s", 0.0)
    out["engine.rows_per_s"] = rows / run_s if run_s else 0.0
    return out


def counted(counts: dict[str, float]) -> dict[str, float]:
    """Metrics from the ``PipelineReport`` fields counted during one pass."""
    hits, tapped = counts["catalog_hits"], counts["tapped"]
    cached = counts["plan_cache_hits"] + counts["plan_cache_misses"]
    return {
        "catalog.hit_share": hits / (hits + tapped) if hits + tapped else 0.0,
        "catalog.tapped": counts["tapped_warm"],
        "engine.plan_cache_hit_share":
            counts["plan_cache_hits"] / cached if cached else 0.0,
        "estimation.q_error_max": counts["q_error_max"],
        "serve.failovers": counts["failovers"],
        "serve.degraded": counts["degraded"],
    }


def layer_shares(spans: list[dict], own: dict[int, float]) -> dict[str, float]:
    """Each layer's self time as a share of the operations' total wall."""
    total = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    by_layer: dict[str, float] = defaultdict(float)
    for span in spans:
        by_layer[span["layer"]] += own[span["id"]] / total
    return by_layer


def layer_metrics(spans, counts, passes) -> tuple[dict[str, float], dict[str, dict]]:
    """(metric -> value, scope -> layer -> share of the traced scope).

    ``passes`` are the traced main-pass indexes; ``counts[index]`` the
    report fields counted during that pass (``counts["extras"]`` for the
    extra passes).  Scopes are ``pass``, ``leg1`` and ``leg2``.
    """
    own = self_times(spans)
    per_pass = []
    shares: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for index in passes:
        main = [s for s in spans if s["pass"] == index and s["leg"] in MAIN_LEGS]
        metrics = pass_metrics(main, own)
        metrics.update(counted(counts[index]))
        scopes = {"pass": main,
                  **{leg: [s for s in main if s["leg"] == leg] for leg in MAIN_LEGS}}
        for scope, members in scopes.items():
            for layer, share in layer_shares(members, own).items():
                shares[scope][layer].append(share)
        metrics["framework.unattributed_share"] = shares["pass"]["framework"][-1]
        per_pass.append(metrics)
    names = {name for metrics in per_pass for name in metrics}
    out = {
        name: statistics.median(m.get(name, 0.0) for m in per_pass)
        for name in names
    }
    # the extra passes: one value each
    for span in spans:
        if span["leg"] not in MAIN_LEGS:
            metric = span_metric(span)
            if metric is not None:
                out[metric] = out.get(metric, 0.0) + own[span["id"]]
    extras = counts["extras"]
    out["engine.shard_tasks"] = extras["shard_tasks"]
    out["engine.shard_retries"] = extras["shard_retries"]
    if out.get("engine.untapped_run_s") and out.get("engine.run_s"):
        out["engine.tap_overhead_share"] = (
            1.0 - out["engine.untapped_run_s"] / out["engine.run_s"])
    return out, {
        scope: {layer: statistics.median(v) for layer, v in layers.items()}
        for scope, layers in shares.items()
    }
