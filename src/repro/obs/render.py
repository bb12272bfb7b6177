"""Human-readable rendering of a run trace.

``repro-etl trace show`` turns a persisted span tree back into the
operator's view of a run: the indented phase/block/operator tree with
durations and row counts, the top-N slowest blocks (where the night's
wall time went), and the worst estimation errors (which plan points the
optimizer mispredicted -- the signal that a join is being costed from a
drifted or missing statistic).
"""

from __future__ import annotations

from repro.catalog.drift import rel_error
from repro.obs.trace import Span

#: operator points below a phase are elided beyond this many per parent
#: unless ``verbose`` rendering is requested
MAX_OPERATORS_SHOWN = 8


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}ms"


def _span_suffix(span: Span) -> str:
    parts = []
    rows = span.attrs.get("rows")
    if rows is not None:
        parts.append(f"rows={rows:g}" if isinstance(rows, float) else f"rows={rows}")
    est = span.attrs.get("estimated_rows")
    if est is not None:
        parts.append(f"est={est:g}")
    tapped = span.attrs.get("tapped")
    if tapped:
        # operator points carry a boolean flag; the selection span a count
        parts.append("tapped" if tapped is True else f"tapped={tapped}")
    attempts = span.attrs.get("attempts")
    if attempts is not None and attempts != 1:
        parts.append(f"attempts={attempts}")
    outcome = span.attrs.get("outcome")
    if outcome is not None and outcome != "ok":
        parts.append(f"outcome={outcome}")
    for key in ("method", "observed", "catalog_hits", "refreshed", "drifted",
                "build_rows", "build_distinct", "build_duplicated"):
        value = span.attrs.get(key)
        if value not in (None, 0, ""):
            parts.append(f"{key}={value}")
    # compile-phase spans: always show hit/miss (0 is meaningful -- a
    # warm block has cache_misses=0 and that is the headline)
    if span.name == "compile" and "cache_hits" in span.attrs:
        for key in ("fused_ops", "cache_hits", "cache_misses"):
            parts.append(f"{key}={span.attrs[key]}")
    error = span.attrs.get("error")
    if error:
        parts.append(f"error={error}")
    return f"  [{', '.join(parts)}]" if parts else ""


def estimation_errors(root: Span) -> list[tuple[float, Span]]:
    """(relative error, span) for every point carrying est + actual rows."""
    out = []
    for span in root.walk():
        est = span.attrs.get("estimated_rows")
        rows = span.attrs.get("rows")
        if est is None or rows is None:
            continue
        out.append((rel_error(est, rows), span))
    out.sort(key=lambda pair: (-pair[0], pair[1].name))
    return out


def slowest(root: Span, top: int = 5) -> list[Span]:
    """The ``top`` longest block spans, slowest first."""
    spans = [s for s in root.walk() if s.kind == "block"]
    spans.sort(key=lambda s: (-s.duration, s.name))
    return spans[:top]


def render_tree(root: Span, verbose: bool = False) -> str:
    """The indented span tree with durations and annotations."""
    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        duration = "" if span.end is None else f" {_fmt_ms(span.duration)}"
        if span.kind == "operator":
            duration = ""  # points are instant; the time lives on the block
        lines.append(
            f"{'  ' * depth}{span.kind}:{span.name}{duration}"
            f"{_span_suffix(span)}"
        )
        children = span.children
        if not verbose:
            operators = [c for c in children if c.kind == "operator"]
            if len(operators) > MAX_OPERATORS_SHOWN:
                keep = set(
                    id(s)
                    for _, s in estimation_errors(span)[:MAX_OPERATORS_SHOWN]
                )
                shown = 0
                pruned: list[Span] = []
                for child in children:
                    if child.kind != "operator":
                        pruned.append(child)
                    elif id(child) in keep or shown < MAX_OPERATORS_SHOWN:
                        pruned.append(child)
                        shown += 1
                elided = len(children) - len(pruned)
                children = pruned
                if elided:
                    children = children + [
                        Span(f"... {elided} more operator point(s)", kind="note")
                    ]
        for child in children:
            if child.kind == "note":
                lines.append(f"{'  ' * (depth + 1)}{child.name}")
            else:
                emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)


def render_trace(root: Span, top: int = 5, verbose: bool = False) -> str:
    """The full ``trace show`` document: tree + hotspots + misestimates."""
    lines = [render_tree(root, verbose=verbose)]

    blocks = slowest(root, top=top)
    if blocks:
        lines.append("")
        lines.append(f"slowest blocks (top {min(top, len(blocks))}):")
        for span in blocks:
            lines.append(f"  {span.name}: {_fmt_ms(span.duration)}"
                         f"{_span_suffix(span)}")

    errors = [pair for pair in estimation_errors(root) if pair[0] > 0]
    if errors:
        lines.append("")
        lines.append(f"worst estimation errors (top {min(top, len(errors))}):")
        for err, span in errors[:top]:
            lines.append(
                f"  {span.name}: estimated {span.attrs['estimated_rows']:g} "
                f"rows, saw {span.attrs['rows']:g} "
                f"(rel. error {err:.2f})"
            )
    return "\n".join(lines) + "\n"


__all__ = [
    "MAX_OPERATORS_SHOWN",
    "estimation_errors",
    "render_trace",
    "render_tree",
    "slowest",
]
