"""Rendering tests: tree layout, elision, hotspots, estimation errors."""

from repro.obs.render import (
    MAX_OPERATORS_SHOWN,
    estimation_errors,
    render_trace,
    render_tree,
    slowest,
)
from repro.obs.trace import Span


def _closed(name, kind, start, end, **attrs):
    span = Span(name, kind=kind, start=start, attrs=attrs)
    span.end = end
    return span


def _block_with_operators(n_ops):
    root = _closed("run", "run", 0.0, 10.0)
    block = _closed("B1", "block", 0.0, 1.0)
    for i in range(n_ops):
        block.children.append(_closed(f"SE(R{i})", "operator", 0.5, 0.5, rows=i))
    root.children.append(block)
    return root, block


class TestRenderTree:
    def test_indentation_durations_and_suffixes(self):
        root = _closed("run", "run", 0.0, 2.0, workflow="wf")
        block = _closed("B1", "block", 0.0, 0.5, attempts=3, outcome="ok")
        block.children.append(
            _closed("SE(R1)", "operator", 0.1, 0.1, rows=7, estimated_rows=5.0,
                    tapped=True)
        )
        root.children.append(block)
        text = render_tree(root)
        lines = text.splitlines()
        assert lines[0] == "run:run 2000.0ms"
        assert lines[1] == "  block:B1 500.0ms  [attempts=3]"
        # operator points carry no duration; outcome=ok is elided
        assert lines[2] == "    operator:SE(R1)  [rows=7, est=5, tapped]"

    def test_open_span_has_no_duration(self):
        root = Span("run", kind="run")
        assert render_tree(root) == "run:run"

    def test_failure_annotations_rendered(self):
        span = _closed("B2", "block", 0.0, 0.1, outcome="transient",
                       error="boom", attempts=2)
        text = render_tree(span)
        assert "attempts=2" in text
        assert "outcome=transient" in text
        assert "error=boom" in text

    def test_operator_elision_beyond_cap(self):
        root, block = _block_with_operators(MAX_OPERATORS_SHOWN + 4)
        text = render_tree(root)
        shown = [l for l in text.splitlines() if "operator:" in l]
        assert len(shown) == MAX_OPERATORS_SHOWN
        assert "... 4 more operator point(s)" in text

    def test_verbose_disables_elision(self):
        root, block = _block_with_operators(MAX_OPERATORS_SHOWN + 4)
        text = render_tree(root, verbose=True)
        shown = [l for l in text.splitlines() if "operator:" in l]
        assert len(shown) == MAX_OPERATORS_SHOWN + 4
        assert "more operator point(s)" not in text

    def test_at_cap_nothing_is_elided(self):
        root, _ = _block_with_operators(MAX_OPERATORS_SHOWN)
        assert "more operator point(s)" not in render_tree(root)


class TestHotspots:
    def test_slowest_orders_by_duration_then_name(self):
        root = _closed("run", "run", 0.0, 10.0)
        root.children.append(_closed("B-fast", "block", 0.0, 1.0))
        root.children.append(_closed("B-slow", "block", 0.0, 5.0))
        root.children.append(_closed("A-slow", "block", 0.0, 5.0))
        root.children.append(_closed("boundary", "boundary", 0.0, 9.0))
        names = [s.name for s in slowest(root, top=2)]
        assert names == ["A-slow", "B-slow"]

    def test_estimation_errors_sorted_worst_first(self):
        root = _closed("run", "run", 0.0, 1.0)
        root.children.append(
            _closed("mild", "operator", 0, 0, rows=11, estimated_rows=10.0)
        )
        root.children.append(
            _closed("wild", "operator", 0, 0, rows=100, estimated_rows=10.0)
        )
        root.children.append(_closed("no-est", "operator", 0, 0, rows=5))
        errors = estimation_errors(root)
        assert [s.name for _, s in errors] == ["wild", "mild"]
        assert errors[0][0] == 9.0  # |100 - 10| / 10

    def test_error_uses_floor_of_one_for_tiny_estimates(self):
        root = _closed("run", "run", 0.0, 1.0)
        root.children.append(
            _closed("p", "operator", 0, 0, rows=3, estimated_rows=0.5)
        )
        assert estimation_errors(root)[0][0] == 2.5  # |3 - 0.5| / max(0.5, 1)


class TestRenderTrace:
    def test_full_document_sections(self):
        root = _closed("run", "run", 0.0, 2.0)
        block = _closed("B1", "block", 0.0, 0.5)
        block.children.append(
            _closed("SE(R1)", "operator", 0, 0, rows=20, estimated_rows=10.0)
        )
        root.children.append(block)
        text = render_trace(root, top=3)
        assert text.endswith("\n")
        assert "slowest blocks (top 1):" in text
        assert "  B1: 500.0ms" in text
        assert "worst estimation errors (top 1):" in text
        assert "SE(R1): estimated 10 rows, saw 20 (rel. error 1.00)" in text

    def test_exact_estimates_omit_error_section(self):
        root = _closed("run", "run", 0.0, 2.0)
        root.children.append(
            _closed("SE(R1)", "operator", 0, 0, rows=10, estimated_rows=10.0)
        )
        assert "estimation errors" not in render_trace(root)
