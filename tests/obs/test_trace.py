"""Unit tests for the span-tree tracer (repro.obs.trace)."""

import threading

import pytest

from repro.core.persistence import PersistenceError
from repro.obs.trace import TRACE_FORMAT_VERSION, Span, Tracer


class FakeClock:
    """A deterministic monotonic clock: every call advances by ``step``."""

    def __init__(self, start: float = 0.0, step: float = 1.0):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestSpan:
    def test_duration_zero_while_open(self):
        span = Span("x", start=5.0)
        assert span.duration == 0.0
        span.end = 7.5
        assert span.duration == 2.5

    def test_annotate_returns_self_and_merges(self):
        span = Span("x")
        assert span.annotate(rows=3) is span
        span.annotate(tapped=True)
        assert span.attrs == {"rows": 3, "tapped": True}

    def test_walk_and_find(self):
        root = Span("run", kind="run")
        phase = Span("execution", kind="phase")
        block = Span("B1", kind="block")
        phase.children.append(block)
        root.children.append(phase)
        assert [s.name for s in root.walk()] == ["run", "execution", "B1"]
        assert root.find(kind="block") == [block]
        assert root.first(name="execution") is phase
        assert root.first(kind="operator") is None

    def test_dict_round_trip(self):
        root = Span("run", kind="run", start=1.0, attrs={"workflow": "wf"})
        child = Span("B1", kind="block", start=2.0)
        child.end = 3.0
        root.children.append(child)
        root.end = 4.0
        again = Span.from_dict(root.to_dict())
        assert again.name == "run" and again.kind == "run"
        assert again.attrs == {"workflow": "wf"}
        assert again.children[0].duration == 1.0
        assert again.to_dict() == root.to_dict()

    @pytest.mark.parametrize("doc", [None, 3, [], {"kind": "block"}])
    def test_from_dict_rejects_corrupt_spans(self, doc):
        with pytest.raises(PersistenceError):
            Span.from_dict(doc)


class TestTracer:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("selection"):
            pass
        with tracer.span("execution") as exec_span:
            block = tracer.start("B1", kind="block")
            tracer.point("SE(R1)", rows=10)
            tracer.end(block)
        root = tracer.finish()
        assert [c.name for c in root.children] == ["selection", "execution"]
        assert exec_span.children[0].name == "B1"
        op = exec_span.children[0].children[0]
        assert op.kind == "operator" and op.attrs == {"rows": 10}
        assert op.start == op.end  # a point is instant

    def test_fake_clock_gives_exact_durations(self):
        clock = FakeClock(start=100.0, step=1.0)
        tracer = Tracer(clock=clock, wall_clock=lambda: 1234.5)
        # calls: root start=100; span start=101, end=102; finish=103
        with tracer.span("phase1"):
            pass
        root = tracer.finish()
        assert tracer.started_at == 1234.5
        assert root.children[0].start == 101.0
        assert root.children[0].duration == 1.0
        assert root.duration == 3.0

    def test_thread_local_parenting_with_activate(self):
        tracer = Tracer(clock=FakeClock())
        block = tracer.start("B1", kind="block")

        def worker():
            # a fresh thread has an empty stack; activate() re-parents it
            with tracer.activate(block):
                tracer.point("SE(R1)", rows=1)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        tracer.end(block)
        assert [c.name for c in block.children] == ["SE(R1)"]

    def test_threads_do_not_share_stacks(self):
        tracer = Tracer(clock=FakeClock())
        seen = {}

        def worker():
            seen["current"] = tracer.current()

        with tracer.span("phase"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # the worker thread never saw the main thread's open span
        assert seen["current"] is tracer.root

    def test_finish_is_idempotent(self):
        tracer = Tracer(clock=FakeClock())
        first = tracer.finish().end
        assert tracer.finish().end == first

    def test_to_dict_is_versioned(self):
        tracer = Tracer(workflow="wf", clock=FakeClock(), wall_clock=lambda: 7.0)
        doc = tracer.to_dict()
        assert doc["format_version"] == TRACE_FORMAT_VERSION
        assert doc["kind"] == "trace"
        assert doc["started_at"] == 7.0
        assert doc["root"]["attrs"] == {"workflow": "wf"}

