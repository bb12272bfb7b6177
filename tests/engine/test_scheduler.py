"""Unit tests for the dependency-ordered task walk."""

import pytest

from repro.engine.scheduler import SchedulerError, Task, execute_tasks


def make_task(name, requires, provides, log):
    return Task(
        name=name,
        provides=provides,
        requires=tuple(requires),
        fn=lambda: log.append(name),
    )


def diamond(log):
    """a -> (b, c) -> d over environment names s, a, b, c, d."""
    return [
        make_task("a", ["s"], "a", log),
        make_task("b", ["a"], "b", log),
        make_task("c", ["a"], "c", log),
        make_task("d", ["b", "c"], "d", log),
    ]


class TestExecuteTasks:
    def test_runs_every_task_once_in_dependency_order(self):
        log = []
        # listed out of order: readiness, not position, decides who runs
        result = execute_tasks(diamond(log)[::-1], available=["s"])
        assert log in (["a", "b", "c", "d"], ["a", "c", "b", "d"])
        assert result.ok and result.completed == log

    def test_deadlock_raises(self):
        log = []
        with pytest.raises(SchedulerError, match="'a'"):
            execute_tasks([make_task("a", ["ghost"], "a", log)])
        cycle = [make_task("a", ["b"], "a", log), make_task("b", ["a"], "b", log)]
        with pytest.raises(SchedulerError):
            execute_tasks(cycle)
        assert log == []

    def test_task_exceptions_propagate(self):
        def boom():
            raise ValueError("kernel failed")

        tasks = [Task("a", "a", ("s",), boom)]
        with pytest.raises(ValueError, match="kernel failed"):
            execute_tasks(tasks, available=["s"])
