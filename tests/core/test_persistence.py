"""Tests for statistics/plan persistence across engine restarts."""

import json

import pytest

from repro.algebra.expressions import RejectJoinSE, RejectSE, SubExpression
from repro.algebra.plans import JoinNode, Leaf
from repro.core.histogram import Histogram
from repro.core.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    SessionState,
    se_from_dict,
    se_to_dict,
    statistic_from_dict,
    statistic_to_dict,
    store_from_dict,
    store_to_dict,
    table_from_dict,
    table_to_dict,
    tree_from_dict,
    tree_to_dict,
    validate_document,
)
from repro.core.statistics import Statistic, StatisticsStore
from repro.engine.table import Table
from repro.framework.recovery import RunCheckpoint

SE = SubExpression.of


class TestSeRoundTrip:
    def test_plain_se(self):
        se = SE("A", "B")
        assert se_from_dict(se_to_dict(se)) == se

    def test_reject_se(self):
        rej = RejectSE(SE("A"), "k", SE("B"))
        assert se_from_dict(se_to_dict(rej)) == rej

    def test_reject_composite_key(self):
        rej = RejectSE(SE("A"), ("k", "m"), SE("B"))
        assert se_from_dict(se_to_dict(rej)) == rej

    def test_reject_join_se(self):
        rej = RejectSE(SE("A"), "k", SE("B"))
        rj = RejectJoinSE(rej, "m", SE("C"))
        assert se_from_dict(se_to_dict(rj)) == rj

    def test_unknown_type_rejected(self):
        with pytest.raises(PersistenceError):
            se_from_dict({"type": "mystery"})


class TestStatisticRoundTrip:
    @pytest.mark.parametrize(
        "stat",
        [
            Statistic.card(SE("A", "B")),
            Statistic.hist(SE("A"), "x", "y"),
            Statistic.distinct(SE("A"), "x"),
            Statistic.hist(RejectSE(SE("A"), "k", SE("B")), "k"),
        ],
    )
    def test_round_trip(self, stat):
        assert statistic_from_dict(statistic_to_dict(stat)) == stat

    def test_bad_kind(self):
        with pytest.raises(PersistenceError):
            statistic_from_dict({"kind": "nope", "se": se_to_dict(SE("A"))})


class TestStoreRoundTrip:
    def _store(self):
        store = StatisticsStore()
        store.put(Statistic.card(SE("A")), 42)
        store.put(Statistic.distinct(SE("A"), "x"), 7)
        store.put(
            Statistic.hist(SE("A"), "x", "y"),
            Histogram(("x", "y"), {(1, 2): 3, (4, 5): 6}),
        )
        return store

    def test_dict_round_trip(self):
        store = self._store()
        clone = store_from_dict(store_to_dict(store))
        assert len(clone) == len(store)
        for stat, value in store.items():
            assert clone.get(stat) == value

    def test_file_round_trip(self, tmp_path):
        """A run checkpoint is where a statistics document is still a file."""
        store = self._store()
        path = tmp_path / "ckpt.json"
        _checkpoint(path, store).save()
        clone = RunCheckpoint.load(path).statistics
        for stat, value in store.items():
            assert clone.get(stat) == value

    def test_file_is_valid_json(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _checkpoint(path, self._store()).save()
        doc = json.loads(path.read_text())
        assert "statistics" in doc["statistics"]

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(PersistenceError):
            RunCheckpoint.load(path)

    def test_deterministic_output(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        _checkpoint(p1, self._store()).save()
        _checkpoint(p2, self._store()).save()
        assert p1.read_text() == p2.read_text()


def _checkpoint(path, store):
    checkpoint = RunCheckpoint(path, workflow="w", backend="columnar")
    checkpoint.statistics = store
    return checkpoint


class TestFormatVersioning:
    def test_saved_files_carry_the_current_version(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _checkpoint(path, StatisticsStore()).save()
        doc = json.loads(path.read_text())
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["statistics"]["format_version"] == FORMAT_VERSION

    def test_legacy_file_without_version_still_loads(self, tmp_path):
        """Documents written before versioning read as version 1."""
        assert len(store_from_dict({"statistics": []})) == 0
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"blocks": {}, "statistics": {}}))
        assert len(RunCheckpoint.load(path).statistics) == 0

    def test_future_version_rejected_with_clear_error(self, tmp_path):
        future = {"format_version": FORMAT_VERSION + 1, "statistics": []}
        with pytest.raises(PersistenceError, match="format_version"):
            store_from_dict(future)
        path = tmp_path / "new.json"
        path.write_text(json.dumps({"statistics": future}))
        with pytest.raises(PersistenceError, match="format_version"):
            RunCheckpoint.load(path)
        path.write_text(json.dumps({"format_version": FORMAT_VERSION + 1}))
        with pytest.raises(PersistenceError, match="format_version"):
            RunCheckpoint.load(path)

    @pytest.mark.parametrize("version", [0, -1, "two", None, 1.5])
    def test_malformed_version_rejected(self, version):
        with pytest.raises(PersistenceError, match="format_version"):
            validate_document(
                {"format_version": version, "statistics": []}, "statistics"
            )

    def test_non_object_document_rejected(self):
        with pytest.raises(PersistenceError, match="JSON object"):
            validate_document(["not", "an", "object"], "statistics")

    def test_validate_returns_the_version(self):
        assert validate_document({}, "x") == 1
        assert validate_document({"format_version": FORMAT_VERSION}, "x") \
            == FORMAT_VERSION

    def test_corrupt_statistics_entry_is_a_persistence_error(self):
        """Bad entries surface as PersistenceError, never a raw KeyError."""
        with pytest.raises(PersistenceError):
            store_from_dict({"statistics": [{"kind": "cardinality"}]})
        with pytest.raises(PersistenceError):
            store_from_dict({"statistics": ["not an object"]})

    def test_session_state_future_version_rejected(self, tmp_path):
        path = tmp_path / "session.json"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION + 1}))
        with pytest.raises(PersistenceError, match="format_version"):
            SessionState.load(path)

    def test_session_state_missing_file_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read"):
            SessionState.load(tmp_path / "nope.json")


class TestTableRoundTrip:
    def test_round_trip_preserves_order_and_types(self):
        table = Table({"b": [1, 2, 3], "a": ["x", "y", "z"]})
        clone = table_from_dict(table_to_dict(table))
        assert clone.attrs == table.attrs
        assert list(clone.rows()) == list(table.rows())

    def test_empty_table(self):
        table = Table.empty(("a", "b"))
        clone = table_from_dict(table_to_dict(table))
        assert clone.num_rows == 0 and clone.attrs == ("a", "b")

    def test_malformed_rejected(self):
        with pytest.raises(PersistenceError, match="corrupt table"):
            table_from_dict({"attrs": ["a"], "columns": {}})
        with pytest.raises(PersistenceError, match="corrupt table"):
            table_from_dict({"columns": {"a": [1]}})


class TestTreeRoundTrip:
    def test_nested_tree(self):
        tree = JoinNode(
            JoinNode(Leaf("A"), Leaf("B"), ("x",)),
            Leaf("C"),
            ("y", "z"),
        )
        assert tree_from_dict(tree_to_dict(tree)) == tree

    def test_malformed_rejected(self):
        with pytest.raises(PersistenceError):
            tree_from_dict({"key": ["x"], "left": {"leaf": "A"}})


class TestSessionState:
    def test_round_trip(self, tmp_path):
        state = SessionState(
            trees={"B1": JoinNode(Leaf("A"), Leaf("B"), ("k",))},
            adopted_cardinalities={SE("A"): 10.0, SE("A", "B"): 25.0},
            runs_completed=4,
        )
        path = tmp_path / "session.json"
        state.save(path)
        loaded = SessionState.load(path)
        assert loaded.runs_completed == 4
        assert loaded.trees["B1"] == state.trees["B1"]
        assert loaded.adopted_cardinalities == state.adopted_cardinalities

    def test_resumed_session_continues_plan(self, tmp_path):
        """End to end: a session persists, a new process resumes it and
        keeps executing the adopted plan without re-learning from scratch."""
        import random

        from repro.algebra.operators import Join, Source, Target, Workflow
        from repro.algebra.schema import Catalog
        from repro.engine.table import Table
        from repro.framework.pipeline import StatisticsPipeline
        from repro.framework.session import EtlSession

        def workflow():
            cat = Catalog()
            cat.add_relation("F", {"a": 20, "b": 20, "id": 500})
            cat.add_relation("A", {"a": 20})
            cat.add_relation("B", {"b": 20})
            f, a, b = Source(cat, "F"), Source(cat, "A"), Source(cat, "B")
            return Workflow(
                "w", cat, [Target(Join(Join(f, a, "a"), b, "b"), "out")]
            )

        rng = random.Random(1)
        sources = {
            "F": Table(
                {
                    "a": [rng.randint(1, 20) for _ in range(300)],
                    "b": [rng.randint(1, 20) for _ in range(300)],
                    "id": list(range(300)),
                }
            ),
            "A": Table({"a": [1, 2, 3]}),
            "B": Table({"b": list(range(1, 20))}),
        }
        session = EtlSession(StatisticsPipeline(workflow()))
        session.run(sources)
        state = SessionState(
            trees=session.current_trees,
            adopted_cardinalities=dict(session._adopted_cards or {}),
            runs_completed=len(session.history),
        )
        path = tmp_path / "session.json"
        state.save(path)

        # "new process": fresh session seeded from disk
        resumed = SessionState.load(path)
        session2 = EtlSession(StatisticsPipeline(workflow()))
        session2._current_trees = resumed.trees
        session2._adopted_cards = resumed.adopted_cardinalities
        record = session2.run(sources)
        assert record.executed_trees.keys() == resumed.trees.keys()
        assert all(
            str(record.executed_trees[k]) == str(resumed.trees[k])
            for k in resumed.trees
        )
