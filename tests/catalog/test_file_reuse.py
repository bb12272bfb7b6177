"""The catalog file costs what changed: spliced writes, reused reads.

``save`` splices each entry's once-encoded line; ``open`` reuses the
entries of the last catalog version this process read or wrote and
decodes only the other lines.  Neither may change a byte written, an
entry returned, or whether a file is accepted.
"""

import json
import random
import string
import time

import pytest

from repro.algebra.expressions import RejectSE, SubExpression
from repro.catalog.store import _HEAD, _TAIL, StatisticsCatalog
from repro.core.histogram import Histogram
from repro.core.persistence import PersistenceError, _load_json, canonical_json
from repro.core.statistics import Statistic

pytestmark = pytest.mark.catalog

#: pieces that stress a line-oriented reader: quotes, newlines, the
#: separator between entry lines, escapes, non-ASCII
TRICKY = ['"', "\n", "],", ",\n", "\\", "}", " ", "é", "☃", "日本"]
ATTRS = ["a", 'b"', "ü\n"]


def _text(rng, min_len=0):
    alphabet = TRICKY + list(string.ascii_letters)
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(min_len, 6)))


def _bucket_value(rng):
    return rng.choice([rng.randint(-3, 40), _text(rng), None, rng.random() < 0.5])


def _observation(rng):
    """A random statistic and a value of its kind."""
    se = SubExpression.of(_text(rng, 1))
    if rng.random() < 0.3:  # a reject SE
        se = RejectSE(se, _text(rng, 1), SubExpression.of("S", _text(rng, 1)))
    kind = rng.choice(["card", "distinct", "hist"])
    attrs = sorted(rng.sample(ATTRS, rng.randint(1, 2)))
    if kind == "card":
        value = rng.choice([rng.randint(0, 10**6), rng.random() * 1e3])
        return Statistic.card(se), value
    if kind == "distinct":
        return Statistic.distinct(se, *attrs), rng.randint(1, 500)
    counts = {
        tuple(_bucket_value(rng) for _ in attrs): rng.randint(1, 9)
        for _ in range(rng.randint(1, 6))
    }
    return Statistic.hist(se, *attrs), Histogram(tuple(attrs), counts)


class _Signer:
    """The one signer method ``lookup`` calls, over a fixed key map."""

    def __init__(self, keys):
        self.keys = keys

    def statistic_keys(self, stats):
        return {s: self.keys[s] for s in stats if s in self.keys}


def _edit(rng, catalog, known):
    """One random mutation of ``catalog``; ``known`` maps statistic -> key."""
    op = rng.choice(["record", "record", "refresh", "stale", "quality", "lookup"])
    keys = sorted(catalog.entries)
    if op == "record" or not keys:
        stat, value = _observation(rng)
        key = known.setdefault(stat, f"k{len(known):03d}{_text(rng)}")
        catalog.record(
            key, f"se:{_text(rng)}", stat, value,
            workflow=_text(rng), run_id=_text(rng), backend=_text(rng),
            observed_at=rng.choice([time.time(), rng.randint(0, 10**9)]),
        )
    elif op == "refresh":
        entry = catalog.get(rng.choice(keys))
        catalog.record(entry.key, entry.se_key, entry.statistic(), entry.value(),
                       observed_at=time.time(), quality=rng.random())
    elif op == "stale":
        catalog.mark_stale(rng.sample(keys, rng.randint(1, len(keys))))
    elif op == "quality":
        catalog.adjust_quality(rng.choice(keys), rng.random() * 2)
    else:
        catalog.lookup(_Signer(known), rng.sample(sorted(known, key=repr),
                                                  min(len(known), 5)))


def _snapshot(catalog):
    """Entries compared field for field, and by their lines (which tell
    ``100`` from ``100.0``, where ``==`` does not)."""
    return {key: (e, e.line) for key, e in catalog.entries.items()}


def _open_cold(monkeypatch, path):
    monkeypatch.setattr(StatisticsCatalog, "_held", {})
    return StatisticsCatalog.open(path)


@pytest.mark.parametrize("seed", range(8))
def test_spliced_writes_and_reused_reads_change_nothing(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    path = tmp_path / "catalog.json"
    known: dict = {}
    for _ in range(6):
        catalog = StatisticsCatalog.open(path)
        other = StatisticsCatalog.open(path) if rng.random() < 0.3 else None
        for _ in range(rng.randint(1, 6)):
            _edit(rng, catalog, known)
        if other is not None:  # a concurrent saver: ours re-reads and merges
            _edit(rng, other, known)
            other.save()
        catalog.save()

        # (a) every file written is the canonical form of what it holds
        text = path.read_text()
        assert text == canonical_json(json.loads(text))
        assert text == canonical_json(catalog.to_dict())

        # (b) reading with the held version == reading cold, entry for entry
        reused = StatisticsCatalog.open(path)
        assert _snapshot(reused) == _snapshot(catalog)
        assert _snapshot(reused) == _snapshot(_open_cold(monkeypatch, path))

        # (c) an unsaved edit to one opened catalog is invisible to the next
        edited = StatisticsCatalog.open(path)
        before = _snapshot(edited)
        edited.mark_stale(list(edited.entries))
        for _ in range(3):
            _edit(rng, edited, known)
        assert _snapshot(StatisticsCatalog.open(path)) == before


# ---------------------------------------------------------------------------
# acceptance: the whole-document decode is the reference
# ---------------------------------------------------------------------------


def _good_catalog(path):
    rng = random.Random(3)
    catalog = StatisticsCatalog(path)
    for _ in range(4):
        stat, value = _observation(rng)
        catalog.record(f"k{len(catalog)}", "se", stat, value, observed_at=1.0)
    return catalog


def _corrupt_byte(text):
    second = text.index("\n", len(_HEAD)) + 1  # the second entry line
    return text[:second] + text[second:].replace(":", ";", 1)


def _one_pretty_entry(text):
    doc = json.loads(text)
    return _HEAD + json.dumps(doc["entries"][0], indent=2) + _TAIL


def _entry_missing_its_key(text):
    doc = json.loads(text)
    del doc["entries"][1]["key"]
    return canonical_json(doc)


FILES = {
    "corrupt-byte-in-one-line": _corrupt_byte,
    "truncated": lambda text: text[: len(text) // 2],
    "entries-not-a-list": lambda _: '{"format_version": 2, "entries": "nope"}',
    "future-format-version": lambda text: text.replace(
        '"format_version":2', '"format_version":3'),
    "legacy-indent-1": lambda text: json.dumps(json.loads(text), indent=1),
    "empty-catalog": lambda _: canonical_json(
        {"format_version": 2, "kind": "statistics-catalog", "entries": []}),
    "empty-file": lambda _: "",
    "canonical-header-pretty-entry": _one_pretty_entry,
    "entry-missing-its-key": _entry_missing_its_key,
    "lines-without-separator": lambda text: text.replace("},\n{", "}\n{", 1),
}


def _whole_document(path):
    """What ``open`` returned before entries were read line by line."""
    try:
        reference = StatisticsCatalog(path)
        reference._load_doc(_load_json(path, "catalog"))
    except PersistenceError as exc:
        return "rejected", str(exc)
    return "loaded", _snapshot(reference)


@pytest.mark.parametrize("held", [False, True], ids=["cold", "held"])
@pytest.mark.parametrize("name", sorted(FILES))
def test_a_file_is_accepted_or_rejected_as_a_whole_document_decode(
    tmp_path, monkeypatch, name, held
):
    path = tmp_path / "catalog.json"
    _good_catalog(path).save()
    good = path.read_text()
    monkeypatch.setattr(StatisticsCatalog, "_held", {})
    if held:  # the process already holds a good version of this path
        StatisticsCatalog.open(path)
        assert StatisticsCatalog._held
    path.write_text(FILES[name](good))
    expected = _whole_document(path)
    try:
        outcome = "loaded", _snapshot(StatisticsCatalog.open(path))
    except PersistenceError as exc:
        outcome = "rejected", str(exc)
    assert outcome == expected
    if name in ("legacy-indent-1", "canonical-header-pretty-entry"):
        assert outcome[0] == "loaded" and outcome[1]
    if name.startswith(("corrupt", "truncated", "entries", "future")):
        assert outcome[0] == "rejected"
