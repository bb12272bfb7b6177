"""The demand-driven estimator against the full CSS fixpoint.

``CardinalityEstimator`` evaluates only the derivations ``S_C`` rests on;
``StatisticsCalculator.compute_all()`` is the same loop asked for
everything.  On every suite workflow, fed by observations alone (cold
night) and by observations plus catalog values (warm night), both must
agree on every required statistic.  Each statistic takes its cheapest
derivation; the first-ready pass it replaced is kept below as the
reference it must agree with and never build more histograms than.
"""

import inspect
from collections import deque

import pytest

from repro.catalog.signatures import WorkflowSigner
from repro.catalog.store import StatisticsCatalog
from repro.core.histogram import Histogram
from repro.estimation import calculator
from repro.estimation.calculator import StatisticsCalculator
from repro.estimation.estimator import CardinalityEstimator
from repro.framework.pipeline import StatisticsPipeline
from repro.workloads import case

pytestmark = pytest.mark.property


def nights(number):
    """(CSS catalog, the store the night's estimator was built on) for a
    cold night and the warm night after it on one shared catalog."""
    wfcase = case(number)
    sources = wfcase.tables(scale=0.1, seed=5)
    shared = StatisticsCatalog()
    for warm in (False, True):
        report = StatisticsPipeline(wfcase.build()).run_once(
            sources, stats_catalog=shared
        )
        store = report.run.observations.copy()
        if warm:
            assert report.tapped == []
            store.merge(shared.lookup(
                WorkflowSigner(report.analysis),
                report.catalog.all_statistics,
                count_hits=False,
            ).values)
        yield report.catalog, store


def first_ready(catalog, store, targets):
    """The derivation pass as first written -- a statistic is derived by the
    first CSS, in queue order, whose inputs are all held -- kept as the
    reference for the pass that takes each statistic's cheapest derivation."""
    calc = StatisticsCalculator(catalog, store)
    waiting, remaining = {}, {}
    entries = [css for bucket in catalog.css.values() for css in bucket]
    ready = deque()
    for css in entries:
        missing = [s for s in set(css.inputs) if s not in calc.values]
        remaining[id(css)] = len(missing)
        if not missing:
            ready.append(css)
        for s in missing:
            waiting.setdefault(s, []).append(css)
    derived = {}
    while ready:
        css = ready.popleft()
        if css.target in calc.values or css.target in derived:
            continue
        derived[css.target] = css
        for dependent in waiting.get(css.target, []):
            remaining[id(dependent)] -= 1
            if remaining[id(dependent)] == 0:
                ready.append(dependent)
    wanted = set(derived if targets is None else targets)
    for stat in reversed(derived):
        if stat in wanted:
            wanted.update(derived[stat].inputs)
    for stat, css in derived.items():
        if stat in wanted:
            calc.values.put(stat, calc._evaluate(css))
    return calc.values


def histogram_counter(monkeypatch):
    """A one-element list that counts every Histogram built from now on."""
    built = [0]
    real = Histogram.__post_init__

    def counting(self):
        built[0] += 1
        real(self)

    monkeypatch.setattr(Histogram, "__post_init__", counting)
    return built


def counted(built, run):
    """(histograms ``run()`` built, what it returned)."""
    built[0] = 0
    result = run()
    return built[0], result


@pytest.mark.parametrize("number", range(1, 31))
def test_targeted_estimator_equals_full_fixpoint(number):
    for css, store in nights(number):
        full = StatisticsCalculator(css, store).compute_all()
        estimator = CardinalityEstimator(css, store)
        assert estimator.all_cardinalities() == {
            stat.se: float(full.get(stat)) for stat in css.required
        }
        assert estimator.coverage() == (len(css.required), len(css.required))
        assert estimator.catalog.required <= set(estimator.values)
        assert len(estimator.values) <= len(full)


def test_targeted_run_evaluates_fewer_derivations_on_wf21(monkeypatch):
    calls = []
    real = StatisticsCalculator._evaluate
    monkeypatch.setattr(
        StatisticsCalculator, "_evaluate",
        lambda self, css: calls.append(css.target) or real(self, css),
    )
    for css, store in nights(21):
        calls.clear()  # the night built an estimator of its own
        CardinalityEstimator(css, store)
        targeted = len(calls)
        StatisticsCalculator(css, store).compute_all()
        everything = len(calls) - targeted
        assert 0 < targeted < everything
        assert len(set(calls)) == everything  # each statistic derived once


@pytest.mark.parametrize("number", range(1, 31))
def test_cheapest_derivation_agrees_with_first_ready(monkeypatch, number):
    built = histogram_counter(monkeypatch)
    for css, store in nights(number):
        full = StatisticsCalculator(css, store).compute_all()
        everything = first_ready(css, store, None)
        assert dict(full.items()) == dict(everything.items())
        cheapest, estimator = counted(
            built, lambda: CardinalityEstimator(css, store)
        )
        first, reference = counted(
            built, lambda: first_ready(css, store, css.required)
        )
        assert cheapest <= first
        for stat, value in estimator.values.items():
            assert value == full.get(stat)
        for stat in css.required:
            assert estimator.values.get(stat) == reference.get(stat)


def test_a_held_histogram_does_not_start_a_cascade(monkeypatch):
    """A fleet's catalog holds wf11's Trade histograms from wf21 and wf27;
    first-ready then derives through a joint histogram as soon as
    H[SE(DimSecurity)]^(security_id) is held too, and builds one more."""
    (_, (css, store)) = nights(11)
    tables = case(11).tables(scale=0.1, seed=5)
    named = {repr(stat): stat for stat in css.all_statistics}

    def holding(base, *histograms):
        held = base.copy()
        for table, attrs in histograms:
            stat = named[f"H[SE({table})]^({','.join(attrs)})"]
            held.put(stat, tables[table].histogram(attrs))
        return held

    fleet = holding(
        store,
        ("Trade", ("account_id",)),
        ("Trade", ("account_id", "date_id", "security_id")),
    )
    more = holding(fleet, ("DimSecurity", ("security_id",)))
    built = histogram_counter(monkeypatch)
    cheapest = [
        counted(built, lambda: CardinalityEstimator(css, held))[0]
        for held in (fleet, more)
    ]
    first = [
        counted(built, lambda: first_ready(css, held, css.required))[0]
        for held in (fleet, more)
    ]
    assert cheapest[1] <= cheapest[0]
    assert first[1] > first[0]  # the cascade the reference pays for


def test_one_fixpoint_loop():
    assert inspect.getsource(calculator).count("while ready") == 1
    delegate = inspect.getsource(StatisticsCalculator.compute_all)
    assert "while" not in delegate and "for " not in delegate
