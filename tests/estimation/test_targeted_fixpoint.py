"""The demand-driven estimator against the full CSS fixpoint.

``CardinalityEstimator`` evaluates only the derivations ``S_C`` rests on;
``StatisticsCalculator.compute_all()`` is the same loop asked for
everything.  On every suite workflow, fed by observations alone (cold
night) and by observations plus catalog values (warm night), both must
agree on every required statistic.
"""

import inspect

import pytest

from repro.catalog.signatures import WorkflowSigner
from repro.catalog.store import StatisticsCatalog
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


@pytest.mark.parametrize("number", range(1, 31))
def test_targeted_estimator_equals_full_fixpoint(number):
    for css, store in nights(number):
        full = StatisticsCalculator(css, store).compute_all()
        estimator = CardinalityEstimator(css, store)
        assert estimator.all_cardinalities() == {
            stat.se: float(full.get(stat)) for stat in css.required
        }
        assert estimator.coverage() == (len(css.required), len(css.required))
        assert estimator.missing() == []
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


def test_one_fixpoint_loop():
    assert inspect.getsource(calculator).count("while ready") == 1
    delegate = inspect.getsource(StatisticsCalculator.compute_all)
    assert "while" not in delegate and "for " not in delegate
