"""Accuracy ablation: learned statistics vs the independence assumption.

Not a numbered figure, but the paper's motivating claim (Sections 1 and 3):
without learned statistics an optimizer falls back to uniformity +
independence, which goes badly wrong on skewed data.  We measure, over a
sample of suite workflows on Zipfian data:

- the learned-statistics estimator: exact on every SE (q-error 1.0);
- the independence baseline: its worst q-error across join SEs.
"""

from conftest import DATA_SCALE, write_report

from repro.algebra.blocks import analyze
from repro.baselines.independence import IndependenceEstimator, profile_inputs
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.engine.instrumentation import TapSet
from repro.estimation.estimator import CardinalityEstimator
from repro.workloads import case

SAMPLE = [9, 11, 12, 16, 20, 27]


def _q_error(estimate: float, actual: float) -> float:
    lo, hi = sorted((max(estimate, 0.5), max(actual, 0.5)))
    return hi / lo


def _accuracy_sweep():
    rows = []
    for number in SAMPLE:
        wfcase = case(number)
        workflow = wfcase.build()
        analysis = analyze(workflow)
        catalog = generate_css(analysis)
        selection = solve_ilp(
            build_problem(catalog, CostModel(workflow.catalog)), time_limit=30
        )
        sources = wfcase.tables(scale=DATA_SCALE, seed=13)
        taps = TapSet(selection.observed)
        run = BackendExecutor(analysis).run(sources, taps=taps)
        learned = CardinalityEstimator(catalog, run.observations)
        indep = IndependenceEstimator(analysis, profile_inputs(analysis, run.env))
        truth = ground_truth_cardinalities(analysis, sources)

        q_learned = 1.0
        q_indep = 1.0
        for block in analysis.blocks:
            for se in block.join_ses():
                actual = truth[se]
                q_learned = max(q_learned, _q_error(learned.cardinality(se), actual))
                q_indep = max(q_indep, _q_error(indep.cardinality(se), actual))
        rows.append((number, round(q_learned, 4), round(q_indep, 2)))
    return rows


def test_accuracy_vs_independence(benchmark, results_dir):
    rows = benchmark.pedantic(_accuracy_sweep, rounds=1, iterations=1)
    write_report(
        results_dir,
        "accuracy_vs_independence",
        "Worst-case q-error across join SEs: learned statistics vs "
        "independence assumption (Zipfian data)",
        ["wf", "learned stats", "independence"],
        [list(r) for r in rows],
    )
    # learned statistics are exact; independence is not
    assert all(q == 1.0 for _wf, q, _qi in rows)
    assert any(qi > 1.5 for _wf, _q, qi in rows)
    assert all(qi >= 1.0 for _wf, _q, qi in rows)
