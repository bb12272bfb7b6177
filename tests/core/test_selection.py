"""Tests for the selection problem, ILP (Section 5.2) and greedy (5.3)."""


import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.algebra.operators import Join, Source, Target, Workflow
from repro.algebra.schema import Catalog
from repro.core.costs import INFINITE, CostModel
from repro.core.css import CSS, CssCatalog
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.core.statistics import Statistic

SE = SubExpression.of


def tiny_catalog():
    """A hand-built catalog: |T12| <- J1{H_T1^a, H_T2^a}; everything else
    trivial."""
    catalog = CssCatalog()
    c_t1 = Statistic.card(SE("T1"))
    c_t2 = Statistic.card(SE("T2"))
    c_t12 = Statistic.card(SE("T1", "T2"))
    h1 = Statistic.hist(SE("T1"), "a")
    h2 = Statistic.hist(SE("T2"), "a")
    for stat in (c_t1, c_t2, h1, h2):
        catalog.mark_observable(stat)
    for stat in (c_t1, c_t2, c_t12):
        catalog.require(stat)
    catalog.add(CSS(c_t12, (h1, h2), "J1"))
    catalog.add(CSS(c_t1, (h1,), "I1"))
    catalog.add(CSS(c_t2, (h2,), "I1"))
    return catalog


class FixedCost(CostModel):
    """Cost model with explicit per-statistic costs."""

    def __init__(self, table):
        super().__init__(Catalog())
        self.table = table

    def cost(self, stat, observable=True):
        if not observable:
            return INFINITE
        return self.table.get(stat, 1.0)


class TestBuildProblem:
    def test_infeasible_detected(self):
        catalog = CssCatalog()
        ghost = Statistic.card(SE("T1", "T2"))
        catalog.require(ghost)  # not observable, no CSS
        with pytest.raises(ValueError, match="infeasible"):
            build_problem(catalog, CostModel(Catalog()))

    def test_free_statistics_have_zero_cost(self):
        catalog = tiny_catalog()
        h1 = Statistic.hist(SE("T1"), "a")
        problem = build_problem(
            catalog, CostModel(Catalog()), free_statistics={h1}
        )
        assert problem.costs[problem.index[h1]] == 0.0

    def test_closure_chains_css(self):
        catalog = tiny_catalog()
        problem = build_problem(catalog, CostModel(Catalog()))
        h1 = problem.index[Statistic.hist(SE("T1"), "a")]
        h2 = problem.index[Statistic.hist(SE("T2"), "a")]
        closure = problem.closure({h1, h2})
        assert problem.index[Statistic.card(SE("T1", "T2"))] in closure
        assert problem.index[Statistic.card(SE("T1"))] in closure

    def test_partial_observation_insufficient(self):
        catalog = tiny_catalog()
        problem = build_problem(catalog, CostModel(Catalog()))
        h1 = problem.index[Statistic.hist(SE("T1"), "a")]
        assert not problem.is_sufficient({h1})


class TestSolvers:
    @pytest.mark.parametrize("solve", [solve_ilp, solve_greedy])
    def test_tiny_catalog_solution_valid(self, solve):
        problem = build_problem(tiny_catalog(), CostModel(Catalog()))
        result = solve(problem)
        assert result.is_valid
        assert result.total_cost < INFINITE

    def test_ilp_exploits_amortization(self):
        """Section 5's motivating example: a shared histogram makes the
        histogram pair cheaper than two per-statistic optima."""
        catalog = CssCatalog()
        c12 = Statistic.card(SE("T1", "T2"))
        c13 = Statistic.card(SE("T1", "T3"))
        h1 = Statistic.hist(SE("T1"), "j")  # shared join key
        h2 = Statistic.hist(SE("T2"), "j")
        h3 = Statistic.hist(SE("T3"), "j")
        for stat in (h1, h2, h3, c13):
            catalog.mark_observable(stat)
        catalog.require(c12)
        catalog.require(c13)
        catalog.add(CSS(c12, (h1, h2), "J1"))
        catalog.add(CSS(c13, (h1, h3), "J1"))
        costs = FixedCost({h1: 9.0, h2: 3.0, h3: 1.0, c13: 9.0})
        problem = build_problem(catalog, costs)
        result = solve_ilp(problem)
        # greedy-per-statistic would pick |T13| directly (9) + {h1,h2} (12)
        # = 21; sharing h1 gives 9 + 3 + 1 = 13
        assert result.total_cost == 13.0
        assert result.is_valid

    def test_cyclic_self_support_rejected(self):
        """Two statistics whose only CSSs reference each other must not be
        declared computable for free (the union-division cycle hazard)."""
        catalog = CssCatalog()
        a = Statistic.card(SE("A", "B"))
        b = Statistic.hist(SE("A", "B", "C"), "k")
        direct = Statistic.hist(SE("A"), "k")
        catalog.require(a)
        catalog.mark_observable(b)
        catalog.mark_observable(direct)
        catalog.add(CSS(a, (b,), "J4"))
        catalog.add(CSS(b, (a,), "J2"))  # artificial back edge
        catalog.add(CSS(a, (direct,), "J1"))
        costs = FixedCost({b: 1.0, direct: 100.0})
        problem = build_problem(catalog, costs)
        result = solve_ilp(problem)
        assert result.is_valid
        # the cheap cyclic pair is unusable without observing b directly
        observed = set(result.observed)
        assert observed == {b} or direct in observed

    def test_greedy_close_to_ilp_on_simple_case(self):
        problem = build_problem(tiny_catalog(), CostModel(Catalog()))
        ilp = solve_ilp(problem)
        greedy = solve_greedy(problem)
        # both valid; greedy may pay a couple of extra counters (it covers
        # cheap cardinalities directly before committing to histograms)
        assert ilp.is_valid and greedy.is_valid
        assert ilp.total_cost <= greedy.total_cost <= ilp.total_cost + 2

    def test_ilp_never_worse_than_greedy(self):
        cat = Catalog()
        cat.add_relation("O", {"pid": 30, "cid": 40})
        cat.add_relation("P", {"pid": 30})
        cat.add_relation("C", {"cid": 40})
        o, p, c = Source(cat, "O"), Source(cat, "P"), Source(cat, "C")
        wf = Workflow("w", cat, [Target(Join(Join(o, p, "pid"), c, "cid"), "t")])
        catalog = generate_css(analyze(wf))
        problem = build_problem(catalog, CostModel(cat))
        ilp = solve_ilp(problem)
        greedy = solve_greedy(problem)
        assert ilp.is_valid and greedy.is_valid
        assert ilp.total_cost <= greedy.total_cost

    def test_time_limit_still_returns_valid_result(self):
        problem = build_problem(tiny_catalog(), CostModel(Catalog()))
        result = solve_ilp(problem, time_limit=0.001)
        assert result.is_valid


class TestZeroCostPresolve:
    """Zero-cost statistics that already derive S_C: cost 0 is the optimum
    (costs are non-negative) and HiGHS is not started."""

    def test_cover_is_answered_without_highs(self, monkeypatch):
        import scipy.optimize

        h1 = Statistic.hist(SE("T1"), "a")
        h2 = Statistic.hist(SE("T2"), "a")
        c_t1 = Statistic.card(SE("T1"))
        free = {h1, h2, c_t1}  # |T1| is free too, but H_T1^a derives it
        problem = build_problem(
            tiny_catalog(), FixedCost({}), free_statistics=free
        )
        monkeypatch.setattr(scipy.optimize, "milp", None)  # calling it would raise
        result = solve_ilp(problem)
        assert result.method == "ilp" and result.is_valid
        assert result.total_cost == 0.0
        assert set(result.observed) <= free
        assert set(result.observed) == {h1, h2}  # only what S_C rests on

    def test_partial_cover_goes_to_highs(self):
        h1 = Statistic.hist(SE("T1"), "a")
        h2 = Statistic.hist(SE("T2"), "a")
        problem = build_problem(
            tiny_catalog(), FixedCost({h2: 7.0}), free_statistics={h1}
        )
        result = solve_ilp(problem)
        assert result.method == "ilp" and result.is_valid
        assert result.total_cost == 7.0
        assert set(result.observed) == {h1, h2}

    def test_derivation_names_the_supporting_entry(self):
        problem = build_problem(tiny_catalog(), FixedCost({}))
        h1 = problem.index[Statistic.hist(SE("T1"), "a")]
        h2 = problem.index[Statistic.hist(SE("T2"), "a")]
        via = problem.derivation([h1, h2])
        assert via[h1] is None and via[h2] is None
        assert set(via) == problem.closure({h1, h2}) == set(range(problem.n))
        joined = problem.index[Statistic.card(SE("T1", "T2"))]
        assert set(problem.entries[via[joined]].inputs) == {h1, h2}


def suite_problem(number):
    from repro import StatisticsPipeline
    from repro.workloads import case

    pipeline = StatisticsPipeline(case(number).build())
    return build_problem(pipeline.catalog, pipeline.cost_model())


def capture_milp(monkeypatch):
    """Record what reaches ``scipy.optimize.milp``, which ``repro.core.ilp``
    looks up when it solves; HiGHS still runs."""
    import scipy.optimize

    calls = []
    real = scipy.optimize.milp

    def spy(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    return calls


def same_model(got, want):
    (got_rows,), (want_rows,) = got["constraints"], want["constraints"]
    return (
        (got["c"] == want["c"]).all()
        and (got["integrality"] == want["integrality"]).all()
        and (got["bounds"].lb == want["bounds"].lb).all()
        and (got["bounds"].ub == want["bounds"].ub).all()
        and (got_rows.A != want_rows.A).nnz == 0
        and (got_rows.lb == want_rows.lb).all()
        and (got_rows.ub == want_rows.ub).all()
    )


class TestGreedyBound:
    """The greedy selection's cost bounds what any cheaper selection can
    observe; what cannot be derived under that bound leaves the problem
    before HiGHS sees it."""

    def test_unshrunken_problem_reaches_highs_untouched(self, monkeypatch):
        """wf20: nothing costs more than greedy's selection, so HiGHS gets
        the whole problem's model and the default gap (golden.json pins an
        in-gap answer for wf27, reached the same way)."""
        import repro.core.ilp as ilp

        problem = suite_problem(20)
        calls = capture_milp(monkeypatch)
        result = solve_ilp(problem)
        ilp._highs(problem, None, exact=False)
        solved, whole = calls
        assert same_model(solved, whole)
        assert solved["options"] == {}
        assert result.method == "ilp" and result.total_cost == 508501.0

    def test_shrunken_problem_is_solved_exactly(self, monkeypatch):
        """wf26's shrunken model stops at 181,627 inside the default gap."""
        problem = suite_problem(26)
        calls = capture_milp(monkeypatch)
        result = solve_ilp(problem)
        (call,) = calls
        assert call["options"] == {"mip_rel_gap": 0.0}
        assert len(call["c"]) < 3 * problem.n + len(problem.entries)
        assert result.problem is problem and result.is_valid
        assert result.method == "ilp" and result.total_cost == 181626.0

    @pytest.mark.parametrize("number", [20, 21, 26])
    def test_shrunken_model_carries_the_greedy_cutoff_row(
        self, monkeypatch, number
    ):
        """A model the bound shrank gets one row more than it used to,
        ``c·x <= greedy cost``; an unshrunken one (wf20) gets none."""
        from scipy.optimize import LinearConstraint

        import repro.core.ilp as ilp

        problem = suite_problem(number)
        bound = solve_greedy(problem).total_cost
        alive = problem.closure(
            {i for i in problem.observable if problem.costs[i] <= bound}
        )
        shrunk = len(alive) < problem.n
        model = problem.restricted_to(alive)[0] if shrunk else problem
        calls = capture_milp(monkeypatch)
        result = solve_ilp(problem)
        ilp._highs(model, None, exact=shrunk)  # the call without the row
        solved, plain = calls
        assert shrunk == (number != 20)
        assert result.method == "ilp"
        if not shrunk:
            assert same_model(solved, plain)
            return
        (rows,), (plain_rows,) = solved["constraints"], plain["constraints"]
        assert rows.A.shape[0] == plain_rows.A.shape[0] + 1
        head = LinearConstraint(rows.A[:-1], rows.lb[:-1], rows.ub[:-1])
        assert same_model(dict(solved, constraints=[head]), plain)
        assert (rows.A[-1].toarray()[0] == solved["c"]).all()
        assert rows.lb[-1] == -float("inf") and rows.ub[-1] == bound

    def test_sub_problem_keeps_order_costs_and_observability(self):
        problem = suite_problem(26)
        alive = set(range(0, problem.n, 2)) | set(problem.required)
        sub, kept = problem.restricted_to(alive)
        assert kept == sorted(alive)
        assert sub.stats == [problem.stats[i] for i in kept]
        assert sub.costs == [problem.costs[i] for i in kept]
        assert {kept[i] for i in sub.observable} == problem.observable & alive
        assert {kept[i] for i in sub.required} == set(problem.required)
        survivors = [
            e for e in problem.entries if alive >= {e.target, *e.inputs}
        ]
        assert [e.css for e in sub.entries] == [e.css for e in survivors]
        for mapped, original in zip(sub.entries, survivors):
            assert kept[mapped.target] == original.target
            assert tuple(kept[k] for k in mapped.inputs) == original.inputs

    def test_negative_cost_bypasses_the_bound(self, monkeypatch):
        import dataclasses

        import repro.core.ilp as ilp

        h2 = Statistic.hist(SE("T2"), "a")
        problem = build_problem(tiny_catalog(), FixedCost({h2: 7.0}))
        rebate = problem.index[Statistic.card(SE("T1"))]
        costs = list(problem.costs)
        costs[rebate] = -1.0
        problem = dataclasses.replace(problem, costs=costs)
        monkeypatch.setattr(ilp, "solve_greedy", None)  # calling it would raise
        calls = capture_milp(monkeypatch)
        result = solve_ilp(problem)
        (call,) = calls
        assert call["options"] == {}
        assert len(call["c"]) == 3 * problem.n + len(problem.entries)
        assert result.method == "ilp" and result.is_valid
        assert rebate in result.observed_indexes

    @pytest.mark.parametrize("number, shrunk", [(20, False), (26, True)])
    def test_time_limit_reaches_highs(self, monkeypatch, number, shrunk):
        calls = capture_milp(monkeypatch)
        result = solve_ilp(suite_problem(number), time_limit=30.0)
        (call,) = calls
        assert call["options"]["time_limit"] == 30.0
        assert ("mip_rel_gap" in call["options"]) == shrunk
        assert result.method == "ilp"

    def test_no_incumbent_returns_the_bounding_greedy(self, monkeypatch):
        import types

        import scipy.optimize

        import repro.core.ilp as ilp

        problem = build_problem(tiny_catalog(), CostModel(Catalog()))
        results = []

        def counting(problem):
            results.append(solve_greedy(problem))
            return results[-1]

        monkeypatch.setattr(ilp, "solve_greedy", counting)
        monkeypatch.setattr(
            scipy.optimize,
            "milp",
            lambda **_: types.SimpleNamespace(x=None, success=False),
        )
        result = solve_ilp(problem)
        assert results == [result]  # one greedy solve, on the caller's problem
        assert result.method == "greedy(ilp-no-incumbent)"
        assert result.problem is problem and result.is_valid


def sweeping_label_costs(problem, computable):
    """The label pass as first written -- every entry, every sweep, until
    a sweep improves nothing -- kept as the reference for the pass that
    revisits only entries an input of which got cheaper."""
    from repro.core.greedy import _OBSERVE

    best = [INFINITE] * problem.n
    choice = {}
    for i in computable:
        best[i] = 0.0
    for i in problem.observable:
        if i not in computable and problem.costs[i] < INFINITE:
            best[i] = problem.costs[i]
            choice[i] = _OBSERVE
    changed = True
    while changed:
        changed = False
        for j, entry in enumerate(problem.entries):
            members = set(entry.inputs)
            if entry.target in members:
                continue
            total = 0.0
            for k in members:
                total += best[k]
            if total < best[entry.target] - 1e-12:
                best[entry.target] = total
                choice[entry.target] = j
                changed = True
    return best, choice


@pytest.mark.parametrize("number", range(1, 31))
def test_greedy_label_pass_agrees_with_full_sweeps(monkeypatch, number):
    import repro.core.greedy as greedy

    problem = suite_problem(number)
    fast = solve_greedy(problem)
    monkeypatch.setattr(greedy, "_label_costs", sweeping_label_costs)
    reference = solve_greedy(problem)
    assert fast.total_cost == reference.total_cost
    assert fast.iterations == reference.iterations
    assert fast.observed_indexes == reference.observed_indexes


class TestSelectStatistics:
    """``repro.core.select_statistics``: build + dispatch, written once."""

    def test_free_statistics_are_exploited(self):
        from repro.core import select_statistics

        h1 = Statistic.hist(SE("T1"), "a")
        h2 = Statistic.hist(SE("T2"), "a")
        costs = FixedCost({h1: 50.0, h2: 50.0})
        paid = select_statistics(tiny_catalog(), costs)
        free = select_statistics(tiny_catalog(), costs, free={h1, h2})
        assert paid.total_cost == 100.0  # |T12| is only reachable via both
        assert free.total_cost == 0.0
        assert set(free.observed) == {h1, h2}

    @pytest.mark.parametrize("solver", ["ilp", "greedy"])
    def test_solver_name_picks_the_solver(self, solver):
        from repro.core import select_statistics

        result = select_statistics(
            tiny_catalog(), CostModel(Catalog()), solver=solver
        )
        assert result.method == solver
        assert result.is_valid

    def test_time_limit_reaches_the_ilp(self, monkeypatch):
        import repro.core as core

        seen = []

        def spy(problem, time_limit=None):
            seen.append(time_limit)
            return solve_ilp(problem, time_limit=time_limit)

        monkeypatch.setattr(core, "solve_ilp", spy)
        core.select_statistics(tiny_catalog(), CostModel(Catalog()))
        core.select_statistics(
            tiny_catalog(), CostModel(Catalog()), time_limit=0.5
        )
        assert seen == [None, 0.5]

    def test_infeasible_still_raises(self):
        from repro.core import select_statistics

        catalog = CssCatalog()
        catalog.require(Statistic.card(SE("T1", "T2")))
        with pytest.raises(ValueError, match="selection infeasible"):
            select_statistics(catalog, CostModel(Catalog()))


class TestFig8Formulation:
    """The paper's Figure 5/7/8 example, end to end through the ILP."""

    def build(self):
        """Figure 5: T1 joins T3 (J13) then T2 (J12), same attribute a on
        T1 for both joins is *not* assumed -- use separate keys."""
        catalog = CssCatalog()
        t1, t2, t3 = SE("T1"), SE("T2"), SE("T3")
        t12, t13, t23, t123 = (
            SE("T1", "T2"), SE("T1", "T3"), SE("T2", "T3"), SE("T1", "T2", "T3"),
        )
        from repro.algebra.expressions import RejectJoinSE, RejectSE

        rej = RejectSE(t1, "j13", t3)
        stats = {
            "c1": Statistic.card(t1),
            "c2": Statistic.card(t2),
            "c3": Statistic.card(t3),
            "c12": Statistic.card(t12),
            "c13": Statistic.card(t13),
            "c123": Statistic.card(t123),
            "h1_12": Statistic.hist(t1, "j12"),
            "h2_12": Statistic.hist(t2, "j12"),
            "h3_13": Statistic.hist(t3, "j13"),
            "h123_13": Statistic.hist(t123, "j13"),
            "hrej_12": Statistic.hist(rej, "j12"),
        }
        observable = [
            "c1", "c2", "c3", "c13", "c123",
            "h1_12", "h2_12", "h3_13", "h123_13", "hrej_12",
        ]
        for key in observable:
            catalog.mark_observable(stats[key])
        for key in ("c1", "c2", "c3", "c12", "c13", "c123"):
            catalog.require(stats[key])
        rj = RejectJoinSE(rej, "j12", t2)
        c_rj = Statistic.card(rj)
        h1_13 = Statistic.hist(t1, "j13")
        catalog.mark_observable(h1_13)
        catalog.add(CSS(stats["c13"], (h1_13, stats["h3_13"]), "J1"))
        catalog.add(CSS(stats["c12"], (stats["h1_12"], stats["h2_12"]), "J1"))
        catalog.add(
            CSS(
                stats["c12"],
                (stats["h123_13"], stats["h3_13"], c_rj),
                "J4",
            )
        )
        catalog.add(CSS(c_rj, (stats["hrej_12"], stats["h2_12"]), "J1"))
        catalog.add(CSS(stats["c123"], (stats["h123_13"],), "I1"))
        # c23: only observable via... give it a plain J1 for completeness
        h2_23 = Statistic.hist(t2, "j23")
        h3_23 = Statistic.hist(t3, "j23")
        catalog.mark_observable(h2_23)
        catalog.mark_observable(h3_23)
        c23 = Statistic.card(t23)
        catalog.require(c23)
        catalog.add(CSS(c23, (h2_23, h3_23), "J1"))
        costs = FixedCost(
            {
                stats["c1"]: 1, stats["c2"]: 1, stats["c3"]: 1,
                stats["c13"]: 1, stats["c123"]: 1,
                stats["h1_12"]: 100, stats["h2_12"]: 100,
                h1_13: 100, stats["h3_13"]: 1,
                stats["h123_13"]: 10, stats["hrej_12"]: 30,
                h2_23: 40, h3_23: 40,
            }
        )
        return catalog, costs, stats

    def test_union_division_chosen_when_cheaper(self):
        """With Figure 7-style costs (H_T3^J13 cheap), covering |T12| via
        J4 costs 10+1+30 plus the shared H_T2^J12, beating H_T1^J12."""
        catalog, costs, stats = self.build()
        problem = build_problem(catalog, costs)
        result = solve_ilp(problem)
        assert result.is_valid
        observed = set(result.observed)
        # H_T123^J13 (10) + H_rej^J12 (30) + shared H_T2^J12 beats H_T1^J12
        assert stats["h123_13"] in observed
        assert stats["hrej_12"] in observed
        assert stats["h1_12"] not in observed
