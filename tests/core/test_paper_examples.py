"""The paper's worked examples, checked end to end.

These tests pin the library to specific sentences of the paper:

- the introduction's Figure 1 discussion (which statistics suffice for the
  Orders/Product/Customer flow, and how plan 1(a) changes the answer);
- the Section 5 amortization example (Figure 7);
- Equation 1-3 (the union-division derivation) on real data.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.algebra.operators import Join, Source, Target, Workflow
from repro.algebra.schema import Catalog
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor
from repro.engine.instrumentation import TapSet
from repro.engine.table import Table
from repro.estimation.estimator import CardinalityEstimator

SE = SubExpression.of


def figure1_workflow(plan: str) -> Workflow:
    """The three plans of Figure 1 over Orders/Product/Customer."""
    cat = Catalog()
    cat.add_relation("Orders", {"pid": 40, "cid": 60, "oid": 500})
    cat.add_relation("Product", {"pid": 40, "pname": 30})
    cat.add_relation("Customer", {"cid": 60, "cname": 50})
    o, p, c = Source(cat, "Orders"), Source(cat, "Product"), Source(cat, "Customer")
    if plan == "a":  # (Orders |x| Product) |x| Customer
        flow = Join(Join(o, p, "pid"), c, "cid")
    elif plan == "b":  # (Orders |x| Customer) |x| Product
        flow = Join(Join(o, c, "cid"), p, "pid")
    else:
        raise ValueError(plan)
    return Workflow(f"fig1{plan}", cat, [Target(flow, "W")])


class TestIntroExample:
    """Section 1: 'the set of statistics needed are the distribution of
    (Product_id, Customer_id) on Orders, (Product_id) on Product and
    (Customer_id) on Customer' -- before exploiting the executed plan."""

    def test_sufficient_statistic_set_exists(self):
        workflow = figure1_workflow("a")
        catalog = generate_css(analyze(workflow))
        problem = build_problem(catalog, CostModel(workflow.catalog))
        # force the intro's plan-agnostic set: observe the joint Orders
        # distribution plus the two dimension distributions
        joint = {
            problem.index[Statistic.hist(SE("Orders"), "cid", "pid")],
            problem.index[Statistic.hist(SE("Product"), "pid")],
            problem.index[Statistic.hist(SE("Customer"), "cid")],
        }
        assert problem.is_sufficient(joint)

    def test_plan_1a_needs_no_joint_distribution(self):
        """'If the plan 1(a) is executed, the cardinality of Order |x|
        Product can be directly observed ... likely to be much cheaper in
        terms of memory overhead since there is no multi-attribute
        distribution to be measured.'"""
        workflow = figure1_workflow("a")
        catalog = generate_css(analyze(workflow))
        result = solve_ilp(build_problem(catalog, CostModel(workflow.catalog)))
        assert all(len(s.attrs) <= 1 for s in result.observed)
        assert Statistic.card(SE("Orders", "Product")) in set(result.observed)

    def test_plan_1b_flips_the_observed_join(self):
        workflow = figure1_workflow("b")
        catalog = generate_css(analyze(workflow))
        result = solve_ilp(build_problem(catalog, CostModel(workflow.catalog)))
        observed = set(result.observed)
        assert Statistic.card(SE("Customer", "Orders")) in observed
        assert all(len(s.attrs) <= 1 for s in observed)

    @pytest.mark.parametrize("plan", ["a", "b"])
    def test_both_plans_yield_exact_estimates(self, plan):
        workflow = figure1_workflow(plan)
        analysis = analyze(workflow)
        catalog = generate_css(analysis)
        result = solve_ilp(build_problem(catalog, CostModel(workflow.catalog)))
        sources = {
            "Orders": Table(
                {
                    "pid": [(i * 7) % 40 + 1 for i in range(300)],
                    "cid": [(i * 11) % 60 + 1 for i in range(300)],
                    "oid": list(range(300)),
                }
            ),
            "Product": Table(
                {"pid": list(range(1, 31)), "pname": [i % 30 + 1 for i in range(30)]}
            ),
            "Customer": Table(
                {"cid": list(range(1, 46)), "cname": [i % 50 + 1 for i in range(45)]}
            ),
        }
        taps = TapSet(result.observed)
        run = BackendExecutor(analysis).run(sources, taps=taps)
        estimator = CardinalityEstimator(catalog, run.observations)
        from repro.engine.ground_truth import ground_truth_cardinalities

        truth = ground_truth_cardinalities(analysis, sources)
        for se, actual in truth.items():
            assert estimator.cardinality(se) == pytest.approx(actual)


class TestEquation123:
    """The union-division derivation on concrete numbers."""

    def test_union_division_identity_on_data(self):
        """|T12| = |H_T123^J13 / H_T3^J13| + |rej(T1) |x| T2| (Eq. 3)."""
        t1 = Table({"j13": [1, 1, 2, 3, 9], "j12": [5, 6, 5, 7, 8]})
        t3 = Table({"j13": [1, 2, 2]})
        t2 = Table({"j12": [5, 5, 7, 8]})

        from repro.engine.physical import hash_join

        t13, rej1, _ = hash_join(t1, t3, ("j13",), want_reject_left=True)
        t123, _, _ = hash_join(t13, t2, ("j12",))
        t12, _, _ = hash_join(t1, t2, ("j12",))
        rej_join, _, _ = hash_join(rej1, t2, ("j12",))

        h123 = t123.histogram(("j13",))
        h3 = t3.histogram(("j13",))
        survived = h123.divide(h3).total()
        assert survived + rej_join.num_rows == t12.num_rows

    def test_equation2_histogram_recovery(self):
        """H_{T'12}^J13 = H_T123^J13 / H_T3^J13 (Equation 2)."""
        t1 = Table({"j13": [1, 1, 2, 3], "j12": [5, 6, 5, 7]})
        t3 = Table({"j13": [1, 2, 2]})
        t2 = Table({"j12": [5, 5, 7]})
        from repro.engine.physical import hash_join

        t13, _, _ = hash_join(t1, t3, ("j13",))
        t123, _, _ = hash_join(t13, t2, ("j12",))
        # T'12 = rows of T1 that survive the T3 join, joined with T2
        t12_prime, _, _ = hash_join(t13, t2, ("j12",))
        # careful: T13 carries T3 multiplicity; T'12 should not. Build it
        # directly: T1 rows with j13 in T3, joined with T2.
        surviving_keys = set(t3.column("j13"))
        keep = [i for i, v in enumerate(t1.column("j13")) if v in surviving_keys]
        t1_prime = t1.take(keep)
        t12_prime, _, _ = hash_join(t1_prime, t2, ("j12",))

        recovered = t123.histogram(("j13",)).divide(t3.histogram(("j13",)))
        assert recovered == t12_prime.histogram(("j13",))
