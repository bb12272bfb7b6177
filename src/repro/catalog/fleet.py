"""Fleet observation planning: one nightly plan for N workflows.

The paper selects an optimal statistics set *per workflow*.  A nightly
batch runs many workflows whose sub-expressions overlap heavily (the
evaluation's 30 TPC-DI workflows share dimension tables, staged feeds and
whole join subtrees), so planning each workflow in isolation pays for the
same statistic many times — the observation-cost analogue of the shared
dataflow caching of arXiv:1409.1639.

:func:`plan_fleet` computes one combined plan: workflows are planned in
sequence, and every statistic some earlier workflow (or the persistent
catalog) already covers enters the later selection problems at **zero
cost** through the same mechanism as Section 6.2 source statistics.  Each
shared statistic is therefore observed by exactly one workflow per night;
every other workflow consumes the value from the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.algebra.blocks import analyze
from repro.catalog.signatures import WorkflowSigner
from repro.catalog.store import StatisticsCatalog
from repro.core import select_statistics
from repro.core.costs import CostModel
from repro.core.css import CssCatalog
from repro.core.generator import GeneratorOptions, generate_css
from repro.core.selection import SelectionResult
from repro.core.statistics import Statistic


@dataclass
class WorkflowObservationPlan:
    """One workflow's share of the combined nightly plan."""

    name: str
    selection: SelectionResult
    observe: list[Statistic]  # statistics this workflow actually taps
    shared: dict[Statistic, str]  # covered stat -> provider ("catalog" | wf)
    planned_cost: float  # cost of the statistics it observes in the fleet
    css: CssCatalog
    cost_model: CostModel
    solver: str

    @cached_property
    def standalone_cost(self) -> float:
        """Cost if this workflow planned alone: a second solve, paid only
        by whoever reads it (the served share never does)."""
        return select_statistics(
            self.css, self.cost_model, solver=self.solver
        ).total_cost


@dataclass
class FleetPlan:
    """The combined observation plan for one night across the fleet."""

    workflows: list[WorkflowObservationPlan] = field(default_factory=list)

    @property
    def total_standalone_cost(self) -> float:
        return sum(w.standalone_cost for w in self.workflows)

    @property
    def total_planned_cost(self) -> float:
        return sum(w.planned_cost for w in self.workflows)

    @property
    def unique_observations(self) -> int:
        return sum(len(w.observe) for w in self.workflows)

    @property
    def shared_count(self) -> int:
        return sum(len(w.shared) for w in self.workflows)

    def describe(self) -> str:
        lines = [
            f"fleet plan: {len(self.workflows)} workflow(s), "
            f"{self.unique_observations} observation(s), "
            f"{self.shared_count} shared/catalog-covered",
            f"observation cost: standalone {self.total_standalone_cost:g} "
            f"-> combined {self.total_planned_cost:g}",
        ]
        for plan in self.workflows:
            providers = sorted(
                {provider for provider in plan.shared.values()}
            )
            note = f" (reusing from {', '.join(providers)})" if providers else ""
            lines.append(
                f"  {plan.name}: observe {len(plan.observe)} "
                f"(cost {plan.planned_cost:g}, alone {plan.standalone_cost:g})"
                f"{note}"
            )
        return "\n".join(lines)


def plan_share(
    workflow,
    claimed: dict[str, str],
    catalog_keys,
    *,
    client: str,
    solver: str = "greedy",
) -> WorkflowObservationPlan:
    """One workflow's share of tonight's fleet observation plan.

    Statistics whose signature is in ``catalog_keys`` (usable catalog
    entries) or in ``claimed`` (signature -> the client observing it
    tonight) enter the workflow's selection problem at zero cost, the
    Section 6.2 mechanism.  Whatever the solver still wants observed is
    tapped by this workflow and recorded in ``claimed`` under ``client``,
    so the next caller sees it as free: each shared statistic is tapped
    exactly once per night.  :func:`plan_fleet` is a loop over this call.
    """
    analysis = analyze(workflow)
    css = generate_css(analysis, GeneratorOptions())
    cost_model = CostModel(workflow.catalog)
    keys = WorkflowSigner(analysis).statistic_keys(css.all_statistics)
    free = {
        stat
        for stat, key in keys.items()
        if key in claimed or key in catalog_keys
    }
    selection = select_statistics(css, cost_model, free=free, solver=solver)

    observe: list[Statistic] = []
    shared: dict[Statistic, str] = {}
    planned_cost = 0.0
    for stat in selection.observed:
        key = keys.get(stat)
        if key is not None and key in claimed:
            shared[stat] = claimed[key]
            continue
        if key is not None and key in catalog_keys:
            shared[stat] = "catalog"
            continue
        observe.append(stat)
        planned_cost += selection.problem.costs[selection.problem.index[stat]]
        if key is not None:
            claimed[key] = client
    return WorkflowObservationPlan(
        name=workflow.name,
        selection=selection,
        observe=observe,
        shared=shared,
        planned_cost=planned_cost,
        css=css,
        cost_model=cost_model,
        solver=solver,
    )


def plan_fleet(
    workflows,
    catalog: StatisticsCatalog | None = None,
    *,
    solver: str = "greedy",
    now: float | None = None,
) -> FleetPlan:
    """Compute the combined nightly observation plan.

    ``workflows`` is an iterable of :class:`~repro.algebra.operators
    .Workflow` objects (order matters: earlier workflows claim shared
    statistics, later ones reuse them for free).  ``catalog``, when given,
    contributes its usable entries as zero-cost statistics for *every*
    workflow — pre-existing knowledge nobody needs to observe tonight.
    An entry whose predictions kept missing has a quality below the
    catalog's ``min_quality`` and is not usable, so tonight re-observes it.
    """
    catalog_keys = catalog.usable_keys(now) if catalog is not None else set()

    #: signature -> workflow name that will observe it tonight
    claimed: dict[str, str] = {}
    fleet = FleetPlan()
    for workflow in workflows:
        share = plan_share(
            workflow,
            claimed,
            catalog_keys,
            client=workflow.name,
            solver=solver,
        )
        fleet.workflows.append(share)
    return fleet


__all__ = ["FleetPlan", "WorkflowObservationPlan", "plan_fleet", "plan_share"]
