"""Baselines: pay-as-you-go, explore/exploit, independence estimation."""

from repro.baselines.explore import ExploreExploitSession, ExplorationStep
from repro.baselines.independence import BaseProfile, IndependenceEstimator, profile_inputs
from repro.baselines.payg import (
    BlockSchedule,
    CoverageScheduler,
    coverable_ses,
    min_executions,
    semantic_lower_bound,
    workflow_executions,
    workflow_lower_bound,
    workflow_schedule,
)

__all__ = [
    "BaseProfile", "BlockSchedule", "coverable_ses", "CoverageScheduler",
    "ExplorationStep", "ExploreExploitSession",
    "IndependenceEstimator", "min_executions",
    "profile_inputs", "semantic_lower_bound",
    "workflow_executions", "workflow_lower_bound", "workflow_schedule",
]
