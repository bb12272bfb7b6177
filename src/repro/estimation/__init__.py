"""Estimation and cost-based plan selection from learned statistics."""

from repro.estimation.calculator import (
    CalculationError,
    StatisticsCalculator,
    compute_statistics,
)
from repro.estimation.costmodel import CostModelError, PlanCostModel
from repro.estimation.bootstrap import bootstrap_se_sizes
from repro.estimation.estimator import CardinalityEstimator, EstimationError
from repro.estimation.optimizer import OptimizedPlan, PlanOptimizer, optimize_workflow

__all__ = [
    "bootstrap_se_sizes", "CalculationError", "CardinalityEstimator",
    "compute_statistics", "CostModelError", "EstimationError",
    "OptimizedPlan", "PlanCostModel", "PlanOptimizer",
    "StatisticsCalculator", "optimize_workflow",
]
