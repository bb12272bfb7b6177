"""Synthetic workloads: data generation and the 30-workflow suite."""

from repro.workloads.characteristics import (
    SummaryRow,
    paper_reference,
    summarize,
    synthetic_population,
)
from repro.workloads.datagen import ColumnSpec, TableSpec, ZipfSampler, generate_tables
from repro.workloads.tpcdi import WorkflowCase, case, suite

__all__ = [
    "case", "ColumnSpec", "generate_tables", "paper_reference",
    "suite", "summarize", "SummaryRow",
    "synthetic_population", "TableSpec", "WorkflowCase", "ZipfSampler",
]
