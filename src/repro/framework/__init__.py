"""The end-to-end Figure-2 pipeline and the repeated-execution session."""

from repro.framework.pipeline import PipelineReport, StatisticsPipeline
from repro.framework.recovery import RunCheckpoint, degraded_cardinalities
from repro.framework.session import EtlSession, RunRecord

__all__ = [
    "degraded_cardinalities", "EtlSession", "PipelineReport",
    "RunCheckpoint", "RunRecord", "StatisticsPipeline",
]
