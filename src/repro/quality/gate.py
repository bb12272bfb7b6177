"""The quality gate: the single screening point in front of every backend.

:meth:`~repro.framework.pipeline.StatisticsPipeline.run_once` hands the
night's source map (source faults already applied) to
:meth:`QualityGate.screen_sources` before it reads the catalog, and
executes only what comes back.  Screening once, ahead of the engine, is
what makes enforcement backend-consistent by construction: the blocks --
and therefore every tap, every materialized SE size and every
ground-truth count -- only ever see the surviving rows, on any backend.

The gate composes the two quality passes per contracted source, in order:

1. :func:`~repro.quality.drift.reconcile_schema` -- structural drift
   resolved by the per-source policy;
2. :func:`~repro.quality.contracts.validate_rows` -- row-level checks,
   with failing rows diverted to the :class:`~repro.quality.quarantine
   .QuarantineStore` dead letter.

Sources without a contract pass through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.table import Table
from repro.quality.contracts import ContractSet, validate_rows
from repro.quality.drift import DEFAULT_POLICY, reconcile_schema
from repro.quality.quarantine import QuarantineStore


@dataclass
class QualityGate:
    """Per-run screening state: contracts, policy, and the dead letter."""

    contracts: ContractSet
    policy: str = DEFAULT_POLICY
    quarantine: QuarantineStore = field(default_factory=QuarantineStore, init=False)

    def screen_sources(
        self,
        sources: dict[str, Table],
        tracer=None,
    ) -> dict[str, Table]:
        """Screen every contracted source; returns the surviving tables.

        Emits one ``quarantine`` trace point per screened source under
        the calling thread's current span (the pipeline's ``screen``
        span) so a traced run shows how many rows the gate diverted
        before the blocks ran.  Raises :class:`~repro.quality.drift
        .SchemaDriftError` when the policy refuses a structural mismatch.
        """
        out = dict(sources)
        for name in sorted(sources):
            contract = self.contracts.get(name)
            if contract is None:
                continue
            table, events = reconcile_schema(
                sources[name], contract, self.policy, source=name
            )
            clean, dead, violations = validate_rows(table, contract, source=name)
            self.quarantine.add(name, dead, violations, events)
            out[name] = clean
            if tracer is not None:
                tracer.point(
                    name,
                    kind="quarantine",
                    rows=clean.num_rows,
                    quarantined=dead.num_rows,
                    violations=len(violations),
                    schema_drift=len(events),
                )
        return out

    # -- results, in the shapes PipelineReport carries --------------------
    def quarantined_tables(self) -> dict[str, Table]:
        return self.quarantine.dead_letter_tables()

    def all_violations(self) -> list:
        return self.quarantine.all_violations()

    def drift_events(self) -> tuple:
        return tuple(self.quarantine.drift_events())


__all__ = ["QualityGate"]
