"""Batched execution of lowered block programs: the engine's one runtime.

One :class:`CompiledBlockRunner` executes one lowered block over column
*batches* -- a ``(columns dict, row count)`` pair of plain lists.  The
whole-column profile (columnar) runs a single batch per input; the
streaming profile slices inputs into bounded row chunks, so joins probe and
instrumentation accumulates incrementally -- the paper's per-tuple
handlers (Section 3.2.5), a few thousand tuples per call.

The observable contract (checked against the row-at-a-time oracle in
``tests/oracle.py``):

- every plan point of the block is recorded with its row count, and
  every tap sees exactly the rows that pass its point, in any number of
  batches (:class:`~repro.engine.instrumentation.TapSet` accumulates);
- a block's sizes, reject tables and tap accumulations publish together
  at block end (:class:`ObservationBuffer`), so a failed block's
  statistics read as *missing*, not zeros or partial counts, and a raw
  feed shared by several blocks is counted once per run;
- the streaming profile emits outputs and reject tables in canonical
  (sorted) column order.

The speed comes from never interpreting the plan per row: fused filter
runs compose selection vectors and materialize survivors once.  A join
builds ``last`` (key -> its last build row, one C-level ``dict(zip())``)
and ``earlier`` (duplicated key -> its other rows), so containers are
allocated per duplicated key, never per row; every batch probes with
``map(last.get, keys)`` and, when every probe hits a unique build row,
the left columns pass through untouched.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.algebra.blocks import Block
from repro.algebra.expressions import AnySE, RejectSE
from repro.engine.instrumentation import TapSet
from repro.engine.table import Table, TableError

from repro.engine.compile.ir import (
    BlockProgram,
    ChainIR,
    CompiledProfile,
    FusedStep,
    JoinIR,
    PlanIR,
)

_MISSING = object()

Batch = "tuple[dict[str, list], int]"


def _col(cols: dict, attr: str):
    try:
        return cols[attr]
    except KeyError:
        raise TableError(
            f"no column {attr!r}; available: {tuple(cols)}"
        ) from None


def _concat(parts: "list[Batch]") -> "Batch":
    """Concatenate batches; a single batch passes through untouched."""
    if len(parts) == 1:
        return parts[0]
    first = parts[0][0]
    out: dict[str, list] = {a: [] for a in first}
    n = 0
    for cols, cn in parts:
        n += cn
        for a, acc in out.items():
            acc.extend(cols[a])
    return out, n


def _take(cols: dict, index: list) -> dict:
    """Every column gathered through one index list."""
    return {a: [col[i] for i in index] for a, col in cols.items()}


def _gather_pair(
    lcols: dict, rcols: dict, li: Optional[list], ri: list
) -> dict:
    """Join output: left columns through ``li`` (``None``: every row,
    untouched), right extras through ``ri``."""
    out = dict(lcols) if li is None else _take(lcols, li)
    for a, col in rcols.items():
        if a not in out:
            out[a] = [col[i] for i in ri]
    return out


def _keys_of(cols: dict, key: tuple) -> list:
    """Join-key probe values: raw values for single keys, tuples else."""
    if len(key) == 1:
        return _col(cols, key[0])
    return list(zip(*(_col(cols, a) for a in key)))


def _build_side(cols: dict, key: tuple) -> tuple[dict, dict]:
    """Hash-build one side as ``(last, earlier)``.

    ``last`` maps every distinct key to its last row; ``earlier`` maps
    each *duplicated* key to its other rows, ascending.  A unique side
    is one C-level ``dict(zip(...))`` and an empty ``earlier``.  Values
    are row indexes, never ``None``, so ``last.get`` is the miss test.
    """
    keys = _keys_of(cols, key)
    n = len(keys)
    last = dict(zip(keys, range(n)))
    earlier: dict = {}
    if len(last) != n:
        for i, row in enumerate(map(last.__getitem__, keys)):
            if row != i:
                earlier.setdefault(keys[i], []).append(i)
    return last, earlier


def _reject_table(cols: dict, attr_order: Optional[tuple]) -> Table:
    if attr_order is not None:
        cols = {a: _col(cols, a) for a in attr_order}
    return Table.wrap(cols)


class ObservationBuffer:
    """One block attempt's observations, published to the run on success.

    Sizes, reject tables and tap accumulations collect here -- in a tap
    set private to the attempt -- and reach the run only through
    :meth:`flush`, so a block that dies mid-stream contributes nothing
    and a retried block counts once.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.taps = TapSet(ctx.taps.requested)
        self.counts: dict[AnySE, int] = {}
        self.rejects: dict[RejectSE, Table] = {}
        #: extra operator-point attributes, filled only on traced runs
        self.point_attrs: dict[AnySE, dict] = {}
        self._attr_cache: dict[AnySE, tuple] = {}

    def value_attrs(self, se: AnySE) -> tuple:
        got = self._attr_cache.get(se, _MISSING)
        if got is _MISSING:
            got = self.taps.value_attrs(se) if self.taps.wants(se) else ()
            self._attr_cache[se] = got
        return got

    # ------------------------------------------------------------------
    def record(self, se: AnySE, n: int, columns: Optional[dict]) -> None:
        self.counts[se] = self.counts.get(se, 0) + n
        if self.taps.wants(se):
            self.taps.observe_columns(se, n, columns)

    def add(self, se: AnySE, n: int, cols: dict) -> None:
        attrs = self.value_attrs(se)
        columns = (
            {a: cols[a] for a in attrs if a in cols} if attrs else None
        )
        self.record(se, n, columns)

    def add_selected(self, se: AnySE, n: int, base: dict, sel) -> None:
        """Observe a mid-filter-run point without materializing it: value
        columns (if any are tapped) gather through the selection vector."""
        attrs = self.value_attrs(se)
        columns = None
        if attrs:
            if sel is None:
                columns = {a: base[a] for a in attrs if a in base}
            else:
                columns = {
                    a: [base[a][i] for i in sel] for a in attrs if a in base
                }
        self.record(se, n, columns)

    def add_reject(self, rej: RejectSE, table: Table) -> None:
        self.rejects[rej] = table
        if self.taps.wants(rej):
            self.taps.observe_columns(rej, table.num_rows, table.columns)

    def flush(self, block_name: str) -> None:
        """Publish at block end: only now do the points count as streamed."""
        for se in self.counts:
            self.taps.mark_streamed(se)
        for rej in self.rejects:
            self.taps.mark_streamed(rej)
        self.ctx.publish(
            block_name, self.taps, self.counts, self.rejects, self.point_attrs
        )


class CompiledBlockRunner:
    """Executes one compiled block program inside a run context."""

    def __init__(
        self,
        program: BlockProgram,
        block: Block,
        profile: CompiledProfile,
    ):
        self.program = program
        self.block = block
        self.profile = profile

    # ------------------------------------------------------------------
    def execute(self, ctx) -> Table:
        program = self.program
        obs = ObservationBuffer(ctx)
        wanted = ctx.taps.reject_requests() | set(
            self.block.materialized_rejects
        )
        parts: list = []
        for cols, n in self._exec(program.root, ctx, obs, wanted):
            cols, n = self._segment(cols, n, program.post, obs)
            parts.append((cols, n))
        out_cols, _ = _concat(parts)
        if self.profile.canonical_output:
            if self.block.post_steps:
                order = tuple(self.block.post_steps[-1].out_attrs)
            else:
                order = tuple(self.block.se_attrs(program.root_se))
            out_cols = {a: _col(out_cols, a) for a in order}
        table = Table.wrap(dict(out_cols))
        obs.flush(program.block_name)
        return table

    # ------------------------------------------------------------------
    def _exec(
        self, node: PlanIR, ctx, obs: ObservationBuffer, wanted: set
    ) -> Iterator["Batch"]:
        if isinstance(node, ChainIR):
            return self._chain(node, ctx, obs)
        return self._join(node, ctx, obs, wanted)

    def _chain(
        self, chain: ChainIR, ctx, obs: ObservationBuffer
    ) -> Iterator["Batch"]:
        table = ctx.run.env[chain.base_name]
        cols = table.columns
        n = table.num_rows
        chunk = self.profile.chunk_rows
        if chunk is None or n <= chunk:
            spans = ((0, n),)
        else:
            spans = tuple(
                (lo, min(lo + chunk, n)) for lo in range(0, n, chunk)
            )
        for lo, hi in spans:
            if lo == 0 and hi == n:
                batch = dict(cols)
            else:
                batch = {a: col[lo:hi] for a, col in cols.items()}
            obs.add(chain.raw_se, hi - lo, batch)
            yield self._segment(batch, hi - lo, chain.steps, obs)

    # ------------------------------------------------------------------
    def _segment(
        self,
        cols: dict,
        n: int,
        steps: tuple[FusedStep, ...],
        obs: ObservationBuffer,
    ) -> "Batch":
        """Run one fused segment over a batch.

        Consecutive filters form a *run*: selection vectors compose and
        only the predicate columns are touched until the run ends, at
        which point every surviving column materializes in one gather.
        """
        i = 0
        total = len(steps)
        while i < total:
            step = steps[i]
            if step.kind == "filter":
                base = cols
                sel = None
                while i < total and steps[i].kind == "filter":
                    st = steps[i]
                    fn = st.fn
                    col = _col(base, st.attrs[0])
                    if sel is None:
                        keep = [j for j, v in enumerate(col) if fn(v)]
                    else:  # absolute indexes of the nested selection
                        keep = [j for j in sel if fn(col[j])]
                    if len(keep) != n:
                        sel = keep
                        n = len(keep)
                    if st.se is not None:
                        obs.add_selected(st.se, n, base, sel)
                    i += 1
                cols = base if sel is None else _take(base, sel)
                continue
            if step.kind == "transform":
                fn = step.fn
                if len(step.attrs) == 1:
                    values = [fn(v) for v in _col(cols, step.attrs[0])]
                else:
                    srcs = [_col(cols, a) for a in step.attrs]
                    values = [fn(vals) for vals in zip(*srcs)]
                cols = dict(cols)
                cols[step.out_attr] = values
            else:  # project
                cols = {a: _col(cols, a) for a in step.attrs}
            if step.se is not None:
                obs.add(step.se, n, cols)
            i += 1
        return cols, n

    # ------------------------------------------------------------------
    def _join(
        self, jir: JoinIR, ctx, obs: ObservationBuffer, wanted: set
    ) -> Iterator["Batch"]:
        rcols, rn = _concat(list(self._exec(jir.right, ctx, obs, wanted)))
        last, earlier = _build_side(rcols, jir.key)
        if ctx.tracer is not None:
            obs.point_attrs[jir.se] = {
                "build_rows": rn,
                "build_distinct": len(last),
                "build_duplicated": len(earlier),
            }

        want_l = jir.rej_left in wanted
        want_r = jir.rej_right in wanted
        matched_right: set[int] = set()
        rej_left_parts: list = []
        left_attrs: Optional[tuple] = None

        for lcols, ln in self._exec(jir.left, ctx, obs, wanted):
            if left_attrs is None:
                left_attrs = tuple(lcols)
            probe = _keys_of(lcols, jir.key)
            ris = list(map(last.get, probe))
            li = None  # every left row once, in order: no left gather
            if None in ris:
                li = [i for i, r in enumerate(ris) if r is not None]
                if want_l:
                    rejl = [i for i, r in enumerate(ris) if r is None]
                    rej_left_parts.append((_take(lcols, rejl), len(rejl)))
                ris = [r for r in ris if r is not None]
            if earlier:
                # a hit on a duplicated key emits its earlier rows first
                hits = zip(range(ln) if li is None else li, ris)
                li, ris = [], []
                for i, r in hits:
                    bucket = earlier.get(probe[i], ())
                    li.extend([i] * (len(bucket) + 1))
                    ris.extend(bucket)
                    ris.append(r)
            if want_r:
                matched_right.update(ris)
            out = _gather_pair(lcols, rcols, li, ris)
            out, on = self._segment(out, len(ris), jir.floating, obs)
            obs.add(jir.se, on, out)
            yield out, on

        canonical = self.profile.canonical_output
        if want_l:
            if rej_left_parts:
                cols, _ = _concat(rej_left_parts)
            else:
                cols = {a: [] for a in (left_attrs or ())}
            order = (
                tuple(self.block.se_attrs(jir.rej_left.source))
                if canonical
                else None
            )
            obs.add_reject(jir.rej_left, _reject_table(cols, order))
        if want_r:
            unmatched = [i for i in range(rn) if i not in matched_right]
            cols = _take(rcols, unmatched)
            order = (
                tuple(self.block.se_attrs(jir.rej_right.source))
                if canonical
                else None
            )
            obs.add_reject(jir.rej_right, _reject_table(cols, order))


__all__ = [
    "CompiledBlockRunner",
    "ObservationBuffer",
]
