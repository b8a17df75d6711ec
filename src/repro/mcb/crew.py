"""A minimal CREW PRAM and Columnsort on p shared cells (paper §9).

§9: "The Columnsort algorithm for even distributions can be used in the
CREW model, resulting in the same time complexity as the sorting
algorithm in [Shil81], and reducing the auxiliary shared memory
requirements to p memory cells."

The paper's §2 comparison: CREW differs from MCB in that communication
goes through *shared memory* (cells persist until overwritten) rather
than memoryless channels, and the shared memory may be arbitrarily
large.  The §9 claim is that Columnsort needs only ``p`` cells of it:
each processor owns one cell as its "output port", every transformation
phase writes one element per processor per step — exactly the MCB(p, p)
broadcast schedule with cells in place of channels.

:class:`CREWMemory` is that model on the reference interpreter
(:class:`~repro.mcb.reference.ReferenceMCBNetwork`, which defines the
semantics of every channel model) with ``persistent=True`` and one
channel per cell: synchronous steps, each processor may write one cell
and read one cell per step; concurrent reads allowed, two writers on
one cell in one step violate exclusive write and abort.  Cells persist
across the steps of a phase — the one semantic difference from MCB
channels, checked by tests.

:func:`crew_columnsort` runs the §5.2 even-distribution Columnsort on a
CREW memory of exactly ``p`` cells.  Because our broadcast schedules
always read a channel in the same cycle it is written, the MCB programs
are *already* correct under persistent-cell semantics; the adapter
reuses them verbatim, which is itself the substance of the §9 remark.
:attr:`CREWMemory.cells_used` reports the distinct cells written, so
the "p cells suffice" claim is measured, not assumed.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .program import ProcContext
from .reference import ReferenceMCBNetwork


class CREWMemory(ReferenceMCBNetwork):
    """A CREW PRAM with ``cells`` shared memory cells.

    Programs are the same generators as for :class:`MCBNetwork` —
    ``CycleOp(write=cell, payload=..., read=cell)`` — but reads return
    the *last value written* to the cell during the phase (or ``EMPTY``
    if never written): shared memory persists.

    :class:`Listen` desugars into those per-step reads, so a bounded
    listen on a cell that already holds a value buffers that value on
    *every* step of the window, and ``until_nonempty`` completes on the
    first step in which the cell has ever been written.

    Events report ``k = cells`` and ``channel`` means *cell*.
    ``readers`` of a ``message`` event are the processors reading the
    cell in the step it was written — later reads of the persisted value
    are not broadcasts.
    """

    persistent = True

    def __init__(self, p: int, cells: int, *, record_trace: bool = False):
        super().__init__(p, cells, record_trace=record_trace)

    def _validate_shape(self, p: int, cells: int) -> None:
        # Unlike channels, cells may outnumber the processors.
        if p < 1 or cells < 1:
            raise ConfigurationError(f"invalid CREW shape p={p}, cells={cells}")

    @property
    def cells(self) -> int:
        """Number of shared memory cells (the interpreter's ``k``)."""
        return self.k

    @property
    def cells_used(self) -> set[int]:
        """Distinct cells written since the last :meth:`reset_stats`."""
        return {c for ph in self.stats.phases for c in ph.channel_writes}


def crew_columnsort(
    memory: CREWMemory,
    columns: dict[int, list],
    *,
    phase: str = "crew-columnsort",
):
    """§9: even-distribution Columnsort on a CREW PRAM with p cells.

    ``columns`` as in :func:`repro.sort.even_pk.sort_even_pk`; the MCB
    programs run unchanged, cell ``i`` standing in for channel ``C_i``.
    Returns the same ``SortResult``; ``memory.cells_used`` afterwards
    witnesses that at most ``p`` shared cells were touched.
    """
    from ..columnsort.matrix import require_valid_dims
    from ..sort.even_pk import SortResult, columnsort_program

    p = memory.p
    if memory.cells < p:
        raise ConfigurationError(
            f"the §9 construction uses one cell per processor: need "
            f">= {p} cells, have {memory.cells}"
        )
    if sorted(columns) != list(range(1, p + 1)):
        raise ValueError("columns must be given for every processor 1..p")
    lengths = {len(c) for c in columns.values()}
    if len(lengths) != 1:
        raise ValueError("distribution is not even")
    m = lengths.pop()
    require_valid_dims(m, p)

    def program(ctx: ProcContext):
        out = yield from columnsort_program(
            ctx.pid - 1, list(columns[ctx.pid]), m, p
        )
        return out

    res = memory.run({i: program for i in range(1, p + 1)}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in res.items()})
