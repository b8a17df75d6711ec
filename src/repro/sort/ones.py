"""Fast path: sorting exactly one element per processor.

Every filtering phase of the §8 selection algorithm sorts the ``p``
pairs ``(med_i, m_i)`` — an *even, one-element-per-processor*
distribution whose cardinalities are globally known a priori.  The
general §7.2 sorter spends two Partial-Sums passes and a formation round
re-deriving exactly that knowledge; this specialization skips all of it:

* groups are fixed blocks of ``g = ceil(p / k')`` processors (``k'`` the
  §5.2-valid column count for ``p`` elements);
* collection is paced by position within the block (member ``w`` writes
  at cycle ``w``) — no prefix sums needed;
* phases 1–9 of Columnsort run among the block representatives with
  dummy padding;
* redistribution is a single broadcast pass: each processor's segment is
  exactly one element, so it can never straddle two columns and the
  §5.2 "broadcast twice" rule is unnecessary.

Cost: ``O(p/k')`` cycles, ``O(p)`` messages — the same family as the
general path minus its ``O(p/k + log k)`` control overhead, which is
what dominates at filtering-phase sizes.  ``mcb_select`` uses this path
by default (``pair_sorter="ones"``).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from ..columnsort.matrix import max_columns_for
from ..mcb.message import EMPTY, Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp, ProcContext, Sleep
from .common import dummy_like, is_dummy, pack_elem, unpack_elem
from .even_pk import SortResult, columnsort_program



def sort_ones(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    phase: str = "sort-ones",
) -> SortResult:
    """Sort a one-element-per-processor distribution (fixed schedule).

    ``parts[i]`` must hold exactly one element; the output gives each
    processor the element of rank ``pid`` (descending).  Elements must
    be distinct.
    """
    p, k = net.p, net.k
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if any(len(v) != 1 for v in parts.values()):
        raise ValueError("sort_ones requires exactly one element everywhere")

    if p == 1:
        return SortResult(output={1: tuple(parts[1])})

    k_used = max_columns_for(p, k)
    g = math.ceil(p / k_used)  # block size; last block may be smaller
    n_cols = math.ceil(p / g)
    m_pad = math.ceil(g / n_cols) * n_cols  # column length, n_cols | m_pad

    def program(ctx: ProcContext):
        pid = ctx.pid
        j = (pid - 1) // g  # my 0-based block / column
        w = (pid - 1) % g  # my index within the block
        chan = j + 1
        mine = parts[pid][0]
        block_lo = j * g + 1
        block_hi = min((j + 1) * g, p)
        block_size = block_hi - block_lo + 1
        is_rep = pid == block_hi

        # ---- collection: member w writes at cycle w; rep listens -------
        column: list[Any] | None = None
        if is_rep:
            column = []
            ctx.aux_acquire(m_pad)
            for _ in range(block_size - 1):
                got = yield CycleOp(read=chan)
                column.append(unpack_elem(got.fields))
            column.append(mine)
            column.extend(
                dummy_like(mine, seq=r) for r in range(m_pad - len(column))
            )
            if g > block_size:
                yield Sleep(g - block_size)
        else:
            if w > 0:
                yield Sleep(w)
            yield CycleOp(write=chan, payload=Message("elem", *pack_elem(mine)))
            if g - 2 > w:
                yield Sleep(g - 2 - w)
        # Alignment: the stage is exactly g - 1 cycles for everyone —
        # reps read block_size-1 and sleep g-block_size; member w sleeps
        # w, writes once, sleeps g-2-w.

        # ---- phases 1-9 among representatives --------------------------
        if is_rep:
            column = yield from columnsort_program(j, column, m_pad, n_cols)
        else:
            yield Sleep(4 * m_pad)

        # ---- redistribution: single pass, segments are single slots ----
        # Global rank r (0-based) lives at column r // m_pad, row r % m_pad;
        # processor pid wants rank pid-1.
        want_col = (pid - 1) // m_pad
        want_row = (pid - 1) % m_pad
        out = None
        t = 0
        while t < m_pad:
            wchan = wpay = rd = None
            if is_rep and not is_dummy(column[t]):
                wchan = chan
                wpay = Message("elem", *pack_elem(column[t]))
            if t == want_row:
                rd = want_col + 1
            if wchan is None and rd is None:
                # Reps advance one row at a time (the next row might be
                # real); members jump straight to their read cycle.
                nxt = t + 1 if is_rep else (want_row if t < want_row else m_pad)
                if nxt > t:
                    yield Sleep(nxt - t)
                t = nxt
                continue
            got = yield CycleOp(write=wchan, payload=wpay, read=rd)
            if rd is not None:
                assert got is not EMPTY
                out = unpack_elem(got.fields)
            t += 1
        if is_rep:
            ctx.aux_release(m_pad)
        assert out is not None
        return [out]

    results = net.run({i: program for i in range(1, p + 1)}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in results.items()})
