"""Columnsort on MCB(p, k), p > k, via collection (§5.2, phases 0 and 10).

"A simple approach is to augment the algorithm with a preprocessing phase
and a postprocessing phase...  In phase 0, all elements are collected into
k processors.  Phases 1-9 then proceed as before, except that only k of
the processors are active.  In phase 10, the sorted elements are
redistributed to all the processors."

* Phase 0 — the ``p`` processors are split into ``k`` equal groups of
  ``p/k``; each group's *representative* (its highest-numbered member)
  collects the group's elements over the group channel ``C_j``, one
  member after another (members await their turn by counting cycles).
  Columns are then padded with dummy elements to a common multiple of
  ``k``.
* Phases 1–9 — the basic §5.2 algorithm among the representatives.
* Phase 10 — representatives broadcast their sorted columns; because the
  padding can misalign processor segments with column boundaries, each
  element is broadcast **twice** (two full passes) so that a processor
  whose segment spans two columns can read one column per pass without
  missing a message.  Dummies are never broadcast.

Cost: ``O(n)`` messages and ``O(n/k)`` cycles — still optimal — at the
price of ``Theta(n/k)`` auxiliary memory in the representatives (tracked
via :meth:`ProcContext.aux_acquire`; the §6.1 virtual-column variant
removes it).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from ..mcb.message import EMPTY, Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp, Listen, ProcContext, Sleep
from .common import dummy_like, is_dummy, pack_elem, unpack_elem
from .even_pk import SortResult, columnsort_program



def padded_column_length(n: int, k: int) -> int:
    """Column length after phase-0 padding: ``n/k`` rounded up to a
    multiple of ``k`` (and at least ``k(k-1)``, which holds whenever
    ``n >= k^2(k-1)``)."""
    m0 = math.ceil(n / k)
    return math.ceil(m0 / k) * k


def sort_even_collect(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    phase: str = "columnsort-collect",
) -> SortResult:
    """Sort an even distribution on MCB(p, k) with ``k | p`` (§5.2).

    Requires ``n >= k^2(k-1)`` (use :func:`repro.sort.dispatch.mcb_sort`
    for automatic column-count fallback below that).
    """
    p, k = net.p, net.k
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if p % k != 0:
        raise ValueError(f"this variant assumes k | p, got p={p}, k={k}")
    lengths = {len(v) for v in parts.values()}
    if len(lengths) != 1:
        raise ValueError(f"distribution is not even: lengths {sorted(lengths)}")
    npp = lengths.pop()
    n = p * npp
    if n < k * k * (k - 1):
        raise ValueError(
            f"n={n} < k^2(k-1)={k * k * (k - 1)}: use fewer columns "
            "(see repro.sort.dispatch)"
        )
    g = p // k
    m_pad = padded_column_length(n, k)
    collect_cycles = (g - 1) * npp

    def program(ctx: ProcContext):
        pid = ctx.pid
        j = (pid - 1) // g + 1  # my group / channel / column (1-based)
        w = (pid - 1) % g  # my index within the group
        is_rep = w == g - 1
        mine = list(parts[pid])

        # ---- phase 0: collect the group's elements at the representative
        column: list[Any] | None = None
        if is_rep:
            column = []
            ctx.aux_acquire(m_pad)
            if collect_cycles:
                # The members write back to back, filling every cycle of
                # the window: park once instead of resuming per cycle.
                heard = yield Listen(j, collect_cycles)
                column.extend(unpack_elem(msg.fields) for _, msg in heard)
            column.extend(mine)
            column.extend(
                dummy_like(mine[0], seq=r) for r in range(m_pad - len(column))
            )
        else:
            if w * npp > 0:
                yield Sleep(w * npp)
            for e in mine:
                yield CycleOp(write=j, payload=Message("elem", *pack_elem(e)))
            if collect_cycles > (w + 1) * npp:
                yield Sleep(collect_cycles - (w + 1) * npp)

        # ---- phases 1-9: Columnsort among the representatives ----------
        if is_rep:
            column = yield from columnsort_program(j - 1, column, m_pad, k)
        else:
            yield Sleep(4 * m_pad)

        # ---- phase 10: redistribute (each element broadcast twice) -----
        # Global sorted position pos (0-based) lives at column pos // m_pad,
        # row pos % m_pad (dummies are smaller than everything, so real
        # elements occupy positions 0..n-1 exactly).
        seg_start = (pid - 1) * npp
        needs: dict[int, list[tuple[int, int]]] = {}  # col -> [(row, slot)]
        for slot in range(npp):
            pos = seg_start + slot
            needs.setdefault(pos // m_pad, []).append((pos % m_pad, slot))
        cols_needed = sorted(needs)
        assert len(cols_needed) <= 2, "a segment spans at most two columns"
        out: list[Any] = [None] * npp
        if is_rep:
            # A representative interleaves writing its column with its own
            # segment reads, so it cannot park; keep the per-cycle plan.
            plan: dict[int, tuple[int, int]] = {}  # cycle -> (channel, slot)
            for pass_idx, c in enumerate(cols_needed):
                for row, slot in needs[c]:
                    plan[pass_idx * m_pad + row] = (c + 1, slot)
            t = 0
            while t < 2 * m_pad:
                r = t % m_pad
                wchan = wpay = None
                if not is_dummy(column[r]):
                    wchan = j
                    wpay = Message("elem", *pack_elem(column[r]))
                rd = plan.get(t)
                if wchan is None and rd is None:
                    yield Sleep(1)  # may resume writing next cycle
                    t += 1
                    continue
                got = yield CycleOp(
                    write=wchan, payload=wpay, read=rd[0] if rd else None
                )
                if rd is not None:
                    assert got is not EMPTY
                    out[rd[1]] = unpack_elem(got.fields)
                t += 1
        else:
            # A pure listener: its segment's rows are consecutive within
            # each needed column (and never dummies), so each pass is one
            # contiguous fully-written window — park through it.
            t = 0
            for pass_idx, c in enumerate(cols_needed):
                rows = needs[c]  # ascending (row, slot)
                start = pass_idx * m_pad + rows[0][0]
                if start > t:
                    yield Sleep(start - t)
                heard = yield Listen(c + 1, len(rows))
                assert len(heard) == len(rows)
                for (_, msg), (_, slot) in zip(heard, rows):
                    out[slot] = unpack_elem(msg.fields)
                t = start + len(rows)
            if 2 * m_pad > t:
                yield Sleep(2 * m_pad - t)
        assert all(e is not None for e in out)
        if is_rep:
            ctx.aux_release(m_pad)
        return out

    results = net.run({i: program for i in range(1, p + 1)}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in results.items()})
