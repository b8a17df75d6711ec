"""Sorting uneven distributions (paper Section 7.2).

The even-case algorithm relies on every processor holding the same number
of elements; here the input sizes ``n_i`` are arbitrary (and only locally
known).  The paper's plan, implemented stage by stage:

1. **Partial sums** (two applications of §7.1): every processor learns
   ``n`` and ``n_max`` (tree total-sums with ``+`` and ``max``) and its
   own partial sums ``n^+_{i-1}, n^+_i, n^+_{i+1}``.
2. **Group formation**: groups are formed one at a time; group ``j``
   absorbs processors while the (revised) partial sum stays below
   ``n/k + n_max - 1``, so every group holds ``m_j`` elements with
   ``n/k <= m_j < n/k + n_max`` (the trailing group may be smaller).
   The group's highest-numbered processor self-identifies as the
   *representative* — it sees the threshold fall between its own partial
   sum and its successor's — and announces ``(id, m_j)`` to the network;
   at most ``k`` announcement rounds.
3. **Element collection**: within each group (in parallel, one channel
   per group) members send their elements to the representative, each
   awaiting its turn by counting cycles — the wait is its revised partial
   sum, exactly as in the paper.  Columns are then padded with dummies to
   the common length ``M`` (max group size rounded up to a multiple of
   the column count).
4. **Phases 1–9** of Columnsort among the representatives.
5. **Phase 10**: representatives broadcast their columns twice (dummies
   silent) and every processor collects its own target segment, which
   spans at most two columns since ``n_i <= n_max <= M``.

Total: ``O(n/k + n_max)`` cycles and ``O(n + p)`` messages — by
Corollary 6 this is ``Theta(max{n/k, n_max})`` cycles and ``Theta(n)``
messages whenever ``n_max <= alpha * n`` for a constant ``alpha < 1``.

When ``n < k^2(k-1)`` the column count is capped at the largest valid
``k'`` (§5.2's fallback), so the implementation works for any input.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from ..columnsort.matrix import max_columns_for
from ..mcb.message import EMPTY, Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp, ProcContext, Sleep
from ..prefix.mcb_partial_sums import mcb_partial_sums, mcb_total_sum
from .common import dummy_like, is_dummy, pack_elem, unpack_elem
from .even_pk import SortResult, columnsort_program



def sort_uneven(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    phase: str = "columnsort-uneven",
) -> SortResult:
    """Sort an arbitrary (uneven) distribution on MCB(p, k)."""
    p, k = net.p, net.k
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if any(len(v) == 0 for v in parts.values()):
        raise ValueError("the paper assumes n_i > 0 for every processor")

    counts = {i: len(parts[i]) for i in parts}

    # --- stage 1: partial sums (network stages, honestly costed) --------
    sums = mcb_partial_sums(
        net, counts, include_next=True, phase=f"{phase}/partial-sums"
    )
    n = mcb_total_sum(net, counts, phase=f"{phase}/total-n")[1]
    n_max = mcb_total_sum(
        net, counts, op=max, identity=0, phase=f"{phase}/total-nmax"
    )[1]

    k_used_cap = max_columns_for(n, k)
    threshold_width = math.ceil(n / k_used_cap) + n_max - 1

    # --- stage 2: group formation ---------------------------------------
    # Every processor runs the same announcement protocol; the groups
    # list ends up identical everywhere (it is broadcast knowledge).
    def formation_program(ctx: ProcContext):
        pid = ctx.pid
        my_prev = sums[pid].prev
        my_incl = sums[pid].incl
        my_next = sums[pid].next
        groups: list[tuple[int, int]] = []  # (rep pid, m_j)
        base = 0
        while base < n:
            t_r = base + threshold_width
            i_am_rep = (
                my_incl > base  # not grouped yet
                and my_incl <= t_r
                and (pid == p or my_next > t_r)
            )
            if i_am_rep:
                yield CycleOp(
                    write=1,
                    payload=Message("group", pid, my_incl - base),
                    read=1,
                )
                groups.append((pid, my_incl - base))
                base = my_incl
            else:
                got = yield CycleOp(read=1)
                assert got is not EMPTY, "a representative must announce"
                groups.append((got[0], got[1]))
                base += got[1]
        return groups

    groups_all = net.run(
        {i: formation_program for i in range(1, p + 1)},
        phase=f"{phase}/group-formation",
    )
    groups = groups_all[1]
    assert all(g == groups for g in groups_all.values())
    k_used = len(groups)
    assert k_used <= k_used_cap
    m_pad = max(m_j for _, m_j in groups)
    m_pad = math.ceil(m_pad / k_used) * k_used

    rep_pids = [rep for rep, _ in groups]
    group_m = [m_j for _, m_j in groups]
    group_base = [0]
    for m_j in group_m:
        group_base.append(group_base[-1] + m_j)

    # --- stages 3-5 as one aligned program ------------------------------
    def main_program(ctx: ProcContext):
        pid = ctx.pid
        my_prev = sums[pid].prev
        my_incl = sums[pid].incl
        # my group: the first group whose representative pid >= mine
        j = next(idx for idx, rep in enumerate(rep_pids) if rep >= pid)
        chan = j + 1
        is_rep = pid == rep_pids[j]
        mine = list(parts[pid])

        # ---- element collection (stage length M for every processor) ---
        column: list[Any] | None = None
        if is_rep:
            to_read = group_m[j] - len(mine)
            column = []
            ctx.aux_acquire(m_pad)
            for _ in range(to_read):
                got = yield CycleOp(read=chan)
                column.append(unpack_elem(got.fields))
            column.extend(mine)
            column.extend(
                dummy_like(mine[0], seq=r) for r in range(m_pad - len(column))
            )
            if m_pad > to_read:
                yield Sleep(m_pad - to_read)
        else:
            my_start = my_prev - group_base[j]  # revised partial sum wait
            if my_start > 0:
                yield Sleep(my_start)
            for e in mine:
                yield CycleOp(write=chan, payload=Message("elem", *pack_elem(e)))
            if m_pad > my_start + len(mine):
                yield Sleep(m_pad - my_start - len(mine))

        # ---- phases 1-9 among representatives --------------------------
        if is_rep:
            column = yield from columnsort_program(j, column, m_pad, k_used)
        else:
            yield Sleep(4 * m_pad)

        # ---- phase 10: double broadcast, everyone collects its segment -
        seg_start, seg_end = my_prev, my_incl
        needs: dict[int, list[tuple[int, int]]] = {}
        for slot, pos in enumerate(range(seg_start, seg_end)):
            needs.setdefault(pos // m_pad, []).append((pos % m_pad, slot))
        cols_needed = sorted(needs)
        assert len(cols_needed) <= 2, "a segment spans at most two columns"
        plan: dict[int, tuple[int, int]] = {}
        for pass_idx, c in enumerate(cols_needed):
            for row, slot in needs[c]:
                plan[pass_idx * m_pad + row] = (c + 1, slot)
        out: list[Any] = [None] * (seg_end - seg_start)
        t = 0
        while t < 2 * m_pad:
            r = t % m_pad
            wchan = wpay = None
            if is_rep and not is_dummy(column[r]):
                wchan = chan
                wpay = Message("elem", *pack_elem(column[r]))
            rd = plan.get(t)
            if wchan is None and rd is None:
                nxt = min((u for u in plan if u > t), default=2 * m_pad)
                if is_rep:
                    nxt = t + 1
                if nxt > t:
                    yield Sleep(nxt - t)
                t = nxt
                continue
            got = yield CycleOp(
                write=wchan, payload=wpay, read=rd[0] if rd else None
            )
            if rd is not None:
                assert got is not EMPTY
                out[rd[1]] = unpack_elem(got.fields)
            t += 1
        if is_rep:
            ctx.aux_release(m_pad)
        assert all(e is not None for e in out)
        return out

    results = net.run(
        {i: main_program for i in range(1, p + 1)}, phase=f"{phase}/sort"
    )
    return SortResult(output={pid: tuple(v) for pid, v in results.items()})
