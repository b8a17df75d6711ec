"""Memory-efficient Columnsort via virtual columns (paper §6.1).

"We consider each group of processors as a single virtual processor with
a single virtual column, thus avoiding altogether the need for phases 0
and 10."  Each group of ``g = p/k`` processors holds one column of
length ``m = n/k`` (member ``w`` owns rows ``[w*n/p, (w+1)*n/p)`` in the
canonical layout); the group's channel carries all its traffic.

* Sorting phases (1, 3, 5, 7, 9) run a single-channel group sort —
  Rank-Sort by default, or the O(1)-memory Merge-Sort — as if each group
  were "a separate MCB(p/k, 1)".
* Transformation phases (2, 4, 6, 8) follow the usual ``m``-cycle
  schedule, but "all the work of a virtual processor during a given
  cycle is carried out by the processor containing the element to be
  broadcast in that cycle.  The element received during the cycle can be
  stored over the one just sent" — O(1) extra storage.  This scatters
  the column's contents across the group, which is harmless because the
  next sorting phase redistributes canonically.

Resolution of a paper-implicit point: phase 7 must *not* leave column 1
unsorted here (the scattering would make phase 8's positional schedule
meaningless), so column 1 is sorted **ascending** instead — the wrapped
elements (globally smallest) land exactly in the top ``m/2`` rows where
the down-shift expects them, and phase 9 restores descending order.
Verified against the sequential reference on randomized inputs (see
``tests/test_columnsort_reference.py``).

Total cost: ``O(n/k)`` cycles, ``O(n)`` messages, and per-processor
auxiliary memory ``O(n_i)`` with Rank-Sort or ``O(1)`` with Merge-Sort —
the memory/simplicity trade-off of §6.1 that ``benchmarks/bench_memory``
measures.
"""

from __future__ import annotations

from typing import Any, Literal, Sequence

from ..columnsort.matrix import require_valid_dims
from ..columnsort.schedule import schedule_for_phase
from ..mcb.message import Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp, ProcContext, Sleep
from .even_pk import SortResult
from .common import neg_elem
from .merge_sort import merge_sort_group
from .rank_sort import rank_sort_group

Sorter = Literal["rank", "merge"]


def virtual_transformation(
    phase_no: int,
    col_idx: int,
    member: int,
    npp: int,
    m: int,
    k: int,
    mine: list[Any],
    *,
    chan_base: int = 0,
):
    """Sub-generator: one transformation phase for group member ``member``
    of virtual column ``col_idx`` (0-based), canonical layout.

    ``mine`` holds my ``npp`` canonical rows (descending within the
    column's sorted order, or ascending for column 1 in phase 8 — the
    schedule only cares about row indices).  Returns my new (scattered)
    elements; the count is preserved.  ``chan_base`` offsets the channel
    block (used when this runs inside a sub-network of a recursive call).
    """
    steps = schedule_for_phase(phase_no, m, k).columns[col_idx]
    # I act in the cycles that move one of my rows [lo, hi).
    lo, hi = member * npp, (member + 1) * npp
    wchan = chan_base + col_idx + 1
    out = list(mine)
    t_now = 0
    for t, (keep_src, _, send_row, read_chan, _) in enumerate(steps):
        row = keep_src if keep_src >= 0 else send_row
        if not lo <= row < hi:
            continue
        if t > t_now:
            yield Sleep(t - t_now)
        if keep_src >= 0:
            # Self-transfer: the element stays in my slot this phase.
            yield Sleep(1)
        else:
            e = out[row - lo]
            got = yield CycleOp(
                wchan,
                Message("elem", *e) if isinstance(e, tuple)
                else Message("elem", e),
                chan_base + read_chan,
            )
            f = got.fields
            # stored over the one sent
            out[row - lo] = f[0] if len(f) == 1 else tuple(f)
        t_now = t + 1
    if m > t_now:
        yield Sleep(m - t_now)
    return out


def sort_virtual(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    sorter: Sorter = "rank",
    phase: str = "columnsort-virtual",
) -> SortResult:
    """Sort an even distribution on MCB(p, k) without collecting columns.

    Parameters
    ----------
    net:
        Network with ``k | p``.
    parts:
        pid -> local elements, all of equal size ``n/p``; the virtual
        column length ``m = n/k`` must satisfy ``m >= k(k-1)``, ``k | m``.
    sorter:
        ``"rank"`` (Rank-Sort, O(n_i) aux memory) or ``"merge"``
        (Merge-Sort, O(1) aux memory) for the virtual-column sorting
        phases.
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
    g = p // k
    m = g * npp  # virtual column length
    require_valid_dims(m, k)
    group_sort = rank_sort_group if sorter == "rank" else merge_sort_group
    counts = [npp] * g

    def program(ctx: ProcContext):
        pid = ctx.pid
        col = (pid - 1) // g  # 0-based virtual column / channel col+1
        w = (pid - 1) % g  # my index within the group
        mine = list(parts[pid])

        def sort_phase(elems, ascending=False):
            kwargs = {"ctx": ctx}
            if ascending:
                kwargs["ascending"] = True
            return group_sort(col + 1, w, counts, elems, **kwargs)

        mine = yield from sort_phase(mine)  # phase 1
        mine = yield from virtual_transformation(2, col, w, npp, m, k, mine)
        mine = yield from sort_phase(mine)  # phase 3
        mine = yield from virtual_transformation(4, col, w, npp, m, k, mine)
        mine = yield from sort_phase(mine)  # phase 5
        mine = yield from virtual_transformation(6, col, w, npp, m, k, mine)
        # phase 7: column 1 ascending (wrapped elements to the top rows)
        if sorter == "merge" and col == 0:
            # Merge-Sort has no ascending mode; a descending Merge-Sort
            # of the order-negated elements is the same thing (and keeps
            # the O(1) memory footprint and cycle alignment).
            negated = [neg_elem(e) for e in mine]
            negated = yield from merge_sort_group(
                col + 1, w, counts, negated, ctx=ctx
            )
            mine = [neg_elem(e) for e in negated]
        else:
            mine = yield from sort_phase(mine, ascending=(col == 0))
        mine = yield from virtual_transformation(8, col, w, npp, m, k, mine)
        mine = yield from sort_phase(mine)  # phase 9
        return mine

    out = net.run({i: program for i in range(1, p + 1)}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in out.items()})
