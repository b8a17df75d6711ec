"""Generic personalized all-to-all routing on an MCB network.

Several of the paper's constructions boil down to "every processor has a
known number of elements for every other processor; deliver them all,
collision-free, using the k channels well".  Phase 0/10 of §5.2 and the
§7.2 collection are special cases with one receiver per channel.  This
module provides the general tool:

* :func:`alltoall_schedule` — given the globally-known ``p x p`` count
  matrix, build a deterministic schedule: a list of cycles, each cycle a
  set of at most ``k`` disjoint (src, dst) transfers (every processor
  writes at most once and reads at most once per cycle).  The schedule
  is built by greedy bipartite edge colouring (classes of matchings,
  at most ``2*Delta - 1`` of them) followed by packing each matching
  onto the ``k`` channels — ``O(E/k + Delta)`` cycles for ``E`` total
  elements and maximum degree ``Delta``, which is optimal up to a
  constant.

* :func:`alltoall` — a composable sub-generator: every processor runs it
  with its outgoing queues; it returns the received elements tagged with
  their source.  All processors must agree on the count matrix (use
  :func:`exchange_counts` first when counts are only locally known).

The schedule depends only on the count matrix, so every processor
computes it locally — no coordination traffic beyond the counts
themselves.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from .message import EMPTY, Message
from .program import CycleOp, ProcContext, Sleep



def greedy_edge_coloring(
    edges: Sequence[tuple[int, int]], p: int
) -> list[list[tuple[int, int]]]:
    """Partition bipartite multigraph edges into matchings (colour classes).

    ``edges`` are (src, dst) pairs over vertex sets ``0..p-1`` on both
    sides.  Greedy first-fit colouring uses at most ``2*Delta - 1``
    classes; within a class no src or dst repeats.
    """
    # free[side][vertex] = first colour not yet used at that vertex
    src_used: list[set[int]] = [set() for _ in range(p)]
    dst_used: list[set[int]] = [set() for _ in range(p)]
    classes: list[list[tuple[int, int]]] = []
    for s, d in edges:
        c = 0
        while c in src_used[s] or c in dst_used[d]:
            c += 1
        while len(classes) <= c:
            classes.append([])
        classes[c].append((s, d))
        src_used[s].add(c)
        dst_used[d].add(c)
    return classes


def alltoall_schedule(
    counts: np.ndarray, k: int
) -> list[list[tuple[int, int, int]]]:
    """Build the cycle-by-cycle transfer plan.

    Parameters
    ----------
    counts:
        ``counts[s, d]`` = number of elements processor ``s+1`` sends to
        processor ``d+1`` (self-transfers are excluded automatically —
        local data never needs the channel).
    k:
        Channel count.

    Returns
    -------
    list
        ``plan[cycle]`` is a list of ``(src0, dst0, channel0)`` triples
        (0-based) with distinct sources, destinations and channels.
    """
    p = counts.shape[0]
    edges: list[tuple[int, int]] = []
    for s in range(p):
        for d in range(p):
            if s != d:
                edges.extend([(s, d)] * int(counts[s, d]))
    classes = greedy_edge_coloring(edges, p)
    plan: list[list[tuple[int, int, int]]] = []
    for matching in classes:
        # pack the matching onto the k channels, k transfers per cycle
        for at in range(0, len(matching), k):
            chunk = matching[at: at + k]
            plan.append([(s, d, i) for i, (s, d) in enumerate(chunk)])
    return plan


def exchange_counts(ctx: ProcContext, my_counts: Sequence[int]):
    """Sub-generator: make every processor's count row globally known.

    Every processor must *absorb* all ``p`` rows and can read only one
    message per cycle, so an all-learn-all exchange costs
    ``Omega(p^2 / fields_per_message)`` cycles no matter how many
    channels exist.  We therefore simply serialize on channel 1:
    processor ``i`` broadcasts its row as ``ceil(p/6)`` six-field
    messages in its turn.  Returns the full ``p x p`` matrix (0-based).
    """
    p = ctx.p
    me = ctx.pid - 1
    chunk = 6
    chunks_per_proc = (p + chunk - 1) // chunk
    counts = np.zeros((p, p), dtype=np.int64)
    counts[me] = list(my_counts)
    for i in range(p):
        for c in range(chunks_per_proc):
            lo = c * chunk
            if me == i:
                fields = tuple(int(x) for x in counts[me, lo: lo + chunk])
                yield CycleOp(write=1, payload=Message("cnt", *fields))
            else:
                got = yield CycleOp(read=1)
                assert got is not EMPTY
                for off, val in enumerate(got.fields):
                    counts[i, lo + off] = val
    return counts


def alltoall(
    ctx: ProcContext,
    outgoing: dict[int, list[Any]],
    counts: np.ndarray,
    *,
    pack=lambda e: (e,),
    unpack=lambda fields: fields[0],
):
    """Sub-generator: deliver personalized element queues.

    Parameters
    ----------
    ctx:
        My processor context.
    outgoing:
        1-based destination pid -> list of elements (self-entries are
        returned locally without touching a channel).
    counts:
        The globally agreed ``p x p`` count matrix (0-based); my row must
        match ``outgoing``.
    pack/unpack:
        Element <-> message-field converters.

    Returns
    -------
    list
        ``(src_pid, element)`` pairs received (plus my self-deliveries),
        in schedule order.
    """
    me = ctx.pid - 1
    for d0 in range(ctx.p):
        want = int(counts[me, d0])
        have = len(outgoing.get(d0 + 1, []))
        if (d0 != me and want != have) or (d0 == me and have not in (0, want)):
            raise ValueError(
                f"P{ctx.pid}: outgoing to P{d0 + 1} has {have} elements, "
                f"count matrix says {want}"
            )
    plan = alltoall_schedule(counts, ctx.k)
    queues = {d: list(v) for d, v in outgoing.items()}
    received: list[tuple[int, Any]] = [
        (ctx.pid, e) for e in queues.pop(ctx.pid, [])
    ]
    t_now = 0
    for t, cycle in enumerate(plan):
        wchan = payload = rchan = None
        src_of_read: Optional[int] = None
        for s, d, ch in cycle:
            if s == me:
                wchan = ch + 1
                payload = Message("a2a", *pack(queues[d + 1].pop(0)))
            if d == me:
                rchan = ch + 1
                src_of_read = s + 1
        if wchan is None and rchan is None:
            continue
        if t > t_now:
            yield Sleep(t - t_now)
        got = yield CycleOp(write=wchan, payload=payload, read=rchan)
        if rchan is not None:
            assert got is not EMPTY, "scheduled sender must transmit"
            received.append((src_of_read, unpack(got.fields)))
        t_now = t + 1
    if len(plan) > t_now:
        yield Sleep(len(plan) - t_now)
    assert all(not q for q in queues.values())
    return received
