"""Vectorized §5.2 columnsort: the solo and multi-instance entry points.

The even ``p = k`` columnsort is fully oblivious: phases 2/4/6/8 follow
fixed broadcast schedules and phases 1/3/5/7/9 are free local sorts.
:func:`repro.mcb.cnet.columnsort_network` writes those nine rounds in
the comparator-network IR — including the paper's closed-form phase 2
(``paper_phase2``) and the §5.2 wrap-around optimization
(``wrap_skip``, whose parked elements get ``floor(m/2)`` extra slots
beyond the column, :func:`repro.mcb.vector.lower.lower_wrap_skip`) — so
a vector columnsort is one more network run through the shared
pipeline of :mod:`repro.sort.cnet_sort`: each transformation phase is a
compiled whole-matrix NumPy operation instead of ``m`` generator
dispatch rounds, with bit-identical outputs and identical
``RunStats.to_dict()`` accounting to the generator engines (verified by
``tests/test_vector_columnsort.py``).  Only the adaptive ``mcb_sort``
strategies (merge_sort, sample_partition, ...) remain generator-only —
their traffic depends on run-time data.

:func:`sort_even_pk_batch` adds the batch axis: ``B`` independent
instances (same ``(k, m)``, different data) of any backend run through
one compiled schedule as a single ``(k, m, B)`` pass, amortizing
compilation and all per-phase Python overhead across the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..mcb.cnet import build_network
from ..mcb.errors import ConfigurationError
from ..mcb.network import MCBNetwork
from ..mcb.trace import RunStats
from ..mcb.vector import VectorRun, build_batched_state, build_state
from .cnet_sort import (
    _cnet_pipeline,
    _solo_sort,
    _validated,
    compiled_cnet_phases,
)
from .even_pk import SortResult, _validated_columns


def prewarm_plan_cache(configs: Iterable[Sequence]) -> int:
    """Compile plans ahead of the first job; returns configs warmed.

    Each config is ``(backend, m, k, paper_phase2, wrap_skip)``: a
    comparator-network backend by name (``"columnsort"``,
    ``"batcher"``, ``"bitonic"``) and its columnsort variant flags —
    the shape :func:`repro.service.cli.parse_prewarm` emits.  Plans go
    through the shared :class:`~repro.mcb.vector.cache.PlanRegistry`,
    so the first job's lookup is a hit.

    Intended as a worker-pool initializer: spawn-context workers start
    with an empty module cache, so without pre-warming every worker
    pays the full schedule compile on its first job.
    """
    warmed = 0
    for backend, m, k, paper_phase2, wrap_skip in configs:
        network = build_network(
            backend, int(k),
            paper_phase2=bool(paper_phase2), wrap_skip=bool(wrap_skip),
        )
        compiled_cnet_phases(network, int(m))
        warmed += 1
    return warmed


def sort_even_pk_vector(
    net: MCBNetwork,
    columns: dict[int, list],
    *,
    paper_phase2: bool = False,
    wrap_skip: bool = False,
    phase: str = "columnsort",
) -> SortResult:
    """:func:`repro.sort.even_pk.sort_even_pk` on the vector engine.

    Costs accumulate in ``net.stats`` and obs events flow through the
    network's attached observers, exactly as a generator run would —
    the network object stays the single accounting surface either way.
    ``wrap_skip`` runs the compiled parking layout of
    :func:`~repro.mcb.vector.lower.lower_wrap_skip`, matching the
    generator's message savings broadcast for broadcast.
    """
    k = net.k
    m = _validated_columns(net.p, k, columns)
    network = build_network(
        "columnsort", k, paper_phase2=paper_phase2, wrap_skip=wrap_skip
    )
    state = build_state([list(columns[pid]) for pid in range(1, k + 1)])
    return _solo_sort(net, state, network, m, phase)


@dataclass
class BatchSortResult:
    """Outputs of a batched vector sort: one result + stats per lane."""

    results: list[SortResult]
    stats: list[RunStats]


def sort_even_pk_batch(
    k: int,
    batches: Sequence[dict[int, list]],
    *,
    paper_phase2: bool = False,
    wrap_skip: bool = False,
    phase: str = "columnsort",
    backend: str = "columnsort",
) -> BatchSortResult:
    """Sort ``B`` independent even ``p = k`` instances in one pass.

    Every batch lane must present the same ``(k, m)`` shape (different
    data/seeds are the point); the compiled schedule executes once over
    a ``(k, m, B)`` state.  Lane ``b``'s ``stats[b]`` is exactly the
    ``RunStats`` a solo run of lane ``b`` would produce: structural
    counters (cycles, messages, channel writes) are shared by
    construction, bits are accounted per lane.

    ``backend`` selects the network (:mod:`repro.mcb.cnet`):
    ``"columnsort"`` (default) runs the §5.2 pipeline under the bare
    ``phase`` name; ``"batcher"`` / ``"bitonic"`` run under
    ``phase/cnet-<backend>``, like :func:`repro.sort.cnet_sort.sort_cnet`.
    The other backends accept any even shape (no columnsort dimension
    rule) and refuse ``paper_phase2`` / ``wrap_skip``, which are
    columnsort variants.
    """
    if not batches:
        raise ConfigurationError("sort_even_pk_batch needs at least one lane")
    network = build_network(
        backend, k, paper_phase2=paper_phase2, wrap_skip=wrap_skip
    )
    m = _validated(k, k, batches[0], network)
    for lane in batches[1:]:
        if _validated(k, k, lane, network) != m:
            raise ValueError("all batch lanes must share the same (k, m)")
    state = build_batched_state(
        [[lane[pid] for pid in range(1, k + 1)] for lane in batches]
    )
    if backend != "columnsort":
        phase = f"{phase}/cnet-{backend}"
    run = VectorRun(k, k, phase=phase, batch=len(batches))
    state = _cnet_pipeline(run, state, network, m)
    lane_phases = run.finish()
    # One contiguous (B, k, m) conversion instead of B strided slices,
    # then C-level dict/tuple assembly per lane.
    all_rows = np.ascontiguousarray(state[:, :m].transpose(2, 0, 1)).tolist()
    pids = range(1, k + 1)
    results = [
        SortResult(output=dict(zip(pids, map(tuple, rows))))
        for rows in all_rows
    ]
    return BatchSortResult(
        results=results,
        stats=[RunStats(phases=[ph]) for ph in lane_phases],
    )
