"""Comparator-network sorting on MCB(k, k): vector + generator drivers.

:func:`sort_cnet` runs any :class:`~repro.mcb.cnet.ComparatorNetwork`
on an even ``p = k`` distribution.  Each communication round executes
its lowered :class:`~repro.mcb.vector.plan.SchedulePlan`; the local
work between rounds — the merge-split combine of a compare round, the
free sorts — is data-dependent but costs nothing in the MCB model, so
it runs as whole-matrix NumPy on the vector engine and as plain Python
inside per-processor programs on the generator engine.

:func:`_cnet_pipeline` is the one vector sort pipeline: §5.2 columnsort
(with its paper-phase-2 and wrap-skip variants) is a network like
Batcher or bitonic, so :func:`repro.sort.vector.sort_even_pk_vector`,
:func:`repro.sort.vector.sort_even_pk_batch` and
:func:`sort_cnet_vector` all run through it, on solo ``(k, slots)``
and batched ``(k, slots, B)`` states alike.

The generator driver is the vector driver's parity oracle: every round
plan is rendered through ``SchedulePlan.as_programs`` (the same literal
event stream the executor gathers), and the combine applies the same
merge rule to the same values, so outputs *and* ``RunStats.to_dict()``
accounting agree bit-for-bit (``tests/test_cnet_backends.py``).

Compiled round plans live in the shared
:class:`~repro.mcb.vector.cache.PlanRegistry` under a stem keyed on the
network's rounds, variant included (``cnet_<key>_m<m>_k<k>``, see
:attr:`~repro.mcb.cnet.ComparatorNetwork.key`), with memory/disk caching,
prewarming, and ``vector_plan_cache_total`` accounting labelled
``backend=<name>`` — ``columnsort`` for every columnsort variant.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..mcb.cnet import (
    CompareRound,
    ComparatorNetwork,
    PermuteRound,
    build_network,
    cnet_to_schedule,
)
from ..mcb.errors import ConfigurationError
from ..mcb.network import MCBNetwork
from ..mcb.vector import CompiledPhase, VectorRun, build_state
from ..mcb.vector.cache import cnet_plan_stem, plan_registry
from .even_pk import SortResult, _validated_columns


def compiled_cnet_phases(
    network: ComparatorNetwork, m: int
) -> tuple[CompiledPhase, ...]:
    """Compiled plans for ``network``'s communication rounds at ``m``.

    One entry per compare/permute round, in round order, cached per
    ``(network.key, m, width)`` in the process-wide
    :class:`~repro.mcb.vector.cache.PlanRegistry` and its on-disk store
    (``~/.cache/repro/plans`` or ``$REPRO_PLAN_CACHE``), so a fresh
    process loads compiled plans in milliseconds instead of
    recompiling.  Each lookup counts on ``vector_plan_cache_total``
    (``result=hit|disk_hit|miss``, ``backend=network.name``) and each
    true miss adds its wall time to ``vector_plan_compile_seconds``.
    """
    k = network.width

    def build() -> tuple[CompiledPhase, ...]:
        return tuple(
            plan.compile() for plan in cnet_to_schedule(network, k, k, m)
        )

    return plan_registry().lookup(
        cnet_plan_stem(network.key, m, k), backend=network.name, build=build
    )


@lru_cache(maxsize=512)
def _generator_plans(network: ComparatorNetwork, m: int) -> tuple:
    """Uncompiled round plans for the generator driver, cached — the
    plans (and their program event maps) are pure functions of the
    configuration, so repeated small sorts skip the lowering."""
    return cnet_to_schedule(network, network.width, network.width, m)


def cnet_steps(network: ComparatorNetwork) -> list[tuple]:
    """The driver's step list: one entry per plan execution/local op.

    ``("plan", i)`` executes the ``i``-th compiled communication plan;
    ``("merge", his, los)`` applies the merge-split combine to that
    round's endpoints; ``("sort", skip_first)`` is a free local sort.
    """
    steps: list[tuple] = []
    comm = 0
    for rnd in network.rounds:
        if isinstance(rnd, CompareRound):
            steps.append(("plan", comm))
            comm += 1
            steps.append((
                "merge",
                tuple(hi for hi, _ in rnd.pairs),
                tuple(lo for _, lo in rnd.pairs),
            ))
        elif isinstance(rnd, PermuteRound):
            steps.append(("plan", comm))
            comm += 1
        else:
            steps.append(("sort", rnd.skip_first))
    return steps


def _merge_split(
    state: np.ndarray,
    his: tuple[int, ...],
    los: tuple[int, ...],
    m: int,
    descending: bool,
) -> None:
    """Apply one round's merge-splits to ``state`` in place.

    After the round's plan, every paired processor holds its own column
    in slots ``0..m-1`` and its partner's in ``m..2m-1`` — the same
    multiset on both endpoints of a pair, so one sort of the ``hi``
    rows serves both: ``hi`` keeps the top half, ``lo`` the bottom.
    ``descending=False`` is the globally-negated numeric pipeline,
    where "top" is the ascending front.  Works on the batch axis (axis
    1 is the slot axis either way).
    """
    hi_idx = np.asarray(his, dtype=np.intp)
    lo_idx = np.asarray(los, dtype=np.intp)
    seg = state[hi_idx, : 2 * m]  # fancy index -> private copy
    if not descending:
        seg.sort(axis=1)
    elif seg.dtype == object:
        seg = np.sort(seg, axis=1)[:, ::-1]
    else:
        np.negative(seg, out=seg)
        seg.sort(axis=1)
        np.negative(seg, out=seg)
    state[hi_idx, :m] = seg[:, :m]
    state[lo_idx, :m] = seg[:, m:]


def _descending(
    state: np.ndarray, skip_first: bool, width: int
) -> None:
    """Sort every column (row of ``state``) descending, in place.

    Ties carry no hidden order: equal values are equal elements (bit
    accounting is a function of the value), so an in-place sort matches
    the generator's ``sorted(column, reverse=True)`` exactly.  Axis 1 is
    the slot axis in both the solo and the batched layout; only the
    first ``width`` slots hold the column (scratch and parking slots
    follow).  ``skip_first`` leaves line 0 alone (columnsort's phase 7).
    Numeric states sort via negate/sort/negate, which stays in place
    instead of materializing a reversed-stride copy.
    """
    view = state[1 if skip_first else 0:, :width]
    if view.dtype == object:
        view[...] = np.sort(view, axis=1)[:, ::-1]
    else:
        np.negative(view, out=view)
        view.sort(axis=1)
        np.negative(view, out=view)


def _cnet_pipeline(
    run: VectorRun,
    state: np.ndarray,
    network: ComparatorNetwork,
    m: int,
) -> np.ndarray:
    """Execute every round of ``network`` on the vector engine.

    ``state`` holds each line's ``m`` elements, solo ``(k, m)`` or
    batched ``(k, m, B)``; returns the final state, whose first ``m``
    slots are the sorted columns.  Every plan discards its input, so
    each one runs on a donated buffer (no per-round defensive copy).
    """
    compiled = compiled_cnet_phases(network, m)
    extra = network.slots(m) - m
    if extra:
        # Scratch (merge-split partners) and parking (wrap-skip) slots
        # start as a copy of the first slots: each is written before it
        # is read, and copying keeps the state's dtype.
        state = np.concatenate([state, state[:, :extra]], axis=1)
    steps = cnet_steps(network)
    if state.dtype == object or run._dispatch is not None:
        for step in steps:
            if step[0] == "plan":
                state = run.execute(compiled[step[1]], state, donate=True)
            elif step[0] == "sort":
                _descending(state, step[1], m)
            else:
                _merge_split(state, step[1], step[2], m, descending=True)
        return state
    # Numeric, unobserved runs: each descending sort would be
    # negate/sort/negate, and bit accounting is sign-invariant (ints
    # charge ``bit_length(abs(v))``, floats a flat 64), so one global
    # negation brackets the whole run and every local sort and merge
    # goes plain ascending.  Observed runs stay on the descending path:
    # dispatch events carry the actual values.
    np.negative(state, out=state)
    for step in steps:
        if step[0] == "plan":
            state = run.execute(compiled[step[1]], state, donate=True)
        elif step[0] == "sort":
            state[1 if step[1] else 0:, :m].sort(axis=1)
        else:
            _merge_split(state, step[1], step[2], m, descending=False)
    np.negative(state, out=state)
    return state


def _validated(
    p: int, k: int, columns: dict[int, list], network: ComparatorNetwork
) -> int:
    """Even ``p = k = width`` input validation for a network; returns ``m``.

    Columnsort networks keep the §5.2 dimension rule their correctness
    needs; the other families sort any even shape.
    """
    if p != k or network.width != k:
        raise ConfigurationError(
            "comparator-network sorts run on p == k == width; got "
            f"p={p}, k={k}, width={network.width}"
        )
    return _validated_columns(
        p, k, columns, require_dims=network.name == "columnsort"
    )


def _solo_sort(
    net: MCBNetwork,
    state: np.ndarray,
    network: ComparatorNetwork,
    m: int,
    phase: str,
) -> SortResult:
    """Run one instance's ``(k, m)`` state; costs land in ``net.stats``."""
    run = VectorRun(
        net.p, net.k, phase=phase, stats=net.stats, dispatch=net._dispatch
    )
    state = _cnet_pipeline(run, state, network, m)
    run.finish()
    rows = state[:, :m].tolist()
    return SortResult(
        output={pid: tuple(rows[pid - 1]) for pid in range(1, net.k + 1)}
    )


def sort_cnet_vector(
    net: MCBNetwork,
    columns: dict[int, list],
    network: ComparatorNetwork,
    *,
    phase: str = "sort",
) -> SortResult:
    """Run ``network`` on the vector engine; costs land in ``net.stats``."""
    m = _validated(net.p, net.k, columns, network)
    state = build_state([list(columns[pid]) for pid in range(1, net.k + 1)])
    return _solo_sort(
        net, state, network, m, f"{phase}/cnet-{network.name}"
    )


def sort_cnet_generator(
    net: MCBNetwork,
    columns: dict[int, list],
    network: ComparatorNetwork,
    *,
    phase: str = "sort",
) -> SortResult:
    """Run ``network`` on the generator engine (the parity oracle).

    Each processor's program chains the round plans' literal
    ``as_programs`` event streams (all programs advance in lockstep —
    a plan's cycle count is global) and applies the identical local
    merge rule between rounds, so this is exactly what the vector
    driver computes, message for message.
    """
    k = net.k
    m = _validated(net.p, k, columns, network)
    plans = _generator_plans(network, m)
    steps = cnet_steps(network)
    extra = network.slots(m) - m

    def make(pid: int):
        col = list(columns[pid])

        def program(ctx):
            row = col + col[:extra]  # the vector state's slot rule
            for step in steps:
                if step[0] == "plan":
                    prog = plans[step[1]].as_program(ctx.pid - 1, row)
                    row = yield from prog(ctx)
                elif step[0] == "sort":
                    if not (step[1] and ctx.pid == 1):
                        row[:m] = sorted(row[:m], reverse=True)
                else:
                    _, his, los = step
                    line = ctx.pid - 1
                    if line in his or line in los:
                        merged = sorted(row[: 2 * m], reverse=True)
                        row[:m] = (
                            merged[:m] if line in his else merged[m:]
                        )
            return row[:m]

        return program

    out = net.run(
        {pid: make(pid) for pid in range(1, k + 1)},
        phase=f"{phase}/cnet-{network.name}",
    )
    return SortResult(
        output={pid: tuple(out[pid]) for pid in range(1, k + 1)}
    )


def sort_cnet(
    net: MCBNetwork,
    columns: dict[int, list],
    backend: str,
    *,
    phase: str = "sort",
    engine: str = "generator",
) -> SortResult:
    """Sort an even ``p = k`` distribution with the named network."""
    network = build_network(backend, net.k)
    if engine == "vector":
        return sort_cnet_vector(net, columns, network, phase=phase)
    if engine != "generator":
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'generator' or 'vector'"
        )
    return sort_cnet_generator(net, columns, network, phase=phase)
