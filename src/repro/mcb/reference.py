"""The reference interpreter for every MCB channel model, and the seed engine.

:class:`ReferenceMCBNetwork` defines the semantics of every channel
model in the repo by one straightforward per-cycle loop.  Three class
attributes select the model:

* ``write_policy`` — ``"exclusive"`` (the paper's model: a collision
  aborts the phase), ``"detect"`` (concurrent writers deliver the
  :data:`COLLISION` marker) or ``"priority"`` (the lowest pid wins);
* ``read_policy`` — ``"single"`` (one channel per cycle) or ``"all"``
  (an :class:`ExtOp` may read ``"all"`` or a tuple of channels);
* ``persistent`` — ``False`` for memoryless channels, ``True`` for CREW
  cells that keep the last value written.

The defaults are the paper's model.  The §9 models are thin subclasses
that only set these attributes:
:class:`~repro.mcb.extensions.ExtendedNetwork` (the two policies) and
:class:`~repro.mcb.crew.CREWMemory` (``persistent``, ``k = cells``).

Each cycle runs in one order: collect the ops of every acting processor
(:class:`~repro.mcb.program.Listen` desugars into per-cycle reads),
validate each op, resolve each written channel by ``write_policy``,
commit the writes to memory if ``persistent``, deliver the reads, and
emit one ``MessageBroadcast`` per delivered channel.  The paper's model
itself runs in production on :class:`~repro.mcb.network.MCBNetwork`,
the one optimized engine; the equivalence battery
(``tests/test_engine_equivalence.py``) proves it bit-identical to this
interpreter — results, ``RunStats`` and observer event streams.

:class:`SeedMCBNetwork` is the frozen perf baseline of
``benchmarks/bench_engine_hotpath.py``: the pre-optimization loop of the
paper's model, kept verbatim and bound to verbatim copies of the
seed-era protocol classes (:class:`SeedCycleOp`, :class:`SeedSleep`,
:class:`SeedMessage`), so the hot-path speedup is measured against the
real past rather than a moving target.  Never edit its loop.

:func:`run_simulated_reference` likewise preserves the original
O(v²·s·|ops|) linear-scan scheduling of :func:`repro.mcb.simulate.run_simulated`
before the per-virtual-cycle lookup tables were introduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from operator import itemgetter
from typing import Any, Optional, Sequence, Union

from ..obs.events import (
    CollisionDetected,
    FastForward,
    ListenParked,
    ListenWoken,
    MessageBroadcast,
    PhaseEnded,
    PhaseStarted,
    ProcessorSlept,
)
from ..obs.hooks import ObservableMixin
from .errors import (
    CollisionError,
    ConfigurationError,
    MessageSizeError,
    ProtocolError,
)
from .message import EMPTY, Message, scalar_bits
from .program import CycleOp, Listen, ProcContext, ProgramFn, Sleep
from .trace import PhaseStats, RunStats


class _RefListenState:
    """Per-pid desugaring state for one in-flight :class:`Listen`."""

    __slots__ = ("channel", "window", "elapsed", "buf")

    def __init__(self, channel: int, window: Optional[int]):
        self.channel = channel
        self.window = window  # None = until_nonempty
        self.elapsed = 1  # reads synthesized so far (first at yield cycle)
        self.buf: list = []


# ---------------------------------------------------------------------------
# Seed-era protocol classes, verbatim (pre-__slots__ ops, uncached bit_size)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedCycleOp:
    """The seed tree's ``CycleOp``: a plain frozen dataclass."""

    write: Optional[int] = None
    payload: Optional["SeedMessage"] = None
    read: Optional[int] = None


@dataclass(frozen=True)
class SeedSleep:
    """The seed tree's ``Sleep``: a plain frozen dataclass."""

    cycles: int


class SeedMessage:
    """The seed tree's ``Message``: ``bit_size`` re-encodes on every call."""

    __slots__ = ("kind", "fields")

    def __init__(self, kind: str, *fields: Any):
        self.kind = kind
        self.fields = fields

    def bit_size(self) -> int:
        """Total encoded size of this message in bits (incl. kind tag)."""
        return 8 + sum(scalar_bits(f) for f in self.fields)


# ---------------------------------------------------------------------------
# The §9 vocabulary: multi-channel reads and the garbled-channel marker
# ---------------------------------------------------------------------------

class _Collision:
    """Marker delivered to readers of a channel with concurrent writers
    under the ``"detect"`` policy (the channel is garbled but audibly
    non-empty — ternary feedback)."""

    _instance: "_Collision | None" = None

    def __new__(cls) -> "_Collision":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "COLLISION"

    def __bool__(self) -> bool:
        return True  # audibly non-empty


COLLISION = _Collision()


@dataclass(frozen=True)
class ExtOp:
    """One cycle's action in the extended model.

    ``read`` may be a single 1-based channel, a tuple of channels, or
    ``"all"``; multi-channel reads (only with ``read_policy="all"``)
    deliver a dict ``channel -> Message | EMPTY | COLLISION``.
    """

    write: Optional[int] = None
    payload: Optional[Message] = None
    read: Union[int, tuple, str, None] = None


class ReferenceMCBNetwork(ObservableMixin):
    """The per-cycle dict-scan interpreter of every channel model.

    The protocol classes the loop validates against are class attributes
    so :class:`SeedMCBNetwork` can rebind them to the seed-era copies.
    """

    _CycleOp: type = CycleOp
    _Sleep: type = Sleep
    _Message: type = Message

    #: Channel semantics (see the module docstring); defaults = the paper.
    write_policy: str = "exclusive"
    read_policy: str = "single"
    persistent: bool = False

    def __init__(
        self,
        p: int,
        k: int,
        *,
        max_message_fields: int = 8,
        record_trace: bool = False,
    ):
        self._validate_shape(p, k)
        self.p = p
        self.k = k
        self.max_message_fields = max_message_fields
        self.stats = RunStats()
        self._init_observability(record_trace=record_trace)

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Forget all accumulated statistics and detach every observer."""
        self.stats = RunStats()
        self._reset_observability()

    # ------------------------------------------------------------------
    def run(
        self,
        programs: dict[int, ProgramFn] | Sequence[ProgramFn],
        *,
        phase: str = "phase",
        data: Optional[dict[int, Any]] = None,
        max_cycles: int = 50_000_000,
    ) -> dict[int, Any]:
        """Execute one synchronized stage under this network's model."""
        if not isinstance(programs, dict):
            if len(programs) != self.p:
                raise ConfigurationError(
                    f"expected {self.p} programs, got {len(programs)}"
                )
            programs = {i + 1: fn for i, fn in enumerate(programs)}
        for pid in programs:
            if not 1 <= pid <= self.p:
                raise ConfigurationError(
                    f"program assigned to nonexistent processor P{pid}"
                )

        contexts = {
            pid: ProcContext(
                pid=pid,
                p=self.p,
                k=self.k,
                data=None if data is None else data.get(pid),
            )
            for pid in programs
        }
        gens = {pid: fn(contexts[pid]) for pid, fn in programs.items()}
        results: dict[int, Any] = dict.fromkeys(programs)
        inbox: dict[int, Any] = dict.fromkeys(programs)
        wake: dict[int, int] = dict.fromkeys(programs, 0)
        listening: dict[int, _RefListenState] = {}
        until_parked = 0
        memory: dict[int, Any] = {}  # persistent cells: last value written

        ph = PhaseStats(name=phase, k=self.k)
        dispatch = self._dispatch
        if dispatch is not None:
            dispatch.dispatch(PhaseStarted(phase=phase, p=self.p, k=self.k))
        Sleep_ = self._Sleep
        op_types = (self._CycleOp, ExtOp)
        cycle = 0
        while gens:
            if until_parked and until_parked == len(gens) and not any(
                inbox[pid] is not None and inbox[pid] is not EMPTY
                for pid in listening
            ):
                # Every still-live processor waits for a broadcast that can
                # never come: end the phase, closing the orphaned listeners
                # (their results stay None).  A listener whose last
                # synthesized read already delivered something (a message,
                # a COLLISION marker, a persisted cell) is about to
                # complete — and may write — so it is not orphaned.
                for pid in list(gens):
                    gens.pop(pid).close()
                break
            acting = [pid for pid in gens if wake[pid] <= cycle]
            if not acting:
                target = min(wake[pid] for pid in gens)
                ph.fast_forward_cycles += target - cycle
                if dispatch is not None:
                    dispatch.dispatch(
                        FastForward(
                            phase=phase, from_cycle=cycle, to_cycle=target
                        )
                    )
                cycle = target
                continue
            if cycle >= max_cycles:
                raise ProtocolError(
                    f"stage '{phase}' exceeded max_cycles={max_cycles}"
                )

            # --- 1-2. collect and validate every acting processor's op ---
            writes: dict[int, list[tuple[int, Any]]] = {}  # ch -> writers
            collided: list[int] = []  # channels, in order of 2nd writer
            reads: list[tuple[int, Any]] = []  # (pid, channel or tuple)
            any_op = False
            for pid in acting:
                st = listening.get(pid)
                if st is not None:
                    # In-flight Listen: fold the read delivered last cycle,
                    # then either synthesize this cycle's read (without
                    # resuming the generator) or complete the listen and
                    # resume with the bulk result.
                    got = inbox[pid]
                    inbox[pid] = None
                    off = st.elapsed - 1
                    if st.window is None:
                        if got is EMPTY or got is None:
                            st.elapsed += 1
                            wake[pid] = cycle + 1
                            any_op = True
                            reads.append((pid, st.channel))
                            continue
                        del listening[pid]
                        until_parked -= 1
                        inbox[pid] = (off, got)
                        if dispatch is not None:
                            dispatch.dispatch(
                                ListenWoken(
                                    phase=phase,
                                    cycle=cycle,
                                    pid=pid,
                                    channel=st.channel,
                                    heard=1,
                                )
                            )
                    else:
                        if got is not EMPTY and got is not None:
                            st.buf.append((off, got))
                        if st.elapsed < st.window:
                            st.elapsed += 1
                            wake[pid] = cycle + 1
                            any_op = True
                            reads.append((pid, st.channel))
                            continue
                        del listening[pid]
                        inbox[pid] = st.buf
                        if dispatch is not None:
                            dispatch.dispatch(
                                ListenWoken(
                                    phase=phase,
                                    cycle=cycle,
                                    pid=pid,
                                    channel=st.channel,
                                    heard=len(st.buf),
                                )
                            )
                try:
                    op = gens[pid].send(inbox[pid])
                except StopIteration as stop:
                    results[pid] = stop.value
                    del gens[pid]
                    continue
                finally:
                    inbox[pid] = None
                any_op = True
                if isinstance(op, Sleep_):
                    if op.cycles < 0:
                        raise ProtocolError(
                            f"P{pid} requested a negative sleep ({op.cycles})"
                        )
                    w = max(1, op.cycles)
                    wake[pid] = cycle + w
                    if w > 1 and dispatch is not None:
                        dispatch.dispatch(
                            ProcessorSlept(
                                phase=phase,
                                cycle=cycle,
                                pid=pid,
                                until_cycle=cycle + w,
                            )
                        )
                    continue
                if isinstance(op, Listen):
                    window = self._validate_listen(pid, op)
                    listening[pid] = _RefListenState(op.channel, window)
                    if window is None:
                        until_parked += 1
                    wake[pid] = cycle + 1
                    reads.append((pid, op.channel))
                    if dispatch is not None:
                        dispatch.dispatch(
                            ListenParked(
                                phase=phase,
                                cycle=cycle,
                                pid=pid,
                                channel=op.channel,
                                window=window,
                            )
                        )
                    continue
                if not isinstance(op, op_types):
                    raise ProtocolError(
                        f"P{pid} yielded {op!r}; expected "
                        f"CycleOp, ExtOp, Sleep, or Listen"
                    )
                wake[pid] = cycle + 1
                if op.write is not None:
                    self._validate_write(pid, op, cycle)
                    writers = writes.setdefault(op.write, [])
                    if len(writers) == 1:
                        collided.append(op.write)
                    writers.append((pid, op.payload))
                elif op.payload is not None:
                    raise ProtocolError(
                        f"P{pid} attached a payload without a write channel"
                    )
                if op.read is not None:
                    reads.append((pid, self._validate_read(pid, op.read)))

            # --- 3. resolve each written channel by write_policy ----------
            if collided and self.write_policy == "exclusive":
                channel = collided[0]
                pids = [pid for pid, _ in writes[channel]]
                if dispatch is not None:
                    dispatch.dispatch(
                        CollisionDetected(
                            phase=phase,
                            cycle=cycle,
                            channel=channel,
                            writers=tuple(pids),
                            resolution="abort",
                        )
                    )
                # Record the partial phase (costs of the completed cycles)
                # so adversary experiments keep their data.
                ph.cycles = cycle
                ph.collisions = 1
                for pid, ctx in contexts.items():
                    ph.aux_peak[pid] = ctx.aux_peak
                self.stats.add(ph)
                raise CollisionError(cycle, channel, pids)
            content: dict[int, Any] = {}
            delivered: dict[int, tuple[int, Any]] = {}  # ch -> (writer, msg)
            for ch, writers in writes.items():
                # Every write is charged, garbled or not.
                ph.messages += len(writers)
                ph.bits += sum(msg.bit_size() for _, msg in writers)
                ph.channel_writes[ch] = ph.channel_writes.get(ch, 0) + len(writers)
                if len(writers) > 1:
                    ph.collisions += 1
                    garbled = self.write_policy == "detect"
                    if dispatch is not None:
                        dispatch.dispatch(
                            CollisionDetected(
                                phase=phase,
                                cycle=cycle,
                                channel=ch,
                                writers=tuple(pid for pid, _ in writers),
                                resolution="garbled" if garbled else "priority",
                            )
                        )
                    if garbled:
                        content[ch] = COLLISION
                        continue
                # A lone writer, or the lowest pid under "priority".
                writer, msg = min(writers, key=itemgetter(0))
                content[ch] = msg
                delivered[ch] = (writer, msg)

            # --- 4. commit to memory (CREW cells outlive the cycle) -------
            if self.persistent:
                memory.update(content)
                content = memory

            # --- 5. deliver reads -----------------------------------------
            readers_by_channel: dict[int, list[int]] = {}
            for pid, want in reads:
                if pid not in gens:  # the generator may have just finished
                    continue
                if type(want) is tuple:
                    inbox[pid] = {ch: content.get(ch, EMPTY) for ch in want}
                    for ch in want:
                        readers_by_channel.setdefault(ch, []).append(pid)
                else:
                    inbox[pid] = content.get(want, EMPTY)
                    readers_by_channel.setdefault(want, []).append(pid)

            # --- 6. one MessageBroadcast per delivered channel ------------
            if dispatch is not None:
                for ch, (writer, msg) in delivered.items():
                    dispatch.dispatch(
                        MessageBroadcast(
                            phase=phase,
                            cycle=cycle,
                            channel=ch,
                            writer=writer,
                            readers=tuple(readers_by_channel.get(ch, ())),
                            msg_kind=msg.kind,
                            fields=msg.fields,
                            bits=msg.bit_size(),
                        )
                    )
            if any_op:
                cycle += 1

        ph.cycles = cycle
        for pid, ctx in contexts.items():
            ph.aux_peak[pid] = ctx.aux_peak
        self.stats.add(ph)
        if dispatch is not None:
            dispatch.dispatch(
                PhaseEnded(
                    phase=phase,
                    p=self.p,
                    k=self.k,
                    cycles=ph.cycles,
                    messages=ph.messages,
                    bits=ph.bits,
                    channel_writes=dict(ph.channel_writes),
                    max_aux_peak=ph.max_aux_peak,
                    fast_forward_cycles=ph.fast_forward_cycles,
                    collisions=ph.collisions,
                    utilization=ph.channel_utilization(),
                )
            )
        return results

    # ------------------------------------------------------------------
    def _validate_shape(self, p: int, k: int) -> None:
        if p < 1:
            raise ConfigurationError(f"need at least one processor, got p={p}")
        if k < 1:
            raise ConfigurationError(f"need at least one channel, got k={k}")
        if k > p:
            raise ConfigurationError(
                f"the model requires k <= p, got p={p}, k={k}"
            )

    # ------------------------------------------------------------------
    def _validate_listen(self, pid: int, op: Listen) -> Optional[int]:
        """Check a Listen op; return its window (None = until_nonempty)."""
        if not 1 <= op.channel <= self.k:
            raise ProtocolError(
                f"P{pid} listens on invalid channel C{op.channel} (k={self.k})"
            )
        if op.until_nonempty:
            if op.cycles is not None:
                raise ProtocolError(
                    f"P{pid} yielded Listen with both a cycle count and "
                    f"until_nonempty=True; pick one"
                )
            return None
        if op.cycles is None:
            raise ProtocolError(
                f"P{pid} yielded Listen without a cycle count "
                f"(pass cycles or until_nonempty=True)"
            )
        if op.cycles < 0:
            raise ProtocolError(
                f"P{pid} requested a negative listen window ({op.cycles})"
            )
        return max(1, op.cycles)

    # ------------------------------------------------------------------
    def _validate_write(self, pid: int, op: Any, cycle: int) -> None:
        if not 1 <= op.write <= self.k:
            raise ProtocolError(
                f"P{pid} wrote invalid channel C{op.write} (k={self.k}) "
                f"at cycle {cycle}"
            )
        if not isinstance(op.payload, self._Message):
            raise ProtocolError(
                f"P{pid} wrote channel C{op.write} without a Message payload"
            )
        if len(op.payload.fields) > self.max_message_fields:
            raise MessageSizeError(
                f"P{pid} sent a {len(op.payload.fields)}-field message; "
                f"limit is {self.max_message_fields} (O(log beta) bits)"
            )

    def _validate_read(self, pid: int, want: Any) -> Any:
        """Check a read; return its channel, or a tuple for a multi-read."""
        if isinstance(want, Integral):
            if not 1 <= want <= self.k:
                raise ProtocolError(
                    f"P{pid} read invalid channel C{want} (k={self.k})"
                )
            return want
        if self.read_policy != "all":
            raise ProtocolError(
                f"P{pid} read {want!r}: multi-channel reads require "
                f"read_policy='all'"
            )
        if want == "all":
            return tuple(range(1, self.k + 1))
        if isinstance(want, tuple) and all(
            isinstance(ch, Integral) and 1 <= ch <= self.k for ch in want
        ):
            return want
        raise ProtocolError(
            f"P{pid} read {want!r}: a multi-channel read is 'all' or a "
            f"tuple of channels in 1..{self.k}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(p={self.p}, k={self.k})"


class SeedMCBNetwork(ReferenceMCBNetwork):
    """The pre-optimization loop bound to the seed-era protocol classes.

    Programs driving it must yield :class:`SeedCycleOp` / :class:`SeedSleep`
    with :class:`SeedMessage` payloads — exactly what the seed tree's
    algorithms did — so throughput measured here is the true pre-change
    baseline for ``benchmarks/bench_engine_hotpath.py``.  Its
    :meth:`run` is frozen verbatim (it models only the paper's exclusive,
    single-read channels); it shares the ``_validate_*`` helpers.
    """

    _CycleOp = SeedCycleOp
    _Sleep = SeedSleep
    _Message = SeedMessage

    def run(
        self,
        programs: dict[int, ProgramFn] | Sequence[ProgramFn],
        *,
        phase: str = "phase",
        data: Optional[dict[int, Any]] = None,
        max_cycles: int = 50_000_000,
    ) -> dict[int, Any]:
        """Execute one synchronized stage (original implementation)."""
        if not isinstance(programs, dict):
            if len(programs) != self.p:
                raise ConfigurationError(
                    f"expected {self.p} programs, got {len(programs)}"
                )
            programs = {i + 1: fn for i, fn in enumerate(programs)}
        for pid in programs:
            if not 1 <= pid <= self.p:
                raise ConfigurationError(
                    f"program assigned to nonexistent processor P{pid}"
                )

        contexts: dict[int, ProcContext] = {}
        gens: dict[int, Any] = {}
        for pid, fn in programs.items():
            ctx = ProcContext(
                pid=pid,
                p=self.p,
                k=self.k,
                data=None if data is None else data.get(pid),
            )
            contexts[pid] = ctx
            gens[pid] = fn(ctx)

        results: dict[int, Any] = {pid: None for pid in programs}
        inbox: dict[int, Any] = {pid: None for pid in programs}
        wake: dict[int, int] = {pid: 0 for pid in programs}
        listening: dict[int, _RefListenState] = {}
        until_parked = 0

        ph = PhaseStats(name=phase, k=self.k)
        dispatch = self._dispatch
        if dispatch is not None:
            dispatch.dispatch(PhaseStarted(phase=phase, p=self.p, k=self.k))
        Sleep_, CycleOp_ = self._Sleep, self._CycleOp
        cycle = 0
        while gens:
            if until_parked and until_parked == len(gens) and not any(
                inbox[pid] is not None and inbox[pid] is not EMPTY
                for pid in listening
            ):
                # Every still-live processor waits for a broadcast that can
                # never come: end the phase, closing the orphaned listeners
                # (their results stay None).  A listener whose last
                # synthesized read already delivered a message is about to
                # complete — and may write — so it is not orphaned.
                for pid in list(gens):
                    gens.pop(pid).close()
                break
            acting = [pid for pid in gens if wake[pid] <= cycle]
            if not acting:
                target = min(wake[pid] for pid in gens)
                ph.fast_forward_cycles += target - cycle
                if dispatch is not None:
                    dispatch.dispatch(
                        FastForward(
                            phase=phase, from_cycle=cycle, to_cycle=target
                        )
                    )
                cycle = target
                continue
            if cycle >= max_cycles:
                raise ProtocolError(
                    f"stage '{phase}' exceeded max_cycles={max_cycles}"
                )

            # --- collect this cycle's ops from every awake processor -----
            writes: dict[int, tuple[int, Any]] = {}  # channel -> (pid, msg)
            collided: dict[int, list[int]] = {}
            reads: list[tuple[int, int]] = []  # (pid, channel)
            any_op = False
            for pid in acting:
                st = listening.get(pid)
                if st is not None:
                    # In-flight Listen: fold the read delivered last cycle,
                    # then either synthesize this cycle's read (without
                    # resuming the generator) or complete the listen and
                    # resume with the bulk result.
                    got = inbox[pid]
                    inbox[pid] = None
                    off = st.elapsed - 1
                    if st.window is None:
                        if got is EMPTY or got is None:
                            st.elapsed += 1
                            wake[pid] = cycle + 1
                            any_op = True
                            reads.append((pid, st.channel))
                            continue
                        del listening[pid]
                        until_parked -= 1
                        inbox[pid] = (off, got)
                        if dispatch is not None:
                            dispatch.dispatch(
                                ListenWoken(
                                    phase=phase,
                                    cycle=cycle,
                                    pid=pid,
                                    channel=st.channel,
                                    heard=1,
                                )
                            )
                    else:
                        if got is not EMPTY and got is not None:
                            st.buf.append((off, got))
                        if st.elapsed < st.window:
                            st.elapsed += 1
                            wake[pid] = cycle + 1
                            any_op = True
                            reads.append((pid, st.channel))
                            continue
                        del listening[pid]
                        inbox[pid] = st.buf
                        if dispatch is not None:
                            dispatch.dispatch(
                                ListenWoken(
                                    phase=phase,
                                    cycle=cycle,
                                    pid=pid,
                                    channel=st.channel,
                                    heard=len(st.buf),
                                )
                            )
                try:
                    op = gens[pid].send(inbox[pid])
                except StopIteration as stop:
                    results[pid] = stop.value
                    del gens[pid]
                    continue
                finally:
                    inbox[pid] = None
                any_op = True
                if isinstance(op, Sleep_):
                    if op.cycles < 0:
                        raise ProtocolError(
                            f"P{pid} requested a negative sleep ({op.cycles})"
                        )
                    w = max(1, op.cycles)
                    wake[pid] = cycle + w
                    if w > 1 and dispatch is not None:
                        dispatch.dispatch(
                            ProcessorSlept(
                                phase=phase,
                                cycle=cycle,
                                pid=pid,
                                until_cycle=cycle + w,
                            )
                        )
                    continue
                if isinstance(op, Listen):
                    window = self._validate_listen(pid, op)
                    listening[pid] = _RefListenState(op.channel, window)
                    if window is None:
                        until_parked += 1
                    wake[pid] = cycle + 1
                    reads.append((pid, op.channel))
                    if dispatch is not None:
                        dispatch.dispatch(
                            ListenParked(
                                phase=phase,
                                cycle=cycle,
                                pid=pid,
                                channel=op.channel,
                                window=window,
                            )
                        )
                    continue
                if not isinstance(op, CycleOp_):
                    raise ProtocolError(
                        f"P{pid} yielded {op!r}; expected "
                        f"CycleOp, Sleep, or Listen"
                    )
                wake[pid] = cycle + 1
                if op.write is not None:
                    self._validate_write(pid, op, cycle)
                    if op.write in writes or op.write in collided:
                        collided.setdefault(
                            op.write, [writes.pop(op.write)[0]] if op.write in writes else []
                        ).append(pid)
                    else:
                        writes[op.write] = (pid, op.payload)
                elif op.payload is not None:
                    raise ProtocolError(
                        f"P{pid} attached a payload without a write channel"
                    )
                if op.read is not None:
                    if not 1 <= op.read <= self.k:
                        raise ProtocolError(
                            f"P{pid} read invalid channel C{op.read} (k={self.k})"
                        )
                    reads.append((pid, op.read))

            if collided:
                channel, writers = next(iter(collided.items()))
                if dispatch is not None:
                    dispatch.dispatch(
                        CollisionDetected(
                            phase=phase,
                            cycle=cycle,
                            channel=channel,
                            writers=tuple(writers),
                            resolution="abort",
                        )
                    )
                # Record the partial phase (costs of the completed cycles)
                # so adversary experiments keep their data — mirrored from
                # the fast engine.
                ph.cycles = cycle
                ph.collisions = 1
                for pid, ctx in contexts.items():
                    ph.aux_peak[pid] = ctx.aux_peak
                self.stats.add(ph)
                raise CollisionError(cycle, channel, writers)

            # --- deliver reads -------------------------------------------
            readers_by_channel: dict[int, list[int]] = {}
            for pid, ch in reads:
                if pid in gens:  # the generator may have just finished
                    readers_by_channel.setdefault(ch, []).append(pid)
                    inbox[pid] = EMPTY
            for ch, (writer, msg) in writes.items():
                bits = msg.bit_size()
                ph.messages += 1
                ph.bits += bits
                ph.channel_writes[ch] = ph.channel_writes.get(ch, 0) + 1
                receivers = readers_by_channel.get(ch, [])
                for pid in receivers:
                    inbox[pid] = msg
                if dispatch is not None:
                    dispatch.dispatch(
                        MessageBroadcast(
                            phase=phase,
                            cycle=cycle,
                            channel=ch,
                            writer=writer,
                            readers=tuple(receivers),
                            msg_kind=msg.kind,
                            fields=msg.fields,
                            bits=bits,
                        )
                    )
            if any_op:
                cycle += 1

        ph.cycles = cycle
        for pid, ctx in contexts.items():
            ph.aux_peak[pid] = ctx.aux_peak
        self.stats.add(ph)
        if dispatch is not None:
            dispatch.dispatch(
                PhaseEnded(
                    phase=phase,
                    p=self.p,
                    k=self.k,
                    cycles=ph.cycles,
                    messages=ph.messages,
                    bits=ph.bits,
                    channel_writes=dict(ph.channel_writes),
                    max_aux_peak=ph.max_aux_peak,
                    fast_forward_cycles=ph.fast_forward_cycles,
                    collisions=ph.collisions,
                    utilization=ph.channel_utilization(),
                )
            )
        return results



# ---------------------------------------------------------------------------
# Original simulation scheduling (linear scans inside the block loop)
# ---------------------------------------------------------------------------

def run_simulated_reference(
    net,
    p_virtual: int,
    k_virtual: int,
    programs: dict[int, ProgramFn],
    *,
    data: Optional[dict[int, Any]] = None,
    phase: str = "simulated",
) -> dict[int, Any]:
    """Pre-optimization :func:`~repro.mcb.simulate.run_simulated` (oracle).

    Identical schedule and costs; the writer/reader of each real cycle is
    found by scanning all pending ops instead of a precomputed table.
    """
    from .simulate import host_index, host_of, real_channel, subslot

    p, k = net.p, net.k
    if p_virtual < p or k_virtual < k:
        raise ConfigurationError(
            f"can only simulate a larger network: MCB({p_virtual},{k_virtual}) "
            f"on MCB({p},{k})"
        )
    if k_virtual > p_virtual:
        raise ConfigurationError("virtual network requires k' <= p'")
    v = math.ceil(p_virtual / p)
    s = math.ceil(k_virtual / k)

    hosted: dict[int, list[int]] = {}
    for q in programs:
        if not 1 <= q <= p_virtual:
            raise ConfigurationError(f"virtual pid {q} out of range 1..{p_virtual}")
        hosted.setdefault(host_of(q, v), []).append(q)

    results: dict[int, Any] = {}

    def make_host(host_pid: int, vpids: list[int]):
        def host_program(ctx: ProcContext):
            gens: dict[int, Any] = {}
            vctxs: dict[int, ProcContext] = {}
            for q in sorted(vpids):
                vctx = ProcContext(
                    pid=q,
                    p=p_virtual,
                    k=k_virtual,
                    data=None if data is None else data.get(q),
                )
                vctxs[q] = vctx
                gens[q] = programs[q](vctx)
            inbox: dict[int, Any] = {q: None for q in gens}
            sleeping: dict[int, int] = {}

            while gens:
                writes: dict[int, tuple[int, Any]] = {}
                reads: dict[int, int] = {}
                for q in list(gens):
                    if sleeping.get(q, 0) > 0:
                        sleeping[q] -= 1
                        continue
                    try:
                        op = gens[q].send(inbox[q])
                    except StopIteration as stop:
                        results[q] = stop.value
                        del gens[q]
                        continue
                    finally:
                        inbox[q] = None
                    if isinstance(op, Sleep):
                        sleeping[q] = max(1, op.cycles) - 1
                        continue
                    if isinstance(op, Listen):
                        raise ProtocolError(
                            f"virtual P{q} yielded {op!r}: Listen is not "
                            f"supported inside simulated virtual programs; "
                            f"yield per-cycle CycleOp(read=...) instead"
                        )
                    if op.write is not None:
                        writes[q] = (op.write, op.payload)
                    if op.read is not None:
                        reads[q] = op.read
                        inbox[q] = EMPTY

                if not gens and not writes and not reads:
                    return None

                if not writes and not reads:
                    yield Sleep(v * v * s)
                    continue

                for rep in range(v):
                    for wrep in range(v):
                        for t in range(s):
                            op_write = None
                            op_payload = None
                            for q, (chan, msg) in writes.items():
                                if host_index(q, v) == wrep and subslot(chan, k) == t:
                                    op_write = real_channel(chan, k)
                                    op_payload = msg
                                    break
                            op_read = None
                            reader_q = None
                            for q, chan in reads.items():
                                if host_index(q, v) == rep and subslot(chan, k) == t:
                                    op_read = real_channel(chan, k)
                                    reader_q = q
                                    break
                            got = yield CycleOp(
                                write=op_write, payload=op_payload, read=op_read
                            )
                            if reader_q is not None and got is not EMPTY and got is not None:
                                inbox[reader_q] = got
            return None

        return host_program

    host_programs = {
        host_pid: make_host(host_pid, vpids) for host_pid, vpids in hosted.items()
    }
    net.run(host_programs, phase=phase)
    if net.stats.phases:
        net.stats.phases[-1].extra["simulated"] = {
            "p_virtual": p_virtual,
            "k_virtual": k_virtual,
            "hosts": len(hosted),
            "v": v,
            "s": s,
            "cycles_per_virtual_cycle": v * v * s,
            "messages_per_message": v,
        }
    return results
