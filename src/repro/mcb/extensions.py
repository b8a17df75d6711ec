"""Model extensions (paper §9): stronger channel-access rules.

"The MCB model can be extended in various ways.  For example, by
allowing processors to access all channels during each cycle, or by
allowing concurrent write access to the channels.  As we have seen, such
extensions are not needed in order to achieve optimal broadcast
algorithms for sorting and selection.  It is interesting to characterize
the problems for which increasing the power of the model would, or would
not, result in more efficient algorithms."

This module makes that question executable:

* :class:`ExtendedNetwork` — the reference interpreter
  (:class:`~repro.mcb.reference.ReferenceMCBNetwork`, which defines the
  semantics of every channel model) with two policies chosen at
  construction:

  - ``write_policy``: ``"exclusive"`` (the paper's model — collisions
    abort), ``"detect"`` (concurrent writes deliver the
    :data:`COLLISION` marker — the IPBAM/Ethernet ternary feedback), or
    ``"priority"`` (lowest-pid writer wins — CRCW-priority style);
  - ``read_policy``: ``"single"`` (one channel per cycle) or ``"all"``
    (an :class:`ExtOp` hears ``"all"`` or a tuple of channels).

  With the default policies it *is* the paper's model: the equivalence
  battery runs it beside :class:`~repro.mcb.MCBNetwork` on the sort
  suite and demands identical results, ``RunStats`` and events.

* Algorithms that separate the models:

  - :func:`find_max_bitwise` — extrema finding in ``O(bits)`` cycles
    with collision detection (impossible in the exclusive model, where
    the value must physically travel: ``Omega(p/k)``-ish);
  - :func:`find_max_exclusive` — the §7.1 tree tournament for
    comparison;
  - :func:`gossip` — all-learn-all of one value per processor: with
    single-read every processor must absorb ``p-1`` messages one per
    cycle (``Omega(p)`` cycles no matter how many channels); with
    read-all it takes ``ceil(p/k)`` cycles.

And problems where the extensions do *not* help, supporting the §9
remark: sorting moves ``Omega(n)`` elements over ``k`` channels, so
``Omega(n/k)`` cycles bind in every variant (exercised in the ablation
benchmark E15).
"""

from __future__ import annotations

from typing import Any, Literal, Optional

from .errors import ConfigurationError
from .message import EMPTY, Message
from .program import ProcContext
from .reference import COLLISION, ExtOp, ReferenceMCBNetwork

WritePolicy = Literal["exclusive", "detect", "priority"]
ReadPolicy = Literal["single", "all"]


class ExtendedNetwork(ReferenceMCBNetwork):
    """An MCB(p, k) engine with §9's strengthened access rules.

    Under the ``detect``/``priority`` policies every concurrent write is
    charged, each contested channel adds one to
    ``PhaseStats.collisions`` and emits a ``collision`` event; the
    ``exclusive`` policy aborts exactly like the paper's model.
    """

    def __init__(
        self,
        p: int,
        k: int,
        *,
        write_policy: WritePolicy = "exclusive",
        read_policy: ReadPolicy = "single",
        record_trace: bool = False,
    ):
        super().__init__(p, k, record_trace=record_trace)
        if write_policy not in ("exclusive", "detect", "priority"):
            raise ConfigurationError(f"unknown write policy {write_policy!r}")
        if read_policy not in ("single", "all"):
            raise ConfigurationError(f"unknown read policy {read_policy!r}")
        self.write_policy = write_policy
        self.read_policy = read_policy


# ---------------------------------------------------------------------------
# Extrema finding under the different models
# ---------------------------------------------------------------------------

def find_max_bitwise(
    net: ExtendedNetwork,
    values: dict[int, int],
    *,
    bits: Optional[int] = None,
    phase: str = "max-bitwise",
) -> dict[int, int]:
    """Maximum of non-negative ints in ``O(bits)`` cycles via collision
    detection (concurrent write, one channel).

    Round ``b`` (most significant first): every surviving candidate
    whose bit ``b`` is 1 writes; everyone listens.  A non-empty channel
    (message *or* collision) fixes bit ``b`` of the maximum to 1 and
    eliminates candidates with bit 0.  After ``bits`` rounds every
    processor knows the maximum — cost independent of ``p`` and of the
    magnitude of data movement, which is what concurrent write buys.
    """
    if net.write_policy == "exclusive":
        raise ConfigurationError("bitwise max needs concurrent write")
    if any(v < 0 for v in values.values()):
        raise ValueError("bitwise max expects non-negative integers")
    width = bits if bits is not None else max(
        1, max(values.values()).bit_length()
    )

    def program(ctx: ProcContext):
        mine = values[ctx.pid]
        alive = True
        known = 0
        for b in range(width - 1, -1, -1):
            my_bit = (mine >> b) & 1
            if alive and my_bit:
                got = yield ExtOp(
                    write=1, payload=Message("bit", 1), read=1
                )
            else:
                got = yield ExtOp(read=1)
            heard_one = got is not EMPTY
            if heard_one:
                known |= 1 << b
                if alive and not my_bit:
                    alive = False
        return known

    res = net.run({i: program for i in values}, phase=phase)
    return res


def find_max_exclusive(net_factory, values: dict[int, int], k: int):
    """Comparison point: the §7.1 tree tournament on the standard model.

    ``net_factory`` builds a standard :class:`~repro.mcb.MCBNetwork`;
    returns ``(network, results)`` so callers can read the stats.
    """
    from .network import MCBNetwork
    from ..prefix.mcb_partial_sums import mcb_total_sum

    net: MCBNetwork = net_factory()
    res = mcb_total_sum(net, values, op=max, identity=0, phase="max-tree")
    return net, res


# ---------------------------------------------------------------------------
# Gossip (all-learn-all) under single-read vs read-all
# ---------------------------------------------------------------------------

def gossip(
    net: ExtendedNetwork,
    values: dict[int, Any],
    *,
    phase: str = "gossip",
) -> dict[int, dict[int, Any]]:
    """Every processor learns every processor's value.

    With ``read_policy="single"`` the broadcast is serialized on channel
    1 (each reader absorbs one message per cycle: ``p`` cycles).  With
    ``read_policy="all"`` processors broadcast ``k`` at a time and every
    listener absorbs all ``k`` channels at once: ``ceil(p/k)`` cycles.
    """
    p, k = net.p, net.k

    if net.read_policy == "single":
        def program(ctx: ProcContext):
            learned = {ctx.pid: values[ctx.pid]}
            for i in range(1, p + 1):
                if i == ctx.pid:
                    yield ExtOp(write=1, payload=Message("g", values[i]))
                else:
                    got = yield ExtOp(read=1)
                    learned[i] = got.fields[0]
            return learned
    else:
        def program(ctx: ProcContext):
            learned = {ctx.pid: values[ctx.pid]}
            rounds = (p + k - 1) // k
            for r in range(rounds):
                senders = list(range(r * k + 1, min(r * k + k, p) + 1))
                wchan = wpay = None
                if ctx.pid in senders:
                    wchan = senders.index(ctx.pid) + 1
                    wpay = Message("g", values[ctx.pid])
                got = yield ExtOp(write=wchan, payload=wpay, read="all")
                for idx, sender in enumerate(senders):
                    msg = got[idx + 1]
                    if msg is not EMPTY and msg is not COLLISION:
                        learned[sender] = msg.fields[0]
            return learned

    return net.run({i: program for i in range(1, p + 1)}, phase=phase)
