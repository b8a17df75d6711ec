"""One validation and collision rule across every channel model.

The paper's model (:class:`ReferenceMCBNetwork`), §9's extended model
(:class:`ExtendedNetwork`) and the CREW cells (:class:`CREWMemory`) run
on one reference interpreter, so a malformed program fails the same way
on each of them, and an exclusive-write collision is recorded and
reported the same way.
"""

from __future__ import annotations

import pytest

from repro.mcb import CycleOp, Message, Sleep
from repro.mcb.crew import CREWMemory
from repro.mcb.errors import (
    CollisionError,
    ConfigurationError,
    MessageSizeError,
    ProtocolError,
)
from repro.mcb.extensions import ExtendedNetwork, ExtOp
from repro.mcb.reference import ReferenceMCBNetwork

MODELS = {
    "reference": lambda p, k: ReferenceMCBNetwork(p=p, k=k),
    "extended": lambda p, k: ExtendedNetwork(p=p, k=k, read_policy="all"),
    "crew": lambda p, k: CREWMemory(p=p, cells=k),
}


@pytest.fixture(params=sorted(MODELS))
def make(request):
    return MODELS[request.param]


def yields(op):
    def prog(ctx):
        yield op
    return prog


def test_one_interpreter(make):
    assert type(make(2, 2)).run is ReferenceMCBNetwork.run


def test_program_for_nonexistent_processor(make):
    with pytest.raises(ConfigurationError, match="nonexistent processor P9"):
        make(2, 2).run({9: yields(CycleOp())})


def test_negative_sleep(make):
    with pytest.raises(ProtocolError, match="negative sleep"):
        make(2, 2).run({1: yields(Sleep(-3))})


def test_payload_without_write_channel(make):
    op = CycleOp(payload=Message("lost", 1))
    with pytest.raises(ProtocolError, match="without a write channel"):
        make(2, 2).run({1: yields(op)})


def test_oversized_message(make):
    op = CycleOp(write=1, payload=Message("big", *range(12)))
    with pytest.raises(MessageSizeError):
        make(2, 2).run({1: yields(op)})


@pytest.mark.parametrize("spec", [(1, 7), "al", [1, 2], (0,)])
def test_multi_read_spec_is_all_or_a_channel_tuple(make, spec):
    with pytest.raises(ProtocolError, match="read"):
        make(2, 2).run({1: yields(ExtOp(read=spec))})


def test_collision_names_every_writer(make):
    op = CycleOp(write=1, payload=Message("w", 0))
    with pytest.raises(CollisionError) as exc:
        make(3, 2).run({pid: yields(op) for pid in (1, 2, 3)})
    assert exc.value.writers == [1, 2, 3]


def test_collision_charges_only_completed_cycles(make):
    def prog(ctx):
        yield CycleOp(write=ctx.pid, payload=Message("ok", ctx.pid))
        yield CycleOp(write=1, payload=Message("clash", ctx.pid))

    net = make(2, 2)
    with pytest.raises(CollisionError):
        net.run({1: prog, 2: prog}, phase="clash")
    ph = net.stats.phases[-1]
    assert (ph.cycles, ph.messages, ph.collisions) == (1, 2, 1)
    assert ph.channel_writes == {1: 1, 2: 1}
