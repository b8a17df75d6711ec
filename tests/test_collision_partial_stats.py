"""A collision abort must not discard the phase's accumulated costs.

Adversary and lower-bound experiments end phases via `CollisionError`
*by design*; every engine (core, extended-exclusive, CREW) records the
partial `PhaseStats` — flagged with ``collisions = 1`` — before the
exception propagates.
"""

from __future__ import annotations

import pytest

from repro.mcb import CollisionError, CycleOp, MCBNetwork, Message
from repro.mcb.crew import CREWMemory
from repro.mcb.extensions import ExtOp, ExtendedNetwork


def clean_then_clash(ctx):
    yield CycleOp(write=ctx.pid, payload=Message("ok", ctx.pid), read=1)
    yield CycleOp(write=1, payload=Message("clash", ctx.pid))


class TestCorePartialStats:
    def test_phase_recorded_with_costs(self):
        net = MCBNetwork(p=2, k=2)
        with pytest.raises(CollisionError) as exc:
            net.run({1: clean_then_clash, 2: clean_then_clash}, phase="adv")
        assert exc.value.cycle == 1
        ph = net.stats.phases[-1]
        assert ph.name == "adv"
        assert ph.collisions == 1
        assert ph.cycles == 1  # the clean cycle before the abort
        assert ph.messages >= 2  # the two clean writes were charged
        assert ph.bits > 0
        assert net.stats.messages == ph.messages  # queryable via totals

    def test_followup_phase_appends(self):
        net = MCBNetwork(p=2, k=2)
        with pytest.raises(CollisionError):
            net.run({1: clean_then_clash, 2: clean_then_clash}, phase="adv")

        def quiet(ctx):
            yield CycleOp(read=1)
            return None

        net.run({1: quiet}, phase="after")
        assert [ph.name for ph in net.stats.phases] == ["adv", "after"]
        assert net.stats.phases[0].collisions == 1
        assert net.stats.phases[1].collisions == 0


class TestExtendedExclusivePartialStats:
    def test_phase_recorded(self):
        net = ExtendedNetwork(p=2, k=2, write_policy="exclusive")

        def prog(ctx):
            yield ExtOp(write=ctx.pid, payload=Message("ok", ctx.pid))
            yield ExtOp(write=1, payload=Message("clash", ctx.pid))

        with pytest.raises(CollisionError):
            net.run({1: prog, 2: prog}, phase="ext")
        ph = net.stats.phases[-1]
        assert ph.collisions == 1
        assert ph.messages == 2
        assert ph.cycles == 1


class TestCREWPartialStats:
    def test_phase_recorded(self):
        mem = CREWMemory(p=2, cells=2)

        def prog(ctx):
            yield CycleOp(write=ctx.pid, payload=Message("ok", ctx.pid))
            yield CycleOp(write=1, payload=Message("clash", ctx.pid))

        with pytest.raises(CollisionError):
            mem.run({1: prog, 2: prog}, phase="crew")
        ph = mem.stats.phases[-1]
        assert ph.collisions == 1
        assert ph.messages == 2
        assert ph.cycles == 1
