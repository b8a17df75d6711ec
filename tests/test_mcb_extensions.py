"""Tests for the §9 model extensions (concurrent write, multi-read)."""

import pytest

from repro.mcb import MCBNetwork, Message
from repro.mcb.errors import CollisionError, ConfigurationError, ProtocolError
from repro.mcb.extensions import (
    COLLISION,
    ExtendedNetwork,
    ExtOp,
    find_max_bitwise,
    find_max_exclusive,
    gossip,
)
from repro.mcb.message import EMPTY
from repro.prefix import mcb_total_sum


def _writer(channel, value):
    def prog(ctx):
        yield ExtOp(write=channel, payload=Message("t", value))
    return prog


def _reader(channel):
    def prog(ctx):
        got = yield ExtOp(read=channel)
        return got
    return prog


class TestWritePolicies:
    def test_exclusive_still_aborts(self):
        net = ExtendedNetwork(p=2, k=1, write_policy="exclusive")
        with pytest.raises(CollisionError):
            net.run({1: _writer(1, 1), 2: _writer(1, 2)})

    def test_detect_delivers_collision_marker(self):
        net = ExtendedNetwork(p=3, k=1, write_policy="detect")
        res = net.run({1: _writer(1, 1), 2: _writer(1, 2), 3: _reader(1)})
        assert res[3] is COLLISION

    def test_detect_single_writer_delivers_normally(self):
        net = ExtendedNetwork(p=2, k=1, write_policy="detect")
        res = net.run({1: _writer(1, 9), 2: _reader(1)})
        assert res[2] == Message("t", 9)

    def test_priority_lowest_pid_wins(self):
        net = ExtendedNetwork(p=3, k=1, write_policy="priority")
        res = net.run({2: _writer(1, 22), 3: _writer(1, 33), 1: _reader(1)})
        assert res[1] == Message("t", 22)

    def test_collision_marker_is_truthy_and_not_empty(self):
        assert COLLISION
        assert COLLISION is not EMPTY

    def test_colliding_writes_all_counted(self):
        net = ExtendedNetwork(p=2, k=1, write_policy="detect")
        net.run({1: _writer(1, 1), 2: _writer(1, 2)})
        assert net.stats.messages == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ExtendedNetwork(p=2, k=1, write_policy="anarchy")


class TestReadPolicies:
    def test_read_all_channels(self):
        def reader(ctx):
            got = yield ExtOp(read="all")
            return got

        net = ExtendedNetwork(p=3, k=2, read_policy="all")
        res = net.run({1: _writer(1, 10), 2: _writer(2, 20), 3: reader})
        assert res[3][1] == Message("t", 10)
        assert res[3][2] == Message("t", 20)

    def test_read_subset(self):
        def reader(ctx):
            got = yield ExtOp(read=(2,))
            return got

        net = ExtendedNetwork(p=3, k=2, read_policy="all")
        res = net.run({1: _writer(1, 10), 2: _writer(2, 20), 3: reader})
        assert list(res[3]) == [2]

    def test_multi_read_rejected_under_single_policy(self):
        def reader(ctx):
            yield ExtOp(read="all")

        net = ExtendedNetwork(p=1, k=1, read_policy="single")
        with pytest.raises(ProtocolError):
            net.run({1: reader})

    def test_empty_channels_in_multi_read(self):
        def reader(ctx):
            got = yield ExtOp(read="all")
            return got

        net = ExtendedNetwork(p=2, k=2, read_policy="all")
        res = net.run({1: _writer(1, 5), 2: reader})
        assert res[2][2] is EMPTY


class TestBitwiseMax:
    @pytest.mark.parametrize("p", [2, 7, 16, 40])
    def test_correct(self, p, rng):
        vals = {i + 1: int(rng.integers(0, 1 << 16)) for i in range(p)}
        net = ExtendedNetwork(p=p, k=1, write_policy="detect")
        res = find_max_bitwise(net, vals)
        assert all(v == max(vals.values()) for v in res.values())

    def test_cycles_independent_of_p(self, rng):
        cycles = {}
        for p in (8, 64):
            vals = {i + 1: int(rng.integers(0, 1 << 12)) for i in range(p)}
            net = ExtendedNetwork(p=p, k=1, write_policy="detect")
            find_max_bitwise(net, vals, bits=12)
            cycles[p] = net.stats.cycles
        assert cycles[8] == cycles[64] == 12

    def test_beats_tree_for_large_p_small_k(self, rng):
        p = 128
        vals = {i + 1: int(rng.integers(0, 1 << 16)) for i in range(p)}
        net_bit = ExtendedNetwork(p=p, k=1, write_policy="detect")
        find_max_bitwise(net_bit, vals, bits=16)
        net_tree, _ = find_max_exclusive(lambda: MCBNetwork(p=p, k=1), vals)
        # the §9 separation: concurrent write finds extrema in O(bits)
        assert net_bit.stats.cycles < net_tree.stats.cycles / 4

    def test_all_zero(self):
        net = ExtendedNetwork(p=3, k=1, write_policy="detect")
        res = find_max_bitwise(net, {1: 0, 2: 0, 3: 0})
        assert all(v == 0 for v in res.values())

    def test_requires_concurrent_write(self):
        net = ExtendedNetwork(p=2, k=1, write_policy="exclusive")
        with pytest.raises(ConfigurationError):
            find_max_bitwise(net, {1: 1, 2: 2})

    def test_rejects_negative(self):
        net = ExtendedNetwork(p=2, k=1, write_policy="detect")
        with pytest.raises(ValueError):
            find_max_bitwise(net, {1: -1, 2: 2})

    def test_priority_policy_also_works(self, rng):
        vals = {i + 1: int(rng.integers(0, 1000)) for i in range(6)}
        net = ExtendedNetwork(p=6, k=1, write_policy="priority")
        res = find_max_bitwise(net, vals)
        assert res[1] == max(vals.values())


class TestGossip:
    @pytest.mark.parametrize("policy", ["single", "all"])
    def test_everyone_learns_everything(self, policy, rng):
        p, k = 10, 5
        vals = {i + 1: int(rng.integers(0, 99)) for i in range(p)}
        net = ExtendedNetwork(p=p, k=k, read_policy=policy)
        res = gossip(net, vals)
        assert all(res[i] == vals for i in range(1, p + 1))

    def test_read_all_is_k_times_faster(self, rng):
        p, k = 24, 8
        vals = {i + 1: i for i in range(p)}
        net_s = ExtendedNetwork(p=p, k=k, read_policy="single")
        gossip(net_s, vals)
        net_a = ExtendedNetwork(p=p, k=k, read_policy="all")
        gossip(net_a, vals)
        assert net_a.stats.cycles * (k - 1) <= net_s.stats.cycles

    def test_single_read_floor_independent_of_k(self, rng):
        # With one read per cycle, absorbing p-1 messages takes >= p-1
        # cycles no matter how many channels exist — the §9 point that
        # *this* extension is what gossip-like problems need.
        p = 16
        vals = {i + 1: i for i in range(p)}
        cyc = {}
        for k in (1, 4, 16):
            net = ExtendedNetwork(p=p, k=k, read_policy="single")
            gossip(net, vals)
            cyc[k] = net.stats.cycles
        assert cyc[1] == cyc[4] == cyc[16] >= p - 1


class TestSortingUnaffected:
    def test_sorting_gains_nothing_from_concurrent_write(self, rng):
        # §9: "such extensions are not needed in order to achieve optimal
        # broadcast algorithms for sorting and selection."  The Omega(n/k)
        # element-movement bound binds in every variant; the standard
        # exclusive-write algorithm already sits on it.
        from repro.core import Distribution
        from repro.sort import mcb_sort

        p = k = 8
        n = 1024
        d = Distribution.even(n, p, seed=0)
        net = MCBNetwork(p=p, k=k)
        mcb_sort(net, d)
        assert net.stats.cycles >= n / k  # the movement bound
