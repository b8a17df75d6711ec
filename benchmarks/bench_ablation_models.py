"""E15 — ablation over the §9 model extensions.

The paper closes by asking which problems benefit from a stronger
channel model (concurrent write, read-all) and notes sorting/selection
do not need one.  This ablation makes the characterization concrete:

* **extrema finding** — concurrent write with collision detection finds
  the maximum in O(bits) cycles, independent of p; the exclusive-write
  tree needs Omega(p/k + log k).  A real separation.
* **gossip (all-learn-all)** — read-all absorbs k messages per cycle:
  ceil(p/k) cycles vs the single-read floor of p-1.  A real separation.
* **sorting** — the Omega(n/k) element-movement bound binds in every
  variant; the standard model's Columnsort already sits on it, so the
  extensions buy nothing asymptotically.  No separation.
"""

import numpy as np

from repro.core import Distribution
from repro.mcb import MCBNetwork
from repro.mcb.extensions import (
    ExtendedNetwork,
    find_max_bitwise,
    find_max_exclusive,
    gossip,
)
from repro.sort import mcb_sort


def test_e15_extrema_separation(benchmark, emit):
    rng = np.random.default_rng(15)
    bits = 16
    rows = []
    for p in (16, 64, 256):
        vals = {i + 1: int(rng.integers(0, 1 << bits)) for i in range(p)}

        net_bit = ExtendedNetwork(p=p, k=1, write_policy="detect")
        res = find_max_bitwise(net_bit, vals, bits=bits)
        assert res[1] == max(vals.values())

        net_tree, tres = find_max_exclusive(
            lambda p=p: MCBNetwork(p=p, k=1), vals
        )
        assert tres[1] == max(vals.values())

        rows.append(
            [p, net_bit.stats.cycles, net_tree.stats.cycles,
             net_bit.stats.messages, net_tree.stats.messages]
        )
        assert net_bit.stats.cycles == bits  # independent of p

    # the separation grows linearly in p on one channel
    assert rows[-1][2] > rows[0][2] * 10
    assert rows[-1][1] == rows[0][1]

    emit(
        "E15  Extrema finding (k=1, 16-bit values): concurrent-write "
        "bit tournament is O(bits) regardless of p; the exclusive-write "
        "tree pays Omega(p)",
        ["p", "bitwise cyc", "tree cyc", "bitwise msgs", "tree msgs"],
        rows,
    )

    vals = {i + 1: int(rng.integers(0, 1 << bits)) for i in range(256)}
    benchmark.pedantic(
        lambda: find_max_bitwise(
            ExtendedNetwork(p=256, k=1, write_policy="detect"), vals, bits=bits
        ),
        rounds=1,
        iterations=1,
    )


def test_e15_gossip_separation(benchmark, emit):
    rows = []
    p = 32
    for k in (2, 8, 32):
        vals = {i + 1: i * 3 for i in range(p)}
        net_s = ExtendedNetwork(p=p, k=k, read_policy="single")
        gossip(net_s, vals)
        net_a = ExtendedNetwork(p=p, k=k, read_policy="all")
        gossip(net_a, vals)
        rows.append([k, net_s.stats.cycles, net_a.stats.cycles])
        # single-read floor: a processor absorbs one message per cycle
        assert net_s.stats.cycles >= p - 1
        # read-all absorbs k per cycle
        assert net_a.stats.cycles <= -(-p // k) + 1

    emit(
        "E15b Gossip / all-learn-all (p=32): the read-all extension is "
        "what breaks the p-cycle absorption floor — channels alone cannot",
        ["k", "single-read cyc", "read-all cyc"],
        rows,
    )

    vals = {i + 1: i for i in range(p)}
    benchmark.pedantic(
        lambda: gossip(
            ExtendedNetwork(p=p, k=8, read_policy="all"), vals
        ),
        rounds=1,
        iterations=1,
    )


def test_e15_sorting_no_separation(benchmark, emit):
    # Sorting moves Omega(n) elements over k channels: Omega(n/k) cycles
    # bind in every model variant.  The exclusive-write algorithm is
    # already within a constant of that floor, so the extensions have
    # nothing to attack (the §9 remark).
    rows = []
    p = k = 8
    for npp in (64, 128, 256):
        n = p * npp
        d = Distribution.even(n, p, seed=npp)
        net = MCBNetwork(p=p, k=k)
        mcb_sort(net, d)
        floor = n / k
        rows.append([n, int(floor), net.stats.cycles,
                     net.stats.cycles / floor])
        assert net.stats.cycles <= 6 * floor

    emit(
        "E15c Sorting under the standard model is already within a small "
        "constant of the every-model Omega(n/k) movement floor "
        "(p = k = 8)",
        ["n", "Omega(n/k) floor", "exclusive-write cycles", "ratio"],
        rows,
        notes="No model extension can improve this asymptotically — §9.",
    )

    d = Distribution.even(p * 256, p, seed=0)
    benchmark.pedantic(
        lambda: mcb_sort(MCBNetwork(p=p, k=k), d),
        rounds=1,
        iterations=1,
    )
