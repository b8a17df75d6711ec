"""Golden RunStats and outputs for the hand-scheduled generator programs.

``test_engine_equivalence.py`` runs the *same* program on both engines,
so it cannot notice when a program itself is rewritten.  These pins
can: each case runs one generator program on fixed inputs and compares
``RunStats.to_dict()`` plus a digest of the outputs with values recorded
before the programs' per-cycle bodies were rewritten (column plans,
inlined sleeps).

Regenerate only for an intended change of the model's costs::

    PYTHONPATH=src python tests/test_golden_runstats.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro import Distribution, mcb_select, mcb_sort
from repro.core.element import tag_elements
from repro.mcb import MCBNetwork
from repro.prefix.mcb_partial_sums import mcb_partial_sums, mcb_total_sum
from repro.sort.even_pk import sort_even_pk
from repro.sort.ones import sort_ones
from repro.sort.recursive import sort_recursive
from repro.sort.virtual import sort_virtual

GOLDEN = Path(__file__).with_name("data") / "golden_runstats.json"


def _values(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.choice(8 * n, size=n, replace=False).tolist()


def _floats(seed: int, n: int) -> list[float]:
    return [v / 8.0 for v in _values(seed, n)]


def _cols(values: list[Any], p: int) -> dict[int, list[Any]]:
    per = len(values) // p
    return {i + 1: values[i * per: (i + 1) * per] for i in range(p)}


def _tagged(values: list[Any], p: int) -> dict[int, list[Any]]:
    # Two copies of every value: the §3 (value, pid, idx) triples are
    # what makes the duplicates distinct.
    half = values[: len(values) // 2]
    return {pid: list(v) for pid, v in
            tag_elements(_cols(half + half, p)).items()}


def _sort(fn: Callable, p: int, k: int, parts, **kw) -> Callable:
    def run():
        net = MCBNetwork(p, k)
        return fn(net, parts, **kw).output, net.stats
    return run


def _sums(fn: Callable, p: int, k: int, **kw) -> Callable:
    def run():
        net = MCBNetwork(p, k)
        values = {i: (i * 37) % 11 - 5 for i in range(1, p + 1)}
        return fn(net, values, **kw), net.stats
    return run


def _api(p: int, k: int, dist: Distribution, rank: int = 0) -> Callable:
    def run():
        net = MCBNetwork(p, k)
        if rank:
            return mcb_select(net, dist, rank).value, net.stats
        return mcb_sort(net, dist).output, net.stats
    return run


def _skewed(seed: int, p: int, n: int) -> Distribution:
    rng = np.random.default_rng(seed)
    sizes = (1 + rng.multinomial(n - p, rng.dirichlet([1 / 3] * p))).tolist()
    values, out, at = _values(seed + 1, n), [], 0
    for size in sizes:
        out.append(values[at: at + size])
        at += size
    return Distribution.from_lists(out)


CASES: dict[str, Callable[[], tuple[Any, Any]]] = {
    "columnsort-plain": _sort(sort_even_pk, 4, 4, _cols(_values(1, 48), 4)),
    "columnsort-plain-k5": _sort(
        sort_even_pk, 5, 5, _cols(_values(2, 100), 5)),
    "columnsort-float": _sort(sort_even_pk, 3, 3, _cols(_floats(3, 18), 3)),
    "columnsort-wrap-skip": _sort(
        sort_even_pk, 4, 4, _cols(_values(4, 64), 4), wrap_skip=True),
    "columnsort-wrap-skip-odd-m": _sort(
        sort_even_pk, 3, 3, _cols(_values(5, 27), 3), wrap_skip=True),
    "columnsort-paper-phase2": _sort(
        sort_even_pk, 4, 4, _cols(_values(6, 48), 4), paper_phase2=True),
    "columnsort-tagged": _sort(sort_even_pk, 3, 3, _tagged(_values(7, 18), 3)),
    "columnsort-tagged-wrap-skip": _sort(
        sort_even_pk, 3, 3, _tagged(_values(8, 18), 3), wrap_skip=True),
    "virtual-rank": _sort(sort_virtual, 8, 2, _cols(_values(9, 128), 8)),
    "virtual-merge": _sort(
        sort_virtual, 6, 3, _cols(_values(10, 36), 6), sorter="merge"),
    "virtual-tagged": _sort(sort_virtual, 4, 2, _tagged(_values(11, 16), 4)),
    "recursive": _sort(sort_recursive, 16, 8, _cols(_values(12, 256), 16)),
    "ones": _sort(sort_ones, 16, 4, _cols(_values(13, 16), 16)),
    "ones-tagged": _sort(sort_ones, 10, 3, _tagged(_values(14, 10), 10)),
    "partial-sums": _sums(mcb_partial_sums, 13, 3),
    "partial-sums-next": _sums(mcb_partial_sums, 16, 4, include_next=True),
    "total-sum": _sums(mcb_total_sum, 13, 3),
    "total-sum-k1": _sums(mcb_total_sum, 7, 1),
    "sort-uneven": _api(32, 4, _skewed(15, 32, 256)),
    "sort-adversarial": _api(16, 4, Distribution.theorem3_worst_case(
        [1, 3, 40, 2, 9, 60, 5, 8, 11, 4, 30, 7, 20, 6, 40, 10], seed=16)),
    "select-skewed": _api(16, 4, _skewed(17, 16, 1024), rank=512),
}


def _record(name: str) -> dict[str, Any]:
    output, stats = CASES[name]()
    text = repr(output)
    return {
        # Through JSON, so channel ids compare as the file stores them.
        "stats": json.loads(json.dumps(stats.to_dict())),
        "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "output_len": len(text),
    }


def _golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_program_matches_golden(name):
    want = _golden()[name]
    got = _record(name)
    assert got["stats"] == want["stats"], name
    assert (got["output_sha256"], got["output_len"]) == (
        want["output_sha256"], want["output_len"]), name


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_runstats.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {name: _record(name) for name in sorted(CASES)}, indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
