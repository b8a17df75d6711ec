"""One dtype rule for every vector ingest path.

``build_state``, ``build_batched_state`` and ``VectorCandidates`` all
detect their dtype through :func:`repro.mcb.vector.executor.detect_dtype`.
The oracle below is the element-by-element rule the vector engine
started from; every ingest path must agree with it on dtype and on the
values it stores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mcb.errors import ConfigurationError
from repro.mcb.vector import build_batched_state, build_state, detect_dtype
from repro.select.vector import VectorCandidates

LIMIT = 1 << 62


def oracle_dtype(rows) -> np.dtype:
    """The original element-wise rule, value by value."""
    kind = ""
    for row in rows:
        for v in row:
            t = type(v)
            if t is int:
                if not -LIMIT < v < LIMIT:
                    return np.dtype(object)
                this = "i"
            elif t is float:
                this = "f"
            else:
                return np.dtype(object)
            if not kind:
                kind = this
            elif kind != this:
                return np.dtype(object)
    return np.dtype({"i": np.int64, "f": np.float64, "": np.float64}[kind])


class _Int(int):
    pass


EVEN = {
    "int": [[5, -3, 0], [7, 2**40, -(2**40)]],
    "int-edges": [[LIMIT - 1, -(LIMIT - 1)], [0, 1]],
    "float": [[1.5, -2.0, 0.0], [3.25, 1e300, -1e-300]],
    "int-float-mix": [[1, 2.5], [3, 4]],
    "bool": [[True, False], [False, True]],
    "bool-int-mix": [[1, True], [2, 3]],
    "int-subclass": [[_Int(1), 2], [3, 4]],
    "huge": [[2**70, 1], [2, 3]],
    "at-limit": [[LIMIT, 1], [2, 3]],
    "below-minus-limit": [[-LIMIT, 1], [2, 3]],
    "beyond-int64": [[2**63, 1], [2, 3]],
    "tuples": [[(3, 1, 0), (2, 1, 1)], [(5, 2, 0), (1, 2, 1)]],
    "strings": [["b", "a"], ["d", "c"]],
    "empty-rows": [[], []],
}

RAGGED = {
    "ragged-int": [[1, 2, 3], [4]],
    "ragged-float": [[1.0, 2.0], [3.0]],
    "ragged-mix": [[1, 2.0], [3]],
    "ragged-empty-row": [[1, 2], []],
}


def _assert_same_values(got: np.ndarray, rows, dtype: np.dtype) -> None:
    assert got.dtype == dtype
    assert got.shape == (len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        stored = got[i].tolist()
        assert stored == list(row)
        assert [type(v) for v in stored] == [type(v) for v in row]


@pytest.mark.parametrize("name", sorted(EVEN))
def test_build_state_follows_the_rule(name):
    rows = EVEN[name]
    _assert_same_values(build_state(rows), rows, oracle_dtype(rows))


@pytest.mark.parametrize("name", sorted(EVEN))
def test_build_batched_state_follows_the_rule(name):
    lane_a = EVEN[name]
    lane_b = [list(reversed(row)) for row in reversed(lane_a)]
    state = build_batched_state([lane_a, lane_b])
    want = oracle_dtype(lane_a + lane_b)
    _assert_same_values(state[:, :, 0], lane_a, want)
    _assert_same_values(state[:, :, 1], lane_b, want)


def test_batched_dtype_spans_all_lanes():
    # Each lane alone is pure; together they are an int/float mix.
    state = build_batched_state([[[1, 2]], [[1.5, 2.5]]])
    assert state.dtype == np.dtype(object)
    assert state[0, :, 0].tolist() == [1, 2]


@pytest.mark.parametrize("name", sorted(EVEN) + sorted(RAGGED))
def test_vector_candidates_follow_the_rule(name):
    rows = {**EVEN, **RAGGED}[name]
    cand = VectorCandidates({i + 1: r for i, r in enumerate(rows)}, len(rows))
    want = oracle_dtype(rows)
    assert cand.values.dtype == want
    assert cand.numeric == (want != np.dtype(object))
    for pid, row in enumerate(rows, start=1):
        assert cand.row(pid) == list(row)
        assert [type(v) for v in cand.row(pid)] == [type(v) for v in row]


@pytest.mark.parametrize("name", sorted(EVEN) + sorted(RAGGED))
def test_detect_dtype_matches_oracle(name):
    rows = {**EVEN, **RAGGED}[name]
    dtype, flat = detect_dtype(rows)
    assert dtype == oracle_dtype(rows)
    if dtype == np.dtype(object):
        assert flat is None
    else:
        assert flat.dtype == dtype
        assert flat.tolist() == [v for row in rows for v in row]


@pytest.mark.parametrize("name", sorted(RAGGED))
def test_ragged_rows_are_refused(name):
    rows = RAGGED[name]
    with pytest.raises(ConfigurationError, match="share one"):
        build_state(rows)
    with pytest.raises(ConfigurationError, match="share one"):
        build_batched_state([rows])
    with pytest.raises(ConfigurationError, match="share one"):
        build_batched_state([[[1, 2], [3, 4]], rows])


def test_lanes_with_different_processor_counts_are_refused():
    # Six rows either way; only the lanes' own lengths tell them apart.
    lanes = [[[1, 2], [3, 4]], [[5, 6]], [[7, 8], [9, 10], [11, 12]]]
    with pytest.raises(ConfigurationError, match="share one"):
        build_batched_state(lanes)


def test_explicit_dtype_skips_detection():
    state = build_state([[1, 2], [3, 4]], np.dtype(np.float64))
    assert state.dtype == np.float64 and state.tolist() == [[1, 2], [3, 4]]
    batched = build_batched_state([[[1, 2]], [[3, 4]]], np.dtype(object))
    assert batched.dtype == np.dtype(object)
    assert batched[0].tolist() == [[1, 3], [2, 4]]
