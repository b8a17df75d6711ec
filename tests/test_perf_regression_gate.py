"""The perf-regression gate keys each trajectory on its full config."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GATE = (
    Path(__file__).resolve().parents[1]
    / "benchmarks" / "check_perf_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_perf_regression", GATE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _write(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def _backend(m: int, auto: float) -> dict:
    return {"bench": "network_backends", "p": 4, "k": 4, "m": m,
            "n": 4 * m, "speedup": {"auto": auto}}


def _runs(m2: float, m12: float) -> list[dict]:
    """Three later sessions (the best-of window) with these ratios."""
    return [_backend(2, m2), _backend(12, m12)] * 3


def _check(gate, path: Path) -> list[str]:
    return gate.check_file(
        path, gate.CHECKS["BENCH_network_backends.json"],
        best_of=3, threshold=0.8,
    )


def test_same_p_k_configs_are_gated_separately(gate, tmp_path):
    # m=12 halves while m=2 holds.  Keyed on (p, k) alone, m=2's 3.3x
    # would stand in for both and hide the m=12 regression.
    path = _write(tmp_path / "BENCH_network_backends.json", [
        _backend(2, 3.3), _backend(12, 1.2), *_runs(3.3, 0.6),
    ])
    failures = _check(gate, path)
    assert len(failures) == 1
    assert "m=12" in failures[0] and "m=2," not in failures[0]


def test_each_config_keeps_its_own_baseline(gate, tmp_path):
    # m=2 falls to 1.3x: above m=12's baseline, far below its own.
    path = _write(tmp_path / "BENCH_network_backends.json", [
        _backend(2, 3.3), _backend(12, 1.2), *_runs(1.3, 1.2),
    ])
    failures = _check(gate, path)
    assert len(failures) == 1 and "m=2," in failures[0]


def test_holding_configs_pass(gate, tmp_path):
    path = _write(tmp_path / "BENCH_network_backends.json", [
        _backend(2, 3.3), _backend(12, 1.2), *_runs(3.1, 1.1),
    ])
    assert _check(gate, path) == []


def test_config_key_uses_every_config_field(gate):
    row = {"p": 32, "k": 32, "m": 1024, "batch": 64, "gen_sample": 4,
           "shards": 2, "wall_s": 1.0, "speedup": {"batch": 9.0}}
    assert gate.config_key(row) == (
        ("p", 32), ("k", 32), ("m", 1024), ("batch", 64), ("gen_sample", 4),
    )
