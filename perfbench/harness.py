"""Shared plumbing for the benchmark: paths, scratch dirs, stamps, stats.

Everything a run writes stays inside the checkout: scratch state lives
under ``.perfbench_tmp/`` (deleted when the run ends) and trace exports
under ``.perfbench_out/``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterable, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"

#: Seed kept out of every tuning run: a later claim is re-checked on it.
HELD_OUT_SEED = 90210

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  A layer a workload
#: never enters reports 0.
PER_LAYER = {
    "mcb.vector.build_state.busy_ms": "ms",
    "mcb.vector.detect_dtype.busy_ms": "ms",
    "mcb.vector.build_batched_state.busy_ms": "ms",
    "mcb.vector.execute.busy_ms": "ms",
    "mcb.vector.execute.calls": "count",
    "mcb.vector.plan_lookup.busy_ms": "ms",
    "mcb.vector.plan_cache.hit_ratio": "ratio",
    "sort.vector.self_ms": "ms",
    "select.vector.busy_ms": "ms",
    "sort.mcb_sort.self_ms": "ms",
    "core.has_duplicates.busy_ms": "ms",
    "mcb.network.run.busy_ms": "ms",
    "mcb.network.run.calls": "count",
    "mcb.network.cycles_per_s": "1/s",
    "sort.uneven.busy_ms": "ms",
    "sort.virtual.busy_ms": "ms",
    "sort.even_pk.busy_ms": "ms",
    "select.mcb_select.busy_ms": "ms",
    "mcb.cycles_per_query": "count",
    "mcb.messages_per_query": "count",
    "service.post_ms.p50": "ms",
    "service.admit_ms.p50": "ms",
    "service.queue_wait_ms.p50": "ms",
    "service.queue_wait_ms.p99": "ms",
    "service.job_wall_ms.p50": "ms",
    "service.job_wall_ms.p99": "ms",
    "service.run_lane_ms.p50": "ms",
    "service.overhead_ms.p50": "ms",
    "service.residual_ms.p50": "ms",
    "service.residual_share": "ratio",
    "bench.cache.get_ms": "ms",
    "bench.cache.put_ms": "ms",
    "bounds.run_prediction_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.pool_ready_s": "s",
    "service.rejected": "count",
    "service.failed": "count",
    "client.lateness_p99_ms": "ms",
    "error_rate": "ratio",
    "latency.samples": "count",
    "trace.overhead_pct": "%",
}


def require_sources() -> None:
    """Exit non-zero (without a result line) when ``src/repro`` is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package sources at {SRC / 'repro'}; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(scratch: Path) -> dict[str, str]:
    """Environment for this run and its children: every cache is fresh.

    The compiled-plan cache, the XDG cache root (result caches default
    under it) and ``TMPDIR`` all point into ``scratch``, so no run reads
    another run's state or the user's ``~/.cache``.
    """
    env = dict(os.environ)
    env["REPRO_PLAN_CACHE"] = str(scratch / "plans")
    env["XDG_CACHE_HOME"] = str(scratch / "xdg")
    env["TMPDIR"] = str(scratch / "tmp")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env.pop("REPRO_BENCH_MAX_WORKERS", None)
    return env


class Scratch:
    """A per-run scratch directory under the checkout, removed on exit."""

    def __init__(self, tag: str):
        TMP_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=TMP_ROOT))

    def sub(self, name: str) -> Path:
        """A fresh, empty subdirectory (one per probe or server boot)."""
        path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.path))
        (path / "tmp").mkdir()
        return path

    def activate(self) -> None:
        """Point this process's own caches and temp files into scratch."""
        (self.path / "tmp").mkdir(exist_ok=True)
        os.environ.update(
            {k: v for k, v in child_env(self.path).items()
             if k in ("REPRO_PLAN_CACHE", "XDG_CACHE_HOME", "TMPDIR")}
        )
        tempfile.tempdir = str(self.path / "tmp")

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


def git_commit() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_stamp() -> dict[str, Any]:
    """Interpreter, platform, cores and 1-minute load (``env_metadata``)."""
    from repro.bench.runner import env_metadata

    return env_metadata()


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile ``q`` in [0, 1]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_samples(count: int, q: float) -> int:
    """How many samples lie strictly beyond quantile ``q`` of ``count``."""
    return count - 1 - int(q * (count - 1))


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


#: Fresh set-ups per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 3


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def emit_result(
    correct: bool, attempted: int, failed: int, metrics: dict[str, Any]
) -> None:
    """Print the machine-read result: the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


def write_out(name: str, payload: Any) -> Path:
    """Write a JSON artifact under ``.perfbench_out/``; returns its path."""
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / name
    path.write_text(json.dumps(payload))
    return path
