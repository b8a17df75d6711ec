#!/usr/bin/env python
"""Perf-regression gate over the committed benchmark trajectories.

The engine benchmarks append one record per session to their JSONL
result files (``benchmarks/results/BENCH_engine_hotpath.json``,
``BENCH_sparse_cycle.json``, ``BENCH_vector_engine.json``,
``BENCH_vector_select.json``, ``BENCH_service.json``), so each
file is a history: the *first*
record per configuration is the committed baseline, the *last* is the
freshest run.  This script compares the two on the **speedup ratios**
(fast/seed, parked/polling) — ratios of two measurements taken on the
same machine in the same session, hence machine-independent — and
fails (exit 1) when any ratio drops below ``1 - tolerance`` times its
baseline.

Single runs are noisy (CI machines share cores), so the candidate is
the **best of the newest N records** per configuration (``--best-of``,
default 3) — the committed baseline stays the first record.  The
allowed slack is ``--tolerance`` (default 0.2, i.e. the candidate must
hold at least 80% of the baseline ratio).

CI reruns the benchmarks (appending fresh records) and then runs this
script, so an engine change that silently costs more than the
tolerated fraction of either hot path fails the build.  Run it locally
the same way:

    PYTHONPATH=src python -m pytest -q benchmarks/bench_engine_hotpath.py \
        benchmarks/bench_sparse_cycle.py
    python benchmarks/check_perf_regression.py --best-of 3 --tolerance 0.2
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"

#: Default slack: newest ratio must be at least (1 - tolerance) of the
#: baseline ratio.
DEFAULT_TOLERANCE = 0.2

#: Default candidate window: best of the newest N records per config.
DEFAULT_BEST_OF = 3

#: Record fields that define a measured configuration.  Records are
#: grouped on every one of these they carry, so two configurations that
#: share ``(p, k)`` — network_backends' ``m=2`` and ``m=12`` — each keep
#: their own baseline.  ``shards`` is left out on purpose: older
#: BENCH_vector_engine records carry it for a since-removed ungated
#: sharding leg, not for the measured one.
CONFIG_FIELDS = (
    "p", "k", "m", "n", "batch", "lanes", "jobs", "queries", "window",
    "compute", "rank", "cycles", "gen_sample",
)

#: file stem -> callable row -> {metric: ratio} | None
CHECKS = {
    "BENCH_engine_hotpath.json": lambda row: (
        {
            "speedup_hoisted": row["speedup_hoisted"],
            "speedup_constructing": row["speedup_constructing"],
        }
        if "speedup_hoisted" in row
        else None
    ),
    "BENCH_sparse_cycle.json": lambda row: (
        {f"speedup[{w}]": s for w, s in row["speedup"].items()}
        if "speedup" in row
        else None
    ),
    "BENCH_vector_engine.json": lambda row: (
        {f"speedup[{w}]": s for w, s in row["speedup"].items()}
        if "speedup" in row
        else None
    ),
    "BENCH_vector_select.json": lambda row: (
        {f"speedup[{w}]": s for w, s in row["speedup"].items()}
        if "speedup" in row
        else None
    ),
    "BENCH_service.json": lambda row: (
        {f"speedup[{w}]": s for w, s in row["speedup"].items()}
        if "speedup" in row
        else None
    ),
    "BENCH_network_backends.json": lambda row: (
        {f"speedup[{w}]": s for w, s in row["speedup"].items()}
        if "speedup" in row
        else None
    ),
    "BENCH_loadgen.json": lambda row: (
        {f"speedup[{w}]": s for w, s in row["speedup"].items()}
        if "speedup" in row
        else None
    ),
}


def load_rows(path: Path) -> list[dict]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            rows.append(json.loads(line))
    return rows


def config_key(row: dict) -> tuple:
    """The ``(field, value)`` pairs of every config field ``row`` has."""
    return tuple((f, row[f]) for f in CONFIG_FIELDS if f in row)


def check_file(
    path: Path, extract, *, best_of: int, threshold: float
) -> list[str]:
    """Return failure messages for one trajectory file."""
    if not path.is_file():
        return [f"{path.name}: missing (run the benchmark first)"]
    by_config: dict[tuple, list[dict]] = {}
    for row in load_rows(path):
        metrics = extract(row)
        if metrics is None:
            continue  # table mirror / unrelated record
        by_config.setdefault(config_key(row), []).append(metrics)
    if not by_config:
        return [f"{path.name}: no metric records found"]
    failures = []
    for config, series in sorted(by_config.items()):
        key = ",".join(f"{f}={v}" for f, v in config)
        base = series[0]
        window = series[-best_of:]
        for metric, base_val in base.items():
            candidates = [
                row[metric] for row in window if row.get(metric) is not None
            ]
            if not candidates:
                failures.append(
                    f"{path.name} {key}: {metric} vanished from the newest "
                    f"{len(window)} run(s)"
                )
                continue
            cur_val = max(candidates)
            ratio = cur_val / base_val if base_val else float("inf")
            status = "ok" if ratio >= threshold else "REGRESSION"
            print(
                f"{path.name} {key} {metric}: baseline {base_val:.2f} "
                f"-> best-of-{len(window)} {cur_val:.2f} ({ratio:.0%}) "
                f"{status}"
            )
            if ratio < threshold:
                failures.append(
                    f"{path.name} {key}: {metric} fell to {cur_val:.2f} "
                    f"({ratio:.0%} of baseline {base_val:.2f}; "
                    f"floor {threshold:.0%})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--best-of", type=int, default=DEFAULT_BEST_OF, metavar="N",
        help="compare the best of the newest N records per configuration "
        f"(default: {DEFAULT_BEST_OF})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="T",
        help="allowed fractional drop below baseline before failing "
        f"(default: {DEFAULT_TOLERANCE:.2f}, i.e. floor = 1 - T)",
    )
    args = parser.parse_args(argv)
    if args.best_of < 1:
        parser.error("--best-of must be >= 1")
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must lie in [0, 1)")
    threshold = 1.0 - args.tolerance
    failures: list[str] = []
    for name, extract in CHECKS.items():
        failures += check_file(
            RESULTS / name, extract,
            best_of=args.best_of, threshold=threshold,
        )
    if failures:
        print("\nperf regression check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf regression check passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
