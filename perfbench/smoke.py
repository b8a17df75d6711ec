"""Smoke test for the benchmark itself (about a minute).

Runs every workload for a handful of queries, untraced and traced, and
asserts that each metric named in ``BENCHMARK.json`` is printed with its
unit.  It also checks that an injected wrong output is counted as an
error (non-zero exit, ``correct: false``), and that the command refuses
to run without the package sources.  Run from the repository root::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness

RUN = [sys.executable, str(harness.HERE / "run.py")]


def run(*args: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        RUN + list(args), cwd=harness.ROOT, capture_output=True, text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stdout + proc.stderr


def check_metrics(result: dict, expected: list[dict], label: str) -> None:
    printed = result["metrics"]
    for spec in expected:
        name = spec["name"]
        assert name in printed, f"{label}: metric {name} missing"
        assert printed[name]["unit"] == spec["unit"], (
            f"{label}: {name} unit {printed[name]['unit']!r} != "
            f"{spec['unit']!r}")
        assert isinstance(printed[name]["value"], (int, float)), (
            f"{label}: {name} is not a number")
    extra = set(printed) - {spec["name"] for spec in expected}
    assert not extra, f"{label}: metrics not in BENCHMARK.json: {extra}"


def main() -> int:
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            code, result, out = run(
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace)
            assert code == 0 and result is not None, f"{label}:\n{out}"
            assert result["correct"] and result["failed"] == 0, label
            assert result["attempted"] >= 1, label
            check_metrics(result, bench[key], label)
            print(f"ok  {label}: {result['attempted']} queries")
    for workload in workloads:
        code, result, out = run(
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", "0", "--inject-error", "2")
        assert code != 0, f"{workload}: injected error not caught:\n{out}"
        assert result is not None and not result["correct"], workload
        assert result["failed"] >= 1, workload
        print(f"ok  {workload}: injected wrong output counted "
              f"({result['failed']} failed)")
    harness.TMP_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=harness.TMP_ROOT))
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(harness.HERE, bare / harness.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / harness.HERE.name / "run.py"),
             "--workload", workloads[0], "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0, "ran without package sources"
        assert not proc.stdout.strip(), "printed a result without sources"
        print("ok  refuses to run without src/repro")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            harness.TMP_ROOT.rmdir()
        except OSError:
            pass
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
