"""The repository benchmark: one workload, one seed, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload engine --seed 1 \
        --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around each layer's public functions, prints the
per-layer metrics and the tracing overhead, and writes a Chrome/Perfetto
trace under ``.perfbench_out/``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is non-zero when any output was wrong.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Any

import harness

WORKLOADS = ("engine", "service-open")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed; keep "
                    f"{harness.HELD_OUT_SEED} for validating claims")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-error", type=int, default=0, metavar="Q",
                    help="corrupt query Q's output before checking it "
                    "(exercises the error path)")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def _table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(f"# {title}")
    for name, (value, unit) in rows.items():
        print(f"#   {name:42s} {value:14.4f} {unit}")


def _self_times(tracer, queries: int) -> None:
    selfs = sorted(tracer.self_ns_by_name().items(), key=lambda kv: -kv[1])
    _table("self time per layer, per query (traced)", {
        name: (ns * 1e-6 / max(1, queries), "ms") for name, ns in selfs})


def _latency_metrics(latencies: list[float]) -> dict[str, tuple[float, str]]:
    q = harness.quantile
    return {
        "latency_p50_ms": (q(latencies, 0.5) * 1e3, "ms"),
        "latency_p99_ms": (q(latencies, 0.99) * 1e3, "ms"),
    }


def engine_run(args, scratch) -> dict[str, Any]:
    import engine

    res = engine.run(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.inject_error)
    loop = res["loop"]
    lat = loop.latencies
    failed = loop.failed + len(res["parity_failures"])
    attempted = loop.attempted
    e2e = {"throughput_qps": (len(lat) / sum(lat), "queries/s"),
           **_latency_metrics(lat),
           "peak_rss_mb": (res["peak_rss_mb"], "MiB")}
    if res["setup"]:
        e2e["setup_s"] = (harness.median(res["setup"]), "s")
    print(f"# queries {len(lat)} (beyond p99: "
          f"{harness.tail_samples(len(lat), 0.99)}), set-ups (s) "
          f"{[round(s, 4) for s in res['setup']]}, RunStats parity "
          f"{'FAILED ' + str(res['parity_failures']) if res['parity_failures'] else 'ok'}")
    out = {"e2e": e2e, "failed": failed, "attempted": attempted,
           "e2e_title": "end-to-end (untraced)"}
    if not args.trace:
        return out
    out["e2e_title"] = "end-to-end, untraced half of each pair"
    traced = res["traced"]
    out["failed"] += traced.failed
    out["attempted"] += traced.attempted
    tlat = traced.latencies
    _table("end-to-end, traced half of each pair", {
        "throughput_qps": (len(tlat) / sum(tlat), "queries/s"),
        **_latency_metrics(tlat)})
    layers = engine.layer_metrics(res["tracer"], traced.attempted)
    layers["mcb.cycles_per_query"] = (loop.cycles / attempted, "count")
    layers["mcb.messages_per_query"] = (loop.messages / attempted, "count")
    layers["trace.overhead_pct"] = (100.0 * (sum(tlat) / sum(lat) - 1), "%")
    layers["latency.samples"] = (float(len(lat)), "count")
    _self_times(res["tracer"], traced.attempted)
    out.update(layers=layers, tracer=res["tracer"])
    return out


def service_run(args, scratch) -> dict[str, Any]:
    import engine
    import service

    res = service.run(args.seed, args.seconds, bool(args.trace), scratch,
                      args.inject_error)
    jobs = res["jobs"]
    lat = res["latencies"]
    st = service.stages(res)
    failed = res["failed"] + len(res["crosscheck_failures"])
    e2e = {"throughput_qps": (res["completed"] / res["wall"], "queries/s"),
           "latency_p50_ms": (harness.quantile(lat, 0.5) * 1e3, "ms"),
           "latency_p99_ms": (harness.quantile(lat, 0.99) * 1e3, "ms"),
           "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
           "setup_s": (harness.median(res["setup"]), "s")}
    print(f"# jobs {len(jobs)} at {service.RATE:g}/s on "
          f"{service.workers()} workers: done {res['completed']} (beyond "
          f"p99: {harness.tail_samples(len(lat), 0.99)}), rejected "
          f"{res['rejected']}, failed {res['job_failed']}, wrong answers "
          f"{res['failed'] - res['rejected'] - res['job_failed']}, "
          f"run_config mismatches {res['crosscheck_failures']}, client "
          f"lateness p99 {harness.quantile(st['lateness'], 0.99) * 1e3:.3f}"
          f" ms, set-ups (s) {[round(s, 4) for s in res['setup']]}")
    out = {"e2e": e2e, "failed": failed, "attempted": len(jobs),
           "e2e_title": "end-to-end (the server is never traced)"}
    if not args.trace:
        return out
    rep = res["replay"]
    share, failures = service.reconcile(st, rep)
    print("# stage reconciliation: admit + queue_wait + job_wall + residual "
          f"= arrival-to-finish per job; residual (sender lateness) share "
          f"{share:.4f}, tolerance {service.RESIDUAL_TOLERANCE}; admit <= "
          "POST round trip; replayed run_lane <= job_wall (median): "
          f"{'FAILED ' + '; '.join(failures) if failures else 'ok'}")
    if failures:
        out["failed"] += 1
    service.add_stage_spans(res)
    layers = engine.layer_metrics(res["tracer"], len(rep["plain"]))
    layers.update(service.layer_metrics(res))
    done = [j for j in jobs if j.record.get("state") == "done"]
    for name in ("cycles", "messages"):
        layers[f"mcb.{name}_per_query"] = (
            sum(j.record["result"]["totals"][name] for j in done)
            / max(1, len(done)), "count")
    if rep["plain"]:
        layers["trace.overhead_pct"] = (
            100.0 * (sum(rep["traced"]) / sum(rep["plain"]) - 1), "%")
    layers["latency.samples"] = (float(len(lat)), "count")
    _self_times(res["tracer"], len(rep["plain"]))
    out.update(layers=layers, tracer=res["tracer"])
    return out


def _terminate(signum, frame) -> None:
    # Unwind through every ``finally`` so the server and scratch go too.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    harness.require_sources()
    scratch = harness.Scratch(args.workload)
    try:
        scratch.activate()
        if args.probe_setup:
            import engine

            engine.probe_setup(args.workload, args.seed)
            return 0
        stamp: dict[str, Any] = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": harness.git_commit(), "env_before": harness.env_stamp(),
        }
        started = time.perf_counter()
        run = service_run if args.workload == "service-open" else engine_run
        out = run(args, scratch)
        stamp["env_after"] = harness.env_stamp()
        stamp["run_s"] = round(time.perf_counter() - started, 3)
        print(f"# stamp {json.dumps(stamp, sort_keys=True)}")
        _table(out["e2e_title"], out["e2e"])
        if args.trace:
            metrics = {name: out["layers"].get(name, (0.0, unit))
                       for name, unit in harness.PER_LAYER.items()}
            metrics["error_rate"] = (out["failed"] / out["attempted"],
                                     "ratio")
            _table("per-layer (traced)", metrics)
            trace = out["tracer"].chrome_trace()
            trace["otherData"] = stamp
            path = harness.write_out(
                f"trace-{args.workload}-seed{args.seed}.json", trace)
            print(f"# chrome trace: {path.relative_to(harness.ROOT)}")
        else:
            metrics = out["e2e"]
        ok = out["failed"] == 0
        harness.emit_result(ok, out["attempted"], out["failed"], {
            name: harness.metric(value, unit)
            for name, (value, unit) in metrics.items()})
        return 0 if ok else 1
    finally:
        scratch.close()


if __name__ == "__main__":
    sys.exit(main())
