"""The ``service-open`` workload: Poisson arrivals against ``repro serve``.

The server is a ``python -m repro serve`` subprocess on the process
executor with a fresh ``--cache-dir`` and plan cache.  The client is one
asyncio process holding at most ``nproc`` connections.  Arrivals follow
a Poisson process at a fixed rate, conditioned on the job count (sorted
uniform offsets over the window), so every run sends the same number of
jobs.  Latency runs from the *scheduled* arrival to the server-stamped
``finished_at``; both sides read ``time.time()`` on one machine.  Like
any client of the service, the benchmark fetches each job's record while
the window runs, a fixed time after its arrival; the server keeps its
default number of finished jobs, so its heap does not grow with the run.
The poll interval does not enter any number.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

import harness
import spans

#: Offered load, jobs per second: about half of the ~140 jobs/s of small
#: jobs two workers sustained on a 2-vCPU VM without a growing backlog.
RATE = 70.0
#: One job in ``REPEAT_EVERY`` re-sends an earlier job (a cache read).
REPEAT_EVERY = 5
#: Residual share of arrival-to-finish latency above which a traced run
#: fails the stage reconciliation, and the most by which two stamps may
#: disagree before a reconciliation check fails.
RESIDUAL_TOLERANCE = 0.25
CLOCK_SLACK_S = 0.001
#: Job seeds: run ``seed`` owns ``[seed * SEED_BLOCK, (seed + 1) *
#: SEED_BLOCK)``.  Set-up and warm-up jobs take the first
#: ``RESERVED_SEEDS`` of it, timed jobs the rest, so no job reuses
#: another's seed (and hits the result cache) unless it is a repeat.
SEED_BLOCK = 1_000_000
RESERVED_SEEDS = 100_000
#: Each job's record is fetched this long after its scheduled arrival,
#: then every ``POLL_S`` until it is terminal: well inside the ~14 s for
#: which the server's default ``--keep-finished`` of 1024 holds it.
FETCH_AFTER_S = 1.0
POLL_S = 0.05
#: Niceness of the server and its pool workers.  The client's sender
#: then gets a core when an arrival is due, so what it adds to latency
#: (its lateness) stays small beside what the server adds.
SERVER_NICE = 5
#: Warm-up ends after a round in which no job took longer than this.
WARM_JOB_S = 0.1
#: Jobs whose lanes are re-run in-process after a traced run.
REPLAY_JOBS = 120
#: Jobs whose payloads are compared with an in-process ``run_config``.
CROSSCHECK_JOBS = 24

#: (kind, JSON body template): the job mix.
KINDS = {
    "gen-sort": {"algorithm": "sort", "p": 8, "k": 8, "n": 128,
                 "engine": "generator"},
    "gen-select": {"algorithm": "select", "p": 8, "k": 2, "n": 128,
                   "engine": "generator"},
    "vec-batch": {"algorithm": "sort", "p": 8, "k": 8, "n": 512,
                  "engine": "vector", "batch": 4},
    "gen-large": {"algorithm": "sort", "p": 8, "k": 8, "n": 8192,
                  "engine": "generator"},
}
#: Fresh jobs come in rounds that hold each kind ``weight`` times in a
#: seed-shuffled order, so every run sends the same mix.  One job in 34
#: is a large generator sort (~115 ms of simulation on a 2-vCPU VM, one
#: lane, one cache write): the run's p99 lies among those jobs, so it
#: does not hinge on how many host stalls a run happens to catch.
WEIGHTS = {"gen-sort": 11, "gen-select": 11, "vec-batch": 11,
           "gen-large": 1}


@dataclass
class Job:
    index: int
    kind: str
    body: dict[str, Any]
    offset: float                     # scheduled arrival, s after start
    repeat_of: Optional[int] = None
    scheduled: float = 0.0            # wall clock
    sent: float = 0.0
    post_s: float = 0.0
    status: int = 0
    id: Optional[str] = None
    record: dict[str, Any] = field(default_factory=dict)

    @property
    def lanes(self) -> int:
        return self.body.get("batch", 1)


def workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def plan_jobs(seed: int, seconds: float) -> list[Job]:
    """The seed-derived arrival schedule and job mix."""
    rng = np.random.default_rng([seed, 0x0FE])
    count = int(round(RATE * seconds))
    offsets = np.sort(rng.uniform(0.0, seconds, size=count))
    repeats = set(rng.choice(np.arange(REPEAT_EVERY, count),
                             size=count // REPEAT_EVERY,
                             replace=False).tolist())
    deck = [kind for kind, weight in WEIGHTS.items() for _ in range(weight)]
    fresh = iter(kind for _ in range(count) for kind in rng.permutation(deck))
    jobs: list[Job] = []
    next_seed = seed * SEED_BLOCK + RESERVED_SEEDS
    for i, offset in enumerate(offsets):
        if i in repeats:
            src = jobs[int(rng.integers(i))]
            src = jobs[src.repeat_of] if src.repeat_of is not None else src
            jobs.append(Job(i, src.kind, dict(src.body), float(offset),
                            repeat_of=src.index))
            continue
        kind = str(next(fresh))
        body = dict(KINDS[kind], seed=next_seed)
        next_seed += body.get("batch", 1)  # lanes use seed..seed+batch-1
        jobs.append(Job(i, kind, body, float(offset)))
    if next_seed > (seed + 1) * SEED_BLOCK:
        raise ValueError(f"{count} jobs do not fit in one seed block")
    return jobs


# -- HTTP ----------------------------------------------------------------

async def http(port: int, method: str, path: str,
               body: Optional[dict] = None) -> tuple[int, Any]:
    """One request on its own connection (the server closes each one)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = json.dumps(body).encode() if body is not None else b""
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n"
            .encode() + data
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload) if payload else None


# -- server lifecycle ----------------------------------------------------

class Server:
    """One ``repro serve`` subprocess with fresh caches."""

    def __init__(self, scratch: harness.Scratch):
        self.box = scratch.sub("serve")
        self.started_wall = time.time()
        self._stderr = open(self.box / "stderr.txt", "w")
        self.proc = subprocess.Popen(
            ["nice", "-n", str(SERVER_NICE),
             sys.executable, "-m", "repro", "serve", "--port", "0",
             "--executor", "process", "--workers", str(workers()),
             "--cache-dir", str(self.box / "cache"),
             "--plan-cache", str(self.box / "plans"),
             "--drain-deadline", "10"],
            cwd=harness.ROOT, env=harness.child_env(self.box),
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if "http://" not in line:
            self.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.listening_wall = time.time()
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def close(self) -> None:
        """SIGTERM drains the server; it waits for its pool workers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self._stderr.close()

    def rss_mb(self) -> float:
        """Resident memory of the server plus its workers, MiB (/proc)."""
        total = 0
        for pid in [self.proc.pid] + _children(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total / 1024.0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            kids = [int(x) for x in fh.read().split()]
    except OSError:
        return out
    for kid in kids:
        out.append(kid)
        out.extend(_children(kid))
    return out


async def wait_done(port: int, ids: list[str],
                    interval: float = 0.02) -> dict[str, dict]:
    """Poll each job at a fixed interval until it is terminal."""
    records: dict[str, dict] = {}
    pending = list(ids)
    while pending:
        still = []
        for job_id in pending:
            status, payload = await http(port, "GET", f"/jobs/{job_id}")
            if status == 200 and payload["state"] in ("done", "failed",
                                                       "aborted"):
                records[job_id] = payload
            else:
                still.append(job_id)
        pending = still
        if pending:
            await asyncio.sleep(interval)
    return records


async def first_job(server: Server, body: dict) -> float:
    """Submit one job on a fresh server; returns its ``finished_at``."""
    status, payload = await http(server.port, "POST", "/jobs", body)
    if status != 202:
        raise RuntimeError(f"warm-up job refused: {status} {payload}")
    record = (await wait_done(server.port, [payload["id"]]))[payload["id"]]
    if record["state"] != "done":
        raise RuntimeError(f"warm-up job {record['state']}: {record}")
    return record["finished_at"]


async def warm_up(server: Server, seed: int, rounds: int = 6) -> None:
    """Untimed: spawn every pool worker and let each one import, compile
    and load what every job kind needs.  Jobs land on whichever worker
    is free, so rounds of concurrent jobs repeat until one round has no
    job slower than ``WARM_JOB_S``.  ``gen-large`` runs the code of
    ``gen-sort``, so it is left out."""
    kinds = ("gen-sort", "gen-select", "vec-batch")
    for r in range(rounds):
        bodies = [
            dict(KINDS[kind],
                 seed=seed * SEED_BLOCK + 1000 * (r + 1) + 16 * i + 8 * j)
            for i, kind in enumerate(kinds) for j in range(2 * workers())
        ]
        posted = await asyncio.gather(
            *(http(server.port, "POST", "/jobs", b) for b in bodies)
        )
        ids = [payload["id"] for status, payload in posted if status == 202]
        if len(ids) != len(bodies):
            raise RuntimeError("warm-up jobs refused")
        records = await wait_done(server.port, ids)
        walls = [rec["finished_at"] - rec["started_at"]
                 for rec in records.values()]
        if r > 0 and max(walls) < WARM_JOB_S:
            return


async def open_loop(server: Server, jobs: list[Job]) -> float:
    """Send every job at its scheduled time and fetch its record; returns
    the start wall clock.

    One sender walks the schedule in order and hands each due job to a
    task that POSTs it and later fetches its record, so a slow response
    never delays a later arrival.  The client holds at most ``nproc``
    connections, and fetches use at most ``nproc - 1`` of them, so one
    is always left for a POST.  A job the server no longer holds keeps
    an empty record and counts as failed.  The client's own garbage
    collector is paused for the window (the schedule is built up front,
    so little is allocated), keeping its pauses out of the sender's
    lateness.
    """
    loop = asyncio.get_running_loop()
    conns = asyncio.Semaphore(os.cpu_count() or 1)
    fetches = asyncio.Semaphore(max(1, (os.cpu_count() or 1) - 1))
    lead = 0.05
    start_wall = time.time() + lead
    start_loop = loop.time() + lead

    async def fetch(job: Job) -> None:
        await asyncio.sleep(start_loop + job.offset + FETCH_AFTER_S
                            - loop.time())
        while True:
            async with fetches, conns:
                status, payload = await http(server.port, "GET",
                                             f"/jobs/{job.id}")
            if status != 200:
                return
            if payload["state"] in ("done", "failed", "aborted"):
                job.record = payload
                return
            await asyncio.sleep(POLL_S)

    async def post(job: Job) -> None:
        async with conns:
            job.sent = time.time()
            t = time.perf_counter()
            job.status, payload = await http(server.port, "POST", "/jobs",
                                             job.body)
            job.post_s = time.perf_counter() - t
        if job.status == 202:
            job.id = payload["id"]
            await fetch(job)

    tasks = []
    gc.collect()
    gc.disable()
    try:
        for job in jobs:
            job.scheduled = start_wall + job.offset
            delay = start_loop + job.offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(post(job)))
        await asyncio.gather(*tasks)
    finally:
        gc.enable()
    return start_wall


# -- correctness ---------------------------------------------------------

def _fingerprint(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def expected_fingerprint(body: dict, lane_seed: int) -> str:
    """The benchmark's own answer for one lane of a job."""
    from repro import Distribution

    dist = Distribution.even(body["n"], body["p"], seed=lane_seed)
    ordered = sorted((v for part in dist.parts.values() for v in part),
                     reverse=True)
    if body["algorithm"] == "select":
        return _fingerprint(ordered[(body["n"] + 1) // 2 - 1])
    per = body["n"] // body["p"]
    layout = {pid: tuple(ordered[(pid - 1) * per: pid * per])
              for pid in range(1, body["p"] + 1)}
    return _fingerprint(sorted(layout.items()))


def lane_payloads(record: dict) -> list[dict]:
    result = record.get("result") or {}
    if "lanes" in result:
        return result["lanes"]
    return [{"fingerprint": result.get("fingerprint"),
             "stats": result.get("stats")}]


def bench_fields(body: dict, seed: int) -> list[Any]:
    from repro.bench.runner import BenchSpec

    return list(BenchSpec(body["algorithm"], body["p"], body["k"],
                          body["n"], seed, body.get("engine", "generator")))


def job_ok(job: Job, inject: bool) -> bool:
    if job.status != 202 or job.record.get("state") != "done":
        return False
    lanes = lane_payloads(job.record)
    if inject:
        lanes = [dict(lanes[0], fingerprint="wrong")] + lanes[1:]
    return len(lanes) == job.lanes and all(
        lane["fingerprint"] == expected_fingerprint(job.body,
                                                    job.body["seed"] + b)
        for b, lane in enumerate(lanes)
    )


def crosscheck(jobs: list[Job], seed: int) -> list[int]:
    """Sampled jobs whose lanes differ from an in-process ``run_config``."""
    from repro.bench.runner import BenchSpec, run_config

    rng = np.random.default_rng([seed, 0xC4EC])
    done = [j for j in jobs if j.record.get("state") == "done"]
    picks = rng.choice(len(done), size=min(CROSSCHECK_JOBS, len(done)),
                       replace=False)
    bad = []
    for i in sorted(picks.tolist()):
        job = done[i]
        for b, lane in enumerate(lane_payloads(job.record)):
            ref = run_config(BenchSpec(*bench_fields(job.body,
                                                     job.body["seed"] + b)))
            if (lane["fingerprint"], lane["stats"]) != (
                    ref["fingerprint"], ref["stats"]):
                bad.append(job.index)
                break
    return bad


# -- replay (traced run) -------------------------------------------------

def replay(jobs: list[Job], seed: int, scratch: harness.Scratch,
           tracer: spans.Tracer) -> dict[str, Any]:
    """Re-run sampled cache-miss jobs' layers in-process, untraced and
    traced (paired, alternating order), plus the cache and overlay."""
    from repro.bench.cache import CacheKey, ResultCache
    from repro.bounds.overlay import run_prediction
    from repro.service.execution import run_batch_lanes, run_lane

    rng = np.random.default_rng([seed, 0x4E91A7])
    misses = [j for j in jobs if j.repeat_of is None
              and j.record.get("state") == "done"]
    picks = sorted(rng.choice(len(misses), size=min(REPLAY_JOBS, len(misses)),
                              replace=False).tolist())
    cache = ResultCache(scratch.sub("replay-cache"))
    out: dict[str, list] = {"run_lane": [], "overhead": [], "get": [],
                            "put": [], "predict": [], "plain": [],
                            "traced": []}

    def lane_call(job: Job):
        fields = bench_fields(job.body, job.body["seed"])
        if job.lanes > 1:
            seeds = [job.body["seed"] + b for b in range(job.lanes)]
            return lambda: run_batch_lanes(fields, seeds)
        return lambda: [run_lane(fields)]

    for n, i in enumerate(picks):
        job = misses[i]
        call = lane_call(job)
        tracer.query = job.id
        times = {}
        for mode in (("plain", "traced") if n % 2 == 0
                     else ("traced", "plain")):
            t = time.perf_counter()
            if mode == "traced":
                with spans.instrumented(tracer):
                    idx = tracer.open("service.run_lane")
                    payloads = call()
                    tracer.close(idx)
            else:
                payloads = call()
            times[mode] = time.perf_counter() - t
        out["plain"].append(times["plain"])
        out["traced"].append(times["traced"])
        out["run_lane"].append(times["plain"])
        record = job.record
        out["overhead"].append(
            record["finished_at"] - record["started_at"] - times["plain"])
        keys = [CacheKey(*bench_fields(job.body, job.body["seed"] + b))
                for b in range(job.lanes)]
        for key, payload in zip(keys, payloads):
            for name, fn in (("get", lambda: cache.get(key)),
                             ("put", lambda: cache.put(key, payload)),
                             ("get", lambda: cache.get(key))):
                t = time.perf_counter()
                fn()
                out[name].append(time.perf_counter() - t)
        t = time.perf_counter()
        run_prediction(job.body["algorithm"], n=job.body["n"],
                       p=job.body["p"], k=job.body["k"],
                       n_max=job.body["n"] // job.body["p"])
        out["predict"].append(time.perf_counter() - t)
    return out


# -- the workload --------------------------------------------------------

async def _session(scratch: harness.Scratch, seed: int, seconds: float,
                   boots: int) -> dict[str, Any]:
    """Boot ``boots`` fresh servers (``setup_s`` is the median of their
    set-ups); the last one warms up and serves the open loop."""
    setups, pool_ready = [], []
    server: Optional[Server] = None
    try:
        for b in range(boots):
            server = Server(scratch)
            body = dict(KINDS["gen-sort"], seed=seed * SEED_BLOCK + 8 * b)
            finished = await first_job(server, body)
            setups.append(finished - server.started_wall)
            pool_ready.append(finished - server.listening_wall)
            if b < boots - 1:
                server.close()
        await warm_up(server, seed)
        jobs = plan_jobs(seed, seconds)
        start_wall = await open_loop(server, jobs)
        rss = server.rss_mb()
    finally:
        if server is not None:
            server.close()
    return {"jobs": jobs, "start_wall": start_wall, "setup": setups,
            "pool_ready": pool_ready, "peak_rss_mb": rss}


def run(seed: int, seconds: float, trace: bool, scratch: harness.Scratch,
        inject_error: int = 0) -> dict[str, Any]:
    # A traced run reports no setup_s, so it boots the server once.
    boots = 1 if trace else harness.SETUP_RUNS
    res = asyncio.run(_session(scratch, seed, seconds, boots))
    jobs: list[Job] = res["jobs"]
    ok = [job_ok(job, inject=inject_error == job.index + 1) for job in jobs]
    res["failed"] = sum(1 for x in ok if not x)
    res["crosscheck_failures"] = crosscheck(jobs, seed)
    res["rejected"] = sum(1 for j in jobs if j.status == 429)
    res["job_failed"] = sum(1 for j in jobs if j.status == 202
                            and j.record.get("state") != "done")
    done = [j for j in jobs if j.record.get("state") == "done"]
    res["latencies"] = [j.record["finished_at"] - j.scheduled for j in done]
    res["wall"] = max(j.record["finished_at"] for j in done) - res["start_wall"]
    res["completed"] = len(done)
    if trace:
        res["tracer"] = spans.Tracer()
        res["replay"] = replay(jobs, seed, scratch, res["tracer"])
    return res


def stages(res: dict[str, Any]) -> dict[str, list[float]]:
    """Per-job stage times (seconds) from client stamps and job records.

    The stages that sum to arrival-to-finish are disjoint: ``admit``
    (the request leg of the POST, client send to the server's
    ``submitted_at``), ``queue`` and ``wall``.  The POST round trip
    (``post``) is reported too, but its response leg overlaps the queue
    and the job, so it is not a term of the sum.  The server stages run
    from ``sent`` to ``finished_at``, so ``residual`` (what they leave
    of arrival-to-finish) equals the sender's lateness by construction.
    """
    out: dict[str, list[float]] = {k: [] for k in (
        "post", "admit", "queue", "wall", "latency", "residual",
        "lateness")}
    for job in res["jobs"]:
        rec = job.record
        if rec.get("state") != "done":
            continue
        latency = rec["finished_at"] - job.scheduled
        admit = rec["submitted_at"] - job.sent
        queue = rec["started_at"] - rec["submitted_at"]
        wall = rec["finished_at"] - rec["started_at"]
        out["post"].append(job.post_s)
        out["admit"].append(admit)
        out["queue"].append(queue)
        out["wall"].append(wall)
        out["latency"].append(latency)
        out["residual"].append(latency - (admit + queue + wall))
        out["lateness"].append(job.sent - job.scheduled)
    return out


def reconcile(st: dict[str, list[float]],
              rep: dict[str, list[float]]) -> tuple[float, list[str]]:
    """Residual share of latency, and the reconciliation checks that fail.

    The residual is the sender's lateness (see ``stages``), so its share
    only flags a generator-bound run: above ``RESIDUAL_TOLERANCE`` the
    sender, not the server, set the latency.  The other checks compare
    measurements that are not one another's sum, so a server stage that
    leaves part of a job uncovered fails them: no stage may read below
    zero; the server's ``submitted_at`` must fall inside the client's
    POST round trip (``admit <= post``); and on the replayed jobs the
    job wall must cover the lane work re-run in-process (median
    ``overhead >= 0``).  Each comparison allows ``CLOCK_SLACK_S``.
    """
    total = sum(st["latency"])
    share = sum(abs(r) for r in st["residual"]) / total if total else 0.0
    failures = []
    if share > RESIDUAL_TOLERANCE:
        failures.append(f"residual share {share:.4f} > {RESIDUAL_TOLERANCE}")
    for name in ("admit", "queue", "wall"):
        low = min(st[name], default=0.0)
        if low < -CLOCK_SLACK_S:
            failures.append(f"{name} reads {low * 1e3:.3f} ms")
    late = sum(1 for a, p in zip(st["admit"], st["post"])
               if a > p + CLOCK_SLACK_S)
    if late:
        failures.append(f"{late} jobs submitted after their POST returned")
    over = harness.median(rep["overhead"])
    if rep["overhead"] and over < -CLOCK_SLACK_S:
        failures.append(f"replayed lanes outlast the job wall by "
                        f"{-over * 1e3:.3f} ms (median)")
    return share, failures


def add_stage_spans(res: dict[str, Any]) -> None:
    """Client and server stage spans on the trace, one id per job."""
    tracer: spans.Tracer = res["tracer"]
    shift = time.perf_counter_ns() - time.time_ns()

    def ns(wall: float) -> int:
        """Wall-clock seconds on the tracer's ``perf_counter_ns`` base."""
        return int(wall * 1e9) + shift

    for job in res["jobs"]:
        rec = job.record
        if rec.get("state") != "done":
            continue
        tracer.add("client.lateness", rec["id"], ns(job.scheduled),
                   ns(job.sent))
        tracer.add("service.post", rec["id"], ns(job.sent),
                   ns(job.sent + job.post_s))
        tracer.add("service.admit", rec["id"], ns(job.sent),
                   ns(rec["submitted_at"]))
        tracer.add("service.queue_wait", rec["id"], ns(rec["submitted_at"]),
                   ns(rec["started_at"]))
        tracer.add("service.job_wall", rec["id"], ns(rec["started_at"]),
                   ns(rec["finished_at"]))


def layer_metrics(res: dict[str, Any]) -> dict[str, tuple[float, str]]:
    q = harness.quantile
    st = stages(res)
    rep = res["replay"]
    ms = 1e3
    jobs = res["jobs"]
    lanes = sum(j.lanes for j in jobs if j.record.get("state") == "done")
    hits = sum(j.record.get("cache_hits", 0) for j in jobs)
    return {
        "service.post_ms.p50": (q(st["post"], 0.5) * ms, "ms"),
        "service.admit_ms.p50": (q(st["admit"], 0.5) * ms, "ms"),
        "service.queue_wait_ms.p50": (q(st["queue"], 0.5) * ms, "ms"),
        "service.queue_wait_ms.p99": (q(st["queue"], 0.99) * ms, "ms"),
        "service.job_wall_ms.p50": (q(st["wall"], 0.5) * ms, "ms"),
        "service.job_wall_ms.p99": (q(st["wall"], 0.99) * ms, "ms"),
        "service.run_lane_ms.p50": (q(rep["run_lane"], 0.5) * ms, "ms"),
        "service.overhead_ms.p50": (q(rep["overhead"], 0.5) * ms, "ms"),
        "service.residual_ms.p50": (q(st["residual"], 0.5) * ms, "ms"),
        "service.residual_share": (reconcile(st, rep)[0], "ratio"),
        "bench.cache.get_ms": (q(rep["get"], 0.5) * ms, "ms"),
        "bench.cache.put_ms": (q(rep["put"], 0.5) * ms, "ms"),
        "bounds.run_prediction_ms": (q(rep["predict"], 0.5) * ms, "ms"),
        "service.cache_hit_ratio": (hits / lanes if lanes else 0.0, "ratio"),
        "service.pool_ready_s": (harness.median(res["pool_ready"]), "s"),
        "service.rejected": (float(res["rejected"]), "count"),
        "service.failed": (float(res["job_failed"]), "count"),
        "client.lateness_p99_ms": (q(st["lateness"], 0.99) * ms, "ms"),
    }
