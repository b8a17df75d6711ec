"""The in-process ``engine`` workload: vector and generator templates.

One caller runs a closed loop over the public API.  The schedule is a
sequence of rounds; each round holds every template ``weight`` times in
a seed-shuffled order, so every run has exactly the same template mix.
Query ``i``'s input comes from ``numpy.random.default_rng([seed, i])``
and is wrapped with ``Distribution.from_lists`` (or built by
``Distribution.theorem3_worst_case``) outside the timed region.  Every
output is checked against the benchmark's own answer.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Optional

import numpy as np

import harness
import spans


@dataclass
class Outcome:
    """What one timed call returned: per-query outputs and RunStats."""

    outputs: list[Any]          # sort: pid -> tuple; select: value
    stats: list[Any]            # RunStats per instance


@dataclass(frozen=True)
class Template:
    name: str
    weight: int
    make: Callable[[np.random.Generator], Any]
    call: Callable[[Any], Outcome]
    expected: Callable[[Any], list[Any]]
    #: Generator-engine twin for vector templates: (input) -> Outcome.
    twin: Optional[Callable[[Any], Outcome]] = None


# -- inputs (the benchmark's own RNG) ------------------------------------

def _values(rng: np.random.Generator, n: int) -> list[int]:
    return rng.choice(4 * n, size=n, replace=False).tolist()


def _split(values: list[int], sizes: list[int]) -> list[list[int]]:
    out, at = [], 0
    for size in sizes:
        out.append(values[at: at + size])
        at += size
    return out


def _skewed_sizes(rng: np.random.Generator, n: int, p: int) -> list[int]:
    """Dirichlet(1/3) composition of ``n`` with every part at least 1."""
    weights = rng.dirichlet([1.0 / 3.0] * p)
    return (1 + rng.multinomial(n - p, weights)).tolist()


def even_input(p: int, n: int):
    def make(rng):
        from repro import Distribution

        return Distribution.from_lists(_split(_values(rng, n), [n // p] * p))
    return make


def skewed_input(p: int, n: int):
    def make(rng):
        from repro import Distribution

        return Distribution.from_lists(
            _split(_values(rng, n), _skewed_sizes(rng, n, p))
        )
    return make


def adversarial_input(p: int, n: int):
    def make(rng):
        from repro import Distribution

        sizes = _skewed_sizes(rng, n, p)
        return Distribution.theorem3_worst_case(
            sizes, seed=int(rng.integers(2**31))
        )
    return make


def batch_input(p: int, n: int, lanes: int):
    def make(rng):
        return [
            {pid + 1: col for pid, col in
             enumerate(_split(_values(rng, n), [n // p] * p))}
            for _ in range(lanes)
        ]
    return make


# -- calls into the public API -------------------------------------------

def sort_call(p: int, k: int, engine: str, backend: str = "columnsort"):
    def call(dist) -> Outcome:
        import repro

        net = repro.MCBNetwork(p, k)
        out = repro.mcb_sort(net, dist, engine=engine, backend=backend)
        return Outcome([out.output], [net.stats])
    return call


def select_call(p: int, k: int, engine: str):
    def call(dist) -> Outcome:
        import repro

        net = repro.MCBNetwork(p, k)
        res = repro.mcb_select(net, dist, (dist.n + 1) // 2, engine=engine)
        return Outcome([res.value], [net.stats])
    return call


def batch_call(k: int):
    def call(lanes) -> Outcome:
        import repro.sort.vector as sort_vector

        res = sort_vector.sort_even_pk_batch(k, lanes)
        return Outcome([r.output for r in res.results], list(res.stats))
    return call


def batch_twin(k: int):
    """Lane-by-lane generator columnsort (same phase name as the batch)."""
    def call(lanes) -> Outcome:
        import repro
        from repro.sort.even_pk import sort_even_pk

        outputs, stats = [], []
        for lane in lanes:
            net = repro.MCBNetwork(k, k)
            outputs.append(sort_even_pk(net, lane, phase="columnsort").output)
            stats.append(net.stats)
        return Outcome(outputs, stats)
    return call


# -- expected answers (independent of the program) ------------------------

def _ordered(parts: dict[int, Any]) -> np.ndarray:
    """Every value of ``parts`` in processor order, as int64."""
    n = sum(len(parts[pid]) for pid in parts)
    return np.fromiter(
        chain.from_iterable(parts[pid] for pid in sorted(parts)),
        dtype=np.int64, count=n,
    )


def _layout(parts: dict[int, Any]) -> dict[int, tuple]:
    """Sorted descending, cut into the input's per-pid cardinalities."""
    ordered = np.sort(_ordered(parts))[::-1].tolist()
    out, at = {}, 0
    for pid in sorted(parts):
        size = len(parts[pid])
        out[pid] = tuple(ordered[at: at + size])
        at += size
    return out


def sorted_layout(dist) -> list[Any]:
    return [_layout(dist.parts)]


def batch_layouts(lanes) -> list[Any]:
    return [_layout(lane) for lane in lanes]


def median_value(dist) -> list[Any]:
    """The rank-``ceil(n/2)`` largest value."""
    values = _ordered(dist.parts)
    rank = (len(values) + 1) // 2
    return [np.partition(values, len(values) - rank)[len(values) - rank].item()]


# -- workloads -----------------------------------------------------------

def vector_templates() -> list[Template]:
    """Time in ``repro.mcb.vector`` ingest and execute, the vector sort
    pipelines and the selection data plane; almost none in the generator
    loop.  ``cs-solo`` ingests through ``build_state`` (element-wise
    dtype detection), ``cs-batch`` through ``build_batched_state``."""
    return [
        Template("cs-solo", 1, even_input(32, 32768),
                 sort_call(32, 32, "vector"), sorted_layout,
                 sort_call(32, 32, "generator")),
        Template("batcher-solo", 2, even_input(8, 4096),
                 sort_call(8, 8, "vector", "batcher"), sorted_layout,
                 sort_call(8, 8, "generator", "batcher")),
        Template("cs-batch", 2, batch_input(8, 512, 32),
                 batch_call(8), batch_layouts, batch_twin(8)),
        Template("vector-select", 1, even_input(16, 16384),
                 select_call(16, 4, "vector"), median_value,
                 select_call(16, 4, "generator")),
    ]


def generator_templates() -> list[Template]:
    """Time in ``MCBNetwork.run`` and the paper's adaptive algorithms.

    ``pk-sort`` carries weight 2 so that the mix's median lies inside
    its cluster of latencies, not in the gap below the ~12 ms ones."""
    return [
        Template("uneven-sort", 1, skewed_input(32, 256),
                 sort_call(32, 4, "generator"), sorted_layout),
        Template("virtual-sort", 1, even_input(8, 128),
                 sort_call(8, 2, "generator"), sorted_layout),
        Template("pk-sort", 2, even_input(8, 512),
                 sort_call(8, 8, "generator"), sorted_layout),
        Template("adversarial-sort", 1, adversarial_input(16, 256),
                 sort_call(16, 4, "generator"), sorted_layout),
        Template("skewed-select", 1, skewed_input(16, 1024),
                 select_call(16, 4, "generator"), median_value),
    ]


def templates(workload: str) -> list[Template]:
    if workload == "engine":
        return vector_templates() + generator_templates()
    raise ValueError(f"unknown in-process workload {workload!r}")


def schedule(seed: int, tpls: list[Template]):
    """Endless query stream: ``(query id, template)`` in seeded rounds."""
    rng = np.random.default_rng([seed, 0x5EED])
    base = [t for t in tpls for _ in range(t.weight)]
    qid = 0
    while True:
        for idx in rng.permutation(len(base)):
            qid += 1
            yield qid, base[idx]


#: Query ids of the untimed warm-up queries (never in the schedule).
WARMUP_QID = 1 << 40


def query_rng(seed: int, qid: int) -> np.random.Generator:
    return np.random.default_rng([seed, qid])


def _timed(tpl: Template, payload: Any) -> tuple[float, Outcome]:
    start = time.perf_counter()
    outcome = tpl.call(payload)
    return time.perf_counter() - start, outcome


def _stats_dicts(outcome: Outcome) -> list[dict]:
    return [s.to_dict() for s in outcome.stats]


class Loop:
    """The closed loop's bookkeeping: latencies, errors, RunStats totals."""

    def __init__(self, inject_error: int = 0):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.messages = 0
        self.inject_error = inject_error

    def check(self, tpl: Template, payload: Any, outcome: Outcome) -> bool:
        outputs = list(outcome.outputs)
        if self.inject_error == self.attempted + 1:
            outputs[0] = None  # a deliberately wrong answer (smoke test)
        return outputs == tpl.expected(payload)

    def record(self, seconds: float, ok: bool, outcome: Outcome) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if not ok:
            self.failed += 1
        for stats in outcome.stats:
            self.cycles += stats.cycles
            self.messages += stats.messages


def probe_setup(workload: str, seed: int) -> None:
    """Child-process body: import, compile, run each template once."""
    tpls = templates(workload)
    for i, tpl in enumerate(tpls):
        tpl.call(tpl.make(query_rng(seed, WARMUP_QID + i)))
    print("PROBE_READY", flush=True)


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Interpreter start -> one query of every template, in fresh caches.

    Each probe is a new interpreter that makes its own scratch
    directory, so its plan cache starts empty.
    """
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(harness.HERE / "run.py"), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=harness.ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            for line in proc.stdout:
                if line.strip() == "PROBE_READY":
                    times.append(time.perf_counter() - start)
                    break
        finally:
            proc.stdout.close()
            if proc.wait(timeout=60) != 0:
                raise RuntimeError(f"setup probe exited {proc.returncode}")
    if len(times) != probes:
        raise RuntimeError("setup probe ended without reporting ready")
    return times


def _parity(tpl: Template, payload: Any, outcome: Outcome) -> bool:
    """Vector RunStats (and outputs) equal the generator engine's."""
    twin = tpl.twin(payload)
    return (_stats_dicts(outcome) == _stats_dicts(twin)
            and outcome.outputs == twin.outputs)


def run(workload: str, seed: int, seconds: float, trace: bool,
        inject_error: int = 0) -> dict[str, Any]:
    # A traced run reports no setup_s, so it skips the set-up probes.
    setup = measure_setup(workload, seed, 0 if trace else harness.SETUP_RUNS)
    tpls = templates(workload)
    for i, tpl in enumerate(tpls):  # warm-up: imports, plan compile
        tpl.call(tpl.make(query_rng(seed, WARMUP_QID + i)))

    loop = Loop(inject_error)
    traced = Loop(inject_error) if trace else None
    tracer = spans.Tracer()
    firsts: dict[str, tuple[Any, Outcome]] = {}
    deadline = time.perf_counter() + seconds
    stream = schedule(seed, tpls)
    per_round = sum(t.weight for t in tpls)
    while True:
        for _ in range(per_round):
            qid, tpl = next(stream)
            payload = tpl.make(query_rng(seed, qid))
            if trace:
                # Paired: the same input untraced and traced, alternating
                # which goes first, so the difference is the overhead.
                tracer.query = qid
                plain_first = qid % 2 == 0
                if plain_first:
                    plain = _timed(tpl, payload)
                with spans.instrumented(tracer):
                    dt, outcome = _timed(tpl, payload)
                if not plain_first:
                    plain = _timed(tpl, payload)
                traced.record(dt, traced.check(tpl, payload, outcome),
                              outcome)
                dt, outcome = plain
            else:
                dt, outcome = _timed(tpl, payload)
            loop.record(dt, loop.check(tpl, payload, outcome), outcome)
            if tpl.twin is not None and tpl.name not in firsts:
                firsts[tpl.name] = (payload, outcome)
        if time.perf_counter() >= deadline:
            break
    rss = harness.peak_rss_mb()
    parity_failures = [
        name for name, (payload, outcome) in firsts.items()
        if not _parity(next(t for t in tpls if t.name == name),
                       payload, outcome)
    ]
    return {
        "loop": loop, "traced": traced, "tracer": tracer, "setup": setup,
        "peak_rss_mb": rss, "parity_failures": parity_failures,
    }


def plan_cache_hit_ratio() -> float:
    """Hits over lookups on ``vector_plan_cache_total`` (whole process)."""
    from repro.obs.metrics import global_registry

    snap = global_registry().counter("vector_plan_cache_total").snapshot()
    if not isinstance(snap, dict):
        return 0.0
    hits = sum(v for k, v in snap.items() if "result=hit" in k)
    total = sum(snap.values())
    return hits / total if total else 0.0


def layer_metrics(tracer: spans.Tracer,
                  queries: int) -> dict[str, tuple[float, str]]:
    """Span-derived per-layer metrics, per query."""
    queries = max(1, queries)
    ms = 1e-6 / queries
    busy = {name: tracer.busy_ns(name) * ms for name in (
        "mcb.vector.build_state", "mcb.vector.detect_dtype",
        "mcb.vector.build_batched_state", "mcb.vector.execute",
        "mcb.vector.plan_lookup", "select.vector", "core.has_duplicates",
        "mcb.network.run", "sort.uneven", "sort.virtual", "sort.even_pk",
        "select.mcb_select")}
    metrics = {f"{name}.busy_ms": (value, "ms")
               for name, value in busy.items()}
    selfs = tracer.self_ns_by_name()
    for name in ("sort.vector", "sort.mcb_sort"):
        metrics[f"{name}.self_ms"] = (selfs.get(name, 0) * ms, "ms")
    for name in ("mcb.vector.execute", "mcb.network.run"):
        metrics[f"{name}.calls"] = (tracer.calls(name) / queries, "count")
    run_s = tracer.busy_ns("mcb.network.run") * 1e-9
    metrics["mcb.network.cycles_per_s"] = (
        tracer.cycles("mcb.network.run") / run_s if run_s else 0.0, "1/s")
    metrics["mcb.vector.plan_cache.hit_ratio"] = (
        plan_cache_hit_ratio(), "ratio")
    return metrics
