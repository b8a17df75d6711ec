"""In-memory spans around calls into each layer's public functions.

The benchmark does not change the program to trace it.  Instead
:func:`instrumented` swaps each layer's public function for a wrapper
*where its caller looks it up* (the importing module's global, or the
class attribute), for the duration of one traced call.  Spans stay in
memory; :meth:`Tracer.chrome_trace` exports them once the run ends.

A span is ``[name, query, start_ns, end_ns, parent, cycles]``; spans of
one query share its id, and nesting follows the call stack.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

NAME, QUERY, START, END, PARENT, CYCLES = range(6)


class Tracer:
    """Collects nested spans for the current query."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.query: Any = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, self.query, time.perf_counter_ns(), 0, parent, 0]
        )
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, name: str, query: Any, start_ns: int, end_ns: int) -> None:
        """Record a span measured elsewhere (e.g. server timestamps)."""
        self.spans.append([name, query, start_ns, end_ns, -1, 0])

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def wrap_run(self, fn: Callable) -> Callable:
        """``MCBNetwork.run``: also records the simulated cycles it added."""
        def traced(net, *args, **kwargs):
            before = len(net.stats.phases)
            idx = self.open("mcb.network.run")
            try:
                return fn(net, *args, **kwargs)
            finally:
                self.close(idx)
                self.spans[idx][CYCLES] = sum(
                    ph.cycles for ph in net.stats.phases[before:]
                )

        traced.__wrapped__ = fn
        return traced

    # -- summaries -------------------------------------------------------
    def _durations(self, name: str) -> Iterator[tuple[int, list]]:
        for idx, span in enumerate(self.spans):
            if span[NAME] == name:
                yield idx, span

    def busy_ns(self, name: str) -> int:
        """Summed duration of ``name`` spans not nested in another one."""
        total = 0
        for _, span in self._durations(name):
            parent = span[PARENT]
            nested = False
            while parent >= 0:
                if self.spans[parent][NAME] == name:
                    nested = True
                    break
                parent = self.spans[parent][PARENT]
            if not nested:
                total += span[END] - span[START]
        return total

    def calls(self, name: str) -> int:
        return sum(1 for _ in self._durations(name))

    def cycles(self, name: str) -> int:
        return sum(span[CYCLES] for _, span in self._durations(name))

    def self_ns_by_name(self) -> dict[str, int]:
        """Each span name's duration minus the time its children cover."""
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out: dict[str, int] = defaultdict(int)
        for idx, span in enumerate(self.spans):
            out[span[NAME]] += span[END] - span[START] - child_ns[idx]
        return dict(out)

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome/Perfetto trace: one track per layer, query id in args."""
        origin_ns = min((s[START] for s in self.spans), default=0)
        tracks: dict[str, int] = {}
        events: list[dict[str, Any]] = []
        for span in self.spans:
            tid = tracks.setdefault(span[NAME], len(tracks) + 1)
            args: dict[str, Any] = {"query": span[QUERY]}
            if span[CYCLES]:
                args["cycles"] = span[CYCLES]
            events.append({
                "name": span[NAME], "cat": span[NAME].split(".")[0],
                "ph": "X", "pid": 1, "tid": tid,
                "ts": (span[START] - origin_ns) / 1000.0,
                "dur": (span[END] - span[START]) / 1000.0,
                "args": args,
            })
        meta = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": name}}
            for name, tid in tracks.items()
        ]
        meta.append({"name": "process_name", "ph": "M", "pid": 1,
                     "args": {"name": "perfbench"}})
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def _targets() -> list[tuple[Any, str, str]]:
    """(owner, attribute, span name): the lookup sites the callers use."""
    import repro
    import repro.mcb.vector.executor as executor
    import repro.select.api as select_api
    import repro.sort.cnet_sort as cnet_sort
    import repro.sort.dispatch as dispatch
    import repro.sort.vector as sort_vector
    from repro.mcb.vector.cache import PlanRegistry
    from repro.select.vector import VectorCandidates

    targets = [
        (repro, "mcb_sort", "sort.mcb_sort"),
        (repro, "mcb_select", "select.mcb_select"),
        (dispatch, "has_duplicates", "core.has_duplicates"),
        (select_api, "has_duplicates", "core.has_duplicates"),
        (dispatch, "sort_even_pk", "sort.even_pk"),
        (dispatch, "sort_virtual", "sort.virtual"),
        (dispatch, "sort_uneven", "sort.uneven"),
        (sort_vector, "sort_even_pk_vector", "sort.vector"),
        (sort_vector, "sort_even_pk_batch", "sort.vector"),
        (cnet_sort, "sort_cnet_vector", "sort.vector"),
        (sort_vector, "build_state", "mcb.vector.build_state"),
        (cnet_sort, "build_state", "mcb.vector.build_state"),
        (sort_vector, "build_batched_state", "mcb.vector.build_batched_state"),
        (executor, "detect_dtype", "mcb.vector.detect_dtype"),
        (executor.VectorRun, "execute", "mcb.vector.execute"),
        (executor.VectorRun, "execute_fused", "mcb.vector.execute"),
        (PlanRegistry, "lookup", "mcb.vector.plan_lookup"),
    ]
    for method in ("__init__", "total", "count", "median", "row",
                   "ge_counts", "purge"):
        targets.append((VectorCandidates, method, "select.vector"))
    return targets


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer entry point for the duration of the block."""
    from repro.mcb.network import MCBNetwork

    saved = []
    try:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        saved.append((MCBNetwork, "run", MCBNetwork.__dict__["run"]))
        MCBNetwork.run = tracer.wrap_run(MCBNetwork.__dict__["run"])
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
