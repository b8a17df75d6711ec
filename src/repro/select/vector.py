"""Vectorized candidate plane for the §8 filtering selection.

The selection loop has two distinct halves.  Its *control* half —
median-pair sorting, partial sums, the weighted-median announcement,
the termination collect — is data-dependent network choreography whose
cycle/message costs ARE the measurement, so it runs unchanged on the
generator engine regardless of the selected ``engine``; RunStats and
observer-event parity with the generator oracle is automatic because it
is literally the same code driving the same network.  The *data* half —
local medians, ``>= med*`` counts, the case-2/3 purges — is free local
computation the paper charges nothing for, and is exactly where a large
``n/p`` spends its Python time.

:class:`VectorCandidates` replaces the per-processor candidate lists
with one ``(p, cap)`` matrix plus a live-count vector and runs that
data half as whole-matrix NumPy operations: ``np.partition`` medians,
masked boolean-sum rank counts, and
:func:`~repro.mcb.vector.executor.compact_rows` purges (stable
left-packing, so candidate order — and therefore every downstream
message — matches the generator's list comprehensions element for
element).  Object payloads (tuples from §3 tagging, mixed columns) keep
the matrix layout but compare through per-row Python, which the scalar
rules require anyway.

Every value leaving the store is converted back to its native Python
type (``.item()`` / ``tolist()``): NumPy scalars must never enter
network programs, where bit accounting and message fingerprints follow
the Python scalar rules.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..mcb.vector import executor
from ..mcb.vector.executor import compact_rows, masked_reduce


class VectorCandidates:
    """Matrix-backed candidate store for ``engine="vector"`` selection.

    Mirrors the list store's observable behaviour exactly: the same
    medians (elements are globally distinct, so the value of the
    ``(cnt+1)//2``-th largest is algorithm-independent), the same
    counts, and purges that preserve the original candidate order.
    """

    def __init__(self, parts: Mapping[int, Sequence[Any]], p: int):
        rows = [parts[i] for i in range(1, p + 1)]
        self.p = p
        lengths = [len(r) for r in rows]
        self.cap = max(lengths, default=0)
        self.counts = np.array(lengths, dtype=np.int64)
        dtype, flat = executor.detect_dtype(rows)
        self.numeric = flat is not None
        if not self.numeric:
            self.values = np.empty((p, self.cap), dtype=object)
            for i, r in enumerate(rows):
                for j, v in enumerate(r):
                    self.values[i, j] = v
        elif flat.size == p * self.cap:
            self.values = flat.reshape(p, self.cap)
        else:
            # Ragged rows: scatter the row-major parse into the live
            # prefix of each zero-padded row.
            self.values = np.zeros((p, self.cap), dtype=dtype)
            self.values[self._live()] = flat

    # -- read side -----------------------------------------------------
    def total(self) -> int:
        """Number of live candidates across all processors."""
        return int(self.counts.sum())

    def count(self, pid: int) -> int:
        """Number of live candidates held by processor ``pid``."""
        return int(self.counts[pid - 1])

    def median(self, pid: int) -> Any:
        """``local_median`` of the live row: the ``(cnt+1)//2``-th largest,
        i.e. ascending rank ``cnt // 2`` for distinct elements."""
        cnt = int(self.counts[pid - 1])
        row = self.values[pid - 1, :cnt]
        if self.numeric:
            return np.partition(row, cnt // 2)[cnt // 2].item()
        return sorted(row.tolist())[cnt // 2]

    def row(self, pid: int) -> list:
        """Processor ``pid``'s live candidates as native Python values."""
        return self.values[pid - 1, : self.counts[pid - 1]].tolist()

    def _live(self) -> np.ndarray:
        return np.arange(self.cap)[None, :] < self.counts[:, None]

    def ge_counts(self, med_star: Any) -> dict[int, int]:
        """Per-pid count of live candidates ``>= med_star`` (Python ints —
        these become message payloads with exact bit accounting)."""
        if self.numeric:
            # int64 before the reduce: np.add on bools is logical-or.
            flags = (self.values >= med_star).astype(np.int64)
            per = masked_reduce(flags, self._live())
            return {i + 1: int(per[i]) for i in range(self.p)}
        return {
            i + 1: sum(
                1 for e in self.values[i, : self.counts[i]] if e >= med_star
            )
            for i in range(self.p)
        }

    # -- write side ----------------------------------------------------
    def purge(self, med_star: Any, keep_gt: bool) -> None:
        """Keep only candidates ``> med_star`` (case 2) or ``< med_star``
        (case 3), preserving each row's original order."""
        if self.numeric:
            cmp = (
                self.values > med_star
                if keep_gt
                else self.values < med_star
            )
            keep = cmp & self._live()
            self.values, self.counts = compact_rows(
                self.values, keep, fill=0
            )
            # Candidates only ever shrink; trimming dead capacity keeps
            # every later full-matrix pass proportional to what is
            # still live (geometric total instead of rounds x n).
            new_cap = int(self.counts.max()) if self.p else 0
            if new_cap < self.cap:
                self.values = np.ascontiguousarray(
                    self.values[:, :new_cap]
                )
                self.cap = new_cap
            return
        for i in range(self.p):
            kept = [
                e for e in self.values[i, : self.counts[i]]
                if (e > med_star if keep_gt else e < med_star)
            ]
            self.values[i, :] = None
            for j, v in enumerate(kept):
                self.values[i, j] = v
            self.counts[i] = len(kept)
