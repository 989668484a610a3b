"""Set-associative cache with true-LRU replacement.

Addresses handed to the cache are *line numbers* (byte address already
shifted right by ``log2(line_bytes)``); the engines and layout models
produce line-granular streams directly, which keeps the hot simulation
loop cheap.

Each set is an insertion-ordered dict mapping ``tag -> dirty`` — Python
dicts preserve insertion order, so the first key is the LRU victim and a
pop/re-insert implements a move-to-MRU.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import gcd

from repro.core.spec import CacheSpec

WIDE_RUN_PERIODS = 4
"""A run of at least this many set cycles is bucketed one ``range`` per
set rather than line by line (see :meth:`SetAssociativeCache.fill_runs`)."""


@dataclass
class CacheStats:
    """Hit/miss/eviction/invalidation counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def add(self, accesses: int, misses: int, evictions: int) -> None:
        """Count a batch of *accesses* lookups, *misses* of which missed."""
        self.accesses += accesses
        self.hits += accesses - misses
        self.misses += misses
        self.evictions += evictions

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0


class SetAssociativeCache:
    """A single cache level (e.g. one core's L1I, or the shared LLC)."""

    def __init__(self, spec: CacheSpec) -> None:
        self.spec = spec
        self.n_sets = spec.n_sets
        self.assoc = spec.associativity
        self.stats = CacheStats()
        # set index -> {tag: dirty}; dict order is LRU order (first = LRU)
        self._sets: list[dict[int, bool]] = [{} for _ in range(self.n_sets)]

    def lookup(self, line_addr: int, *, write: bool = False) -> bool:
        """Access *line_addr*; return True on hit.

        A hit refreshes LRU order; a miss allocates the line (evicting
        the LRU entry if the set is full).  Writes mark the line dirty.
        """
        st = self.stats
        st.accesses += 1
        s = self._sets[line_addr % self.n_sets]
        dirty = s.pop(line_addr, None)
        if dirty is not None:
            s[line_addr] = dirty or write
            st.hits += 1
            return True
        st.misses += 1
        if len(s) >= self.assoc:
            s.pop(next(iter(s)))
            st.evictions += 1
        s[line_addr] = write
        return False

    def contains(self, line_addr: int) -> bool:
        """True if the line is resident (does not touch LRU order or stats)."""
        return line_addr in self._sets[line_addr % self.n_sets]

    def fill(self, line_addr: int, *, dirty: bool = False) -> None:
        """Install a line without counting an access (inclusive fills).

        A fill of a resident line refreshes its LRU recency, same as a
        hit — the line was touched either way.
        """
        s = self._sets[line_addr % self.n_sets]
        prev = s.pop(line_addr, None)
        if prev is not None:
            s[line_addr] = prev or dirty
            return
        if len(s) >= self.assoc:
            s.pop(next(iter(s)))
            self.stats.evictions += 1
        s[line_addr] = dirty

    def fill_runs(self, runs: Iterable[tuple[int, int, int]]) -> None:
        """Install clean lines from ``(base, count, step)`` runs, in order.

        Contract: the cache ends exactly as if :meth:`fill` were called
        on ``base + i*step`` for ``i in range(count)``, run by run — the
        same keys in the same per-set LRU order, the same dirty flags and
        the same :class:`CacheStats`.  Steps must be at least 1.

        Sets are independent, so the lines are bucketed by set (keeping
        fill order) and each set is built once.  A set that is empty
        beforehand, when no two runs overlap, ends holding just its last
        ``assoc`` lines; the lines before them were evictions.  Occupied
        sets, and every set when runs overlap (a line filled twice moves
        to MRU), take :meth:`fill` line by line.
        """
        n = self.n_sets
        assoc = self.assoc
        sets = self._sets
        stats = self.stats
        buckets: list[list[int]] = [[] for _ in range(n)]
        spans = []
        for base, count, step in runs:
            if count <= 0:
                continue
            if step < 1:
                raise ValueError(f"run step must be >= 1, got {step}")
            stop = base + count * step
            spans.append((base, stop - step))
            # Lines i and i + period of a run share a set; within one
            # period every line lands in a different set.
            period = n // gcd(step, n)
            if count >= WIDE_RUN_PERIODS * period:
                stride = step * period
                for first in range(base, base + period * step, step):
                    buckets[first % n].extend(range(first, stop, stride))
            else:
                for line in range(base, stop, step):
                    buckets[line % n].append(line)
        spans.sort()
        disjoint = all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
        fill = self.fill
        for index, lines in enumerate(buckets):
            if not lines:
                continue
            if disjoint and not sets[index]:
                if len(lines) > assoc:
                    stats.evictions += len(lines) - assoc
                    lines = lines[-assoc:]
                sets[index] = dict.fromkeys(lines, False)
            else:
                for line in lines:
                    fill(line)

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (coherence); return True if it was present."""
        s = self._sets[line_addr % self.n_sets]
        if s.pop(line_addr, None) is not None:
            self.stats.invalidations += 1
            return True
        return False

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        """Empty the cache (cold start)."""
        for s in self._sets:
            s.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache({self.spec.name}, {self.spec.size_bytes >> 10}KB, "
            f"{self.assoc}-way, resident={self.resident_lines()})"
        )
