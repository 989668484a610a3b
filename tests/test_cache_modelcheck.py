"""Model-checking the set-associative cache against a reference LRU.

Hypothesis drives random access sequences through the simulator's cache
and an obviously-correct reference implementation (per-set ordered
lists); hit/miss decisions must agree exactly on every access.  The
batched ``fill_runs`` is checked against its own specification, a
line-by-line ``fill`` on a twin cache.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.core.cache import SetAssociativeCache
from repro.core.spec import CacheSpec


class ReferenceLRU:
    """Per-set LRU built on OrderedDict — the specification."""

    def __init__(self, n_sets: int, assoc: int) -> None:
        self.n_sets = n_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def lookup(self, line: int) -> bool:
        s = self.sets[line % self.n_sets]
        if line in s:
            s.move_to_end(line)
            return True
        if len(s) >= self.assoc:
            s.popitem(last=False)
        s[line] = True
        return False

    def invalidate(self, line: int) -> bool:
        s = self.sets[line % self.n_sets]
        return s.pop(line, None) is not None


ops = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "write", "invalidate", "fill"]),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=400,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops, n_sets=st.sampled_from([1, 2, 8]), assoc=st.sampled_from([1, 2, 4]))
def test_cache_agrees_with_reference_lru(ops, n_sets, assoc):
    spec = CacheSpec("mc", n_sets * assoc * 64, assoc, miss_penalty_cycles=8)
    cache = SetAssociativeCache(spec)
    reference = ReferenceLRU(n_sets, assoc)
    for op, line in ops:
        if op == "invalidate":
            assert cache.invalidate(line) == reference.invalidate(line)
        elif op == "fill":
            # fill installs without counting; reference: lookup, ignore result
            cache.fill(line)
            reference.lookup(line)
        else:
            expected = reference.lookup(line)
            assert cache.lookup(line, write=(op == "write")) == expected


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.integers(min_value=0, max_value=600), max_size=300))
def test_cache_stats_invariants(ops):
    spec = CacheSpec("mc", 8 * 2 * 64, 2, miss_penalty_cycles=8)
    cache = SetAssociativeCache(spec)
    for line in ops:
        cache.lookup(line)
    st_ = cache.stats
    assert st_.accesses == len(ops)
    assert st_.hits + st_.misses == st_.accesses
    assert cache.resident_lines() <= spec.n_lines
    assert st_.evictions <= st_.misses


def fill_line_by_line(cache, runs) -> None:
    """The specification of ``fill_runs``: one ``fill`` per line, in order."""
    for base, count, step in runs:
        for i in range(count):
            cache.fill(base + i * step)


def cache_state(cache):
    return [list(s.items()) for s in cache._sets], cache.stats


run_shapes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # base, or gap after the last run
        st.integers(min_value=0, max_value=120),  # count: up to many set cycles
        st.integers(min_value=1, max_value=12),  # step
    ),
    max_size=5,
)


@st.composite
def fill_runs_ops(draw):
    """A run batch: laid end to end (disjoint, any order) or placed freely
    (overlaps likely)."""
    shapes = draw(run_shapes)
    if not draw(st.booleans()):
        return "fill_runs", shapes
    runs, edge = [], 0
    for gap, count, step in shapes:
        runs.append((edge + gap, count, step))
        edge += gap + count * step
    return "fill_runs", draw(st.permutations(runs))


line_ops = st.tuples(
    st.sampled_from(["lookup", "write", "fill", "invalidate"]),
    st.integers(min_value=0, max_value=255),
)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(st.one_of(line_ops, fill_runs_ops()), max_size=40),
    n_sets=st.sampled_from([1, 2, 8, 16]),
    assoc=st.sampled_from([1, 2, 4]),
)
def test_fill_runs_matches_per_line_fill(ops, n_sets, assoc):
    """``fill_runs`` leaves the same per-set LRU order, dirty flags and
    stats as a line-by-line ``fill`` on a twin — on fresh and partly or
    fully occupied caches (clean and dirty lines), for disjoint and
    overlapping runs, strides > 1 and runs many set cycles wide."""
    spec = CacheSpec("mc", n_sets * assoc * 64, assoc, miss_penalty_cycles=8)
    batched = SetAssociativeCache(spec)
    reference = SetAssociativeCache(spec)
    for op, arg in ops:
        if op == "fill_runs":
            batched.fill_runs(arg)
            fill_line_by_line(reference, arg)
            assert cache_state(batched) == cache_state(reference)
        elif op == "invalidate":
            assert batched.invalidate(arg) == reference.invalidate(arg)
        elif op == "fill":
            batched.fill(arg)
            reference.fill(arg)
        else:
            write = op == "write"
            assert batched.lookup(arg, write=write) == reference.lookup(arg, write=write)
    assert cache_state(batched) == cache_state(reference)
