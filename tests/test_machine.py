"""Machine replay tests: miss counting, cycles, module attribution."""

import pytest

from repro.core.machine import Machine
from repro.core.trace import AccessTrace
from tests.conftest import TINY_SERVER


def make_trace(*, ifetch_lines=(), loads=(), serial_loads=(), stores=(), instr=0, mod=0):
    t = AccessTrace()
    for line in ifetch_lines:
        t.ifetch(line, mod)
    for line in loads:
        t.load(line, mod)
    for line in serial_loads:
        t.load(line, mod, serial=True)
    for line in stores:
        t.store(line, mod)
    if instr:
        t.retire(mod, instr)
    return t


class TestMissCounting:
    def test_cold_ifetch_counts_all_levels(self, tiny_machine):
        d = tiny_machine.run_trace(make_trace(ifetch_lines=[1], instr=16))
        assert d.l1i_misses == 1
        assert d.l2i_misses == 1
        assert d.llci_misses == 1

    def test_warm_ifetch_counts_nothing(self, tiny_machine):
        tiny_machine.run_trace(make_trace(ifetch_lines=[1], instr=16))
        d = tiny_machine.run_trace(make_trace(ifetch_lines=[1], instr=16))
        assert d.l1i_misses == 0

    def test_serial_llc_misses_flagged(self, tiny_machine):
        d = tiny_machine.run_trace(make_trace(serial_loads=[1000], instr=10))
        assert d.llcd_misses == 1
        assert d.llcd_serial_misses == 1

    def test_parallel_loads_not_serial(self, tiny_machine):
        d = tiny_machine.run_trace(make_trace(loads=[1000], instr=10))
        assert d.llcd_misses == 1
        assert d.llcd_serial_misses == 0

    def test_stores_counted(self, tiny_machine):
        d = tiny_machine.run_trace(make_trace(stores=[1, 2], instr=10))
        assert d.stores == 2
        assert d.l1d_misses == 2

    def test_transactions_increment(self, tiny_machine):
        tiny_machine.run_trace(make_trace(instr=1))
        tiny_machine.run_trace(make_trace(instr=1))
        assert tiny_machine.counters[0].transactions == 2

    def test_cache_state_persists_across_traces(self, tiny_machine):
        tiny_machine.run_trace(make_trace(loads=[7], instr=1))
        d = tiny_machine.run_trace(make_trace(loads=[7], instr=1))
        assert d.l1d_misses == 0


class TestCycles:
    def test_cycles_accumulate(self, tiny_machine):
        d = tiny_machine.run_trace(make_trace(ifetch_lines=range(100), instr=1600))
        assert d.cycles > 0
        assert tiny_machine.counters[0].cycles == d.cycles

    def test_base_cycles_used_when_accounted(self, tiny_machine):
        t = AccessTrace()
        t.retire(0, 1000, base_cycles=450.0)
        d = tiny_machine.run_trace(t)
        assert d.cycles == 450

    def test_ideal_cpi_fallback(self, tiny_machine):
        t = AccessTrace()
        t.retire(0, 3000)
        d = tiny_machine.run_trace(t)
        assert d.cycles == pytest.approx(1000, rel=0.01)


class TestModuleAttribution:
    def test_misses_tallied_per_module(self, tiny_machine):
        t = AccessTrace()
        t.ifetch(1, 3)
        t.load(2000, 5, serial=True)
        t.retire(3, 100, base_cycles=50)
        tiny_machine.run_trace(t)
        cycles = tiny_machine.module_cycles()
        assert set(cycles) == {3, 5}
        assert cycles[3] > 0 and cycles[5] > 0

    def test_module_cycles_scale_with_misses(self, tiny_machine):
        t = AccessTrace()
        for i in range(10):
            t.load(5000 + i * 64, 1, serial=True)
        t.retire(2, 100, base_cycles=40)
        tiny_machine.run_trace(t)
        cycles = tiny_machine.module_cycles()
        assert cycles[1] > cycles[2]

    def test_snapshot_is_independent(self, tiny_machine):
        tiny_machine.run_trace(make_trace(ifetch_lines=[1], instr=16, mod=4))
        snap = tiny_machine.snapshot_module_stats()
        tiny_machine.run_trace(make_trace(ifetch_lines=[99], instr=16, mod=4))
        assert snap[4] != tiny_machine.module_stats[4]


class TestMultiCore:
    def test_per_core_counters(self):
        m = Machine(TINY_SERVER, n_cores=2)
        m.run_trace(make_trace(loads=[1], instr=10), core_id=0)
        m.run_trace(make_trace(loads=[2], instr=20), core_id=1)
        assert m.counters[0].instructions == 10
        assert m.counters[1].instructions == 20
        total = m.total_counters()
        assert total.instructions == 30
        assert total.transactions == 2

    def test_coherence_miss_counted(self):
        m = Machine(TINY_SERVER, n_cores=2)
        m.run_trace(make_trace(stores=[9], instr=1), core_id=0)
        d = m.run_trace(make_trace(loads=[9], instr=1), core_id=1)
        assert d.coherence_misses == 1

    def test_reset(self, tiny_machine):
        tiny_machine.run_trace(make_trace(loads=[1], instr=5))
        tiny_machine.reset()
        assert tiny_machine.counters[0].instructions == 0
        assert not tiny_machine.module_stats
        d = tiny_machine.run_trace(make_trace(loads=[1], instr=5))
        assert d.l1d_misses == 1  # cold again


class TestBatchedIfetchRuns:
    """The IFETCH_RUN fast path must be bit-identical to per-line replay."""

    @pytest.mark.parametrize("n_cores", [1, 2], ids=["1-core", "2-cores"])
    def test_batched_run_matches_expanded_ifetches(self, n_cores):
        import random

        from repro.core.machine import Machine as FullMachine

        rng = random.Random(7)
        batched, expanded = AccessTrace(), AccessTrace()
        for i in range(20):
            start = rng.randrange(100_000)
            n = rng.randrange(1, 700)
            batched.ifetch_run(start, n, module=i % 3)
            for line in range(start, start + n):
                expanded.ifetch(line, i % 3)
            for _ in range(15):
                addr = 10**8 + rng.randrange(10**5)
                serial = rng.random() < 0.5
                store = rng.random() < 0.3
                for t in (batched, expanded):
                    t.store(addr, 1) if store else t.load(addr, 1, serial=serial)
        for t in (batched, expanded):
            t.retire(0, 1000, branches=10, mispredicts=2, base_cycles=400)
        assert len(batched) == len(expanded)

        core_id = n_cores - 1
        m1, m2 = FullMachine(n_cores=n_cores), FullMachine(n_cores=n_cores)
        d1 = m1.run_trace(batched, core_id=core_id)
        d2 = m2.run_trace(expanded, core_id=core_id)
        assert d1.as_dict() == d2.as_dict()
        assert m1.module_stats == m2.module_stats

        def ordered(cache):
            # Dict equality ignores order; LRU order is the dict order.
            return [list(s.items()) for s in cache._sets]

        for c1, c2 in zip(m1.hierarchy.cores, m2.hierarchy.cores):
            for level in ("l1i", "l1d", "l2"):
                assert ordered(getattr(c1, level)) == ordered(getattr(c2, level))
                assert getattr(c1, level).stats == getattr(c2, level).stats
        assert ordered(m1.hierarchy.llc) == ordered(m2.hierarchy.llc)
        assert m1.hierarchy.llc.stats == m2.hierarchy.llc.stats
