"""AccessTrace tests."""

from repro.core.trace import (
    AccessTrace,
    DLOAD,
    DLOAD_SERIAL,
    DSTORE,
    IFETCH,
    IFETCH_RUN,
)


class TestAppending:
    def test_ifetch(self, trace):
        trace.ifetch(10, module=1)
        assert trace.kinds == [IFETCH]
        assert trace.addrs == [10]
        assert trace.mods == [1]

    def test_ifetch_run_batches(self, trace):
        trace.ifetch_run(100, 4, module=2)
        assert trace.kinds == [IFETCH_RUN]
        assert trace.addrs == [(100, 4)]
        assert len(trace) == 4
        assert list(trace.events()) == [(IFETCH, line, 2) for line in (100, 101, 102, 103)]

    def test_ifetch_run_of_one_is_plain_ifetch(self, trace):
        trace.ifetch_run(7, 1, module=3)
        trace.ifetch_run(9, 0, module=3)
        assert trace.kinds == [IFETCH]
        assert trace.addrs == [7]
        assert len(trace) == 1

    def test_clear_resets_run_batching(self, trace):
        trace.ifetch_run(100, 4, module=2)
        trace.clear()
        assert len(trace) == 0
        trace.ifetch(1, module=0)
        assert len(trace) == 1

    def test_load_serial_flag(self, trace):
        trace.load(5, 0)
        trace.load(6, 0, serial=True)
        assert trace.kinds == [DLOAD, DLOAD_SERIAL]

    def test_load_lines_matches_per_line_loads(self):
        lines_cases = [[], [7], [7, 3], list(range(40, 50, 2)), range(100, 105)]
        for lines in lines_cases:
            for serial, head_serial in ((False, False), (True, False), (False, True)):
                batched, per_line = AccessTrace(), AccessTrace()
                batched.store(1, 0)
                per_line.store(1, 0)
                batched.load_lines(lines, 4, serial=serial, head_serial=head_serial)
                for i, line in enumerate(lines):
                    per_line.load(line, 4, serial=serial or (head_serial and i == 0))
                assert batched.kinds == per_line.kinds
                assert batched.addrs == per_line.addrs
                assert batched.mods == per_line.mods
                assert len(batched) == len(per_line)

    def test_store_and_runs(self, trace):
        trace.store(1, 0)
        trace.load_run(10, 3, 0)
        trace.store_run(20, 2, 0)
        assert trace.kinds == [DSTORE, DLOAD, DLOAD, DLOAD, DSTORE, DSTORE]
        assert trace.addrs == [1, 10, 11, 12, 20, 21]


class TestRetirement:
    def test_instructions_accumulate_per_module(self, trace):
        trace.retire(0, 100)
        trace.retire(1, 50)
        trace.retire(0, 25)
        assert trace.instr_by_module == {0: 125, 1: 50}
        assert trace.instructions == 175

    def test_branches_and_mispredicts(self, trace):
        trace.retire(0, 100, branches=20, mispredicts=2)
        trace.retire(0, 100, branches=10, mispredicts=1)
        assert trace.branches == 30
        assert trace.mispredicts == 3

    def test_base_cycles_accumulate(self, trace):
        trace.retire(0, 100, base_cycles=45.0)
        trace.retire(1, 100, base_cycles=33.0)
        assert trace.base_cycles == 78.0
        assert trace.base_by_module == {0: 45.0, 1: 33.0}

    def test_base_cycles_optional(self, trace):
        trace.retire(0, 100)
        assert trace.base_cycles == 0.0


class TestLifecycle:
    def test_clear_resets_everything(self, trace):
        trace.ifetch(1, 0)
        trace.load(2, 0)
        trace.retire(0, 10, branches=1, mispredicts=1, base_cycles=5.0)
        trace.clear()
        assert len(trace) == 0
        assert trace.instructions == 0
        assert trace.base_cycles == 0.0
        assert trace.branches == 0
        assert trace.mispredicts == 0

    def test_events_iteration(self, trace):
        trace.ifetch(1, 7)
        trace.store(2, 8)
        assert list(trace.events()) == [(IFETCH, 1, 7), (DSTORE, 2, 8)]
