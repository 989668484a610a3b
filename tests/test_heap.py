"""Heap-table tests: sparse materialisation, addressing, trace emission."""

import pytest

from repro.core.trace import AccessTrace, DLOAD_SERIAL, DSTORE
from repro.storage.heap import HeapTable
from repro.storage.record import LONG, STRING50, microbench_schema, string_type


@pytest.fixture
def heap(space):
    return HeapTable("t", microbench_schema(), 1000, space)


@pytest.fixture
def big_heap(space):
    """A '100 GB-class' logical table: addresses exist, values are lazy."""
    return HeapTable("big", microbench_schema(), 1_250_000_000, space)


class TestSemantics:
    def test_unwritten_rows_read_deterministic_defaults(self, heap):
        assert heap.read(3) == heap.read(3)
        assert heap.read(3) == heap.schema.default_row(3)

    def test_writes_stick(self, heap):
        heap.write(5, (50, 99))
        assert heap.read(5) == (50, 99)

    def test_update_column(self, heap):
        heap.write(5, (50, 99))
        row = heap.update_column(5, "value", 123)
        assert row == (50, 123)
        assert heap.read(5) == (50, 123)

    def test_update_column_callable(self, heap):
        heap.write(5, (50, 100))
        row = heap.update_column(5, "value", lambda v: v + 7)
        assert row == (50, 107)

    def test_update_column_on_default_row(self, heap):
        default = heap.schema.default_row(9)
        row = heap.update_column(9, "value", lambda v: v * 0 + 1)
        assert row == (default[0], 1)

    def test_append_grows(self, heap):
        before = heap.n_rows
        rid = heap.append((1, 2))
        assert rid == before
        assert heap.n_rows == before + 1
        assert heap.read(rid) == (1, 2)

    def test_bounds_checked(self, heap):
        with pytest.raises(IndexError):
            heap.read(heap.n_rows)
        with pytest.raises(IndexError):
            heap.read(-1)

    def test_schema_validated_on_write(self, heap):
        with pytest.raises(ValueError):
            heap.write(0, (1, 2, 3))

    def test_scan_returns_rows_in_order(self, heap):
        heap.write(10, (10, -1))
        rows = heap.scan(9, 3)
        assert len(rows) == 3
        assert rows[1] == (10, -1)

    def test_capacity_exhaustion(self, space):
        small = HeapTable("s", microbench_schema(), 1, space, capacity_rows=2)
        small.append((1, 1))
        with pytest.raises(MemoryError):
            small.append((2, 2))

    def test_materialized_count(self, heap):
        heap.write(1, (0, 0))
        heap.write(2, (0, 0))
        heap.write(1, (9, 9))
        assert heap.materialized_rows == 2


class TestAtScale:
    def test_billion_row_table_is_cheap(self, big_heap):
        assert big_heap.n_rows == 1_250_000_000
        assert big_heap.data_bytes == 1_250_000_000 * big_heap.slot_bytes
        assert big_heap.materialized_rows == 0
        assert len(big_heap.read(999_999_999)) == 2

    def test_distinct_rows_distinct_addresses(self, big_heap):
        assert set(big_heap.row_lines(0)).isdisjoint(big_heap.row_lines(10**9))


class TestTraceEmission:
    def test_read_emits_serial_first_line(self, heap, trace):
        heap.read(4, trace, mod=2)
        assert trace.kinds[0] == DLOAD_SERIAL
        assert trace.mods == [2] * len(trace)

    def test_wide_rows_skip_prefetched_neighbour(self, space, trace):
        wide = HeapTable("w", microbench_schema(STRING50), 100, space)
        wide.read(0, trace)
        # Row 0 (108 bytes) spans lines 0-1; line 1 is prefetched.
        assert len(trace) == 1
        trace.clear()
        wide.read(1, trace)  # straddles three lines -> two demand loads
        assert len(trace) <= 2

    @pytest.mark.parametrize("serial", [True, False])
    def test_read_matches_per_line_loads(self, space, serial):
        """Only the first demand line of a row is serial, and only when asked."""
        wide = HeapTable("w", microbench_schema(string_type(200)), 100, space)
        for row_id in range(12):
            batched, per_line = AccessTrace(), AccessTrace()
            wide.read(row_id, batched, mod=3, serial=serial)
            first = True
            for line in wide.row_lines(row_id)[::2]:
                per_line.load(line, 3, serial=serial and first)
                first = False
            assert len(per_line) >= 2
            assert (batched.kinds, batched.addrs, batched.mods) == (
                per_line.kinds, per_line.addrs, per_line.mods
            )

    def test_write_emits_stores(self, heap, trace):
        heap.write(4, (1, 2), trace)
        assert all(k == DSTORE for k in trace.kinds)

    def test_append_addresses_are_sequential(self, heap):
        t1, t2 = AccessTrace(), AccessTrace()
        heap.append((1, 1), t1)
        heap.append((2, 2), t2)
        assert max(t1.addrs) <= min(t2.addrs) <= max(t1.addrs) + 1

    def test_scan_emits_contiguous_run(self, heap, trace):
        heap.scan(0, 50, trace)
        assert trace.addrs == list(range(trace.addrs[0], trace.addrs[0] + len(trace)))

    def test_no_trace_no_emission(self, heap):
        heap.read(4)  # must not raise
