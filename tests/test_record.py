"""Schema and column-type tests."""

import dataclasses
import pickle

import pytest

from repro.storage.record import LONG, STRING50, Schema, microbench_schema, string_type
from repro.workloads.tpcc import TPCC


class TestColumnTypes:
    def test_long_width(self):
        assert LONG.byte_size == 8

    def test_string_width(self):
        assert STRING50.byte_size == 50
        assert string_type(20).byte_size == 20

    def test_default_values_deterministic(self):
        assert LONG.default_value(7) == LONG.default_value(7)
        assert LONG.default_value(7) != LONG.default_value(8)

    def test_string_default_has_exact_width(self):
        v = STRING50.default_value(123)
        assert isinstance(v, str)
        assert len(v) == 50

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            string_type(0)


class TestSchema:
    def test_row_bytes(self):
        s = microbench_schema(LONG)
        assert s.payload_bytes == 16
        assert s.row_bytes == 24  # 8-byte header
        assert s.n_columns == 2

    def test_string_schema_bytes(self):
        s = microbench_schema(STRING50)
        assert s.payload_bytes == 100
        assert s.row_bytes == 108

    def test_column_index(self):
        s = microbench_schema()
        assert s.column_index("key") == 0
        assert s.column_index("value") == 1
        with pytest.raises(KeyError):
            s.column_index("missing")

    def test_default_rows_deterministic_and_distinct(self):
        s = microbench_schema()
        assert s.default_row(5) == s.default_row(5)
        assert s.default_row(5) != s.default_row(6)
        assert len(s.default_row(5)) == 2

    def test_validate_row(self):
        s = microbench_schema()
        s.validate_row((1, 2))
        with pytest.raises(ValueError):
            s.validate_row((1, 2, 3))


class TestDerivedGeometry:
    """Cached per-schema facts match the per-call formulas."""

    @staticmethod
    def per_column_row(schema, row_id):
        return tuple(
            ct.default_value(row_id * 31 + i) for i, (_, ct) in enumerate(schema.columns)
        )

    @pytest.mark.parametrize("n_columns", [1, 2, 9, 21])
    def test_all_long_default_row_matches_per_column(self, n_columns):
        s = Schema("l", tuple((f"c{i}", LONG) for i in range(n_columns)))
        for row_id in [0, 1, 2, 7, 31, 1000, 2**31 + 5, 1_250_000_000 - 1, 2**62]:
            assert s.default_row(row_id) == self.per_column_row(s, row_id)

    def test_tpcc_default_rows_match_per_column(self):
        for spec in TPCC(warehouses=2).table_specs():
            schema = spec.schema
            for row_id in range(0, 5000, 37):
                assert schema.default_row(row_id) == self.per_column_row(schema, row_id)

    def test_mixed_schema_default_row_matches_per_column(self):
        s = Schema("m", (("k", LONG), ("v", STRING50), ("w", LONG)))
        for row_id in range(20):
            assert s.default_row(row_id) == self.per_column_row(s, row_id)

    def test_row_bytes_recomputed_after_replace(self):
        s = microbench_schema(LONG)
        assert s.row_bytes == 24
        wider = dataclasses.replace(s, columns=s.columns + (("extra", STRING50),))
        assert (wider.payload_bytes, wider.row_bytes) == (66, 74)
        assert dataclasses.replace(s, header_bytes=40).row_bytes == 56
        assert dataclasses.replace(s, columns=(("k", STRING50),)).default_row(3) == (
            STRING50.default_value(93),
        )

    def test_survives_pickle_round_trip(self):
        s = Schema("p", (("k", LONG), ("v", STRING50)), header_bytes=16)
        s.default_row(1)  # fill every cache before pickling
        assert s.row_bytes == 74
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s and hash(clone) == hash(s)
        assert (clone.payload_bytes, clone.row_bytes) == (58, 74)
        assert clone.default_row(9) == s.default_row(9)
        fresh = pickle.loads(pickle.dumps(microbench_schema(LONG)))
        assert fresh.row_bytes == 24
        assert fresh.default_row(4) == self.per_column_row(fresh, 4)
