"""Golden counter digests: quick figure cells pinned to fixed fingerprints.

Parity tests elsewhere compare two paths through the same code (serial
vs ``--jobs``, tracing on vs off).  A change that shifts both paths the
same way passes them all; these pins catch it.  Each digest is
``repro.store.fingerprint`` of one seed-42 quick cell's
``{counters, module_cycles, measured_txns}`` — the same payload and the
same values as ``perfbench/pins/figures-quick.json``.

Only cells whose digests do not follow ``PYTHONHASHSEED`` are pinned:
Figure 10 Shore-MT and DBMS D release their locks by iterating a set of
string-keyed lock resources (``LockManager.release_all``), so their
traces change with the hash seed.  CI runs this file under two hash
seeds so a pin that starts to depend on string hashing fails there.

The 4-core VoltDB TPC-C cell (a quick cell of Figures 17 and 19) pins
the multi-core path: its replay snoops and invalidates across cores
(16 coherence transfers), which no single-core cell does.

A change meant to alter simulated output updates these pins (and the
benchmark's) in the same change and says why.
"""

import dataclasses
from dataclasses import replace

import pytest

from repro.bench.figures.common import (
    MULTITHREADED_CORES,
    TPC_DB_BYTES,
    cell_spec,
    engine_config_for,
)
from repro.bench.parallel import workload_spec
from repro.bench.runner import ExperimentRunner
from repro.store import fingerprint
from repro.workloads.base import PAPER_DB_SIZES

SEED = 42

GOLDEN = {
    ("fig1", "hyper", "10GB"): "1c5adbea982bbb7e",
    ("fig1", "dbms-m", "1MB"): "c2e06e78d16de40f",
    ("fig1", "voltdb", "100GB"): "6944c4a48ae636df",
    ("fig1", "shore-mt", "10GB"): "7c9bec5e3c0fbdf2",
    ("fig10", "hyper", "TPC-C"): "19fc25df7c960754",
    ("fig10", "voltdb", "TPC-C"): "3e9e1279b89c87c3",
    ("fig10", "dbms-m", "TPC-C"): "7db4cb215a3d49bf",
}
GOLDEN_MULTICORE_VOLTDB_TPCC = "169d0adec54f9033"


def digest(result) -> str:
    return fingerprint({
        "counters": dataclasses.asdict(result.counters),
        "module_cycles": result.module_cycles,
        "measured_txns": result.measured_txns,
    })


def cell_digest(figure: str, system: str, x: str) -> str:
    """Run one quick cell the way the Figure 1 / Figure 10 sweeps do."""
    kind = "micro" if figure == "fig1" else "tpcc"
    spec = replace(
        cell_spec(system, quick=True, engine_config=engine_config_for(system, kind)),
        seed=SEED,
    )
    if figure == "fig1":
        workload = workload_spec(
            "micro", db_bytes=PAPER_DB_SIZES[x], rows_per_txn=1, read_write=False
        )
    else:
        workload = workload_spec("tpcc", db_bytes=TPC_DB_BYTES)
    return digest(ExperimentRunner(spec, workload).run(jobs=1))


@pytest.mark.parametrize(
    "figure,system,x", sorted(GOLDEN), ids=["/".join(key) for key in sorted(GOLDEN)]
)
def test_quick_cell_matches_golden_digest(figure, system, x):
    assert cell_digest(figure, system, x) == GOLDEN[(figure, system, x)]


def test_multicore_cell_matches_golden_digest():
    spec = replace(
        cell_spec(
            "voltdb",
            quick=True,
            engine_config=engine_config_for("voltdb", "tpcc"),
            n_cores=MULTITHREADED_CORES,
        ),
        seed=SEED,
    )
    result = ExperimentRunner(spec, workload_spec("tpcc", db_bytes=TPC_DB_BYTES)).run(jobs=1)
    assert result.counters.coherence_misses == 16
    assert digest(result) == GOLDEN_MULTICORE_VOLTDB_TPCC
