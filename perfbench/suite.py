"""The benchmark's three workloads, built from the repository's public APIs.

A workload is a list of *tasks*.  One task is one call into the
program's public entry points — one figure cell through
``ExperimentRunner``, or one load sweep through ``run_load`` — and it
yields one or more *operations*: a figure cell, or one sweep point.
Each operation carries a payload of simulated outputs whose
``repro.store.fingerprint`` is the digest the benchmark pins.

Why these workloads (the README has the full layer table):

* ``figures-quick`` — the path users wait on when they regenerate
  figures.  Prewarm and replay dominate, so prewarm memoization and
  replay vectorization show here first.
* ``load-sharded`` — engine execution, TPC-C bodies and 2PC, with no
  prewarm and no replay: the workload that must stay flat under a
  prewarm- or replay-only change.
* ``load-chaos-replicated`` — writes, WAL shipping, failovers that
  re-prewarm, and a small database that fits the LLC: replay-heavy
  (Shore-MT's code footprint), prewarm-light.

Everything runs serially (``jobs=1``) in one process.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Callable

from repro.bench.figures.common import (
    MICRO_SIZES,
    TPC_DB_BYTES,
    cell_spec,
    engine_config_for,
)
from repro.bench.parallel import workload_spec
from repro.bench.results import IPC, FigureResult
from repro.bench.runner import ExperimentRunner
from repro.bench.validate import validate_figure
from repro.engines.registry import ALL_SYSTEMS, PAPER_LABELS
from repro.load import LoadSpec, run_load
from repro.load.resilience import ResilienceSpec, chaos_suite
from repro.store import fingerprint
from repro.workloads.base import PAPER_DB_SIZES

TPCC_X = "TPC-C"


@dataclass(frozen=True)
class Operation:
    """One checked unit of output: a figure cell or a load sweep point."""

    op_id: str
    payload: dict

    def digest(self) -> str:
        return fingerprint(self.payload)


@dataclass(frozen=True)
class Task:
    """One call into the program: a figure cell or a whole load sweep."""

    task_id: str
    span: str  # the benchmark's own span around the call
    n_ops: int  # operations the call yields (all fail if it raises)
    run: Callable[[], list[Operation]]


# -- figures-quick -------------------------------------------------------------


def _cell_payload(result) -> dict:
    return {
        "counters": dataclasses.asdict(result.counters),
        "module_cycles": result.module_cycles,
        "measured_txns": result.measured_txns,
    }


def _cell_task(figure: str, system: str, x: str, workload, spec, results: dict) -> Task:
    op_id = f"{figure}/{system}/{x}"

    def run() -> list[Operation]:
        result = ExperimentRunner(spec, workload).run(jobs=1)
        results[(figure, PAPER_LABELS[system], x)] = result
        return [Operation(op_id, _cell_payload(result))]

    return Task(op_id, "bench.cell", 1, run)


def figure_tasks(seed: int, results: dict) -> list[Task]:
    """Figure 1 (micro, read-only, 4 sizes) and Figure 10 (TPC-C), quick
    budgets, all five engines: 25 cells.  *results* collects each cell's
    RunResult for :func:`shape_checks`."""
    tasks = []
    for system in ALL_SYSTEMS:
        spec = replace(
            cell_spec(system, quick=True, engine_config=engine_config_for(system, "micro")),
            seed=seed,
        )
        for size in MICRO_SIZES:
            workload = workload_spec(
                "micro", db_bytes=PAPER_DB_SIZES[size], rows_per_txn=1, read_write=False
            )
            tasks.append(_cell_task("fig1", system, size, workload, spec, results))
    for system in ALL_SYSTEMS:
        spec = replace(
            cell_spec(system, quick=True, engine_config=engine_config_for(system, "tpcc")),
            seed=seed,
        )
        workload = workload_spec("tpcc", db_bytes=TPC_DB_BYTES)
        tasks.append(_cell_task("fig10", system, TPCC_X, workload, spec, results))
    return tasks


def shape_checks(results: dict) -> list:
    """The repository's Figure 1 and Figure 10 acceptance criteria.

    These are shape criteria (orderings and regimes), not numeric
    reference values, so they give a pass count and no error figure.
    """
    labels = [PAPER_LABELS[s] for s in ALL_SYSTEMS]
    fig1 = FigureResult("Figure 1", "IPC vs database size (read-only)", IPC,
                        "database size", list(MICRO_SIZES), labels)
    fig10 = FigureResult("Figure 10", "IPC running TPC-C", IPC,
                         "benchmark", [TPCC_X], labels)
    for (figure, label, x), result in results.items():
        (fig1 if figure == "fig1" else fig10).add(label, x, result)
    return validate_figure(fig1) + validate_figure(fig10)


# -- load workloads ------------------------------------------------------------


def sharded_spec(seed: int) -> LoadSpec:
    """2-shard HyPer cluster, TPC-C distributed mix with 10% remote,
    default 0.25x-4x multipliers of probed capacity."""
    return LoadSpec(system="hyper", shards=2, remote_pct=10.0, seed=seed)


def chaos_replicated_spec(seed: int) -> LoadSpec:
    """Shore-MT primary + 2 quorum replicas, read-write mix, the
    ``mixed`` chaos suite (crash -> failover, brownout), 2 retries,
    shedding at queue depth 64."""
    return LoadSpec(
        system="shore-mt",
        mix="read-write",
        replicas=2,
        ack="quorum",
        chaos=chaos_suite("mixed"),
        resilience=ResilienceSpec(max_retries=2, shed_depth=64),
        seed=seed,
    )


_POINT_DROP = ("rng_draws", "obs_metrics")


def _point_operation(name: str, result, point) -> Operation:
    payload = {
        key: value
        for key, value in dataclasses.asdict(point).items()
        if key not in _POINT_DROP
    }
    payload["capacity_tps"] = result.capacity_tps
    payload["base_rate"] = result.base_rate
    return Operation(f"{name}/x{point.multiplier:g}", payload)


def _sweep_task(name: str, spec: LoadSpec) -> Task:
    def run() -> list[Operation]:
        result = run_load(spec, jobs=1)
        return [_point_operation(name, result, point) for point in result.points]

    return Task(name, "load.sweep", len(spec.multipliers), run)


def build(workload: str, seed: int, results: dict | None = None) -> list[Task]:
    """The task list of *workload* at *seed* (all inputs come from it)."""
    if workload == "figures-quick":
        return figure_tasks(seed, {} if results is None else results)
    if workload == "load-sharded":
        return [_sweep_task("sharded", sharded_spec(seed))]
    if workload == "load-chaos-replicated":
        return [_sweep_task("chaos-replicated", chaos_replicated_spec(seed))]
    raise ValueError(f"unknown workload {workload!r}")


def point_problems(op: Operation) -> list[str]:
    """Invariant violations a chaos point reports (lost acked txns,
    failed state round-trips): a point with any is a failed operation."""
    chaos = op.payload.get("chaos")
    return list(chaos["problems"]) if chaos else []
