"""Experiment cells and repetitions, fanned out in seed order.

The paper's methodology is embarrassingly parallel: every figure is a
grid of independent cells (system x workload x configuration), each
repeated with fresh seeds.  :func:`run_cells` flattens that grid into
*(cell, repetition)* tasks and hands them to
:func:`repro.util.fanout.fan_out`, keeping the results **bit-identical**
to the serial path:

* the unit of work is one *(cell, repetition)* pair, executed by
  :func:`repro.bench.runner.run_repetition`;
* each repetition's seed comes from :meth:`RunSpec.rep_seed`, so the
  seed a repetition sees does not depend on which worker runs it;
* results come back in task order and are folded with
  :func:`repro.bench.runner.aggregate_repetitions`, so floating-point
  summation order matches the serial path exactly.

Workloads cross process boundaries as :class:`WorkloadSpec` descriptors
— a picklable ``(kind, params)`` pair that builds the workload inside
the worker — because the closures the figure modules historically used
cannot be pickled.  A ``WorkloadSpec`` is itself callable, so it drops
into every API that expects a zero-argument workload factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.bench.runner import (
    RunResult,
    RunSpec,
    aggregate_repetitions,
    run_repetition,
)
from repro.util.fanout import fan_out
from repro.workloads.microbench import MicroBenchmark
from repro.workloads.tpcb import TPCB
from repro.workloads.tpcc import TPCC
from repro.workloads.tpce_lite import TPCELite

WORKLOAD_KINDS = {
    "micro": MicroBenchmark,
    "tpcb": TPCB,
    "tpcc": TPCC,
    "tpce": TPCELite,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Picklable workload descriptor: registry kind + constructor params."""

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; known: {', '.join(WORKLOAD_KINDS)}"
            )

    def make(self):
        """Instantiate the workload (inside whichever process runs it)."""
        return WORKLOAD_KINDS[self.kind](**dict(self.params))

    def __call__(self):
        return self.make()


def workload_spec(kind: str, **params) -> WorkloadSpec:
    """Convenience constructor: ``workload_spec("micro", db_bytes=...)``."""
    return WorkloadSpec(kind, tuple(sorted(params.items())))


@dataclass(frozen=True)
class CellTask:
    """One experiment cell queued for execution."""

    spec: RunSpec
    workload: Any  # WorkloadSpec or any zero-argument factory


def _run_rep(task: tuple[RunSpec, Any, int]) -> RunResult:
    """One repetition of one cell; module-level so workers can run it."""
    spec, workload_factory, seed = task
    return run_repetition(spec, workload_factory, seed)


def run_cells(cells: Sequence[CellTask], jobs: int | None = None) -> list[RunResult]:
    """Run every cell (all repetitions) and return results in cell order.

    The flattened *(cell, repetition)* tasks go through
    :func:`~repro.util.fanout.fan_out`: across a process pool with
    *jobs* > 1 (``None`` = the ambient setting) and picklable workload
    factories, serially otherwise.  Both paths produce bit-identical
    :class:`RunResult` values.
    """
    tasks: list[tuple[RunSpec, Any, int]] = []
    rep_slices: list[tuple[int, int]] = []
    for cell in cells:
        start = len(tasks)
        for rep in range(cell.spec.repetitions):
            tasks.append((cell.spec, cell.workload, cell.spec.rep_seed(rep)))
        rep_slices.append((start, len(tasks)))
    rep_results = fan_out(_run_rep, tasks, jobs)
    return [
        aggregate_repetitions(cell.spec, rep_results[start:stop])
        for cell, (start, stop) in zip(cells, rep_slices)
    ]
