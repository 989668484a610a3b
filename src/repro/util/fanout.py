"""The one process-pool fan-out: figure cells, load points, chaos cells.

:func:`fan_out` maps a task function over independent tasks — the
*(cell, repetition)* pairs of a figure, the multipliers of a load
sweep, the cells of both chaos suites — and returns the results in
task order, serially or across worker processes, identically either
way:

* each task carries its own seed, so its result does not depend on
  which worker runs it or when;
* results come back in submission order, so every seed-order fold
  downstream sums exactly as the serial path does;
* a worker ships home the RNG draws and sanitizer violations its task
  made (state inherited at fork is dropped first), and the parent
  re-records them in task order, so ``--sanitize --jobs N`` gives the
  serial run's verdict.

``--jobs N`` installs an ambient width via :func:`using_jobs`.  One
job, one task, or a task that does not pickle runs serially in this
process.  A leaf module (it imports only :mod:`repro.obs` and the
sanitizer), so every package can use it without an import cycle.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.lint import sanitizer

_JOBS = 1


def default_jobs() -> int:
    """One worker per core, the ``--jobs 0`` meaning."""
    return os.cpu_count() or 1


def get_jobs() -> int:
    """The ambient fan-out width (1 = serial, the default)."""
    return _JOBS


@contextmanager
def using_jobs(jobs: int | None) -> Iterator[int]:
    """Install an ambient jobs setting for the duration of the block."""
    global _JOBS
    previous = _JOBS
    _JOBS = max(1, jobs if jobs else 1)
    try:
        yield _JOBS
    finally:
        _JOBS = previous


def _picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def _run_in_worker(job: tuple[Callable, Any, bool, bool]):
    """Worker entry point: one task plus its own sanitizer report.

    The flags carry the parent's observability and sanitizer state,
    since module globals do not cross a spawn.
    """
    fn, task, obs_on, sanitize_on = job
    if sanitize_on:
        sanitizer.arm()
    sanitizer.take()  # inherited at fork: the parent already counted it
    with obs.using_obs(True) if obs_on and not obs.enabled() else nullcontext():
        result = fn(task)
    return result, sanitizer.take()


def fan_out(fn: Callable, seeded_tasks: Sequence, jobs: int | None = None) -> list:
    """``[fn(task) for task in seeded_tasks]``, across processes if asked.

    *jobs* ``None`` means the ambient setting.  Each task carries its
    own seed; results, draws and violations fold back in task order.
    """
    n_jobs = get_jobs() if jobs is None else max(1, jobs)
    if n_jobs <= 1 or len(seeded_tasks) <= 1 or not _picklable((fn, seeded_tasks)):
        return [fn(task) for task in seeded_tasks]
    flags = (obs.enabled(), sanitizer.enabled())
    jobs_list = [(fn, task, *flags) for task in seeded_tasks]
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(jobs_list))) as pool:
        outcomes = list(pool.map(_run_in_worker, jobs_list, chunksize=1))
    results = []
    for result, (draws, violations) in sanitizer.checked_merge(outcomes, "fan_out"):
        sanitizer.absorb(draws, violations)
        results.append(result)
    return results
