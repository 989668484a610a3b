"""The one process-pool fan-out: task order, serial fallbacks, and
sanitizer verdicts that are the same serial and across workers."""

import pytest

from repro.lint import sanitizer
from repro.load import ArrivalSpec, LoadSpec, run_load
from repro.util.fanout import fan_out, get_jobs, using_jobs
from repro.util.rng import child_rng


@pytest.fixture(autouse=True)
def clean_sanitizer():
    sanitizer.reset()
    sanitizer.disarm()
    yield
    sanitizer.reset()
    sanitizer.disarm()


def _square(seed: int) -> int:
    return seed * seed


def _planted_cross_stream_draw(seed: int) -> int:
    """Buggy hypothetical schedule code: a workload-stream draw inside
    the fault-schedule region."""
    schedule = child_rng(seed, "fault-schedule")
    workload = child_rng(seed, "workload")
    with sanitizer.scope("fault-schedule"):
        at_hit = schedule.randint(1, 15)
        workload.random()
    return at_hit


def _sanitized_report(fn, tasks, jobs):
    sanitizer.reset()
    with sanitizer.sanitizing():
        results = fan_out(fn, tasks, jobs)
    return results, sanitizer.violations(), sanitizer.snapshot_draws()


class TestFanOut:
    def test_results_in_task_order(self):
        tasks = [5, 1, 4, 2, 3]
        assert fan_out(_square, tasks, 1) == [25, 1, 16, 4, 9]
        assert fan_out(_square, tasks, 2) == [25, 1, 16, 4, 9]

    def test_unpicklable_function_runs_serially(self):
        offset = 10
        assert fan_out(lambda seed: seed + offset, [1, 2, 3], 4) == [11, 12, 13]

    def test_none_means_the_ambient_jobs_setting(self):
        with using_jobs(2):
            assert get_jobs() == 2
            assert fan_out(_square, [3, 4], None) == [9, 16]
        assert fan_out(_square, [], None) == []


class TestSanitizerAcrossWorkers:
    """Regression: worker draws and violations used to be lost, so
    ``--sanitize --jobs N`` passed a planted determinism bug."""

    def test_planted_cross_stream_draw_caught_serial_and_parallel(self):
        serial = _sanitized_report(_planted_cross_stream_draw, [1, 2, 3], 1)
        parallel = _sanitized_report(_planted_cross_stream_draw, [1, 2, 3], 2)
        assert parallel == serial
        _, violations, draws = serial
        assert violations == [
            "cross-stream draw: stream 'workload@1:workload' drawn inside "
            "scope 'fault-schedule'"
        ]
        assert draws["workload@3:workload"] == 1

    def test_probe_draws_before_the_fan_out_count_once(self):
        # run_load probes capacity in the parent, then forks workers for
        # the sweep points: the probe's draws must not be counted again.
        spec = LoadSpec(
            system="hyper",
            arrival=ArrivalSpec(n_clients=1000, n_events=60),
            multipliers=(0.5, 4.0),
            seed=7,
        )
        counts = []
        for jobs in (1, 2):
            sanitizer.reset()
            with sanitizer.sanitizing():
                run_load(spec, jobs=jobs)
            assert sanitizer.ok(), sanitizer.violations()
            counts.append(sanitizer.snapshot_draws())
        assert counts[0]
        assert counts[1] == counts[0]
