"""Deterministic checks of the benchmark itself: no wall-clock assertions.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402

CHAOS = "load-chaos-replicated"


def _invoke(args: list[str], cwd: Path, script: Path = BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _result(workload: str, trace: int, seed: int = 42) -> dict:
    out = _invoke(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        ROOT,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _digests(workload: str, seed: int, n_tasks: int, traced: bool = False) -> dict:
    result = run.run_pass(suite.build(workload, seed)[:n_tasks], traced=traced)
    assert result.raised == 0
    return {op.op_id: op.digest() for op in result.ops}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    result = _result(CHAOS, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 5  # five sweep points per pass


def test_same_seed_same_digests_other_seed_differs():
    first = _digests(CHAOS, 42, 1)
    assert _digests(CHAOS, 42, 1) == first
    other = _digests(CHAOS, 7, 1)
    assert other.keys() == first.keys()
    assert all(other[op] != first[op] for op in first)


def test_figure_cells_match_pins_traced_and_untraced():
    pins = run.load_pins("figures-quick", 42)
    untraced = _digests("figures-quick", 42, 2)
    assert untraced == {op: pins[op] for op in untraced}
    assert _digests("figures-quick", 42, 2, traced=True) == untraced
    assert _digests("figures-quick", 43, 2) != untraced


def test_planted_digest_mismatch_is_a_failed_operation():
    result = run.run_pass(suite.build("figures-quick", 42)[:2], traced=False)
    pins = {op.op_id: op.digest() for op in result.ops}
    assert run.check_passes([result], pins) == (2, 0)
    planted = dict(pins)
    planted[result.ops[0].op_id] = "0" * 16
    assert run.check_passes([result], planted) == (2, 1)


def test_raising_task_fails_every_operation_it_owns():
    def boom():
        raise RuntimeError("planted")

    result = run.run_pass([suite.Task("boom", "load.sweep", 5, boom)], traced=False)
    assert run.check_passes([result], {}) == (5, 5)


def test_self_time_subtracts_direct_children():
    ticks = iter([0, 10, 30, 40, 45, 100])
    rec = spans.Recorder()
    rec.clock = lambda: next(ticks)
    with rec.span("load.queue", op="sweep"):        # 0 .. 100
        with rec.span("sharding.submit"):          # 10 .. 45
            with rec.span("engines.execute"):      # 30 .. 40
                pass
    queue, submit, execute = rec.spans
    assert queue[spans.CHILD_NS] == 35 and submit[spans.CHILD_NS] == 10
    assert execute[spans.PARENT] == 1 and execute[spans.OP] == "sweep"
    metrics = spans.layer_metrics(rec)
    assert metrics["load.queue_self_s"] == 65 / 1e9
    assert metrics["sharding.submit_self_s"] == 25 / 1e9
    assert metrics["engines.attempts"] == 1


def _digest_under_hash_seed(op_id: str, hash_seed: str) -> str:
    code = (
        f"import sys; sys.path[:0] = [{str(BENCH_DIR)!r}, {str(ROOT / 'src')!r}]; "
        f"import suite; "
        f"task, = [t for t in suite.build('figures-quick', 42) if t.task_id == {op_id!r}]; "
        f"print(task.run()[0].digest())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": hash_seed}, check=True,
    )
    return out.stdout.strip()


@pytest.mark.xfail(strict=True, reason=(
    "known defect: LockManager.release_all iterates a set of lock resources "
    "holding table names, so Shore-MT TPC-C traces follow PYTHONHASHSEED; "
    "run.py pins PYTHONHASHSEED until it is fixed"
))
def test_outputs_do_not_depend_on_python_hash_seed():
    op_id = "fig10/shore-mt/TPC-C"
    assert _digest_under_hash_seed(op_id, "1") == _digest_under_hash_seed(op_id, "2")


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _invoke(
        ["--workload", CHAOS, "--seed", "42", "--seconds", "1", "--trace", "0"],
        tmp_path, tmp_path / "perfbench" / "run.py",
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
