"""Layered host-time benchmark of the simulator's real pipelines.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures-quick --seed 42 --seconds 35 --trace 0

Workloads: ``figures-quick``, ``load-sharded``, ``load-chaos-replicated``
(see ``suite.py`` and README.md).  One *pass* runs the workload's task
list once, serially, in this process.  The benchmark runs passes until
``--seconds`` would be exceeded (at least one) and reports medians.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``sim_txns_per_s``, ``setup_s`` (median of several fresh-process
set-ups) and ``peak_rss_mb``.  Times are reference seconds: host
seconds normalized for host-speed drift (``hostspeed.py``).
``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics of the traced passes and the tracing overhead, and
writes the spans of the last traced pass to ``perfbench/out/`` as a
Chrome trace (open it in Perfetto).

Every operation (figure cell or load sweep point) is checked: it fails
if it raises, if its simulated-output fingerprint differs from the
digest pinned for the seed (``pins/<workload>.json``), or from the
first pass of the run when the seed has no pin.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import SpeedSampler, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS_DIR = HERE / "pins"
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5
HASH_SEED = "0"
TIME_UNITS = ("s", "us", "ns")
WORKLOADS = ("figures-quick", "load-sharded", "load-chaos-replicated")
TIMING_NOTE = (
    "serial, jobs=1, one process; load workloads are open loop in virtual "
    "time but run as a serial batch in host time"
)


def fix_hash_seed(script: Path, argv: list[str]) -> None:
    """Re-execute *script* under ``PYTHONHASHSEED=HASH_SEED`` if needed.

    Some simulated outputs follow Python's string hashing: Shore-MT
    and DBMS D release their locks by iterating a set of lock resources
    that hold table names, and the release order shapes the replayed
    trace.  Until that is fixed, digests only repeat under a fixed hash
    seed (tests/test_perfbench.py keeps an expected failure for it).
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, str(script), *argv], env)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up the workload, print 'ready' and exit (setup_s samples)",
    )
    return parser.parse_args(argv)


def load_pins(workload: str, seed: int) -> dict | None:
    """Pinned digests {op_id: digest} for *seed*, or None if unpinned."""
    path = PINS_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def setup(workload: str, seed: int):
    """Everything before the first timed call: imports, task list, pins."""
    import suite

    results: dict = {}
    tasks = suite.build(workload, seed, results)
    return tasks, results, load_pins(workload, seed)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Reference seconds from spawning a fresh interpreter to its set-up
    being done, SETUP_SAMPLES times.  The child samples its own host
    speed while it sets up and reports it on its 'ready' line."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        words = line.split()
        if code != 0 or len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"set-up child failed (exit {code})")
        samples.append(reference_seconds(elapsed, float(words[1]), float(words[2])))
    return samples


class Pass:
    """One run of every task: its time, operations and failures."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.host_seconds = 0.0
        self.seconds = 0.0  # host seconds at reference speed (hostspeed.py)
        self.attempts = 0
        self.ops: list = []
        self.raised = 0  # operations lost to an exception
        self.recorder = None


def run_pass(tasks, traced: bool) -> Pass:
    import spans

    result = Pass(traced)
    tally = spans.Tally()
    rec = spans.Recorder() if traced else None
    with spans.counting(tally), SpeedSampler() as sampler:
        if traced:
            with spans.tracing(rec):
                started = time.perf_counter()
                for task in tasks:
                    with rec.span(task.span, op=task.task_id):
                        _run_task(task, result)
                result.host_seconds = time.perf_counter() - started
        else:
            started = time.perf_counter()
            for task in tasks:
                _run_task(task, result)
            result.host_seconds = time.perf_counter() - started
    result.seconds = sampler.reference_seconds(result.host_seconds)
    result.attempts = tally.attempts
    result.recorder = rec
    return result


def _run_task(task, result: Pass) -> None:
    try:
        result.ops.extend(task.run())
    except Exception:  # a failed operation, counted and reported
        traceback.print_exc(file=sys.stderr)
        result.raised += task.n_ops


def check_passes(passes: list[Pass], pins: dict | None) -> tuple[int, int]:
    """(attempted, failed) operations over *passes*.

    An operation fails if it raised, reports invariant problems, or its
    digest differs from the pinned one — or, for an unpinned seed, from
    the digest the first pass produced.
    """
    from suite import point_problems

    reference = pins
    if reference is None:
        reference = {op.op_id: op.digest() for op in passes[0].ops}
    attempted = failed = 0
    for p in passes:
        attempted += len(p.ops) + p.raised
        failed += p.raised
        for op in p.ops:
            problems = point_problems(op)
            digest = op.digest()
            expected = reference.get(op.op_id)
            if problems or digest != expected:
                failed += 1
                print(f"FAILED {op.op_id}: digest {digest} expected {expected}"
                      + (f" problems {problems}" if problems else ""), file=sys.stderr)
    return attempted, failed


def load_counts(ops) -> dict[str, float]:
    """The load layer's request counts, from the sweep points' outputs."""
    points = [op.payload for op in ops if "n_events" in op.payload]
    chaos = [point["chaos"] for point in points if point["chaos"]]
    requests = sum(point["n_events"] for point in points)
    committed = sum(point["committed"] for point in points)
    return {
        "load.requests": requests,
        "load.retries": sum(c["retries"] for c in chaos),
        "load.shed": sum(c["shed"] for c in chaos),
        "load.goodput_ratio": committed / requests if requests else 0.0,
    }


def time_passes(tasks, seconds: float, traced_too: bool) -> list[Pass]:
    """Run passes until the next one would end after *seconds*.

    With *traced_too*, passes alternate untraced / traced, and at least
    one of each runs.
    """
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        traced = traced_too and len(passes) % 2 == 1
        passes.append(run_pass(tasks, traced))
        p = passes[-1]
        print(f"pass {len(passes)}: {p.seconds:.3f} reference s, "
              f"{p.host_seconds:.3f} host s" + (" (traced)" if traced else ""),
              flush=True)
        if traced_too and not any(p.traced for p in passes):
            continue
        elapsed = time.perf_counter() - started
        typical = statistics.median(p.host_seconds for p in passes)
        if elapsed + typical > seconds:
            return passes


def end_to_end(passes: list[Pass], setup_samples: list[float]) -> dict:
    wall = statistics.median(p.seconds for p in passes)
    attempts = statistics.median(p.attempts for p in passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "sim_txns_per_s": {"value": attempts / wall, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def per_layer(passes: list[Pass], units: dict[str, str]) -> dict:
    import spans

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    # Span times are host time; scale each pass's to reference speed
    # like the pass itself (samples are uniform in time, so every span
    # holds the pass's share of kernel time and drift on average).
    rows = []
    for p in traced:
        scale = p.seconds / p.host_seconds
        rows.append({
            name: value * scale if units[name] in TIME_UNITS else value
            for name, value in spans.layer_metrics(p.recorder).items()
        })
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values.update(load_counts(traced[0].ops))
    values["trace.overhead_ratio"] = (
        statistics.median(p.seconds for p in traced)
        / statistics.median(p.seconds for p in untraced)
    )
    return {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}


def layer_units() -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    fix_hash_seed(Path(__file__).resolve(), argv)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        with SpeedSampler() as sampler:
            setup(args.workload, args.seed)
        print(f"ready {sampler.kernel_seconds()!r} {sampler.speed()!r}", flush=True)
        return 0

    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    tasks, results, pins = setup(args.workload, args.seed)

    from repro import obs
    from repro.bench.perf import provenance

    if obs.enabled():
        raise RuntimeError("repro.obs must stay disabled while timing")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "pinned": pins is not None,
        "timing": TIMING_NOTE, "provenance": provenance(),
    }, sort_keys=True))
    if pins is None:
        print(f"seed {args.seed} has no pinned digests: checking that every "
              f"pass reproduces the first", file=sys.stderr)

    passes = time_passes(tasks, args.seconds, traced_too=bool(args.trace))
    attempted, failed = check_passes(passes, pins)

    if results:
        from suite import shape_checks

        checks = shape_checks(results)
        passed = sum(1 for c in checks if c.passed)
        print(f"accuracy: {passed}/{len(checks)} Figure 1/10 shape checks pass "
              f"(the repository holds shape criteria, not reference values, "
              f"so there is no error figure)")

    if args.trace:
        metrics = per_layer(passes, layer_units())
        last = [p for p in passes if p.traced][-1]
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        last.recorder.write_chrome_trace(path, f"{args.workload} seed {args.seed}")
        print(f"trace: {path.relative_to(ROOT)} ({len(last.recorder.spans)} spans)")
    else:
        metrics = end_to_end(passes, setup_samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
