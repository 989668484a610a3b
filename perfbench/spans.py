"""Host-time spans at the program's layer boundaries, recorded from outside.

The traced run wraps the public entry point of each layer (module-level
functions and class methods) for the duration of one pass, records one
span per call — name, start, end, parent span, the operation it serves
and a few counts — and restores the originals afterwards.  Nothing in
the program changes, and ``repro.obs`` stays disabled: these spans live
only in this benchmark.

Layer names are the repository's modules.  Each span wraps one call:

* ``core.prewarm`` — ``repro.bench.runner.prewarm_llc``
* ``core.replay`` — ``repro.core.machine.Machine.run_trace``
* ``engines.execute`` — ``repro.engines.base.Engine.execute``
* ``workloads.setup`` — ``repro.workloads.base.Workload.setup``
* ``workloads.next_txn`` — ``MicroBenchmark.next_transaction``,
  ``TPCC.next_transaction`` and ``TPCC.next_distributed_transaction``
* ``sharding.submit`` — ``ShardedCluster.submit_next``
* ``replication.submit`` — ``ReplicationGroup.submit``
* ``replication.failover`` — ``ReplicationGroup.failover``
* ``load.timeline`` — ``repro.load.driver.build_timeline``
* ``load.probe`` — ``repro.load.driver.probe_capacity``
* ``load.point`` — ``repro.load.driver.run_load_point``
* ``load.queue`` — ``repro.load.driver.replay_resilient`` and the
  driver's plain queue loop ``_replay_timeline``

``bench.cell`` and ``load.sweep`` spans are opened by the benchmark
itself around each figure cell and each ``run_load`` call.

A span's *self time* is its duration minus the time its direct child
spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from pathlib import Path

# Span record layout (one list per span, appended in start order).
NAME, START, END, PARENT, OP, CHILD_NS, NOTE = range(7)


class Recorder:
    """In-memory span store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = ""  # id of the cell or sweep point being served
        self.clock = time.perf_counter_ns

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), 0, parent, self.op, 0, None])
        self._open.append(index)
        return index

    def end(self, index: int, **note) -> None:
        now = self.clock()
        span = self.spans[index]
        span[END] = now
        self._open.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_NS] += now - span[START]
        if note:
            span[NOTE] = note

    @contextmanager
    def span(self, name: str, op: str | None = None):
        saved = self.op
        if op is not None:
            self.op = op
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)
            self.op = saved

    def events(self):
        """The spans as ``repro.obs`` SpanEvents (one host track)."""
        from repro.obs.tracing import SpanEvent

        t0 = self.spans[0][START] if self.spans else 0
        out = []
        for index, span in enumerate(self.spans):
            args = {"id": index, "parent": span[PARENT], "op": span[OP]}
            if span[NOTE]:
                args.update(span[NOTE])
            out.append(SpanEvent(
                name=span[NAME],
                track="host",
                cat=span[NAME].split(".", 1)[0],
                ts_us=(span[START] - t0) / 1000.0,
                dur_us=(span[END] - span[START]) / 1000.0,
                args=args,
            ))
        return out

    def write_chrome_trace(self, path: Path, label: str) -> None:
        """Write the spans in the Chrome trace-event format Perfetto opens."""
        from repro.obs.exporters import write_chrome_trace

        path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(path, [(label, self.events())])


class Tally:
    """Simulated transaction attempts, counted in every run."""

    def __init__(self) -> None:
        self.attempts = 0


@contextmanager
def _patched(patches):
    """Temporarily replace ``owner.attr`` for each (owner, attr, new)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


@contextmanager
def counting(tally: Tally):
    """Count transaction attempts: each ``Engine.execute`` call, plus each
    cross-shard transaction a ``ShardedCluster`` runs through 2PC (those
    bypass ``execute``).  A counter increment per call, no clock reads."""
    from repro.engines.base import Engine
    from repro.sharding.cluster import ShardedCluster

    execute = Engine.execute
    submit_next = ShardedCluster.submit_next

    @functools.wraps(execute)
    def counted_execute(self, procedure, body, core_id=0):
        tally.attempts += 1
        return execute(self, procedure, body, core_id)

    @functools.wraps(submit_next)
    def counted_submit_next(self, rng):
        cross = self.counters["cross"]
        try:
            return submit_next(self, rng)
        finally:
            if self.counters["cross"] != cross:
                tally.attempts += 1

    with _patched([
        (Engine, "execute", counted_execute),
        (ShardedCluster, "submit_next", counted_submit_next),
    ]):
        yield


def _timed(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(index)

    return wrapper


@contextmanager
def tracing(rec: Recorder):
    """Wrap every layer entry point listed in the module docstring."""
    import repro.bench.runner as runner
    import repro.load.driver as driver
    from repro.core.machine import Machine
    from repro.engines.base import COMMITTED, Engine
    from repro.replication.group import ReplicationGroup
    from repro.sharding.cluster import ShardedCluster
    from repro.workloads.base import Workload
    from repro.workloads.microbench import MicroBenchmark
    from repro.workloads.tpcc import TPCC

    prewarm_llc = runner.prewarm_llc
    run_trace = Machine.run_trace
    execute = Engine.execute
    submit_next = ShardedCluster.submit_next
    group_submit = ReplicationGroup.submit
    run_load_point = driver.run_load_point

    @functools.wraps(prewarm_llc)
    def traced_prewarm(machine, engine):
        index = rec.begin("core.prewarm")
        try:
            prewarm_llc(machine, engine)
        finally:
            rec.end(index)
        # prewarm_llc installs min(LLC lines, hot lines) lines.
        hot = sum(n_lines for _, n_lines in engine.hot_regions())
        rec.spans[index][NOTE] = {"lines": min(hot, machine.hierarchy.llc.spec.n_lines)}

    @functools.wraps(run_trace)
    def traced_run_trace(self, trace, core_id=0, *, transactions=1):
        index = rec.begin("core.replay")
        try:
            delta = run_trace(self, trace, core_id, transactions=transactions)
        finally:
            rec.end(index)
        # len(trace) counts lines; a batched instruction run is one event.
        rec.spans[index][NOTE] = {
            "events": len(trace.kinds),
            "lines": delta.ifetches + delta.loads + delta.stores,
            "instructions": delta.instructions,
        }
        return delta

    @functools.wraps(execute)
    def traced_execute(self, procedure, body, core_id=0):
        index = rec.begin("engines.execute")
        try:
            trace = execute(self, procedure, body, core_id)
        finally:
            rec.end(index)
        rec.spans[index][NOTE] = {
            "committed": int(self.last_outcome == COMMITTED),
            "events": len(trace.kinds),
        }
        return trace

    def fabric(name, fn):
        @functools.wraps(fn)
        def wrapper(self, *args):
            ticks = self.net.clock
            index = rec.begin(name)
            try:
                return fn(self, *args)
            finally:
                rec.end(index, ticks=self.net.clock - ticks)

        return wrapper

    @functools.wraps(run_load_point)
    def traced_run_load_point(spec, multiplier, rate):
        with rec.span("load.point", op=f"{rec.op}/x{multiplier:g}"):
            return run_load_point(spec, multiplier, rate)

    with _patched([
        (runner, "prewarm_llc", traced_prewarm),
        (Machine, "run_trace", traced_run_trace),
        (Engine, "execute", traced_execute),
        (Workload, "setup", _timed(rec, "workloads.setup", Workload.setup)),
        (MicroBenchmark, "next_transaction",
         _timed(rec, "workloads.next_txn", MicroBenchmark.next_transaction)),
        (TPCC, "next_transaction",
         _timed(rec, "workloads.next_txn", TPCC.next_transaction)),
        (TPCC, "next_distributed_transaction",
         _timed(rec, "workloads.next_txn", TPCC.next_distributed_transaction)),
        (ShardedCluster, "submit_next", fabric("sharding.submit", submit_next)),
        (ReplicationGroup, "submit", fabric("replication.submit", group_submit)),
        (ReplicationGroup, "failover",
         _timed(rec, "replication.failover", ReplicationGroup.failover)),
        (driver, "build_timeline", _timed(rec, "load.timeline", driver.build_timeline)),
        (driver, "probe_capacity", _timed(rec, "load.probe", driver.probe_capacity)),
        (driver, "run_load_point", traced_run_load_point),
        (driver, "replay_resilient", _timed(rec, "load.queue", driver.replay_resilient)),
        (driver, "_replay_timeline", _timed(rec, "load.queue", driver._replay_timeline)),
    ]):
        yield


# -- per-layer metrics ---------------------------------------------------------

def _percentile_us(durations_ns: list[int], q: float) -> float:
    from repro.obs import nearest_rank

    return nearest_rank(durations_ns, q) / 1000.0 if durations_ns else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer host time, counts and self time of one traced pass."""
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    notes: dict[str, dict[str, int]] = {}
    durations: dict[str, list[int]] = {"core.replay": [], "engines.execute": []}
    for span in rec.spans:
        name = span[NAME]
        dur = span[END] - span[START]
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - span[CHILD_NS]
        calls[name] = calls.get(name, 0) + 1
        if name in durations:
            durations[name].append(dur)
        if span[NOTE]:
            sums = notes.setdefault(name, {})
            for key, value in span[NOTE].items():
                sums[key] = sums.get(key, 0) + value

    def seconds(name: str) -> float:
        return total_ns.get(name, 0) / 1e9

    def self_seconds(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    def note(name: str, key: str) -> int:
        return notes.get(name, {}).get(key, 0)

    replay_lines = note("core.replay", "lines")
    attempts = calls.get("engines.execute", 0)
    return {
        "core.prewarm_s": seconds("core.prewarm"),
        "core.prewarm_calls": calls.get("core.prewarm", 0),
        "core.prewarm_lines": note("core.prewarm", "lines"),
        "core.replay_s": seconds("core.replay"),
        "core.replay_events": note("core.replay", "events"),
        "core.replay_lines": replay_lines,
        "core.replay_ns_per_line": (
            total_ns.get("core.replay", 0) / replay_lines if replay_lines else 0.0
        ),
        "core.replay_us_p50": _percentile_us(durations["core.replay"], 50),
        "core.replay_us_p99": _percentile_us(durations["core.replay"], 99),
        "core.sim_instructions": note("core.replay", "instructions"),
        "engines.execute_s": seconds("engines.execute"),
        "engines.execute_us_p50": _percentile_us(durations["engines.execute"], 50),
        "engines.execute_us_p99": _percentile_us(durations["engines.execute"], 99),
        "engines.attempts": attempts,
        "engines.commit_ratio": (
            note("engines.execute", "committed") / attempts if attempts else 0.0
        ),
        "engines.trace_events": note("engines.execute", "events"),
        "workloads.setup_s": seconds("workloads.setup"),
        "workloads.next_txn_s": seconds("workloads.next_txn"),
        "sharding.submit_s": seconds("sharding.submit"),
        "sharding.submit_self_s": self_seconds("sharding.submit"),
        "sharding.fabric_ticks": note("sharding.submit", "ticks"),
        "replication.submit_s": seconds("replication.submit"),
        "replication.submit_self_s": self_seconds("replication.submit"),
        "replication.fabric_ticks": note("replication.submit", "ticks"),
        "replication.failover_s": seconds("replication.failover"),
        "replication.failovers": calls.get("replication.failover", 0),
        "load.timeline_s": seconds("load.timeline"),
        "load.probe_s": seconds("load.probe"),
        "load.queue_self_s": self_seconds("load.queue"),
        "bench.cell_self_s": self_seconds("bench.cell"),
    }
