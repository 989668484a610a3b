"""Chaos harness: run a workload under a fault schedule and prove recovery.

:class:`ChaosRunner` is the fault-injection sibling of
:class:`repro.bench.runner.ExperimentRunner`: instead of measuring, it
drives any engine × workload while a :class:`FaultInjector` crashes the
simulated process at scheduled injection points.  After every crash it

1. takes the WAL's :meth:`crash_image` (durable prefix + partially lost,
   possibly torn tail),
2. replays it (:func:`repro.storage.recovery.replay` — torn-prefix
   truncation, checkpoint seeding, filtered redo, CLR undo),
3. restores the recovered state onto a freshly set-up engine,
4. checks the restore round-trips (:func:`verify_against_engine`) and,
   for TPC-C, the clause-3.3.2-style consistency conditions
   (:func:`repro.faults.invariants.tpcc_invariants`) — the atomicity
   proof: no partial transaction effects survive a crash,
5. seeds the new engine's log with a checkpoint of the recovered state
   so the *next* crash can recover the cumulative history.

Under the paper's asynchronous group-commit setup a transaction whose
commit record had not flushed may be lost wholesale — that is permitted;
what must never happen is a *partial* transaction surviving.

With ``replicas > 0`` the runner drives a
:class:`repro.replication.ReplicationGroup` instead of a bare engine:
transactions go through the replicated submit path (WAL shipping plus
the spec's ack mode), the fault schedule additionally breaks the
*network* (drop / delay / duplicate / reorder / partition at the
``net.send`` point), and a primary crash runs the deterministic
LSN-based failover instead of single-node restart.  The cross-node
invariants — no acknowledged transaction lost (per ack mode), replica
byte-convergence after partitions heal, monotonic applied LSN — join
the single-node ones in the report.

Everything is deterministic given the spec's seed: the fault schedule,
the crash images' surviving-tail choices and the workload stream all
derive from it, so a chaos run is exactly reproducible.  Network-fault
scheduling draws from a child RNG stream of its own, so a replicated
run's *crash* schedule is byte-identical to the replication-off run at
the same seed.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro import obs
from repro.engines.base import COMMITTED, EngineStats
from repro.engines.config import EngineConfig
from repro.engines.registry import ALL_SYSTEMS, canonical_name, make_engine
from repro.faults.injector import (
    ABORT,
    FaultInjector,
    FaultSpec,
    LOCK_ACQUIRE,
    NET_SEND,
    NETWORK_KINDS,
    SimulatedCrash,
    TXN_BODY,
    WAL_AFTER_APPEND,
    WAL_BEFORE_APPEND,
    WAL_GROUP_COMMIT,
)
from repro.faults.invariants import tpcc_invariants
from repro.lint import sanitizer
from repro.replication import ACK_MODES, ReplicationGroup, ReplicationSpec
from repro.storage.recovery import (
    replay,
    restore_engine,
    take_checkpoint,
    verify_against_engine,
    write_checkpoint,
)
from repro.util.fanout import fan_out
from repro.util.rng import child_rng, root_rng
from repro.workloads.microbench import MicroBenchmark
from repro.workloads.tpcc import TPCC

# How early in a segment each point's scheduled crash lands (at_hit is
# drawn uniformly from the range).  Group commits are rare (one per
# batch) and txn bodies one per attempt; raw WAL/lock/index hits arrive
# many per transaction, so a wider range still crashes within a few
# transactions.  The sharded harness shares these and adds its 2PC
# points.
AT_HIT_RANGES = {
    WAL_GROUP_COMMIT: (1, 2),
    TXN_BODY: (1, 5),
}
DEFAULT_AT_HIT_RANGE = (1, 15)
# net.send fires per message (ships and acks), several per commit, so a
# wider range still lands a network fault within the segment.
NET_AT_HIT_RANGE = (1, 40)


def validate_ack_and_net_kinds(ack: str, net_kinds) -> None:
    """Reject an unknown ack mode or network fault kind (both chaos specs)."""
    if ack not in ACK_MODES:
        raise ValueError(f"unknown ack mode {ack!r}; known: {', '.join(ACK_MODES)}")
    unknown = set(net_kinds or ()) - set(NETWORK_KINDS)
    if unknown:
        raise ValueError(
            f"unknown network fault kind(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(NETWORK_KINDS)}"
        )


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos run: a system, a fault budget, and a seed."""

    system: str
    n_txns: int = 240
    # Crashes to schedule; None = one per injection point in the pool.
    n_crashes: int | None = None
    # Take a fuzzy checkpoint (and truncate the log) every N commits;
    # 0 disables.
    checkpoint_every: int = 40
    # Small batches so group commit (and its crash window) is exercised
    # even in short runs.
    group_commit_size: int = 4
    # Per-hit probability of an injected transaction abort (txn.body).
    abort_probability: float = 0.0
    # Injection points to crash at; None = every point the engine has.
    points: tuple[str, ...] | None = None
    # Replication: 0 = single node (PR-1 behaviour); N > 0 runs a
    # ReplicationGroup with N replicas and the given ack mode, and the
    # fault schedule additionally breaks the network.
    replicas: int = 0
    ack: str = "async"
    # Network fault kinds to cycle through (one per segment at
    # net.send); None = all five.
    net_kinds: tuple[str, ...] | None = None
    seed: int = 1
    engine_config: EngineConfig | None = None

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError("replicas must be >= 0")
        validate_ack_and_net_kinds(self.ack, self.net_kinds)

    @classmethod
    def quick(cls, system: str, **overrides) -> "ChaosSpec":
        """The CI-sized variant (repro-bench chaos --quick)."""
        settings = dict(n_txns=80, n_crashes=2, checkpoint_every=20)
        settings.update(overrides)
        return cls(system=system, **settings)

    def resolved_config(self) -> EngineConfig:
        return self.engine_config or EngineConfig(materialize_threshold=0)

    def replication_spec(self) -> ReplicationSpec:
        return ReplicationSpec(n_replicas=self.replicas, ack=self.ack)


@dataclass
class CrashReport:
    """What one injected crash did and how recovery fared.

    A replicated run's primary crash produces the same report with the
    failover fields filled in: ``winner_id`` is the replica whose log
    was replayed, ``epoch`` the epoch that crash ended.
    """

    txn_index: int  # 1-based index of the transaction that died
    point: str
    hit: int
    lost_records: int
    torn_tail: bool
    truncated_records: int
    redo_applied: int
    undo_applied: int
    checkpoint_lsn: int | None
    state_digest: int
    problems: list[str] = field(default_factory=list)
    winner_id: int | None = None
    winner_lsn: int = 0
    epoch: int = 0


def invariant_names(problems) -> list[str]:
    """The distinct invariant names (the ``name:`` prefixes) violated."""
    names = {p.split(":", 1)[0] for p in problems if ":" in p}
    return sorted(names)


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    system: str
    workload: str
    attempted: int
    stats: EngineStats
    crashes: list[CrashReport] = field(default_factory=list)
    final_problems: list[str] = field(default_factory=list)
    final_digest: int = 0
    # Replication (all zero/empty for single-node runs).
    replicas: int = 0
    ack: str = "async"
    acked: int = 0
    unacked: int = 0
    replica_digests: tuple[int, ...] = ()
    net_faults: dict = field(default_factory=dict)
    net_counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.final_problems and all(not c.problems for c in self.crashes)

    @property
    def failovers(self) -> int:
        return sum(1 for c in self.crashes if c.winner_id is not None)

    def all_problems(self) -> list[str]:
        return [p for c in self.crashes for p in c.problems] + self.final_problems

    def failed_invariants(self) -> list[str]:
        """Names of the invariants any problem in this run violated."""
        return invariant_names(self.all_problems())

    def digest(self) -> int:
        """Checksum of every recovered state (determinism checks)."""
        content = (
            self.final_digest,
            [c.state_digest for c in self.crashes],
            self.replica_digests,
        )
        return zlib.crc32(repr(content).encode())


class ChaosRunner:
    """Run a workload under a crash schedule; recover and verify."""

    def __init__(self, spec: ChaosSpec, workload) -> None:
        self.spec = spec
        self.workload = workload

    # -- engine lifecycle ----------------------------------------------------

    def _fresh_engine(self):
        """A newly 'booted' engine: initial tables, recovery-ready log."""
        engine = make_engine(self.spec.system, self.spec.resolved_config())
        self.workload.setup(engine)
        log = engine.recovery_log()
        if log is None:
            raise ValueError(f"{self.spec.system} exposes no recovery log")
        log.retain_all = True
        log.group_commit_size = self.spec.group_commit_size
        return engine, log

    def _point_pool(self, engine) -> list[str]:
        if self.spec.points is not None:
            return list(self.spec.points)
        pool = [WAL_BEFORE_APPEND, WAL_AFTER_APPEND, WAL_GROUP_COMMIT, TXN_BODY]
        if getattr(engine, "locks", None) is not None:
            pool.append(LOCK_ACQUIRE)
        return pool

    def _segment_injector(
        self,
        pool: list[str],
        segment: int,
        armed: bool,
        fault_rng: random.Random,
        net_rng: random.Random | None = None,
    ) -> FaultInjector:
        """One crash per segment, cycling round-robin over the pool.

        Replicated runs additionally schedule one network fault per
        segment, cycling over the spec's fault kinds.  Its ``at_hit``
        draws come from *net_rng* — a child stream separate from
        *fault_rng* — so the crash schedule stays byte-identical to the
        replication-off run at the same seed.
        """
        schedule = []
        if armed:
            point = pool[segment % len(pool)]
            lo, hi = AT_HIT_RANGES.get(point, DEFAULT_AT_HIT_RANGE)
            with sanitizer.scope("fault-schedule"):
                at_hit = fault_rng.randint(lo, hi)
            schedule.append(FaultSpec(point, at_hit=at_hit))
        if self.spec.abort_probability > 0.0:
            schedule.append(
                FaultSpec(
                    TXN_BODY,
                    kind=ABORT,
                    probability=self.spec.abort_probability,
                    times=-1,
                )
            )
        if net_rng is not None:
            kinds = self.spec.net_kinds or NETWORK_KINDS
            kind = kinds[segment % len(kinds)]
            with sanitizer.scope("net"):
                net_at_hit = net_rng.randint(*NET_AT_HIT_RANGE)
            schedule.append(FaultSpec(NET_SEND, kind=kind, at_hit=net_at_hit))
        return FaultInjector(schedule, seed=self.spec.seed * 1000 + segment)

    def _named_problems(self, state, engine) -> list[str]:
        """Verification + workload invariants, tagged with invariant names."""
        problems = [
            f"state-roundtrip: {p}" for p in verify_against_engine(state, engine)
        ]
        problems.extend(
            f"tpcc-consistency: {p}" for p in self._workload_invariants(engine)
        )
        return problems

    def _workload_invariants(self, engine) -> list[str]:
        if isinstance(self.workload, TPCC):
            return tpcc_invariants(self.workload, engine)
        return []

    # -- crash + recovery ----------------------------------------------------

    def _recover(
        self,
        engine,
        crash: SimulatedCrash,
        image_rng: random.Random,
        total: EngineStats,
        attempted: int,
    ):
        """The restart path: torn log -> replay -> restore -> verify."""
        with obs.span(
            "chaos.recover", track="chaos", cat="faults",
            point=crash.point, hit=crash.hit, txn_index=attempted,
        ) as recover_span:
            total.merge(engine.stats)
            with sanitizer.scope("image"):
                image = engine.recovery_log().crash_image(image_rng)
            state = replay(image)
            fresh, fresh_log = self._fresh_engine()
            restore_engine(state, fresh)
            problems = self._named_problems(state, fresh)
            recover_span.set(
                lost_records=image.lost_records,
                torn_tail=image.torn_tail,
                problems=len(problems),
            )
            obs.inc("chaos.recoveries", system=self.spec.system)
        report = CrashReport(
            txn_index=attempted,
            point=crash.point,
            hit=crash.hit,
            lost_records=image.lost_records,
            torn_tail=image.torn_tail,
            truncated_records=state.truncated_records,
            redo_applied=state.redo_applied,
            undo_applied=state.undo_applied,
            checkpoint_lsn=state.checkpoint_lsn,
            state_digest=state.digest(),
            problems=problems,
        )
        # Seed the new log with the recovered state so the next crash
        # replays from here; the dead process's in-flight transactions
        # are gone for good and are not carried forward.
        state.active_records = []
        write_checkpoint(fresh_log, state)
        return fresh, fresh_log, report

    def _failover(
        self,
        group: ReplicationGroup,
        crash: SimulatedCrash,
        total: EngineStats,
        attempted: int,
    ) -> CrashReport:
        """The replicated restart path: elect, replay the winner, verify."""
        total.merge(group.engine.stats)
        state, outcome = group.failover()
        problems = list(outcome.problems)
        problems.extend(
            f"tpcc-consistency: {p}" for p in self._workload_invariants(group.engine)
        )
        obs.inc("chaos.failovers", system=self.spec.system)
        return CrashReport(
            txn_index=attempted,
            point=crash.point,
            hit=crash.hit,
            lost_records=outcome.lost_records,
            torn_tail=False,
            truncated_records=state.truncated_records,
            redo_applied=state.redo_applied,
            undo_applied=state.undo_applied,
            checkpoint_lsn=state.checkpoint_lsn,
            state_digest=outcome.state_digest,
            problems=problems,
            winner_id=outcome.winner_id,
            winner_lsn=outcome.winner_lsn,
            epoch=outcome.epoch,
        )

    # -- the run -------------------------------------------------------------

    def run(self) -> ChaosResult:
        with obs.span(
            "chaos.run", track="chaos", cat="faults",
            system=self.spec.system, workload=self.workload.name,
        ) as run_span:
            result = self._run()
            run_span.set(attempted=result.attempted, crashes=len(result.crashes), ok=result.ok)
            return result

    def _run(self) -> ChaosResult:
        spec = self.spec
        fault_rng = root_rng(spec.seed, "fault-schedule")
        txn_rng = root_rng(spec.seed + 1, "workload")
        # Crash-image draws (how much of the unflushed tail survives) get
        # their own child stream: fault_rng is then *only* consumed by
        # schedule draws, so the crash schedule is byte-identical whether
        # or not replication is on (failover never tears the winner's log).
        image_rng = child_rng(spec.seed, "image")
        replicated = spec.replicas > 0
        # Network-fault schedules draw from their own child stream so
        # the crash schedule matches the replication-off run bit-for-bit.
        net_rng = child_rng(spec.seed, "net") if replicated else None
        group: ReplicationGroup | None = None
        if replicated:
            group = ReplicationGroup(
                spec.replication_spec(), self._fresh_engine, seed=spec.seed
            )
            engine, log = group.engine, group.log
        else:
            engine, log = self._fresh_engine()
        pool = self._point_pool(engine)
        n_crashes = spec.n_crashes if spec.n_crashes is not None else len(pool)
        segments = n_crashes + 1
        per_segment = -(-spec.n_txns // segments)
        total = EngineStats()
        crashes: list[CrashReport] = []
        injectors: list[FaultInjector] = []
        attempted = 0
        commits_since_ckpt = 0
        for segment in range(segments):
            injector = self._segment_injector(
                pool, segment, segment < n_crashes, fault_rng, net_rng
            )
            injectors.append(injector)
            if group is not None:
                group.attach_injector(injector)
            else:
                engine.attach_injector(injector)
            for _ in range(per_segment):
                with sanitizer.scope("workload"):
                    procedure, body = self.workload.next_transaction(txn_rng)
                attempted += 1
                try:
                    if group is not None:
                        group.submit(procedure, body)
                    else:
                        engine.execute(procedure, body)
                except SimulatedCrash as crash:
                    if group is not None:
                        report = self._failover(group, crash, total, attempted)
                        engine, log = group.engine, group.log
                        group.attach_injector(injector)
                    else:
                        engine, log, report = self._recover(
                            engine, crash, image_rng, total, attempted
                        )
                    crashes.append(report)
                    continue
                if engine.last_outcome != COMMITTED:
                    continue
                commits_since_ckpt += 1
                if spec.checkpoint_every and commits_since_ckpt >= spec.checkpoint_every:
                    commits_since_ckpt = 0
                    try:
                        take_checkpoint(log, truncate=True)
                        if group is not None:
                            group.ship()
                    except SimulatedCrash as crash:
                        if group is not None:
                            report = self._failover(group, crash, total, attempted)
                            engine, log = group.engine, group.log
                            group.attach_injector(injector)
                        else:
                            engine, log, report = self._recover(
                                engine, crash, image_rng, total, attempted
                            )
                        crashes.append(report)
        # Clean shutdown: force the log, replay it, and compare the
        # recovered state against the live engine.
        if group is not None:
            group.attach_injector(None)
        else:
            engine.attach_injector(None)
        log.force()
        final_state = replay(log)
        final_problems = self._named_problems(final_state, engine)
        if group is not None:
            # Heal any partition, drive replicas to the primary's tip,
            # and check the cross-node invariants.
            group.final_sync()
            final_problems.extend(group.convergence_problems())
            for txn_id, lsn in sorted(group.acked.items()):
                status = final_state.txn_status.get(txn_id)
                if status is not None and status != COMMITTED:
                    final_problems.append(
                        f"no-acked-txn-lost: acked txn {txn_id} (lsn {lsn}) "
                        f"replayed as {status} at shutdown"
                    )
        total.merge(engine.stats)
        net_fired: dict[str, int] = {}
        for injector in injectors:
            for fault in injector.fired:
                if fault.kind in NETWORK_KINDS:
                    net_fired[fault.kind] = net_fired.get(fault.kind, 0) + 1
        return ChaosResult(
            system=canonical_name(spec.system),
            workload=self.workload.name,
            attempted=attempted,
            stats=total,
            crashes=crashes,
            final_problems=final_problems,
            final_digest=final_state.digest(),
            replicas=spec.replicas,
            ack=spec.ack,
            acked=group.acked_count if group is not None else 0,
            unacked=group.unacked_count if group is not None else 0,
            replica_digests=group.replica_digests() if group is not None else (),
            net_faults=net_fired,
            net_counters=dict(group.net.counters) if group is not None else {},
        )


# -- the suite (CLI entry) ---------------------------------------------------


def default_workload_factories() -> dict:
    """The two canonical chaos workloads (small enough to run in CI)."""
    return {
        "micro": lambda: MicroBenchmark(db_bytes=1 << 20, rows_per_txn=4, read_write=True),
        "tpcc": lambda: TPCC(warehouses=2),
    }


def suite_cell(system: str, workload: str, seed: int, result, report: str) -> dict:
    """One suite cell as ``repro.store`` persists it."""
    return {
        "system": system,
        "workload": workload,
        "seed": seed,
        "ok": result.ok,
        "failed_invariants": result.failed_invariants(),
        "report": report,
    }


def run_suite(
    task_fn, tasks: list, jobs: int, collect: list | None, clean: str, failures: str
) -> tuple[str, bool]:
    """The chaos suites' shared fold; returns (report text, all passed).

    Fans *task_fn* (which returns a :func:`suite_cell` dict) out over
    *tasks* in submission order, so the report is bit-identical to the
    serial run.  Appends the cells to *collect* when it is a list, then
    joins the reports and ends with the verdict line: *clean*, or
    *failures* naming every violated invariant.
    """
    cells = fan_out(task_fn, tasks, jobs)
    # Suite cells fold in submission order; the sanitizer flags any
    # unordered collection sneaking into this merge point.
    cells = sanitizer.checked_merge(cells, "chaos-suite")
    if collect is not None:
        collect.extend(cells)
    lines = [cell["report"] for cell in cells]
    all_ok = all(cell["ok"] for cell in cells)
    if all_ok:
        lines.append(clean)
    else:
        failed = sorted({name for cell in cells for name in cell["failed_invariants"]})
        lines.append(
            f"{failures} (see above) — failing invariants: "
            + (", ".join(failed) if failed else "(unnamed)")
        )
    return "\n".join(lines), all_ok


def _run_suite_task(task: tuple[ChaosSpec, str]) -> dict:
    """One (spec, workload name) suite cell; picklable for --jobs fan-out.

    The rendered report embeds ``ChaosResult.digest``, so the full
    suite output is a pure function of the task list.
    """
    from repro.bench.report import render_chaos_result  # local: report imports stats

    spec, workload_name = task
    result = ChaosRunner(spec, default_workload_factories()[workload_name]()).run()
    return suite_cell(
        spec.system, workload_name, spec.seed, result, render_chaos_result(result)
    )


def run_chaos_suite(
    systems=None,
    workloads=None,
    *,
    quick: bool = False,
    seed: int = 1,
    n_txns: int | None = None,
    n_crashes: int | None = None,
    replicas: int = 0,
    ack: str = "async",
    jobs: int = 1,
    collect: list | None = None,
) -> tuple[str, bool]:
    """Run the chaos matrix; returns (report text, all passed).

    With ``jobs > 1`` the independent (system, workload) cells fan out
    over a process pool; results are collected in submission order, so
    the report is bit-identical to the serial run.  When any run fails,
    the verdict line names the violated invariants.

    When *collect* is a list, one dict per suite cell (``system``,
    ``workload``, ``seed``, ``ok``, ``failed_invariants``, ``report``)
    is appended to it in submission order — the hook
    ``repro.store`` uses to persist a chaos run without changing this
    function's return shape.
    """
    names = [canonical_name(s) for s in systems] if systems else list(ALL_SYSTEMS)
    factories = default_workload_factories()
    if workloads:
        unknown = [w for w in workloads if w not in factories]
        if unknown:
            raise KeyError(
                f"unknown chaos workload(s) {', '.join(unknown)}; "
                f"known: {', '.join(factories)}"
            )
        factories = {name: factories[name] for name in workloads}
    overrides: dict = {"replicas": replicas, "ack": ack}
    if n_txns is not None:
        overrides["n_txns"] = n_txns
    if n_crashes is not None:
        overrides["n_crashes"] = n_crashes
    tasks: list[tuple[ChaosSpec, str]] = []
    for system in names:
        for workload_name in factories:
            if quick:
                spec = ChaosSpec.quick(system, seed=seed, **overrides)
            else:
                spec = ChaosSpec(system, seed=seed, **overrides)
            tasks.append((spec, workload_name))
    return run_suite(
        _run_suite_task, tasks, jobs, collect,
        clean="all chaos runs clean", failures="CHAOS FAILURES",
    )
