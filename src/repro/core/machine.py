"""The simulated machine: cores + hierarchy + trace replay.

A :class:`Machine` owns the cache hierarchy, one
:class:`~repro.core.counters.PerfCounters` register file per core, and
per-code-module attribution tables.  Engines execute a transaction,
producing an :class:`~repro.core.trace.AccessTrace`, and hand it to
:meth:`Machine.run_trace`; cache state persists across transactions so
the replay reaches the same steady state a long profiled run would.

:meth:`Machine.run_trace` is the replay kernel and the hot path of the
whole reproduction: one loop over the trace probes the set dicts of the
caches and the dTLB directly, with no call per access, and batches the
counters per trace.  It must match the per-access reference model,
:meth:`~repro.core.hierarchy.MemoryHierarchy.access_instr` and
``access_data``, exactly (``tests/test_replay_kernel.py``).
"""

from __future__ import annotations

from repro import obs
from repro.core.counters import PerfCounters
from repro.core.cpu import DEFAULT_OVERLAP, CycleModel, OverlapModel
from repro.core.hierarchy import MemoryHierarchy
from repro.core.spec import IVY_BRIDGE, ServerSpec
from repro.core.trace import AccessTrace, DLOAD_SERIAL, DSTORE, IFETCH, IFETCH_RUN

# Per-module attribution table layout (one list of ints per module id).
M_IF_L1M = 0
M_IF_L2M = 1
M_IF_LLCM = 2
M_D_L1M = 3
M_D_L2M = 4
M_D_LLCM = 5
M_D_SERIAL_LLCM = 6
M_INSTR = 7
M_COHER = 8
M_IFETCHES = 9
M_DACCESSES = 10
M_BASE_CYCLES = 11  # float accumulator (no-miss cycles)
_MODULE_FIELDS = 12


class Machine:
    """A simulated server executing access traces on one or more cores."""

    def __init__(
        self,
        spec: ServerSpec = IVY_BRIDGE,
        n_cores: int = 1,
        overlap: OverlapModel = DEFAULT_OVERLAP,
        *,
        serial_miss_extra_cycles: int | None = None,
        tlb_mode: str = "constant",
        tlb_spec=None,
    ) -> None:
        self.spec = spec
        self.n_cores = n_cores
        hier_kwargs = {}
        if tlb_spec is not None:
            hier_kwargs["tlb_spec"] = tlb_spec
        self.hierarchy = MemoryHierarchy(spec, n_cores, **hier_kwargs)
        kwargs = {"tlb_mode": tlb_mode}
        if serial_miss_extra_cycles is not None:
            kwargs["serial_miss_extra_cycles"] = serial_miss_extra_cycles
        self.cycle_model = CycleModel(spec, overlap, **kwargs)
        self.counters = [PerfCounters() for _ in range(n_cores)]
        # module id -> attribution row; shared across cores (module
        # breakdown in the paper is per worker thread, and the runner
        # uses one machine per configuration).
        self.module_stats: dict[int, list[int]] = {}

    # -- replay ------------------------------------------------------------

    def run_trace(
        self, trace: AccessTrace, core_id: int = 0, *, transactions: int = 1
    ) -> PerfCounters:
        """Replay one transaction's trace on *core_id*.

        Returns the counter delta for just this transaction (cycles
        computed by the CPU model from the misses the replay produced).
        *transactions* is how many completed transactions the trace
        represents: 0 for an attempt that did not commit (its events
        still hit the caches — wasted work is real work — but it must
        not inflate per-transaction metrics).

        This is the replay kernel: one loop probes the set dicts of the
        core's L1I, L1D and L2, the shared LLC and both dTLB arrays
        directly, and adds the cache and dTLB counters once per trace.
        It is exact: caches (keys, per-set LRU order, dirty flags),
        dTLBs, coherence state, module rows and the returned counters
        end as if every line went through
        :meth:`MemoryHierarchy.access_instr` / ``access_data`` (an
        ``IFETCH_RUN`` line by line), which stay the reference model.
        The per-access path fills the upper levels after a miss, but
        ``lookup`` allocates on a miss with the dirty flag ``write``, so
        each of those fills finds its line resident, already MRU, with
        the flag the fill would leave: a no-op, which the kernel drops.
        Counters are only read between traces, so adding them once per
        trace gives the same values as adding them per access.

        The L1I set slices hold set dicts, and
        :meth:`SetAssociativeCache.fill_runs` replaces set dicts, so the
        slices are built on every call and never kept.  Coherence stays
        in the same loop behind ``coherent``; snoops and write
        invalidations go through the hierarchy's methods.
        """
        # Observability fast path: one null-check here, one complete()
        # below — no context-manager frame in the replay loop.
        _tracer = obs.tracer()
        _t0 = _tracer.clock() if _tracer is not None else 0

        hierarchy = self.hierarchy
        module_stats = self.module_stats
        core = hierarchy.cores[core_id]
        l1i, l1d, l2, llc = core.l1i, core.l1d, core.l2, hierarchy.llc
        i1_sets, i1_n, i1_a = l1i._sets, l1i.n_sets, l1i.assoc
        d1_sets, d1_n, d1_a = l1d._sets, l1d.n_sets, l1d.assoc
        l2_sets, l2_n, l2_a = l2._sets, l2.n_sets, l2.assoc
        l3_sets, l3_n, l3_a = llc._sets, llc.n_sets, llc.assoc
        # Two L1I set cycles: a run starting in the first cycle takes its
        # sets as one slice while it fits; longer runs slice a longer copy.
        i1_ring = i1_sets * 2
        i1_ring_len = len(i1_ring)
        tlb = hierarchy.tlbs[core_id]
        t1_sets, t1_n, t1_a = tlb._l1._sets, tlb._l1.n_sets, tlb._l1.assoc
        t2_sets, t2_n, t2_a = tlb._stlb._sets, tlb._stlb.n_sets, tlb._stlb.assoc
        page_shift = tlb._page_shift
        coherent = hierarchy.n_cores > 1
        modified_by = hierarchy._modified_by

        if_l1m = if_l2m = if_llcm = 0
        d_l1m = d_l2m = d_llcm = d_serial_llcm = 0
        n_if = n_data = n_stores = n_coher = 0
        i1_ev = d1_ev = l2_ev = l3_ev = 0
        t1_misses = walks = 0

        # Module-row lookup hoisted behind a last-module cache: traces
        # are long single-module spans, so most events reuse `row`.
        # Evictions take a full set's LRU key with `for victim in s:
        # break`, which skips the two builtin calls of next(iter(s)).
        last_mod = -1
        row: list[int] | None = None
        for kind, addr, mod in zip(trace.kinds, trace.addrs, trace.mods):
            if mod != last_mod:
                row = module_stats.get(mod)
                if row is None:
                    row = [0] * _MODULE_FIELDS
                    module_stats[mod] = row
                last_mod = mod
            if kind == IFETCH_RUN:
                start, n_lines = addr
            elif kind == IFETCH:
                start = addr
                n_lines = 1
            else:
                # -- data line: dTLB, snoop, L1D -> L2 -> LLC ------------
                write = kind == DSTORE
                n_data += 1
                n_stores += write
                row[M_DACCESSES] += 1
                # dTLB entries hold None: pop returns the default 0 on a miss.
                page = addr >> page_shift
                s = t1_sets[page % t1_n]
                if s.pop(page, 0) is not None:
                    t1_misses += 1
                    if len(s) >= t1_a:
                        for victim in s:
                            break
                        del s[victim]
                    t = t2_sets[page % t2_n]
                    if t.pop(page, 0) is not None:
                        walks += 1
                        if len(t) >= t2_a:
                            for victim in t:
                                break
                            del t[victim]
                    t[page] = None
                s[page] = None
                if coherent:
                    owner = modified_by.get(addr)
                    if owner is not None and owner != core_id:
                        hierarchy.snoop(core_id, addr, owner)
                        n_coher += 1
                        row[M_COHER] += 1
                s = d1_sets[addr % d1_n]
                d = s.pop(addr, None)
                if d is None:
                    d_l1m += 1
                    row[M_D_L1M] += 1
                    if len(s) >= d1_a:
                        for victim in s:
                            break
                        del s[victim]
                        d1_ev += 1
                    s[addr] = write
                    s = l2_sets[addr % l2_n]
                    d = s.pop(addr, None)
                    if d is None:
                        d_l2m += 1
                        row[M_D_L2M] += 1
                        if len(s) >= l2_a:
                            for victim in s:
                                break
                            del s[victim]
                            l2_ev += 1
                        s[addr] = write
                        s = l3_sets[addr % l3_n]
                        d = s.pop(addr, None)
                        if d is None:
                            d_llcm += 1
                            row[M_D_LLCM] += 1
                            if kind == DLOAD_SERIAL:
                                d_serial_llcm += 1
                                row[M_D_SERIAL_LLCM] += 1
                            if len(s) >= l3_a:
                                for victim in s:
                                    break
                                del s[victim]
                                l3_ev += 1
                            d = write
                # The level that served the line (or the LLC, newly
                # allocated) takes it back as MRU, dirtied by a store.
                s[addr] = d or write
                if coherent and write:
                    hierarchy.invalidate_others(core_id, addr)
                continue

            # -- instruction lines start .. start + n_lines - 1 ----------
            first = start % i1_n
            stop = first + n_lines
            if stop <= i1_ring_len:
                run_sets = i1_ring[first:stop]
            else:
                run_sets = (i1_sets * (stop // i1_n + 1))[first:stop]
            l1m = l2m = llcm = 0
            line = start - 1
            for s in run_sets:
                line += 1
                d = s.pop(line, None)
                if d is None:
                    l1m += 1
                    if len(s) >= i1_a:
                        for victim in s:
                            break
                        del s[victim]
                        i1_ev += 1
                    s[line] = False
                    s = l2_sets[line % l2_n]
                    d = s.pop(line, None)
                    if d is None:
                        l2m += 1
                        if len(s) >= l2_a:
                            for victim in s:
                                break
                            del s[victim]
                            l2_ev += 1
                        s[line] = False
                        s = l3_sets[line % l3_n]
                        d = s.pop(line, None)
                        if d is None:
                            llcm += 1
                            if len(s) >= l3_a:
                                for victim in s:
                                    break
                                del s[victim]
                                l3_ev += 1
                            d = False
                # The serving level (or the LLC, newly allocated) takes
                # the line back as MRU.
                s[line] = d
            n_if += n_lines
            row[M_IFETCHES] += n_lines
            if l1m:
                if_l1m += l1m
                row[M_IF_L1M] += l1m
                if_l2m += l2m
                row[M_IF_L2M] += l2m
                if_llcm += llcm
                row[M_IF_LLCM] += llcm

        l1i.stats.add(n_if, if_l1m, i1_ev)
        l1d.stats.add(n_data, d_l1m, d1_ev)
        l2.stats.add(if_l1m + d_l1m, if_l2m + d_l2m, l2_ev)
        llc.stats.add(if_l2m + d_l2m, if_llcm + d_llcm, l3_ev)
        tlb.accesses += n_data
        tlb.l1_misses += t1_misses
        tlb.walks += walks

        delta = PerfCounters(
            instructions=trace.instructions,
            branches=trace.branches,
            mispredicts=trace.mispredicts,
            transactions=transactions,
            ifetches=n_if,
            loads=n_data - n_stores,
            stores=n_stores,
            l1i_misses=if_l1m,
            l2i_misses=if_l2m,
            llci_misses=if_llcm,
            l1d_misses=d_l1m,
            l2d_misses=d_l2m,
            llcd_misses=d_llcm,
            llcd_serial_misses=d_serial_llcm,
            coherence_misses=n_coher,
            dtlb_walks=walks,
        )
        delta.cycles = self.cycle_model.cycles(delta, trace.base_cycles)
        for mod, instrs in trace.instr_by_module.items():
            row = module_stats.get(mod)
            if row is None:
                row = [0] * _MODULE_FIELDS
                module_stats[mod] = row
            row[M_INSTR] += instrs
            row[M_BASE_CYCLES] += trace.base_by_module.get(mod, instrs * self.spec.base_cpi)
        self.counters[core_id].add(delta)
        if _tracer is not None:
            _tracer.complete(
                "replay", f"core{core_id}", "core", _t0,
                events=len(trace.kinds),
                instructions=delta.instructions,
                cycles=delta.cycles,
            )
        return delta

    # -- module attribution --------------------------------------------------

    def module_cycles(self) -> dict[int, float]:
        """Elapsed cycles attributed to each module id.

        Uses the same overlap-adjusted model as :class:`CycleModel`,
        applied to each module's private miss tallies; branch stalls are
        folded into the per-instruction base cost, which is a negligible
        approximation for the module *percentage* breakdown (Figure 7).
        """
        spec = self.spec
        ov = self.cycle_model.overlap
        p1 = spec.l1i.miss_penalty_cycles
        p2 = spec.l2.miss_penalty_cycles
        p3 = spec.llc.miss_penalty_cycles
        out: dict[int, float] = {}
        for mod, row in self.module_stats.items():
            instr_stalls = (
                (row[M_IF_L1M] * p1 + row[M_IF_L2M] * p2 + row[M_IF_LLCM] * p3)
                * ov.instr
                * self.cycle_model.frontend_refill_factor
            )
            llcd_parallel = row[M_D_LLCM] - row[M_D_SERIAL_LLCM]
            data_stalls = (
                row[M_D_L1M] * p1 * ov.l1d
                + row[M_D_L2M] * p2 * ov.l2d
                + llcd_parallel * p3 * ov.llcd
                + row[M_D_SERIAL_LLCM] * p3 * ov.llcd_serial
            )
            coher_stalls = row[M_COHER] * p3 * ov.coherence
            tlb_stalls = row[M_D_SERIAL_LLCM] * self.cycle_model.serial_miss_extra_cycles
            out[mod] = (
                row[M_BASE_CYCLES]
                + instr_stalls
                + data_stalls
                + coher_stalls
                + tlb_stalls
            )
        return out

    def snapshot_module_stats(self) -> dict[int, list[int]]:
        """Deep-copyable snapshot for window-delta module attribution."""
        return {mod: list(row) for mod, row in self.module_stats.items()}

    # -- maintenance ---------------------------------------------------------

    def total_counters(self) -> PerfCounters:
        total = PerfCounters()
        for c in self.counters:
            total.add(c)
        return total

    def reset(self) -> None:
        """Cold caches and zeroed counters (fresh experiment repetition)."""
        self.hierarchy.flush()
        for c in self.counters:
            c.reset()
        self.module_stats.clear()
