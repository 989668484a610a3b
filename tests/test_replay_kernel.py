"""The replay kernel against the per-access reference model.

``Machine.run_trace`` probes the set dicts of every cache and dTLB
array inline and batches the counters per trace.  Its contract is
exactness: the machine must end in the same state as replaying every
line through ``MemoryHierarchy.access_instr`` / ``access_data``.  The
reference below is that per-access event loop.  Hypothesis drives both
with random multi-core traces — long instruction runs, single fetches,
loads, serial loads and stores on lines the cores share — with
``fill_runs`` prewarms of the LLC, an L1I or an L2 and machine resets
between traces, and compares the ordered contents of every set, every
counter and all coherence state.  Scripted cases pin the events random
traces reach only rarely: cross-core snoops, stores served by L2 and
the LLC, and set dicts replaced between two calls.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.counters import PerfCounters
from repro.core.hierarchy import L1, L2, MEMORY
from repro.core.machine import (
    M_COHER, M_BASE_CYCLES, M_D_L1M, M_D_L2M, M_D_LLCM, M_D_SERIAL_LLCM,
    M_DACCESSES, M_IF_L1M, M_IF_L2M, M_IF_LLCM, M_IFETCHES, M_INSTR,
    Machine, _MODULE_FIELDS,
)
from repro.core.spec import IVY_BRIDGE
from repro.core.trace import AccessTrace, DLOAD, DLOAD_SERIAL, DSTORE, IFETCH, IFETCH_RUN
from tests.conftest import TINY_SERVER


def reference_run_trace(machine: Machine, trace: AccessTrace, core_id: int) -> PerfCounters:
    """``run_trace`` as one hierarchy call per line: the specification."""
    hierarchy = machine.hierarchy
    c = PerfCounters(
        instructions=trace.instructions,
        branches=trace.branches,
        mispredicts=trace.mispredicts,
        transactions=1,
    )
    walks_before = hierarchy.tlbs[core_id].walks
    for kind, addr, mod in zip(trace.kinds, trace.addrs, trace.mods):
        row = machine.module_stats.setdefault(mod, [0] * _MODULE_FIELDS)
        if kind in (IFETCH, IFETCH_RUN):
            start, n_lines = addr if kind == IFETCH_RUN else (addr, 1)
            for line in range(start, start + n_lines):
                c.ifetches += 1
                row[M_IFETCHES] += 1
                level = hierarchy.access_instr(core_id, line)
                if level != L1:
                    c.l1i_misses += 1
                    row[M_IF_L1M] += 1
                if level not in (L1, L2):
                    c.l2i_misses += 1
                    row[M_IF_L2M] += 1
                if level == MEMORY:
                    c.llci_misses += 1
                    row[M_IF_LLCM] += 1
            continue
        write = kind == DSTORE
        if write:
            c.stores += 1
        else:
            c.loads += 1
        row[M_DACCESSES] += 1
        level, transfer = hierarchy.access_data(core_id, addr, write)
        if transfer:
            c.coherence_misses += 1
            row[M_COHER] += 1
        if level != L1:
            c.l1d_misses += 1
            row[M_D_L1M] += 1
        if level not in (L1, L2):
            c.l2d_misses += 1
            row[M_D_L2M] += 1
        if level == MEMORY:
            c.llcd_misses += 1
            row[M_D_LLCM] += 1
            if kind == DLOAD_SERIAL:
                c.llcd_serial_misses += 1
                row[M_D_SERIAL_LLCM] += 1
    c.dtlb_walks = hierarchy.tlbs[core_id].walks - walks_before
    c.cycles = machine.cycle_model.cycles(c, trace.base_cycles)
    for mod, instrs in trace.instr_by_module.items():
        row = machine.module_stats.setdefault(mod, [0] * _MODULE_FIELDS)
        row[M_INSTR] += instrs
        row[M_BASE_CYCLES] += trace.base_by_module.get(mod, instrs * machine.spec.base_cpi)
    machine.counters[core_id].add(c)
    return c


def machine_state(machine: Machine):
    """Everything replay can change, with dict order kept."""
    h = machine.hierarchy
    caches = [c for core in h.cores for c in (core.l1i, core.l1d, core.l2)] + [h.llc]
    return {
        "sets": [[list(s.items()) for s in c._sets] for c in caches],
        "stats": [dataclasses.astuple(c.stats) for c in caches],
        "tlbs": [
            (t.accesses, t.l1_misses, t.walks,
             [list(s) for s in t._l1._sets], [list(s) for s in t._stlb._sets])
            for t in h.tlbs
        ],
        "coherence_transfers": h.coherence_transfers,
        "modified_by": list(h._modified_by.items()),
        "module_stats": list(machine.module_stats.items()),
        "counters": [c.as_dict() for c in machine.counters],
    }


# Lines a * 2**14 + b fall in few L1/L2/LLC/dTLB sets with many tags
# per set.  Instruction runs start in the same pool, so the unified L2
# and the LLC see code and data on the same lines.  Four hot lines are
# shared by every core, so stores on one core and accesses on another
# snoop and invalidate.
lines = st.builds(lambda a, b: a * (1 << 14) + b, st.integers(0, 40), st.integers(0, 8))
hot = st.integers(0, 3)
events = st.one_of(
    st.tuples(st.just(IFETCH_RUN), lines, st.integers(2, 300)),
    st.tuples(st.sampled_from([IFETCH, DLOAD, DSTORE, DLOAD_SERIAL]), st.one_of(hot, lines), st.just(1)),
    st.tuples(st.sampled_from([DLOAD, DSTORE]), hot, st.just(1)),
)
# A prewarm installs runs into the LLC or into one core's L1I or L2.
# Strides of 128 and 2**14 lines pile a run into one set of the tiny and
# the Ivy Bridge LLC, so sets fill and evict.  fill_runs replaces set
# dicts, which the kernel must never hold across calls.
step = st.one_of(
    st.tuples(
        st.just("trace"),
        st.integers(0, 3),
        st.lists(st.tuples(events, st.integers(0, 2)), min_size=1, max_size=40),
    ),
    st.tuples(
        st.sampled_from(["llc", "l1i", "l2"]),
        st.integers(0, 3),
        st.lists(
            st.tuples(lines, st.integers(1, 600), st.sampled_from([1, 3, 128, 1 << 14])),
            max_size=3,
        ),
    ),
    st.tuples(st.just("reset"), st.just(0), st.just([])),
)


def build_trace(events_and_mods) -> AccessTrace:
    t = AccessTrace()
    for (kind, line, n_lines), mod in events_and_mods:
        if kind == IFETCH_RUN:
            t.ifetch_run(line, n_lines, mod)
        elif kind == IFETCH:
            t.ifetch(line, mod)
        elif kind == DSTORE:
            t.store(line, mod)
        else:
            t.load(line, mod, serial=kind == DLOAD_SERIAL)
        t.retire(mod, 10 * n_lines, branches=1, base_cycles=4.0 * n_lines)
    return t


@settings(max_examples=100, deadline=None)
@given(
    server=st.sampled_from([TINY_SERVER, IVY_BRIDGE]),
    n_cores=st.sampled_from([1, 2, 4]),
    steps=st.lists(step, min_size=2, max_size=10),
)
def test_kernel_matches_per_access_reference(server, n_cores, steps):
    kernel, reference = Machine(server, n_cores), Machine(server, n_cores)
    for op, core, payload in steps:
        if op == "reset":
            kernel.reset()
            reference.reset()
        elif op == "trace":
            core_id = core % n_cores
            trace = build_trace(payload)
            got = kernel.run_trace(trace, core_id)
            want = reference_run_trace(reference, trace, core_id)
            assert got.as_dict() == want.as_dict()
        else:
            for m in (kernel, reference):
                prewarm_target(m, op, core % n_cores).fill_runs(payload)
        assert machine_state(kernel) == machine_state(reference)


def prewarm_target(machine: Machine, level: str, core_id: int):
    if level == "llc":
        return machine.hierarchy.llc
    return getattr(machine.hierarchy.cores[core_id], level)


def test_coherent_snoops_match_reference():
    """Stores on one core, then loads and stores of the same lines on others."""
    kernel, reference = Machine(TINY_SERVER, 4), Machine(TINY_SERVER, 4)
    script = [
        (0, [((DSTORE, 3, 1), 0), ((DLOAD, 4, 1), 0)]),
        (1, [((DLOAD, 3, 1), 1), ((DSTORE, 4, 1), 1), ((IFETCH_RUN, 0, 40), 2)]),
        (2, [((DSTORE, 3, 1), 0), ((DLOAD_SERIAL, 4, 1), 1)]),
        (0, [((DLOAD, 3, 1), 0), ((DSTORE, 3, 1), 0), ((DLOAD, 4, 1), 2)]),
    ]
    for core_id, events_and_mods in script:
        trace = build_trace(events_and_mods)
        got = kernel.run_trace(trace, core_id)
        want = reference_run_trace(reference, trace, core_id)
        assert got.as_dict() == want.as_dict()
        assert machine_state(kernel) == machine_state(reference)
    assert kernel.hierarchy.coherence_transfers == 3


def test_stores_hitting_l2_and_llc_mark_them_dirty():
    """Loads push line 0 out of L1D, then out of L2; each store must dirty
    the level that serves it, and a clean fetch must keep the flag."""
    kernel, reference = Machine(TINY_SERVER, 1), Machine(TINY_SERVER, 1)
    # Tiny L1D: 16 sets x 2 ways; L2: 32 sets x 4 ways.
    steps = [
        [((DLOAD, 0, 1), 0), ((DLOAD, 16, 1), 0), ((DLOAD, 32, 1), 0), ((DSTORE, 0, 1), 0)],
        [((DLOAD, line, 1), 0) for line in (32, 64, 96, 128, 160)] + [((DSTORE, 0, 1), 0)],
        [((IFETCH, 0, 1), 1), ((IFETCH_RUN, 0, 3), 1)],
    ]
    for events_and_mods in steps:
        trace = build_trace(events_and_mods)
        got = kernel.run_trace(trace, 0)
        want = reference_run_trace(reference, trace, 0)
        assert got.as_dict() == want.as_dict()
        assert machine_state(kernel) == machine_state(reference)
    assert kernel.hierarchy.cores[0].l2._sets[0][0] is True
    assert kernel.hierarchy.llc._sets[0][0] is True


def test_sets_replaced_between_calls_are_the_sets_probed():
    """A reset empties sets in place; fill_runs then swaps in new set dicts.

    The next trace's runs, some shorter and some wider than two L1I set
    cycles, must probe the new dicts, which rules out any list of sets
    kept from the first call.
    """
    kernel, reference = Machine(TINY_SERVER, 2), Machine(TINY_SERVER, 2)
    first = build_trace([((IFETCH_RUN, 0, 64), 0), ((DSTORE, 9, 1), 1)])
    second = build_trace([
        ((IFETCH_RUN, 3, 20), 0),
        ((IFETCH_RUN, 8, 200), 0),
        ((DSTORE, 7, 1), 1),
        ((IFETCH_RUN, 1, 90), 2),
    ])
    for m, replay in ((kernel, Machine.run_trace), (reference, reference_run_trace)):
        replay(m, first, 1)
        m.reset()
        m.hierarchy.cores[1].l1i.fill_runs([(5, 40, 1)])
        m.hierarchy.llc.fill_runs([(0, 5000, 1)])
    got = kernel.run_trace(second, 1)
    want = reference_run_trace(reference, second, 1)
    assert got.as_dict() == want.as_dict()
    assert machine_state(kernel) == machine_state(reference)
