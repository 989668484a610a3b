"""Multi-core cache hierarchy: private L1I/L1D/L2 per core, shared LLC.

The geometry and penalties come from a :class:`~repro.core.spec.ServerSpec`.
``access_instr`` / ``access_data`` are the per-access model: each
returns the level that served one access as one of the
:data:`L1`/:data:`L2`/:data:`LLC`/:data:`MEMORY` constants.  Traces do
not go through them: :meth:`~repro.core.machine.Machine.run_trace`
replays a whole trace with the same cache probes inlined, and these
methods are the reference it is tested against.  The coherence
actions, :meth:`MemoryHierarchy.snoop` and
:meth:`MemoryHierarchy.invalidate_others`, are shared by both paths.

Coherence is modelled MESI-lite, and only when more than one core is
instantiated: a store invalidates the line in other cores' private
caches, and a load of a line another core has modified is flagged as a
coherence transfer (served at LLC latency, counted separately).  The
LLC is modelled non-inclusive: evicting an LLC line does not
back-invalidate the private caches — a simplification that does not
affect the paper's metrics because the working sets that thrash the
LLC dwarf the private caches.
"""

from __future__ import annotations

from repro.core.cache import SetAssociativeCache
from repro.core.spec import IVY_BRIDGE, ServerSpec
from repro.core.tlb import DataTLB, IVY_BRIDGE_DTLB, TLBSpec

L1 = 1
L2 = 2
LLC = 3
MEMORY = 4

LEVEL_NAMES = {L1: "L1", L2: "L2", LLC: "LLC", MEMORY: "MEM"}


class CorePrivateCaches:
    """The L1I, L1D and unified L2 belonging to one core."""

    def __init__(self, spec: ServerSpec) -> None:
        self.l1i = SetAssociativeCache(spec.l1i)
        self.l1d = SetAssociativeCache(spec.l1d)
        self.l2 = SetAssociativeCache(spec.l2)

    def flush(self) -> None:
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()


class MemoryHierarchy:
    """Private caches for *n_cores* cores plus one shared LLC."""

    def __init__(
        self,
        spec: ServerSpec = IVY_BRIDGE,
        n_cores: int = 1,
        *,
        tlb_spec: TLBSpec = IVY_BRIDGE_DTLB,
    ) -> None:
        if not 1 <= n_cores <= spec.n_cores:
            raise ValueError(f"n_cores must be in [1, {spec.n_cores}], got {n_cores}")
        self.spec = spec
        self.n_cores = n_cores
        self.cores = [CorePrivateCaches(spec) for _ in range(n_cores)]
        self.tlbs = [DataTLB(tlb_spec) for _ in range(n_cores)]
        self.llc = SetAssociativeCache(spec.llc)
        self._coherent = n_cores > 1
        # line -> core id that last wrote it (modified state), multi-core only
        self._modified_by: dict[int, int] = {}
        self.coherence_transfers = 0

    # -- access paths ------------------------------------------------------

    def access_instr(self, core_id: int, line: int) -> int:
        """Instruction fetch of *line* by *core_id*; returns serving level."""
        core = self.cores[core_id]
        if core.l1i.lookup(line):
            return L1
        if core.l2.lookup(line):
            core.l1i.fill(line)
            return L2
        if self.llc.lookup(line):
            core.l2.fill(line)
            core.l1i.fill(line)
            return LLC
        core.l2.fill(line)
        core.l1i.fill(line)
        return MEMORY

    def access_data(self, core_id: int, line: int, write: bool) -> tuple[int, bool]:
        """Data access of *line*; returns (serving level, coherence flag).

        The coherence flag is True when the line had to be pulled out of
        another core's modified copy.
        """
        core = self.cores[core_id]
        self.tlbs[core_id].translate(line)
        coherent = self._coherent
        transfer = False
        if coherent:
            owner = self._modified_by.get(line)
            if owner is not None and owner != core_id:
                self.snoop(core_id, line, owner)
                transfer = True

        if core.l1d.lookup(line, write=write):
            level = L1
        elif core.l2.lookup(line, write=write):
            core.l1d.fill(line, dirty=write)
            level = L2
        elif self.llc.lookup(line, write=write):
            core.l2.fill(line)
            core.l1d.fill(line, dirty=write)
            level = LLC
        else:
            core.l2.fill(line)
            core.l1d.fill(line, dirty=write)
            level = MEMORY

        if coherent and write:
            self.invalidate_others(core_id, line)
        return level, transfer

    # -- coherence -----------------------------------------------------------

    def snoop(self, core_id: int, line: int, owner: int) -> None:
        """Pull *line* out of *owner*'s modified copy for *core_id*.

        The remote copy is invalidated and written back dirty to the
        LLC; the requester's own private copies are dropped too, so its
        lookup that follows misses L1D and L2 and is served by the LLC.
        """
        remote = self.cores[owner]
        remote.l1d.invalidate(line)
        remote.l2.invalidate(line)
        del self._modified_by[line]
        self.coherence_transfers += 1
        self.llc.fill(line, dirty=True)
        core = self.cores[core_id]
        core.l1d.invalidate(line)
        core.l2.invalidate(line)

    def invalidate_others(self, core_id: int, line: int) -> None:
        """Write-invalidate: drop every other core's copy of *line*.

        *core_id* becomes the line's owner in modified state.
        """
        for cid, other in enumerate(self.cores):
            if cid != core_id:
                other.l1d.invalidate(line)
                other.l2.invalidate(line)
        self._modified_by[line] = core_id

    # -- maintenance -------------------------------------------------------

    def flush(self) -> None:
        """Cold-start every cache (used between experiment repetitions)."""
        for core in self.cores:
            core.flush()
        for tlb in self.tlbs:
            tlb.flush()
        self.llc.flush()
        self._modified_by.clear()
        self.coherence_transfers = 0

    def resident_lines(self) -> int:
        total = self.llc.resident_lines()
        for core in self.cores:
            total += core.l1i.resident_lines() + core.l1d.resident_lines() + core.l2.resident_lines()
        return total
