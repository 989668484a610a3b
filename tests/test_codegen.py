"""Code-module, layout, walker and compiler tests."""

import random

import pytest

from repro.codegen.compiler import (
    CompilerProfile,
    DBMS_M_COMPILER,
    HYPER_COMPILER,
    TransactionCompiler,
)
from repro.codegen.layout import CODE_SEGMENT_LINES, CodeLayout
from repro.codegen.module import CodeModule, ENGINE, OTHER
from repro.codegen.walker import CodeWalker
from repro.core.trace import AccessTrace


def module(name="m", kb=64, group=ENGINE, **kw) -> CodeModule:
    return CodeModule(name, group, kb * 1024, **kw)


class TestCodeModule:
    def test_footprint_lines(self):
        assert module(kb=64).footprint_lines == 1024

    def test_instruction_density(self):
        m = module(instructions_per_line=16)
        assert m.instructions_for_lines(10) == 160

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group": "bogus"},
            {"footprint_bytes": 0},
            {"instructions_per_line": 0},
            {"mispredict_rate": 1.5},
            {"base_cpi": 0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(name="m", group=ENGINE, footprint_bytes=1024)
        base.update(kwargs)
        with pytest.raises(ValueError):
            CodeModule(**base)


class TestCodeLayout:
    def test_modules_get_disjoint_page_aligned_ranges(self):
        layout = CodeLayout()
        a = layout.add(module("a", kb=10))
        b = layout.add(module("b", kb=10))
        end_a = layout.base_line(a) + layout.module(a).footprint_lines
        assert layout.base_line(b) >= end_a
        assert layout.base_line(a) % 64 == 0  # 4 KB pages = 64 lines

    def test_lookup_apis(self):
        layout = CodeLayout()
        mod_id = layout.add(module("parser", group=OTHER))
        assert layout.id_of("parser") == mod_id
        assert layout.name_of(mod_id) == "parser"
        assert layout.group_of(mod_id) == OTHER
        assert "parser" in layout
        assert len(layout) == 1

    def test_duplicate_name_rejected(self):
        layout = CodeLayout()
        layout.add(module("x"))
        with pytest.raises(ValueError):
            layout.add(module("x"))

    def test_engine_ids_and_footprint_totals(self):
        layout = CodeLayout()
        e = layout.add(module("e", kb=10, group=ENGINE))
        layout.add(module("o", kb=20, group=OTHER))
        assert layout.engine_ids() == [e]
        assert layout.total_footprint_bytes(ENGINE) == 10 * 1024
        assert layout.total_footprint_bytes() == 30 * 1024

    def test_code_below_data_segment(self):
        layout = CodeLayout()
        mod_id = layout.add(module("m", kb=512))
        top = layout.base_line(mod_id) + layout.module(mod_id).footprint_lines
        assert top < CODE_SEGMENT_LINES


class TestCodeWalker:
    def make(self, **kw):
        layout = CodeLayout()
        mod_id = layout.add(module("m", kb=64, **kw))
        return layout, CodeWalker(layout), mod_id

    def test_full_walk_emits_all_lines(self):
        layout, walker, mod_id = self.make()
        t = AccessTrace()
        instr = walker.run(t, mod_id, 1.0)
        assert len(t) == 1024
        assert instr == t.instructions

    def test_fraction_walk(self):
        layout, walker, mod_id = self.make()
        t = AccessTrace()
        walker.run(t, mod_id, 0.25)
        assert len(t) == 256

    def test_same_slice_same_lines(self):
        layout, walker, mod_id = self.make()
        t1, t2 = AccessTrace(), AccessTrace()
        walker.run_segment(t1, mod_id, 0.25, 0.5)
        walker.run_segment(t2, mod_id, 0.25, 0.5)
        assert t1.addrs == t2.addrs

    def test_disjoint_slices_disjoint_lines(self):
        layout, walker, mod_id = self.make()
        t1, t2 = AccessTrace(), AccessTrace()
        walker.run_segment(t1, mod_id, 0.0, 0.5)
        walker.run_segment(t2, mod_id, 0.5, 1.0)
        lines1 = {addr for _, addr, _ in t1.events()}
        lines2 = {addr for _, addr, _ in t2.events()}
        assert not lines1 & lines2

    def test_loop_refetches_body(self):
        layout, walker, mod_id = self.make()
        t = AccessTrace()
        walker.loop(t, mod_id, 0.0, 0.1, iterations=5)
        assert len(t) == 5 * 102  # 10% of 1024 lines, five times
        assert len({addr for _, addr, _ in t.events()}) == 102

    def test_invalid_segment_rejected(self):
        layout, walker, mod_id = self.make()
        with pytest.raises(ValueError):
            walker.run_segment(AccessTrace(), mod_id, 0.5, 0.4)

    def test_branch_accounting_with_carry(self):
        layout, walker, mod_id = self.make(
            branches_per_kilo_instruction=100, mispredict_rate=0.5
        )
        t = AccessTrace()
        for _ in range(50):
            walker.run_segment(t, mod_id, 0.0, 0.01)
        # ~10 lines/walk * 14 ipl * 50 = ~7000 instr -> ~700 branches.
        assert t.branches == pytest.approx(t.instructions * 0.1, rel=0.05)
        assert t.mispredicts == pytest.approx(t.branches * 0.5, rel=0.1)

    def test_base_cycles_accounted(self):
        layout, walker, mod_id = self.make(base_cpi=0.5)
        t = AccessTrace()
        walker.run(t, mod_id, 1.0)
        assert t.base_cycles == pytest.approx(t.instructions * 0.5)


class UnmemoizedWalker:
    """``CodeWalker.run_segment`` recomputing every fact on every call:
    the reference the memoized walker must match bit for bit."""

    def __init__(self, layout):
        self.layout = layout
        self._branch_carry = 0.0
        self._mispredict_carry = 0.0

    def run_segment(self, trace, mod_id, start_frac, end_frac):
        if not 0.0 <= start_frac <= end_frac <= 1.0:
            raise ValueError(f"invalid segment [{start_frac}, {end_frac})")
        module = self.layout.module(mod_id)
        total_lines = module.footprint_lines
        first = int(start_frac * total_lines)
        last = max(first + 1, int(round(end_frac * total_lines)))
        n_lines = min(last, total_lines) - first
        if n_lines <= 0:
            return 0
        trace.ifetch_run(self.layout.base_line(mod_id) + first, n_lines, mod_id)
        instructions = module.instructions_for_lines(n_lines)
        branches_f = (
            instructions * module.branches_per_kilo_instruction / 1000.0 + self._branch_carry
        )
        branches = int(branches_f)
        self._branch_carry = branches_f - branches
        mispredicts_f = branches * module.mispredict_rate + self._mispredict_carry
        mispredicts = int(mispredicts_f)
        self._mispredict_carry = mispredicts_f - mispredicts
        trace.retire(
            mod_id, instructions, branches, mispredicts,
            base_cycles=instructions * module.base_cpi,
        )
        return instructions


def trace_state(trace):
    return (
        trace.kinds, trace.addrs, trace.mods, trace.instr_by_module,
        trace.base_by_module, trace.branches, trace.mispredicts, len(trace),
    )


class TestWalkerMemo:
    """The segment memo replays exactly what recomputation produces."""

    def layout(self):
        layout = CodeLayout()
        layout.add(module("a", kb=64, branches_per_kilo_instruction=137,
                          mispredict_rate=0.31, base_cpi=0.7))
        layout.add(module("b", kb=3, instructions_per_line=9.5,
                          branches_per_kilo_instruction=211, mispredict_rate=0.07))
        layout.add(module("c", kb=200, branches_per_kilo_instruction=45,
                          mispredict_rate=0.5, base_cpi=1.3))
        return layout

    def test_long_random_sequence_matches_unmemoized_walker(self):
        rng = random.Random(15)
        fracs = [0.0, 0.01, 0.06, 0.12, 0.3, 0.52, 0.88, 0.9, 1.0]
        # A small pool so segments repeat, sharing (mod, start) across
        # several ends and (mod, end) across several starts.
        pool = [
            (mod_id, start, end)
            for mod_id in range(3)
            for start in fracs
            for end in fracs
            if start <= end
        ]
        layout = self.layout()
        fast, slow = CodeWalker(layout), UnmemoizedWalker(layout)
        t_fast, t_slow = AccessTrace(), AccessTrace()
        for step in range(3000):
            segment = rng.choice(pool)
            assert fast.run_segment(t_fast, *segment) == slow.run_segment(t_slow, *segment)
            assert fast._branch_carry == slow._branch_carry
            assert fast._mispredict_carry == slow._mispredict_carry
            if step % 97 == 0:
                t_fast.clear()
                t_slow.clear()
        assert trace_state(t_fast) == trace_state(t_slow)
        assert len(fast._segments) <= len(pool)  # one entry per distinct segment

    def test_loop_matches_unmemoized_walker(self):
        layout = self.layout()
        fast, slow = CodeWalker(layout), UnmemoizedWalker(layout)
        t_fast, t_slow = AccessTrace(), AccessTrace()
        fast.loop(t_fast, 1, 0.06, 0.52, iterations=40)
        for _ in range(40):
            slow.run_segment(t_slow, 1, 0.06, 0.52)
        assert trace_state(t_fast) == trace_state(t_slow)

    def test_module_added_after_first_walk(self):
        layout = self.layout()
        fast, slow = CodeWalker(layout), UnmemoizedWalker(layout)
        t_fast, t_slow = AccessTrace(), AccessTrace()
        for walker, t in ((fast, t_fast), (slow, t_slow)):
            walker.run_segment(t, 0, 0.0, 0.5)
        mod_id = layout.add(module("late", kb=16, branches_per_kilo_instruction=90))
        for walker, t in ((fast, t_fast), (slow, t_slow)):
            walker.run_segment(t, mod_id, 0.0, 0.5)
            walker.run_segment(t, 0, 0.0, 0.5)
        assert trace_state(t_fast) == trace_state(t_slow)

    def test_invalid_segment_raises_on_every_call(self):
        walker = CodeWalker(self.layout())
        for _ in range(2):
            with pytest.raises(ValueError):
                walker.run_segment(AccessTrace(), 0, 0.5, 0.4)
            with pytest.raises(IndexError):
                walker.run_segment(AccessTrace(), 9, 0.0, 0.5)
        assert walker._segments == {}


class TestCompiler:
    def test_footprint_fraction_of_replaced(self):
        layout = CodeLayout()
        compiler = TransactionCompiler(CompilerProfile("t", footprint_factor=0.1))
        replaced = [module("a", kb=100), module("b", kb=100)]
        mod_id = compiler.compile(layout, "proc", replaced)
        compiled = layout.module(mod_id)
        assert compiled.footprint_bytes == int(200 * 1024 * 0.1)
        assert compiled.group == ENGINE
        assert compiled.name == "compiled:proc"

    def test_minimum_footprint_floor(self):
        layout = CodeLayout()
        compiler = TransactionCompiler(
            CompilerProfile("t", footprint_factor=0.001, min_footprint_bytes=4096)
        )
        mod_id = compiler.compile(layout, "p", [module("a", kb=10)])
        assert layout.module(mod_id).footprint_bytes == 4096

    def test_requires_replaced_modules(self):
        compiler = TransactionCompiler(HYPER_COMPILER)
        with pytest.raises(ValueError):
            compiler.compile(CodeLayout(), "p", [])

    def test_hyper_more_aggressive_than_dbms_m(self):
        assert HYPER_COMPILER.footprint_factor < DBMS_M_COMPILER.footprint_factor

    def test_compiled_code_is_dense_and_predictable(self):
        layout = CodeLayout()
        mod_id = TransactionCompiler(HYPER_COMPILER).compile(
            layout, "p", [module("a", kb=100)]
        )
        compiled = layout.module(mod_id)
        assert compiled.instructions_per_line >= 15
        assert compiled.branches_per_kilo_instruction < 100
        assert compiled.base_cpi < 0.4

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            CompilerProfile("bad", footprint_factor=0.0)
