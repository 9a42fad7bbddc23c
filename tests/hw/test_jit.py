"""Superblock JIT unit tests (DESIGN.md SS15).

The contract under test is the fast-path contract one level up: a
compiled region must be *invisible* in every simulated observable --
registers, flags, cycles, dirty pages, TLB counters -- while the
plumbing around it (profiling, per-image caching, warm start, push
invalidation, guards, blacklist) behaves as documented.  Equality
checks here run the same guest on the reference interpreter
(``fast_paths=False``) and on the fast path with the JIT on.
"""

import pytest

from repro.hw import paging
from repro.hw.clock import Clock
from repro.hw.costs import COSTS
from repro.hw.cpu import CPU, CR0_PE, CR0_PG, CR4_PAE, EFER_LME, Mode
from repro.hw.isa import Assembler, GuestExit, HaltExit, Interpreter
from repro.hw.jit import JitDomain
from repro.hw.memory import GuestMemory
from repro.runtime.image import ImageBuilder

MiB = 1024 * 1024

#: A counted loop, hot enough to cross any small threshold, with a
#: backward conditional branch (the canonical superblock shape).
HOT_LOOP = """
    mov cx, 0
    mov ax, 0
loop:
    add ax, 3
    xor ax, 5
    inc cx
    cmp cx, 200
    jne loop
    hlt
"""

#: A call/ret pair inside a hot loop: the region discovery must pull
#: the callee *and* the return site into one generated function.
CALL_LOOP = """
    mov sp, 0x7f00
    mov cx, 0
    mov ax, 0
loop:
    call bump
    inc cx
    cmp cx, 150
    jne loop
    hlt
bump:
    add ax, 7
    ret
"""


#: A compile threshold no test loop reaches: every instruction of a
#: fast-path run goes through the per-instruction fallback.
NEVER_HOT = 1 << 30


def make_interp(source: str, *, fast_paths: bool = True,
                domain: JitDomain | None = None, paged: bool = False,
                memory: GuestMemory | None = None):
    if memory is None:
        memory = GuestMemory(8 * MiB)
    cpu = CPU()
    cpu.mode = Mode.LONG64
    if paged:
        cr3 = paging.build_identity_map(
            memory, paging.IdentityMapLayout.at(0x100000))
        cpu.cr0 = CR0_PE | CR0_PG
        cpu.efer = EFER_LME
        cpu.cr3 = cr3
    clock = Clock()
    interp = Interpreter(cpu, memory, clock, COSTS, fast_paths=fast_paths,
                         jit_domain=domain)
    interp.load_program(Assembler(0x8000).assemble(source))
    return interp


def run_to_halt(interp, chunk: int = 97) -> dict:
    """Drive ``run_steps`` to the halt; return every observable."""
    for _ in range(10_000):
        try:
            interp.run_steps(chunk)
        except HaltExit:
            break
    else:  # pragma: no cover - generator bug guard
        raise AssertionError("guest did not halt")
    cpu = interp.cpu
    return {
        "regs": dict(cpu.regs),
        "rip": cpu.rip,
        "flags": (cpu.flags.zero, cpu.flags.sign, cpu.flags.carry),
        "cycles": interp.clock.cycles,
        "dirty": sorted(interp.memory.dirty_pages),
        "retired": interp.instructions_retired,
    }


class TestCompilationAndEquality:
    def test_hot_loop_compiles_and_is_bit_equal(self):
        domain = JitDomain(threshold=4)
        jit = make_interp(HOT_LOOP, domain=domain)
        jit_obs = run_to_halt(jit)
        ref_obs = run_to_halt(make_interp(HOT_LOOP, fast_paths=False))
        assert jit_obs == ref_obs
        stats = domain.stats()
        assert stats["blocks_compiled"] > 0
        assert stats["block_runs"] > 0
        assert stats["block_instructions"] > 0
        # The mispredicted (taken) backward branch is a counted side
        # exit even when it transfers internally.
        assert stats["side_exits"]["branch"] > 0

    def test_paged_loop_equal_including_tlb_counters(self):
        """The translation memo must be count-exact, not just phys-exact."""
        domain = JitDomain(threshold=4)
        jit = make_interp(HOT_LOOP, domain=domain, paged=True)
        jit_obs = run_to_halt(jit)
        jit_tlb = (jit.tlb_hits, jit.tlb_misses, jit.tlb_flushes)
        ref_obs = run_to_halt(make_interp(HOT_LOOP, fast_paths=False,
                                          paged=True))
        cold = make_interp(HOT_LOOP, domain=JitDomain(threshold=NEVER_HOT),
                           paged=True)
        run_to_halt(cold)
        cold_tlb = (cold.tlb_hits, cold.tlb_misses, cold.tlb_flushes)
        assert domain.stats()["blocks_compiled"] > 0
        assert jit_obs == ref_obs
        assert jit_tlb == cold_tlb

    def test_region_transfers_keep_execution_inside_blocks(self):
        """call/ret chains must not bounce through the dispatcher."""
        domain = JitDomain(threshold=4)
        jit = make_interp(CALL_LOOP, domain=domain, paged=True)
        jit_obs = run_to_halt(jit, chunk=100_000)
        assert jit_obs == run_to_halt(
            make_interp(CALL_LOOP, fast_paths=False, paged=True),
            chunk=100_000)
        counters = domain.counters
        assert counters["block_runs"] > 0
        # Internal transfers (loop back-edge, call, ret) mean each
        # dispatch retires many instructions, not one trace's worth.
        assert (counters["block_instructions"]
                > 20 * counters["block_runs"])


class TestWarmStart:
    def test_second_shell_attaches_warm(self):
        domain = JitDomain(threshold=4)
        first = make_interp(HOT_LOOP, domain=domain)
        run_to_halt(first)
        compiles_after_first = domain.stats()["blocks_compiled"]
        assert compiles_after_first > 0
        second = make_interp(HOT_LOOP, domain=domain)
        run_to_halt(second)
        stats = domain.stats()
        # Same image bytes -> same cache: no recompilation...
        assert stats["blocks_compiled"] == compiles_after_first
        # ...and the attach itself counted as a warm hit.
        image = stats["images"][0]
        assert image["warm_hits"] >= 1
        assert image["warm_hit_ratio"] > 0

    def test_different_image_is_a_different_cache(self):
        domain = JitDomain(threshold=4)
        run_to_halt(make_interp(HOT_LOOP, domain=domain))
        run_to_halt(make_interp(CALL_LOOP, domain=domain, paged=True))
        assert len(domain.stats()["images"]) == 2


class TestInvalidation:
    #: The loop gets hot, then a store lands on its own code page; the
    #: loop keeps running afterwards, so it must re-heat and recompile.
    SMC = """
        mov cx, 0
        mov ax, 0
    loop:
        add ax, 1
        inc cx
        cmp cx, 120
        jne loop
        mov bx, 0x9090
        mov [0x8040], bx
        mov cx, 0
    loop2:
        add ax, 2
        inc cx
        cmp cx, 120
        jne loop2
        hlt
    """

    def test_self_modifying_store_invalidates_and_recompiles(self):
        domain = JitDomain(threshold=4)
        jit = make_interp(self.SMC, domain=domain)
        jit_obs = run_to_halt(jit)
        assert jit_obs == run_to_halt(make_interp(self.SMC, fast_paths=False))
        stats = domain.stats()["images"][0]
        assert stats["invalidations"] > 0
        # loop2 ran hot after the invalidation: blocks exist again.
        assert stats["blocks"] > 0

    def test_invalidated_pc_recounts_from_zero(self):
        domain = JitDomain(threshold=4)
        jit = make_interp(self.SMC, domain=domain)
        cache = jit._jit_cache
        run_to_halt(jit)
        # Every surviving block was (re)compiled after the store; the
        # page index only tracks live blocks.
        for page, pcs in cache.page_index.items():
            for pc in pcs:
                assert pc in cache.blocks


class TestGuards:
    def test_budget_guard_falls_back_per_instruction(self):
        domain = JitDomain(threshold=2)
        jit = make_interp(HOT_LOOP, domain=domain)
        # Tiny chunks: once blocks exist, most entries find budget < len.
        jit_obs = run_to_halt(jit, chunk=1)
        assert jit_obs == run_to_halt(
            make_interp(HOT_LOOP, fast_paths=False), chunk=1)
        assert domain.side_exits["budget_guard"] > 0

    def test_blacklisted_head_is_not_retried(self):
        source = """
            mov cx, 0
        loop:
            mov bx, cr0
            inc cx
            cmp cx, 50
            jne loop
            hlt
        """
        domain = JitDomain(threshold=4)
        jit = make_interp(source, domain=domain)
        cache = jit._jit_cache
        jit_obs = run_to_halt(jit)
        assert jit_obs == run_to_halt(make_interp(source, fast_paths=False))
        # The control-register read heads the loop: uncompilable there,
        # so that pc is blacklisted; the rest of the loop still compiles.
        head = jit.program.labels["loop"]
        assert head in cache.blacklist
        assert head not in cache.blocks


class TestModeGuard:
    #: The loop compiles with paging off, then a fallback ``mov cr0``
    #: turns paging on and the same loop runs again: its block must be
    #: refused by the mode guard, never entered with stale translation.
    PAGING_FLIP = """
        mov r9, 0
    again:
        mov cx, 0
    loop:
        mov [0x5000], cx
        inc cx
        cmp cx, 40
        jne loop
        cmp r9, 1
        je done
        mov r9, 1
        mov bx, cr0
        or bx, 0x80000000
        mov cr0, bx
        jmp again
    done:
        hlt
    """

    def _interp(self, fast_paths, domain=None):
        memory = GuestMemory(8 * MiB)
        cpu = CPU()
        cpu.mode = Mode.LONG64
        cpu.cr3 = paging.build_identity_map(
            memory, paging.IdentityMapLayout.at(0x100000))
        cpu.cr4 = CR4_PAE
        cpu.efer = EFER_LME
        cpu.cr0 = CR0_PE
        interp = Interpreter(cpu, memory, Clock(), COSTS,
                             fast_paths=fast_paths, jit_domain=domain)
        interp.load_program(Assembler(0x8000).assemble(self.PAGING_FLIP))
        return interp

    def test_paging_flip_in_fallback_refreshes_the_guard(self):
        domain = JitDomain(threshold=4)
        jit = self._interp(True, domain)
        jit_obs = run_to_halt(jit, chunk=100_000)
        assert jit_obs == run_to_halt(self._interp(False), chunk=100_000)
        cold = self._interp(True, JitDomain(threshold=NEVER_HOT))
        run_to_halt(cold, chunk=100_000)
        assert ((jit.tlb_hits, jit.tlb_misses)
                == (cold.tlb_hits, cold.tlb_misses))
        assert domain.side_exits["mode_guard"] > 0


class TestEscapeHatches:
    def test_fast_paths_off_disables_jit(self):
        interp = make_interp(HOT_LOOP, fast_paths=False)
        assert not interp.jit
        assert interp._jit_cache is None

    def test_impure_clock_subclass_disables_jit(self):
        """Generated code bumps ``clock._cycles`` directly; that is only
        sound while ``advance`` is the base accumulator."""

        class TracingClock(Clock):
            def advance(self, cycles):
                super().advance(cycles)

        memory = GuestMemory(8 * MiB)
        cpu = CPU()
        cpu.mode = Mode.LONG64
        interp = Interpreter(cpu, memory, TracingClock(), COSTS,
                             fast_paths=True)
        assert not interp.jit
        # It still runs, on the software TLB without superblocks.
        interp.load_program(Assembler(0x8000).assemble(HOT_LOOP))
        assert run_to_halt(interp) == run_to_halt(
            make_interp(HOT_LOOP, fast_paths=False))
        # An inheriting-but-not-overriding subclass stays eligible.
        class PlainClock(Clock):
            pass

        interp2 = Interpreter(CPU(), GuestMemory(8 * MiB), PlainClock(),
                              COSTS, fast_paths=True)
        assert interp2.jit


def boot_calls(program, budget: int, fast_paths: bool,
               domain: JitDomain | None = None) -> list[tuple]:
    """Drive ``program`` to its halt in ``run_steps(budget)`` calls,
    resuming over I/O exits; one observation per call."""
    interp = Interpreter(CPU(), GuestMemory(4 * MiB), Clock(), COSTS,
                         fast_paths=fast_paths, jit_domain=domain)
    interp.load_program(program)
    calls = []
    while True:
        try:
            interp.run_steps(budget)
            exit_kind = None
        except GuestExit as exit_event:
            exit_kind = type(exit_event).__name__
        calls.append((interp.clock.cycles, dict(interp.component_cycles),
                      interp.last_run_steps, interp.instructions_retired,
                      exit_kind))
        if exit_kind == "HaltExit":
            return calls


def chunked(steps: list[tuple], budget: int) -> list[tuple]:
    """The calls a ``budget``-sized caller sees, from a budget-1 run.

    A call ends after ``budget`` instructions or at the first exiting
    one; ``last_run_steps`` never counts the exiting instruction.
    """
    next_exit = [0] * len(steps)
    upcoming = len(steps) - 1
    for i in range(len(steps) - 1, -1, -1):
        if steps[i][4] is not None:
            upcoming = i
        next_exit[i] = upcoming
    calls = []
    start = 0
    while start < len(steps):
        end = min(start + budget - 1, next_exit[start], len(steps) - 1)
        cycles, components, _, retired, exit_kind = steps[end]
        done = end - start + (0 if exit_kind else 1)
        calls.append((cycles, components, done, retired, exit_kind))
        start = end + 1
    return calls


class TestBudgetSweep:
    def test_every_budget_matches_reference_over_long64_boot(self):
        """The boot's lgdt/ljmp/CR/wrmsr instructions never compile, so
        every budget mixes superblocks with per-instruction fallback at a
        different split; cycles, component attribution and step
        accounting must match the reference at every call boundary.
        One domain serves every budget, like a pooled shell's warm
        image cache."""
        program = ImageBuilder().minimal(Mode.LONG64).program
        steps = boot_calls(program, 1, fast_paths=False)
        assert steps[-1][4] == "HaltExit"
        # The chunking model is the reference engine's own behaviour.
        for budget in (2, 7, 64, len(steps)):
            assert (boot_calls(program, budget, False)
                    == chunked(steps, budget)), budget
        domain = JitDomain()
        for budget in range(1, len(steps) + 1):
            assert (boot_calls(program, budget, True, domain)
                    == chunked(steps, budget)), budget
        assert domain.stats()["blocks_compiled"] > 0
        assert domain.counters["block_instructions"] > 0
