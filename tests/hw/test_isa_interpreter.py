"""Interpreter tests: semantics and cycle charging of the mini-ISA."""

import pytest

from repro.hw.clock import Clock
from repro.hw.costs import COSTS
from repro.hw.cpu import CPU, Mode
from repro.hw.isa import (
    Assembler,
    HaltExit,
    Interpreter,
    IOInExit,
    IOOutExit,
    TripleFault,
)
from repro.hw.memory import GuestMemory


def run(source, mode=Mode.REAL16, max_steps=1_000_000, setup=None):
    """Assemble and run ``source`` until exit; returns (cpu, interp, exit)."""
    cpu = CPU()
    cpu.mode = mode  # tests may start directly in a mode
    memory = GuestMemory(4 * 1024 * 1024)
    clock = Clock()
    interp = Interpreter(cpu, memory, clock, COSTS)
    program = Assembler(0x8000).assemble(source)
    interp.load_program(program)
    if setup:
        setup(cpu)
    exit_event = interp.run(max_steps)
    return cpu, interp, exit_event


class TestArithmetic:
    def test_mov_imm(self):
        cpu, _, _ = run("mov ax, 42\nhlt")
        assert cpu.read_reg("ax") == 42

    def test_add_sub(self):
        cpu, _, _ = run("mov ax, 10\nadd ax, 5\nsub ax, 3\nhlt")
        assert cpu.read_reg("ax") == 12

    def test_logic_ops(self):
        cpu, _, _ = run("mov ax, 0xF0\nand ax, 0x3C\nor ax, 1\nxor ax, 0xFF\nhlt")
        assert cpu.read_reg("ax") == ((0xF0 & 0x3C) | 1) ^ 0xFF

    def test_shifts(self):
        cpu, _, _ = run("mov ax, 3\nshl ax, 4\nshr ax, 1\nhlt")
        assert cpu.read_reg("ax") == 24

    def test_mul(self):
        cpu, _, _ = run("mov ax, 7\nmul ax, 6\nhlt")
        assert cpu.read_reg("ax") == 42

    def test_inc_dec(self):
        cpu, _, _ = run("mov cx, 5\ninc cx\ninc cx\ndec cx\nhlt")
        assert cpu.read_reg("cx") == 6

    def test_width_wraps_in_real_mode(self):
        cpu, _, _ = run("mov ax, 0xFFFF\nadd ax, 1\nhlt")
        assert cpu.read_reg("ax") == 0

    def test_reg_to_reg(self):
        cpu, _, _ = run("mov ax, 9\nmov bx, ax\nhlt")
        assert cpu.read_reg("bx") == 9


class TestMemoryOps:
    def test_store_load(self):
        cpu, _, _ = run("mov ax, 0x1234\nmov [0x100], ax\nmov bx, [0x100]\nhlt")
        assert cpu.read_reg("bx") == 0x1234

    def test_indexed_addressing(self):
        cpu, _, _ = run("""
            mov si, 0x200
            mov ax, 7
            mov [si+4], ax
            mov bx, [si+4]
            hlt
        """)
        assert cpu.read_reg("bx") == 7

    def test_stos64_stores_and_advances(self):
        cpu, interp, _ = run("""
            mov di, 0x300
            mov ax, 0x55
            stos64
            stos64
            hlt
        """)
        assert cpu.read_reg("di") == 0x310
        assert interp.memory.read_u64(0x300) == 0x55
        assert interp.memory.read_u64(0x308) == 0x55


class TestControlFlow:
    def test_jmp(self):
        cpu, _, _ = run("jmp skip\nmov ax, 1\nskip:\nhlt")
        assert cpu.read_reg("ax") == 0

    def test_conditional_taken_and_not(self):
        cpu, _, _ = run("""
            mov ax, 5
            cmp ax, 5
            je equal
            mov bx, 1
        equal:
            cmp ax, 9
            jl less
            mov cx, 1
        less:
            hlt
        """)
        assert cpu.read_reg("bx") == 0  # je taken
        assert cpu.read_reg("cx") == 0  # jl taken

    def test_signed_comparisons(self):
        # In 16-bit mode, 0xFFFF is -1 signed: -1 < 1.
        cpu, _, _ = run("""
            mov ax, 0xFFFF
            cmp ax, 1
            jl neg
            mov bx, 1
        neg:
            hlt
        """)
        assert cpu.read_reg("bx") == 0

    def test_loop_with_jnz(self):
        cpu, _, _ = run("""
            mov cx, 10
            mov ax, 0
        again:
            add ax, 2
            dec cx
            jnz again
            hlt
        """)
        assert cpu.read_reg("ax") == 20

    def test_call_ret(self):
        cpu, _, _ = run("""
            mov sp, 0x7000
            call double
            call double
            hlt
        double:
            add ax, ax
            ret
        """, setup=lambda c: c.write_reg("ax", 3))
        assert cpu.read_reg("ax") == 12

    def test_push_pop(self):
        cpu, _, _ = run("""
            mov sp, 0x7000
            mov ax, 11
            push ax
            mov ax, 99
            pop bx
            hlt
        """)
        assert cpu.read_reg("bx") == 11

    def test_recursive_fib(self):
        cpu, _, _ = run("""
            mov sp, 0x7000
            mov ax, 10
            call fib
            hlt
        fib:
            cmp ax, 2
            jl done
            push ax
            dec ax
            call fib
            pop bx
            push ax
            mov ax, bx
            sub ax, 2
            call fib
            pop bx
            add ax, bx
        done:
            ret
        """)
        assert cpu.read_reg("ax") == 55


class TestExits:
    def test_hlt_exit(self):
        _, _, exit_event = run("hlt")
        assert isinstance(exit_event, HaltExit)

    def test_out_exit(self):
        _, _, exit_event = run("mov bx, 7\nout 0x200, bx\nhlt")
        assert isinstance(exit_event, IOOutExit)
        assert exit_event.port == 0x200
        assert exit_event.value == 7

    def test_in_exit_and_resume(self):
        cpu = CPU()
        memory = GuestMemory(1024 * 1024)
        interp = Interpreter(cpu, memory, Clock(), COSTS)
        interp.load_program(Assembler(0x8000).assemble("in ax, 0x3F8\nhlt"))
        exit_event = interp.run()
        assert isinstance(exit_event, IOInExit)
        interp.resume_with_input(exit_event.dest, 0xAB)
        assert isinstance(interp.run(), HaltExit)
        assert cpu.read_reg("ax") == 0xAB

    def test_fetch_from_unmapped_rip(self):
        _, _, exit_event = run("jmp 0x100\nhlt", max_steps=10)
        # run() converts TripleFault into... it raises through run
        assert isinstance(exit_event, TripleFault)

    def test_step_budget(self):
        from repro.hw.isa import ExecutionError

        with pytest.raises(ExecutionError, match="did not exit"):
            run("spin:\njmp spin", max_steps=100)


class TestCycleCharging:
    def test_simple_instruction_cost(self):
        cpu = CPU()
        memory = GuestMemory(1024 * 1024)
        clock = Clock()
        interp = Interpreter(cpu, memory, clock, COSTS)
        interp.load_program(Assembler(0x8000).assemble("nop\nnop\nhlt"))
        interp._first_instruction_pending = False
        interp.run()
        # 3 instructions at INSN_BASE each.
        assert clock.cycles == 3 * COSTS.INSN_BASE

    def test_first_instruction_cost_charged_once(self):
        cpu = CPU()
        memory = GuestMemory(1024 * 1024)
        clock = Clock()
        interp = Interpreter(cpu, memory, clock, COSTS)
        interp.load_program(Assembler(0x8000).assemble("nop\nhlt"))
        interp.run()
        assert interp.component_cycles["first instruction"] == COSTS.FIRST_INSTRUCTION

    def test_memory_op_costs_more(self):
        def cycles_of(src):
            cpu = CPU()
            clock = Clock()
            interp = Interpreter(cpu, GuestMemory(1024 * 1024), clock, COSTS)
            interp.load_program(Assembler(0x8000).assemble(src))
            interp._first_instruction_pending = False
            interp.run()
            return clock.cycles

        assert cycles_of("mov ax, [0x100]\nhlt") > cycles_of("mov ax, 5\nhlt")
        assert cycles_of("mov [0x100], ax\nhlt") > cycles_of("mov ax, [0x100]\nhlt")

    def test_lgdt_cost_depends_on_mode(self):
        real = _lgdt_cost(Mode.REAL16)
        prot = _lgdt_cost(Mode.PROT32)
        assert real == COSTS.LGDT_REAL
        assert prot == COSTS.LGDT_PROTECTED
        assert real > prot  # Table 1: 4118 vs 681


def _lgdt_cost(mode):
    cpu = CPU()
    cpu.mode = mode
    clock = Clock()
    interp = Interpreter(cpu, GuestMemory(1024 * 1024), clock, COSTS)
    interp.load_program(Assembler(0x8000).assemble("lgdt 0x6000\nhlt"))
    interp._first_instruction_pending = False
    interp.run()
    label = "load 32-bit gdt (lgdt)" if mode is Mode.REAL16 else "long transition (lgdt)"
    return interp.component_cycles[label]


def _fresh(source, fast_paths=True):
    cpu = CPU()
    clock = Clock()
    interp = Interpreter(cpu, GuestMemory(1024 * 1024), clock, COSTS,
                         fast_paths=fast_paths)
    program = Assembler(0x8000).assemble(source)
    interp.load_program(program)
    return cpu, clock, interp, program


class TestDecodeIndex:
    def test_reattach_reuses_index(self):
        _, _, interp, program = _fresh("mov ax, 1\nhlt")
        with pytest.raises(HaltExit):
            interp.run_steps(100)
        by_addr = interp._by_addr
        assert set(by_addr) == {i.addr for i in program.instructions}
        interp.cpu.reset()
        interp.attach_program(program)
        assert interp._by_addr is by_addr


class TestFetchBetweenInstructions:
    """An rip inside an instruction is a fetch fault on every path, at the
    same point and cycle count as the reference interpreter."""

    SOURCE = "mov ax, 5\nmov bx, 6\njmp 0x8001\nhlt"

    def _outcome(self, fast_paths, loop, entry_rip=None):
        cpu, clock, interp, program = _fresh(self.SOURCE, fast_paths)
        assert 0x8001 not in interp._by_addr
        assert program.instructions[1].addr > 0x8001
        if entry_rip is not None:
            cpu.rip = entry_rip
        with pytest.raises(TripleFault, match="unmapped rip 0x8001"):
            if loop == "step":
                while True:
                    interp.step()
            else:
                interp.run_steps(100)
        return (clock.cycles, interp.instructions_retired,
                interp.last_run_steps, interp._first_instruction_pending,
                cpu.rip)

    @pytest.mark.parametrize("loop", ["step", "run_steps"])
    def test_mid_run_fault_matches_reference(self, loop):
        fast = self._outcome(True, loop)
        assert fast == self._outcome(False, loop)
        assert fast[1] == 3 and fast[4] == 0x8001

    @pytest.mark.parametrize("loop", ["step", "run_steps"])
    def test_entry_fault_precedes_first_instruction_charge(self, loop):
        fast = self._outcome(True, loop, entry_rip=0x8001)
        assert fast == self._outcome(False, loop, entry_rip=0x8001)
        assert fast[0] == 0 and fast[3] is True
