"""CPU state for the simulated x86-flavoured machine.

The virtine boot experiments (Table 1, Figure 3) hinge on the three
canonical x86 operating modes and the transitions between them:

* ``REAL16``  -- 16-bit real mode, where a VM begins execution,
* ``PROT32``  -- 32-bit protected mode, entered by loading a GDT and
  flipping CR0.PE followed by a far jump,
* ``LONG64``  -- 64-bit long mode, entered by enabling PAE (CR4), loading
  CR3, setting EFER.LME, enabling paging (CR0.PG), and far-jumping into a
  64-bit code segment.

The :class:`CPU` tracks architectural state and enforces the legality of
those transitions; the interpreter in :mod:`repro.hw.isa` drives it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

# Control register bits (architectural positions).
CR0_PE = 1 << 0
CR0_PG = 1 << 31
CR4_PAE = 1 << 5
EFER_LME = 1 << 8
EFER_LMA = 1 << 10

#: MSR number of the Extended Feature Enable Register.
MSR_EFER = 0xC0000080

GPRS = (
    "ax", "bx", "cx", "dx", "si", "di", "sp", "bp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)


class Mode(enum.Enum):
    """The three canonical x86 operating modes of the boot process."""

    REAL16 = 16
    PROT32 = 32
    LONG64 = 64

    def __init__(self, bits: int) -> None:
        self._mask = (1 << bits) - 1

    @property
    def mask(self) -> int:
        """Register-width mask for arithmetic in this mode."""
        return self._mask


class CpuFault(Exception):
    """An architectural violation (bad transition, bad register, ...)."""


@dataclass(slots=True)
class Flags:
    """The subset of RFLAGS the mini-ISA uses.

    Slotted: the interpreter writes ZF/SF/CF on every ALU instruction
    and the superblock JIT's register-writeback spills hit these
    attributes on every side exit, so the dict-free layout is hot.
    """

    zero: bool = False
    sign: bool = False
    carry: bool = False
    interrupts: bool = True

    def set_from_result(self, result: int, width_mask: int) -> None:
        """Update ZF/SF from an ALU result (already unmasked)."""
        masked = result & width_mask
        self.zero = masked == 0
        sign_bit = (width_mask + 1) >> 1
        self.sign = bool(masked & sign_bit)
        self.carry = result < 0 or result > width_mask


@dataclass
class GDTR:
    """Descriptor-table register: just base/limit for our purposes."""

    base: int = 0
    limit: int = 0
    loaded: bool = False


class CPU:
    """Architectural state of one virtual CPU."""

    def __init__(self) -> None:
        self.regs: dict[str, int] = {r: 0 for r in GPRS}
        self.rip: int = 0
        self.flags = Flags()
        self.mode = Mode.REAL16
        self.cr0: int = 0
        self.cr3: int = 0
        self.cr4: int = 0
        self.efer: int = 0
        self.gdtr = GDTR()
        self.halted = False

    # -- mode (cached width/mask) ---------------------------------------------
    @property
    def mode(self) -> Mode:
        return self._mode

    @mode.setter
    def mode(self, mode: Mode) -> None:
        # mask/nbytes are hot on every operand access; cache them so the
        # interpreter never re-derives them per instruction.
        self._mode = mode
        self.mask = mode.mask
        self.nbytes = mode.value // 8

    # -- register access -----------------------------------------------------
    def read_reg(self, name: str) -> int:
        try:
            return self.regs[name] & self.mask
        except KeyError:
            raise CpuFault(f"unknown register {name!r}") from None

    def write_reg(self, name: str, value: int) -> None:
        if name not in self.regs:
            raise CpuFault(f"unknown register {name!r}")
        self.regs[name] = value & self.mask

    # -- control registers ----------------------------------------------------
    def read_cr(self, name: str) -> int:
        return {"cr0": self.cr0, "cr3": self.cr3, "cr4": self.cr4}[name]

    def write_cr(self, name: str, value: int) -> dict[str, bool]:
        """Write a control register; returns which mode bits newly flipped.

        The returned dict has keys ``pe_set`` and ``pg_set`` so the
        interpreter can charge the transition costs from Table 1.
        """
        events = {"pe_set": False, "pg_set": False}
        if name == "cr0":
            if (value & CR0_PE) and not (self.cr0 & CR0_PE):
                events["pe_set"] = True
            if (value & CR0_PG) and not (self.cr0 & CR0_PG):
                if not value & CR0_PE:
                    raise CpuFault("CR0.PG requires CR0.PE")
                if self.efer & EFER_LME:
                    if not self.cr4 & CR4_PAE:
                        raise CpuFault("long mode requires CR4.PAE before CR0.PG")
                    if self.cr3 == 0:
                        raise CpuFault("CR0.PG set with CR3 == 0")
                    self.efer |= EFER_LMA
                events["pg_set"] = True
            if not (value & CR0_PG) and (self.cr0 & CR0_PG):
                self.efer &= ~EFER_LMA
            self.cr0 = value
        elif name == "cr3":
            self.cr3 = value
        elif name == "cr4":
            self.cr4 = value
        else:
            raise CpuFault(f"unknown control register {name!r}")
        return events

    def wrmsr(self, msr: int, value: int) -> None:
        if msr == MSR_EFER:
            self.efer = (self.efer & EFER_LMA) | (value & ~EFER_LMA)
        else:
            raise CpuFault(f"unsupported MSR {msr:#x}")

    def rdmsr(self, msr: int) -> int:
        if msr == MSR_EFER:
            return self.efer
        raise CpuFault(f"unsupported MSR {msr:#x}")

    # -- mode machine -------------------------------------------------------------
    @property
    def paging_enabled(self) -> bool:
        return bool(self.cr0 & CR0_PG)

    @property
    def long_mode_active(self) -> bool:
        return bool(self.efer & EFER_LMA)

    def far_jump(self, target_mode: Mode, target_rip: int) -> None:
        """Perform the mode-switching far jump (``ljmp``)."""
        if target_mode is Mode.PROT32:
            if not self.cr0 & CR0_PE:
                raise CpuFault("ljmp to 32-bit code requires CR0.PE")
            if not self.gdtr.loaded:
                raise CpuFault("ljmp to 32-bit code requires a loaded GDT")
        elif target_mode is Mode.LONG64:
            if not self.long_mode_active:
                raise CpuFault(
                    "ljmp to 64-bit code requires long mode "
                    "(CR4.PAE + EFER.LME + CR0.PG)"
                )
        elif target_mode is Mode.REAL16:
            raise CpuFault("far jumps back to real mode are not supported")
        self.mode = target_mode
        self.rip = target_rip

    def reset(self) -> None:
        """Return the CPU to its power-on state (real mode, cleared)."""
        for r in GPRS:
            self.regs[r] = 0
        self.rip = 0
        self.flags = Flags()
        self.mode = Mode.REAL16
        self.cr0 = 0
        self.cr3 = 0
        self.cr4 = 0
        self.efer = 0
        self.gdtr = GDTR()
        self.halted = False

    def save_state(self) -> dict:
        """Capture architectural state for snapshots."""
        return {
            "regs": dict(self.regs),
            "rip": self.rip,
            "flags": Flags(
                zero=self.flags.zero,
                sign=self.flags.sign,
                carry=self.flags.carry,
                interrupts=self.flags.interrupts,
            ),
            "mode": self.mode,
            "cr0": self.cr0,
            "cr3": self.cr3,
            "cr4": self.cr4,
            "efer": self.efer,
            "gdtr": GDTR(self.gdtr.base, self.gdtr.limit, self.gdtr.loaded),
            "halted": self.halted,
        }

    def load_state(self, state: dict) -> None:
        """Restore architectural state captured by :meth:`save_state`.

        ``regs`` is updated in place: compiled superblocks bind the
        register file once, so the dict object must stay the same for
        the CPU's lifetime.
        """
        self.regs.clear()
        self.regs.update(state["regs"])
        self.rip = state["rip"]
        saved_flags = state["flags"]
        self.flags = Flags(
            zero=saved_flags.zero,
            sign=saved_flags.sign,
            carry=saved_flags.carry,
            interrupts=saved_flags.interrupts,
        )
        self.mode = state["mode"]
        self.cr0 = state["cr0"]
        self.cr3 = state["cr3"]
        self.cr4 = state["cr4"]
        self.efer = state["efer"]
        saved_gdtr = state["gdtr"]
        self.gdtr = GDTR(saved_gdtr.base, saved_gdtr.limit, saved_gdtr.loaded)
        self.halted = state["halted"]
