"""The KVM device model.

On Linux, each virtual context is "a device file which is manipulated by
Wasp using an ioctl" (Section 5.1).  This module models that interface:

* :meth:`KVM.create_vm` -- ``KVM_CREATE_VM``: allocates the in-kernel VM
  state (VMCB on AMD / VMCS on Intel).  This is the expensive step pooling
  avoids (Section 5.2).
* :meth:`VMHandle.set_user_memory_region` -- ``KVM_SET_USER_MEMORY_REGION``.
* :meth:`VMHandle.create_vcpu` -- ``KVM_CREATE_VCPU``.
* :meth:`VcpuHandle.run` -- ``KVM_RUN``: "a series of sanity checks
  followed by execution of the vmrun instruction" (Section 4.2), plus the
  user/kernel ring transitions of the ioctl itself.

Every call charges its cycle costs on the shared clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults import NO_FAULTS, FaultPlan, FaultSite
from repro.hw.clock import Clock
from repro.hw.costs import COSTS, CostModel
from repro.hw.isa import Program
from repro.hw.jit import JitDomain
from repro.hw.vmx import ExitInfo, ExitReason, VirtualMachine
from repro.replay.stream import NO_RECORD, InterfaceRecorder
from repro.trace.tracer import NO_TRACE, Category, Tracer


class KvmError(Exception):
    """An invalid use of the KVM interface."""


class KVM:
    """The ``/dev/kvm`` system device."""

    def __init__(
        self,
        clock: Clock,
        costs: CostModel = COSTS,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
        fast_paths: bool = True,
        recorder: InterfaceRecorder | None = None,
        jit_domain: JitDomain | None = None,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.fault_plan = fault_plan if fault_plan is not None else NO_FAULTS
        self.tracer = tracer if tracer is not None else NO_TRACE
        #: Boundary-stream recorder forwarded to every VM (no-op default).
        self.recorder = recorder if recorder is not None else NO_RECORD
        #: Forwarded to every VirtualMachine this device creates.
        self.fast_paths = fast_paths
        #: Superblock-JIT domain shared by every VM of this device: pooled
        #: shells and snapshot restores re-attach the same per-image block
        #: caches, so later launches start with compiled blocks (warm
        #: start).  Device-scoped (not process-global) so same-seed runs
        #: are reproducible within one process.  ``None`` on the
        #: reference engine (``fast_paths=False``).
        self.jit_domain = (jit_domain if jit_domain is not None
                           else JitDomain()) if fast_paths else None
        self.vms_created = 0
        #: VM fds released via ``VMHandle.close`` (leak accounting:
        #: ``vms_created - vms_closed`` is the live-handle population).
        self.vms_closed = 0

    def create_vm(self) -> "VMHandle":
        """``KVM_CREATE_VM``: allocate in-kernel VM state."""
        cost = self.costs.ioctl() + self.costs.KVM_CREATE_VM_BASE
        self.clock.advance(cost)
        self.tracer.component("KVM_CREATE_VM", cost, Category.VMM)
        self.recorder.devcall("KVM_CREATE_VM", cost)
        self.vms_created += 1
        return VMHandle(kvm=self)

    def _new_vm(self, size: int) -> VirtualMachine:
        """VM factory (the replay substrate overrides this)."""
        return VirtualMachine(memory_size=size, clock=self.clock,
                              costs=self.costs, tracer=self.tracer,
                              fast_paths=self.fast_paths,
                              recorder=self.recorder,
                              jit_domain=self.jit_domain)


class VMHandle:
    """A VM file descriptor returned by ``KVM_CREATE_VM``."""

    def __init__(self, kvm: KVM) -> None:
        self.kvm = kvm
        self.vm: VirtualMachine | None = None
        self.vcpu: VcpuHandle | None = None
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise KvmError("operation on a closed VM fd")

    def set_user_memory_region(self, size: int) -> None:
        """``KVM_SET_USER_MEMORY_REGION``: register guest memory."""
        self._check_open()
        if self.vm is not None:
            raise KvmError("memory region already registered")
        cost = self.kvm.costs.ioctl() + self.kvm.costs.KVM_SET_MEMORY_REGION
        self.kvm.clock.advance(cost)
        self.kvm.tracer.component("KVM_SET_USER_MEMORY_REGION", cost, Category.VMM)
        self.kvm.recorder.devcall("KVM_SET_USER_MEMORY_REGION", cost)
        self.vm = self.kvm._new_vm(size)

    def create_vcpu(self) -> "VcpuHandle":
        """``KVM_CREATE_VCPU``: allocate a vCPU."""
        self._check_open()
        if self.vm is None:
            raise KvmError("create_vcpu before set_user_memory_region")
        if self.vcpu is not None:
            raise KvmError("vCPU already created")
        cost = self.kvm.costs.ioctl() + self.kvm.costs.KVM_CREATE_VCPU
        self.kvm.clock.advance(cost)
        self.kvm.tracer.component("KVM_CREATE_VCPU", cost, Category.VMM)
        self.kvm.recorder.devcall("KVM_CREATE_VCPU", cost)
        self.vcpu = VcpuHandle(self)
        return self.vcpu

    def load_program(self, program: Program) -> None:
        """Copy a program image into guest memory (host-side memcpy)."""
        self._check_open()
        if self.vm is None:
            raise KvmError("load_program before set_user_memory_region")
        cost = self.kvm.costs.memcpy(len(program.image))
        self.kvm.clock.advance(cost)
        self.kvm.recorder.devcall("memcpy.image", cost)
        self.vm.load_program(program)

    def close(self) -> None:
        """Release the VM (host-side teardown is off the critical path)."""
        if not self.closed:
            self.kvm.vms_closed += 1
            if self.vm is not None:
                self.vm.memory.release()
        self.closed = True


@dataclass
class VcpuHandle:
    """A vCPU file descriptor returned by ``KVM_CREATE_VCPU``."""

    handle: VMHandle

    @property
    def vm(self) -> VirtualMachine:
        vm = self.handle.vm
        if vm is None:  # pragma: no cover - guarded by create_vcpu
            raise KvmError("vCPU without memory region")
        return vm

    def run(self, max_steps: int = 50_000_000) -> ExitInfo:
        """``KVM_RUN``: ioctl + sanity checks + vmrun, until the next exit.

        The ring transitions of the ioctl are charged on both the way in
        and (implicitly, as part of the ioctl round trip) on the way out --
        this is why hypercall exits are "doubly expensive" relative to a
        bare world switch (Section 6.3).
        """
        self.handle._check_open()
        kvm = self.handle.kvm
        span = kvm.tracer.begin("KVM_RUN", Category.VMM)
        try:
            kvm.clock.advance(kvm.costs.ioctl() + kvm.costs.KVM_RUN_CHECKS)
            if kvm.fault_plan.draw(FaultSite.VCPU_RUN):
                # The ioctl returns -1 without ever entering the guest (the
                # ring transitions above were still paid).
                span.annotate(error="InjectedFault")
                raise kvm.fault_plan.fault(FaultSite.VCPU_RUN, "KVM_RUN aborted")
            info = self.vm.vmrun(max_steps=max_steps)
            if not isinstance(info.reason, ExitReason):
                # Fail closed: an exit reason outside the architectural
                # enum is hostile (or corrupt) guest state, not a host
                # bug -- classify it precisely, preserving the raw value.
                from repro.wasp.virtine import GuestFault

                span.annotate(error="GuestFault")
                raise GuestFault(
                    f"vCPU reported unknown vmexit reason {info.reason!r}; "
                    f"failing closed")
            span.annotate(exit_reason=info.reason.value)
            return info
        finally:
            kvm.tracer.end(span)

    def complete_io_in(self, dest: str, value: int) -> None:
        """Deliver the result of an ``in`` port read before re-entry."""
        self.vm.complete_io_in(dest, value)
