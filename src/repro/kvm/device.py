"""The VM device model: one device, one call table per hypervisor.

On Linux, each virtual context is "a device file which is manipulated by
Wasp using an ioctl" (Section 5.1); on Windows the same steps are
Windows Hypervisor Platform calls (Section 4.1, :mod:`repro.hyperv.device`).
One device -- :class:`KVM` with its :class:`VMHandle` and
:class:`VcpuHandle` -- models both.  A frozen
:class:`~repro.hw.costs.CallTable` names and prices each step;
:data:`KVM_CALLS` is the ``/dev/kvm`` table:

* :meth:`KVM.create_vm` -- ``KVM_CREATE_VM``: allocates the in-kernel VM
  state (VMCB on AMD / VMCS on Intel).  This is the expensive step pooling
  avoids (Section 5.2).
* :meth:`VMHandle.set_user_memory_region` -- ``KVM_SET_USER_MEMORY_REGION``.
* :meth:`VMHandle.create_vcpu` -- ``KVM_CREATE_VCPU``.
* :meth:`VcpuHandle.run` -- ``KVM_RUN``: "a series of sanity checks
  followed by execution of the vmrun instruction" (Section 4.2), plus the
  user/kernel ring transitions of the ioctl itself.

Every call charges its cycle costs on the shared clock.  The device
prices its table once, when it is built; :data:`VM_DEVICES` lists every
table by backend name.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults import NO_FAULTS, FaultPlan, FaultSite
from repro.hw.clock import Clock
from repro.hw.costs import COSTS, CallTable, CostModel
from repro.hw.isa import Program
from repro.hw.jit import JitDomain
from repro.hw.vmx import ExitInfo, ExitReason, VirtualMachine
from repro.replay.stream import NO_RECORD, InterfaceRecorder
from repro.trace.tracer import NO_TRACE, Category, Tracer


class KvmError(Exception):
    """An invalid use of the KVM interface."""


#: The ``/dev/kvm`` ioctls: each pays an ioctl round trip plus its
#: in-kernel work.
KVM_CALLS = CallTable(
    backend="kvm",
    error=KvmError,
    create_vm="KVM_CREATE_VM",
    map_memory="KVM_SET_USER_MEMORY_REGION",
    create_vcpu="KVM_CREATE_VCPU",
    run="KVM_RUN",
    price=lambda costs: (
        costs.ioctl() + costs.KVM_CREATE_VM_BASE,
        costs.ioctl() + costs.KVM_SET_MEMORY_REGION,
        costs.ioctl() + costs.KVM_CREATE_VCPU,
        costs.ioctl() + costs.KVM_RUN_CHECKS,
    ),
)


class KVM:
    """The VM system device (``/dev/kvm`` unless given another table)."""

    #: Builds each VM (the replay device swaps in a stream-fed one).
    new_vm = VirtualMachine

    def __init__(
        self,
        clock: Clock,
        costs: CostModel = COSTS,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
        fast_paths: bool = True,
        recorder: InterfaceRecorder | None = None,
        jit_domain: JitDomain | None = None,
        calls: CallTable = KVM_CALLS,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.calls = calls
        (self.create_vm_cycles, self.map_memory_cycles,
         self.create_vcpu_cycles, self.run_cycles) = calls.price(costs)
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
        #: VMs released via ``VMHandle.close`` (leak accounting:
        #: ``vms_created - vms_closed`` is the live-handle population).
        self.vms_closed = 0

    def _charge(self, name: str, cost: int) -> None:
        """Pay one device call: clock, trace leaf, and recorded stream."""
        self.clock.advance(cost)
        self.tracer.component(name, cost, Category.VMM)
        self.recorder.devcall(name, cost)

    def create_vm(self) -> "VMHandle":
        """``KVM_CREATE_VM``: allocate in-kernel VM state."""
        self._charge(self.calls.create_vm, self.create_vm_cycles)
        self.vms_created += 1
        return VMHandle(kvm=self)


class VMHandle:
    """A VM handle returned by the device's create-VM call."""

    def __init__(self, kvm: KVM) -> None:
        self.kvm = kvm
        self.vm: VirtualMachine | None = None
        self.vcpu: VcpuHandle | None = None
        self.closed = False

    def _check(self, mapped: bool | None = None) -> None:
        """Raise the table's error on a closed handle or, when ``mapped``
        is given, unless guest memory is (or is not yet) mapped."""
        calls = self.kvm.calls
        if self.closed:
            raise calls.error("operation on a closed VM handle")
        if mapped is not None and (self.vm is not None) != mapped:
            raise calls.error(f"guest memory {'not yet' if mapped else 'already'}"
                              f" mapped by {calls.map_memory}")

    def set_user_memory_region(self, size: int) -> None:
        """``KVM_SET_USER_MEMORY_REGION``: register guest memory."""
        self._check(mapped=False)
        kvm = self.kvm
        kvm._charge(kvm.calls.map_memory, kvm.map_memory_cycles)
        self.vm = kvm.new_vm(memory_size=size, clock=kvm.clock,
                             costs=kvm.costs, tracer=kvm.tracer,
                             fast_paths=kvm.fast_paths,
                             recorder=kvm.recorder, jit_domain=kvm.jit_domain)

    def create_vcpu(self) -> "VcpuHandle":
        """``KVM_CREATE_VCPU``: allocate a vCPU."""
        self._check(mapped=True)
        calls = self.kvm.calls
        if self.vcpu is not None:
            raise calls.error(f"vCPU already created by {calls.create_vcpu}")
        self.kvm._charge(calls.create_vcpu, self.kvm.create_vcpu_cycles)
        self.vcpu = VcpuHandle(self)
        return self.vcpu

    def load_program(self, program: Program) -> None:
        """Copy a program image into guest memory (host-side memcpy)."""
        self._check(mapped=True)
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
    """A vCPU handle returned by the device's create-vCPU call."""

    handle: VMHandle

    @property
    def vm(self) -> VirtualMachine:
        # Never None: a vCPU is only created on mapped guest memory.
        return self.handle.vm

    def run(self, max_steps: int = 50_000_000) -> ExitInfo:
        """``KVM_RUN``: run overhead + vmrun, until the next exit.

        On KVM the overhead is the ioctl's ring transitions plus its
        sanity checks, paid on the way in and (implicitly, as part of the
        ioctl round trip) on the way out -- this is why hypercall exits
        are "doubly expensive" relative to a bare world switch
        (Section 6.3).
        """
        self.handle._check()
        kvm = self.handle.kvm
        span = kvm.tracer.begin(kvm.calls.run, Category.VMM)
        try:
            kvm.clock.advance(kvm.run_cycles)
            if kvm.fault_plan.draw(FaultSite.VCPU_RUN):
                # The call returns an error without ever entering the
                # guest (the run overhead above was still paid).
                span.annotate(error="InjectedFault")
                raise kvm.fault_plan.fault(FaultSite.VCPU_RUN,
                                           f"{kvm.calls.run} aborted")
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


# Imported last: the WHP table's module builds its device from ``KVM``.
from repro.hyperv.device import WHP  # noqa: E402

#: Every VM device table, by the backend name Wasp selects it with.
VM_DEVICES: dict[str, CallTable] = {
    calls.backend: calls for calls in (KVM_CALLS, WHP)}
