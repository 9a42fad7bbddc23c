"""A Windows Hypervisor Platform (WHP) device model.

"Wasp runs as a Type-II micro-hypervisor on both Linux and Windows"
(Section 1); "our hypervisor implementation works on both Linux and has
a prototype implementation in Windows (through Hyper-V) ... Hyper-V
performance was similar for our experiments" (Section 4.1).

This backend mirrors :class:`repro.kvm.device.KVM`'s duck type --
``create_vm`` returning a handle with ``set_user_memory_region`` /
``create_vcpu`` / ``load_program`` -- over the WHP call surface
(``WHvCreatePartition``, ``WHvMapGpaRange``,
``WHvCreateVirtualProcessor``, ``WHvRunVirtualProcessor``).  Costs are
"similar" to KVM (the paper's observation) but not identical: partition
setup is a two-step create+setup, and the run path crosses the WHP
user-mode API rather than an ioctl.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.faults import NO_FAULTS, FaultPlan, FaultSite
from repro.hw.clock import Clock
from repro.hw.costs import COSTS, CostModel
from repro.hw.isa import Program
from repro.hw.jit import JitDomain
from repro.hw.vmx import ExitInfo, ExitReason, VirtualMachine
from repro.replay.stream import NO_RECORD, InterfaceRecorder
from repro.trace.tracer import NO_TRACE, Category, Tracer

#: WHvCreatePartition + WHvSetupPartition (two API round trips; slightly
#: heavier than KVM_CREATE_VM).
WHV_CREATE_PARTITION = 205_000
WHV_SETUP_PARTITION = 40_000
#: WHvMapGpaRange.
WHV_MAP_GPA_RANGE = 34_000
#: WHvCreateVirtualProcessor.
WHV_CREATE_VCPU = 71_000
#: WHvRunVirtualProcessor API crossing (user-mode DLL + kernel transition;
#: a bit heavier than a bare ioctl).
WHV_RUN_OVERHEAD = 1_900


class HypervError(Exception):
    """Invalid use of the WHP surface."""


class HyperV:
    """The WHP system interface (drop-in for :class:`repro.kvm.KVM`)."""

    backend_name = "hyperv"

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
        #: Device-scoped superblock-JIT domain (see repro.kvm.device).
        self.jit_domain = (jit_domain if jit_domain is not None
                           else JitDomain()) if fast_paths else None
        self.vms_created = 0
        #: Partitions released via ``PartitionHandle.close`` (leak
        #: accounting mirrors the KVM device).
        self.vms_closed = 0

    def create_vm(self) -> "PartitionHandle":
        """``WHvCreatePartition`` + ``WHvSetupPartition``."""
        self.clock.advance(WHV_CREATE_PARTITION + WHV_SETUP_PARTITION)
        self.tracer.component("WHvCreatePartition",
                              WHV_CREATE_PARTITION + WHV_SETUP_PARTITION,
                              Category.VMM)
        self.recorder.devcall("WHvCreatePartition",
                              WHV_CREATE_PARTITION + WHV_SETUP_PARTITION)
        self.vms_created += 1
        return PartitionHandle(hyperv=self)

    def _new_vm(self, size: int) -> VirtualMachine:
        """VM factory (the replay substrate overrides this)."""
        return VirtualMachine(memory_size=size, clock=self.clock,
                              costs=self.costs, tracer=self.tracer,
                              fast_paths=self.fast_paths,
                              recorder=self.recorder,
                              jit_domain=self.jit_domain)


class PartitionHandle:
    """A WHP partition handle (mirrors the KVM ``VMHandle`` surface)."""

    def __init__(self, hyperv: HyperV) -> None:
        self.hyperv = hyperv
        self.vm: VirtualMachine | None = None
        self.vcpu: "WhvVcpuHandle | None" = None
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise HypervError("operation on a deleted partition")

    def set_user_memory_region(self, size: int) -> None:
        """``WHvMapGpaRange``: map guest physical memory."""
        self._check_open()
        if self.vm is not None:
            raise HypervError("GPA range already mapped")
        self.hyperv.clock.advance(WHV_MAP_GPA_RANGE)
        self.hyperv.tracer.component("WHvMapGpaRange", WHV_MAP_GPA_RANGE,
                                     Category.VMM)
        self.hyperv.recorder.devcall("WHvMapGpaRange", WHV_MAP_GPA_RANGE)
        self.vm = self.hyperv._new_vm(size)

    def create_vcpu(self) -> "WhvVcpuHandle":
        """``WHvCreateVirtualProcessor``."""
        self._check_open()
        if self.vm is None:
            raise HypervError("create_vcpu before WHvMapGpaRange")
        if self.vcpu is not None:
            raise HypervError("virtual processor already created")
        self.hyperv.clock.advance(WHV_CREATE_VCPU)
        self.hyperv.tracer.component("WHvCreateVirtualProcessor",
                                     WHV_CREATE_VCPU, Category.VMM)
        self.hyperv.recorder.devcall("WHvCreateVirtualProcessor",
                                     WHV_CREATE_VCPU)
        self.vcpu = WhvVcpuHandle(self)
        return self.vcpu

    def load_program(self, program: Program) -> None:
        self._check_open()
        if self.vm is None:
            raise HypervError("load_program before WHvMapGpaRange")
        cost = self.hyperv.costs.memcpy(len(program.image))
        self.hyperv.clock.advance(cost)
        self.hyperv.recorder.devcall("memcpy.image", cost)
        self.vm.load_program(program)

    def close(self) -> None:
        """``WHvDeletePartition`` (teardown is off the critical path)."""
        if not self.closed:
            self.hyperv.vms_closed += 1
            if self.vm is not None:
                self.vm.memory.release()
        self.closed = True


@dataclass
class WhvVcpuHandle:
    """A WHP virtual processor (mirrors the KVM ``VcpuHandle`` surface)."""

    handle: PartitionHandle

    @property
    def vm(self) -> VirtualMachine:
        vm = self.handle.vm
        if vm is None:  # pragma: no cover - guarded by create_vcpu
            raise HypervError("vCPU without a mapped GPA range")
        return vm

    def run(self, max_steps: int = 50_000_000) -> ExitInfo:
        """``WHvRunVirtualProcessor``: run until the next exit."""
        self.handle._check_open()
        hyperv = self.handle.hyperv
        span = hyperv.tracer.begin("WHvRunVirtualProcessor", Category.VMM)
        try:
            hyperv.clock.advance(WHV_RUN_OVERHEAD)
            if hyperv.fault_plan.draw(FaultSite.VCPU_RUN):
                span.annotate(error="InjectedFault")
                raise hyperv.fault_plan.fault(
                    FaultSite.VCPU_RUN, "WHvRunVirtualProcessor aborted"
                )
            info = self.vm.vmrun(max_steps=max_steps)
            if not isinstance(info.reason, ExitReason):
                # Fail closed on out-of-enum exit reasons (see the KVM
                # device for rationale); the raw value is preserved in
                # the crash message for the supervisor's record.
                from repro.wasp.virtine import GuestFault

                span.annotate(error="GuestFault")
                raise GuestFault(
                    f"vCPU reported unknown vmexit reason {info.reason!r}; "
                    f"failing closed")
            span.annotate(exit_reason=info.reason.value)
            return info
        finally:
            hyperv.tracer.end(span)

    def complete_io_in(self, dest: str, value: int) -> None:
        self.vm.complete_io_in(dest, value)
