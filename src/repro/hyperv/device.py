"""The Windows Hypervisor Platform (WHP) call table.

"Wasp runs as a Type-II micro-hypervisor on both Linux and Windows"
(Section 1); "our hypervisor implementation works on both Linux and has
a prototype implementation in Windows (through Hyper-V) ... Hyper-V
performance was similar for our experiments" (Section 4.1).

Hyper-V is the one VM device of :mod:`repro.kvm.device` driven by the
WHP table below: ``WHvCreatePartition``, ``WHvMapGpaRange``,
``WHvCreateVirtualProcessor``, ``WHvRunVirtualProcessor``.  Costs are
"similar" to KVM (the paper's observation) but not identical: partition
setup is a two-step create+setup, and the run path crosses the WHP
user-mode API rather than an ioctl.
"""

from __future__ import annotations

from functools import partial

from repro.hw.costs import CallTable

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


#: The WHP calls, priced from the constants above (not the cost model).
WHP = CallTable(
    backend="hyperv",
    error=HypervError,
    create_vm="WHvCreatePartition",
    map_memory="WHvMapGpaRange",
    create_vcpu="WHvCreateVirtualProcessor",
    run="WHvRunVirtualProcessor",
    price=lambda _costs: (WHV_CREATE_PARTITION + WHV_SETUP_PARTITION,
                          WHV_MAP_GPA_RANGE, WHV_CREATE_VCPU,
                          WHV_RUN_OVERHEAD),
)

# Imported after the table: repro.kvm.device lists WHP in VM_DEVICES.
from repro.kvm.device import KVM  # noqa: E402

#: The WHP system interface: the VM device over the WHP table.
HyperV = partial(KVM, calls=WHP)
