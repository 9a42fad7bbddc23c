"""The VM device model Wasp drives (``/dev/kvm`` and, by call table, WHP).

See :mod:`repro.kvm.device`.
"""

from repro.kvm.device import KVM, VMHandle, VcpuHandle

__all__ = ["KVM", "VMHandle", "VcpuHandle"]
