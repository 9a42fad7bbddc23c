"""Pins of the VM device plane: KVM and Hyper-V bring-up, run and close.

Each device's observable output -- traced components, recorded device
calls, final clock, VM accounting -- and its misuse errors are fixed
here to exact values, so any refactor of the device models must keep
both devices cycle- and stream-identical.
"""

import hashlib

import pytest

from repro.hw.clock import Clock
from repro.hw.isa import Assembler
from repro.hw.vmx import ExitReason
from repro.hyperv.device import HyperV, HypervError
from repro.kvm.device import KVM, KvmError
from repro.replay.engine import record
from repro.replay.stream import InterfaceRecorder
from repro.trace.tracer import Tracer

MEMORY = 4 * 1024 * 1024

DEVICES = {
    "kvm": (KVM, KvmError),
    "hyperv": (HyperV, HypervError),
}

#: (components, devcalls, final cycles) of bring-up + load + hlt + close.
PINNED = {
    "kvm": (
        [("KVM_CREATE_VM", 181_100), ("KVM_SET_USER_MEMORY_REGION", 31_100),
         ("KVM_CREATE_VCPU", 66_100), ("first instruction", 74)],
        [("KVM_CREATE_VM", 181_100), ("KVM_SET_USER_MEMORY_REGION", 31_100),
         ("KVM_CREATE_VCPU", 66_100), ("memcpy.image", 0)],
        281_975,
    ),
    "hyperv": (
        [("WHvCreatePartition", 245_000), ("WHvMapGpaRange", 34_000),
         ("WHvCreateVirtualProcessor", 71_000), ("first instruction", 74)],
        [("WHvCreatePartition", 245_000), ("WHvMapGpaRange", 34_000),
         ("WHvCreateVirtualProcessor", 71_000), ("memcpy.image", 0)],
        354_075,
    ),
}


class ComponentLog(Tracer):
    """A tracer that also keeps every ``component`` call in order."""

    def __init__(self, clock: Clock) -> None:
        super().__init__(clock)
        self.calls: list[tuple[str, int]] = []

    def component(self, name, cycles, *args, **kwargs):
        self.calls.append((name, int(cycles)))
        return super().component(name, cycles, *args, **kwargs)


def hlt():
    return Assembler(0x8000).assemble("hlt")


@pytest.mark.parametrize("backend", sorted(DEVICES))
def test_bringup_run_close_is_pinned(backend):
    device_cls, _ = DEVICES[backend]
    clock = Clock()
    tracer = ComponentLog(clock)
    recorder = InterfaceRecorder()
    device = device_cls(clock, tracer=tracer, recorder=recorder)
    handle = device.create_vm()
    handle.set_user_memory_region(MEMORY)
    vcpu = handle.create_vcpu()
    handle.load_program(hlt())
    assert vcpu.run().reason is ExitReason.HLT
    handle.close()

    components, devcalls, cycles = PINNED[backend]
    assert tracer.calls == components
    assert [(e["name"], e["cycles"]) for e in recorder.events
            if e["kind"] == "devcall"] == devcalls
    assert clock.cycles == cycles
    assert (device.vms_created, device.vms_closed) == (1, 1)


@pytest.mark.parametrize("backend", sorted(DEVICES))
class TestMisuse:
    def make(self, backend):
        device_cls, error = DEVICES[backend]
        return device_cls(Clock()).create_vm(), error

    def test_vcpu_before_memory_rejected(self, backend):
        handle, error = self.make(backend)
        with pytest.raises(error):
            handle.create_vcpu()

    def test_load_before_memory_rejected(self, backend):
        handle, error = self.make(backend)
        with pytest.raises(error):
            handle.load_program(hlt())

    def test_double_memory_region_rejected(self, backend):
        handle, error = self.make(backend)
        handle.set_user_memory_region(MEMORY)
        with pytest.raises(error):
            handle.set_user_memory_region(MEMORY)

    def test_double_vcpu_rejected(self, backend):
        handle, error = self.make(backend)
        handle.set_user_memory_region(MEMORY)
        handle.create_vcpu()
        with pytest.raises(error):
            handle.create_vcpu()

    def test_closed_handle_rejected(self, backend):
        handle, error = self.make(backend)
        handle.close()
        with pytest.raises(error):
            handle.set_user_memory_region(MEMORY)
        with pytest.raises(error):
            handle.load_program(hlt())


def test_hyperv_recording_is_pinned():
    stream = record("echo", seed=2, requests=2, backend="hyperv")
    digest = hashlib.sha256(stream.to_json().encode()).hexdigest()
    assert digest == (
        "371a12a14a3ab4d56e9fe85f72ed318c9ec73c21812a715e7b3e46b0505a3518")
