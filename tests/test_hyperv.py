"""Hyper-V (WHP) backend tests: Wasp runs on both VMMs (Section 4.1)."""

import pytest

from repro.hw.clock import Clock
from repro.hw.costs import COSTS
from repro.hw.cpu import Mode
from repro.hw.isa import Assembler
from repro.hw.vmx import ExitReason
from repro.hyperv.device import HyperV, HypervError
from repro.kvm.device import VM_DEVICES
from repro.runtime.image import ImageBuilder
from repro.wasp import BitmaskPolicy, Hypercall, PermissivePolicy, VirtineConfig, Wasp


class TestWhpSurface:
    def test_full_bringup(self):
        hyperv = HyperV(Clock())
        partition = hyperv.create_vm()
        partition.set_user_memory_region(4 * 1024 * 1024)
        vcpu = partition.create_vcpu()
        partition.load_program(Assembler(0x8000).assemble("hlt"))
        assert vcpu.run().reason is ExitReason.HLT
        assert hyperv.vms_created == 1

    def test_misuse_rejected(self):
        hyperv = HyperV(Clock())
        partition = hyperv.create_vm()
        with pytest.raises(HypervError):
            partition.create_vcpu()  # before MapGpaRange
        partition.set_user_memory_region(4 * 1024 * 1024)
        partition.create_vcpu()
        with pytest.raises(HypervError):
            partition.create_vcpu()
        partition.close()
        with pytest.raises(HypervError):
            partition.load_program(Assembler(0x8000).assemble("hlt"))


class TestWaspOnHyperV:
    def test_backend_selection(self):
        assert Wasp(backend="kvm").backend == "kvm"
        assert Wasp(backend="hyperv").backend == "hyperv"
        with pytest.raises(ValueError):
            Wasp(backend="xen")

    def test_assembly_virtine_runs(self):
        wasp = Wasp(backend="hyperv")
        result = wasp.launch(ImageBuilder().fib(Mode.LONG64, 12), use_snapshot=False)
        assert result.ax == 144

    def test_hosted_virtine_runs(self):
        wasp = Wasp(backend="hyperv")
        image = ImageBuilder().hosted("job", lambda env: env.args * 2)
        assert wasp.launch(image, args=21).value == 42

    def test_snapshotting_works(self):
        wasp = Wasp(backend="hyperv")

        def entry(env):
            if not env.from_snapshot:
                env.charge(100_000)
                env.snapshot(payload=None)
            return "ok"

        image = ImageBuilder().hosted("snap", entry)
        policy = BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))
        cold = wasp.launch(image, policy=policy)
        warm = wasp.launch(image, policy=policy)
        assert warm.from_snapshot
        assert warm.cycles < cold.cycles

    def test_performance_similar_to_kvm(self):
        """Section 4.1: 'Hyper-V performance was similar'."""
        def steady_state_cycles(backend):
            wasp = Wasp(backend=backend)
            image = ImageBuilder().hlt_only()
            wasp.launch(image, use_snapshot=False)
            wasp.launch(image, use_snapshot=False)
            return wasp.launch(image, use_snapshot=False).cycles

        kvm = steady_state_cycles("kvm")
        hyperv = steady_state_cycles("hyperv")
        assert hyperv == pytest.approx(kvm, rel=0.5)  # same order, not equal

    def test_creation_slightly_heavier(self):
        def scratch_cycles(backend):
            wasp = Wasp(backend=backend)
            image = ImageBuilder().hlt_only()
            return wasp.launch(image, use_snapshot=False, pooled=False).cycles

        assert scratch_cycles("hyperv") > scratch_cycles("kvm")

    def test_metrics_work_across_backends(self):
        from repro.wasp.metrics import collect

        wasp = Wasp(backend="hyperv")
        wasp.launch(ImageBuilder().hosted("m", lambda env: 0))
        metrics = collect(wasp)
        assert metrics.launches == 1
        assert metrics.vms_created == 1


@pytest.mark.parametrize("backend", sorted(VM_DEVICES))
def test_hosted_entry_pays_the_device_run_cost(backend):
    """Re-entering a hosted guest pays its own device's run call, not
    KVM's: one READ hypercall's boundary charge is the exit plus the
    table's run cost and the world switch in."""
    wasp = Wasp(backend=backend, telemetry=True)
    image = ImageBuilder().hosted(
        "read", lambda env: env.hypercall(Hypercall.READ, 3, 4))
    wasp.launch(image, policy=BitmaskPolicy(VirtineConfig.allowing(Hypercall.READ)),
                handlers={Hypercall.READ: lambda request: b""})
    entry = VM_DEVICES[backend].price(COSTS)[3] + COSTS.VMRUN_ENTRY
    boundary = wasp.telemetry.counter("component_cycles_total",
                                      component="hypercall.boundary")
    assert wasp.isolation.enter_cycles() == entry
    assert boundary.value == wasp.isolation.exit_cycles() + entry
