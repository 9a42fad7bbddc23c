"""Figures 2+8 (E4): execution-context creation latencies.

Figure 2 (lower bounds): function << vmrun < pthread << KVM create.
Figure 8 adds Wasp: scratch ("Wasp"), pooled+synchronous clean
("Wasp+C"), pooled+asynchronous clean ("Wasp+CA"), plus Linux process
and SGX create/ECALL.  Claim C4: Wasp+C/Wasp+CA sit near the vmrun
hardware limit and outperform pthread creation; Wasp+CA is within a few
percent of bare vmrun.
"""

import pytest

from repro.host.process import ProcessBaseline
from repro.host.sgx import SgxBaseline
from repro.host.threads import PthreadBaseline
from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.units import cycles_to_us
from repro.wasp import CleanMode, Wasp


@pytest.fixture(scope="module")
def world():
    wasp = Wasp()
    # The probe halts on its first instruction: create/enter/exit only.
    image = ImageBuilder().hlt_only()
    # Warm the pool so cached measurements reflect steady state.
    wasp.launch(image, use_snapshot=False)
    wasp.launch(image, use_snapshot=False)
    return wasp, image


def launch_scratch(world):
    wasp, image = world
    return wasp.launch(image, use_snapshot=False, pooled=False).cycles


def launch_cached_sync(world):
    wasp, image = world
    return wasp.launch(image, use_snapshot=False, clean=CleanMode.SYNC).cycles


def launch_cached_async(world):
    wasp, image = world
    return wasp.launch(image, use_snapshot=False, clean=CleanMode.ASYNC).cycles


@pytest.fixture(scope="module")
def measured(world, report):
    wasp, image = world
    kernel = wasp.kernel
    costs = wasp.costs

    function = costs.FUNCTION_CALL
    pthread = PthreadBaseline(kernel).create_and_join()
    process = ProcessBaseline(kernel).spawn()

    # "vmrun": KVM_RUN on an already-constructed context that halts
    # immediately -- the hardware limit, measured from userspace.
    handle = wasp.kvm.create_vm()
    handle.set_user_memory_region(4 * 1024 * 1024)
    vcpu = handle.create_vcpu()
    handle.load_program(image.program)
    vcpu.run()  # absorb one-time first-instruction state
    handle.vm.reset()
    handle.vm.interp.attach_program(image.program)
    with wasp.clock.region() as region:
        vcpu.run()
    vmrun = region.elapsed

    # "KVM": create a VM + reach hlt, from scratch, raw KVM interface.
    with wasp.clock.region() as region:
        raw = wasp.kvm.create_vm()
        raw.set_user_memory_region(4 * 1024 * 1024)
        raw_vcpu = raw.create_vcpu()
        raw.load_program(image.program)
        raw_vcpu.run()
    kvm_create = region.elapsed
    wasp_scratch = launch_scratch(world)
    wasp_cached = launch_cached_sync(world)
    wasp_cached_async = launch_cached_async(world)

    sgx = SgxBaseline(kernel.clock)
    sgx_create = sgx.create()
    sgx_ecall = sgx.ecall()

    # Isolation-spectrum creation rows (ROADMAP item 2): the SUD
    # context is a prctl + mprotect; the container stacks namespaces,
    # a cgroup, pivot_root, and a seccomp load on top of a fork.
    from repro.host.backend import create_host

    sud_create = create_host("sud").isolation.creation_cycles()
    container_create = create_host("container").isolation.creation_cycles()

    rows = {
        "function": function,
        "vmrun": vmrun,
        "SUD context": sud_create,
        "Wasp+CA (cached, async clean)": wasp_cached_async,
        "Wasp+C (cached)": wasp_cached,
        "Linux pthread": pthread,
        "SGX ECALL": sgx_ecall,
        "Wasp (scratch)": wasp_scratch,
        "KVM (create + hlt)": kvm_create,
        "Linux process": process,
        "Container": container_create,
        "SGX Create": sgx_create,
    }
    paper_hint = {
        "function": "~30 cyc",
        "vmrun": "hardware limit",
        "SUD context": "prctl + mprotect",
        "Wasp+CA (cached, async clean)": "within 4% of vmrun",
        "Wasp+C (cached)": "< pthread",
        "Linux pthread": "tens of us",
        "SGX ECALL": "~14K cyc",
        "Wasp (scratch)": "~KVM create",
        "KVM (create + hlt)": "100Ks of cyc",
        "Linux process": "~1 ms scale",
        "Container": "> process",
        "SGX Create": "ms scale",
    }
    for label, cycles in rows.items():
        report.row(label, paper_hint[label], f"{cycles:,} cyc ({cycles_to_us(cycles):,.1f} us)")
    overhead = (wasp_cached_async - vmrun) / vmrun
    report.row("Wasp+CA overhead vs vmrun", "<= 4%", f"{overhead * 100:.1f}%")
    return rows


class TestShape:
    def test_figure2_ordering(self, measured):
        assert (
            measured["function"]
            < measured["vmrun"]
            < measured["Linux pthread"]
            < measured["KVM (create + hlt)"]
        )

    def test_cached_beats_pthread(self, measured):
        assert measured["Wasp+C (cached)"] < measured["Linux pthread"]
        assert measured["Wasp+CA (cached, async clean)"] < measured["Linux pthread"]

    def test_async_near_hardware_limit(self, measured):
        """C4: Wasp+CA is within a few percent of the vmrun floor."""
        ratio = measured["Wasp+CA (cached, async clean)"] / measured["vmrun"]
        assert ratio < 1.10

    def test_scratch_near_kvm_create(self, measured):
        ratio = measured["Wasp (scratch)"] / measured["KVM (create + hlt)"]
        assert 0.5 < ratio < 2.0

    def test_sgx_series(self, measured):
        assert measured["SGX Create"] > 100 * measured["SGX ECALL"]

    def test_spectrum_creation_ordering(self, measured):
        """SUD creation is the spectrum floor; the container is the
        ceiling of the OS-mechanism rows."""
        assert measured["SUD context"] < measured["Linux pthread"]
        assert (
            measured["Linux pthread"]
            < measured["Linux process"]
            < measured["Container"]
        )


def test_benchmark_cached_launch(benchmark, world, measured):
    benchmark.pedantic(launch_cached_async, args=(world,), rounds=10, iterations=1)


def test_benchmark_scratch_launch(benchmark, world, measured):
    benchmark.pedantic(launch_scratch, args=(world,), rounds=5, iterations=1)
