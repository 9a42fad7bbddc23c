"""``Wasp(fast_paths=...)`` is the one engine switch, and does what it says.

``True`` runs guests on the software TLB and the superblock JIT;
``False`` runs the reference interpreter with neither.  Simulated cycles
are identical either way.  Both VM backends (kvm, hyperv) honour it.
"""

import pytest

from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.wasp import Wasp

LAUNCHES = 4
FIB_N = 15


@pytest.fixture(params=["kvm", "hyperv"])
def backend(request):
    return request.param


def run_fib(backend: str, fast_paths: bool):
    wasp = Wasp(backend=backend, fast_paths=fast_paths)
    image = ImageBuilder().fib(Mode.LONG64, FIB_N)
    results = [wasp.launch(image, use_snapshot=False)
               for _ in range(LAUNCHES)]
    assert [r.ax for r in results] == [610] * LAUNCHES  # fib(15)
    pool = wasp.pool_for(wasp.memory_size_for(image))
    # Launches run one at a time, so every one reused the same shell.
    (shell,) = pool._free
    return wasp, shell.vm.interp


def test_fast_paths_on_runs_superblocks_and_tlb(backend):
    wasp, interp = run_fib(backend, True)
    domain = wasp.kvm.jit_domain
    assert domain is not None
    share = domain.counters["block_instructions"] / interp.instructions_retired
    assert share >= 0.99, share
    assert interp.tlb_hits + interp.tlb_misses > 0


def test_fast_paths_off_runs_reference_engine(backend):
    wasp, interp = run_fib(backend, False)
    assert wasp.kvm.jit_domain is None
    assert not interp.jit
    assert interp.tlb_hits == interp.tlb_misses == 0


def test_both_engines_charge_identical_cycles(backend):
    fast, fast_interp = run_fib(backend, True)
    ref, ref_interp = run_fib(backend, False)
    assert fast.clock.cycles == ref.clock.cycles
    assert fast_interp.instructions_retired == ref_interp.instructions_retired
    assert fast_interp.component_cycles == ref_interp.component_cycles
