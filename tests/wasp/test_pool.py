"""Shell-pool tests: the Figure 6/8 caching behaviour."""

import pytest

from repro.hw.clock import BackgroundAccountant, Clock
from repro.hw.costs import COSTS
from repro.kvm.device import KVM
from repro.wasp.hypervisor import VmBackend
from repro.wasp.pool import CleanMode, ShellPool

MEM = 4 * 1024 * 1024


@pytest.fixture
def pool():
    return ShellPool(VmBackend(KVM(Clock())), MEM, background=BackgroundAccountant())


class TestAcquire:
    def test_cold_acquire_is_a_miss(self, pool):
        pool.acquire()
        assert pool.misses == 1
        assert pool.hits == 0

    def test_reuse_is_a_hit(self, pool):
        shell = pool.acquire()
        pool.release(shell)
        again = pool.acquire()
        assert again is shell
        assert pool.hits == 1

    def test_generation_bumps_on_reuse(self, pool):
        shell = pool.acquire()
        pool.release(shell)
        assert pool.acquire().generation == 1

    def test_hit_is_cheap_miss_is_expensive(self, pool):
        clock = pool.backend.clock
        with clock.region() as miss:
            shell = pool.acquire()
        pool.release(shell, CleanMode.NONE)
        with clock.region() as hit:
            pool.acquire()
        assert miss.elapsed > 1000 * hit.elapsed
        assert hit.elapsed == COSTS.POOL_BOOKKEEPING

    def test_scratch_bypasses_cache(self, pool):
        shell = pool.acquire()
        pool.release(shell)
        scratch = pool.create_scratch()
        assert scratch is not shell
        assert pool.free_count == 1  # cached shell untouched

    def test_prewarm(self, pool):
        pool.prewarm(3)
        assert pool.free_count == 3
        pool.acquire()
        assert pool.free_count == 2

    def test_prewarm_clamped_to_max_free(self):
        """An over-eager prewarm must not grow the free list past the
        cap that release/quarantine enforce."""
        pool = ShellPool(VmBackend(KVM(Clock())), MEM, max_free=2)
        pool.prewarm(10)
        assert pool.free_count == 2

    def test_prewarm_tops_up_without_overshoot(self):
        pool = ShellPool(VmBackend(KVM(Clock())), MEM, max_free=4)
        pool.prewarm(2)
        pool.prewarm(4)
        assert pool.free_count == 4
        pool.prewarm(1)  # already above target: no-op, no shrink
        assert pool.free_count == 4

    def test_defective_shell_charges_bookkeeping(self):
        """Discarding a defective cached shell is free-list work: the
        POOL_ACQUIRE fault path must charge POOL_BOOKKEEPING, not be
        free."""
        from repro.faults import FaultPlan, FaultSite

        plan = FaultPlan(seed=9)
        plan.fail(FaultSite.POOL_ACQUIRE, rate=1.0)
        kvm = KVM(Clock())
        pool = ShellPool(VmBackend(kvm), MEM, fault_plan=plan)
        pool.release(pool.acquire(), CleanMode.NONE)
        bad = pool._free[0]
        with kvm.clock.region() as region:
            shell = pool.acquire()
        assert pool.defects == 1
        assert shell is not bad
        assert bad.handle.closed
        assert region.elapsed >= COSTS.POOL_BOOKKEEPING


class TestRelease:
    def _dirty_shell(self, pool):
        shell = pool.acquire()
        shell.vm.memory.write(0x100, b"secret data")
        return shell

    def test_sync_clean_scrubs_and_charges(self, pool):
        shell = self._dirty_shell(pool)
        clock = pool.backend.clock
        before = clock.cycles
        pool.release(shell, CleanMode.SYNC)
        assert clock.cycles > before
        assert shell.vm.memory.read(0x100, 11) == bytes(11)

    def test_async_clean_scrubs_but_charges_background(self, pool):
        shell = self._dirty_shell(pool)
        clock = pool.backend.clock
        before = clock.cycles
        pool.release(shell, CleanMode.ASYNC)
        # Only bookkeeping lands on the critical path.
        assert clock.cycles - before <= COSTS.POOL_BOOKKEEPING
        assert pool.background.cycles > 0
        assert shell.vm.memory.read(0x100, 11) == bytes(11)

    def test_none_leaves_memory(self, pool):
        shell = self._dirty_shell(pool)
        pool.release(shell, CleanMode.NONE)
        assert shell.vm.memory.read(0x100, 6) == b"secret"

    def test_release_resets_cpu(self, pool):
        shell = pool.acquire()
        shell.vm.cpu.write_reg("ax", 55)
        shell.vm.cpu.halted = True
        pool.release(shell)
        assert shell.vm.cpu.read_reg("ax") == 0
        assert not shell.vm.cpu.halted

    def test_max_free_cap(self):
        pool = ShellPool(VmBackend(KVM(Clock())), MEM, max_free=1)
        a = pool.acquire()
        b = pool.create_scratch()
        pool.release(a)
        pool.release(b)
        assert pool.free_count == 1
        assert b.handle.closed  # overflow shells are destroyed

    def test_overflow_release_closes_vm_on_device(self):
        """The overflow shell's handle must actually be torn down at the
        KVM device, not just dropped from the free list."""
        kvm = KVM(Clock())
        pool = ShellPool(VmBackend(kvm), MEM, max_free=1)
        a = pool.acquire()
        b = pool.create_scratch()
        pool.release(a)
        assert kvm.vms_closed == 0
        pool.release(b)
        assert kvm.vms_closed == 1

    def test_overflow_quarantine_closes_vm_on_device(self):
        kvm = KVM(Clock())
        pool = ShellPool(VmBackend(kvm), MEM, max_free=1)
        a = pool.acquire()
        b = pool.create_scratch()
        pool.release(a)
        pool.quarantine(b)
        assert kvm.vms_closed == 1
        assert pool.quarantines == 1
        assert pool.free_count == 1

    def test_close_is_idempotent_in_bookkeeping(self):
        kvm = KVM(Clock())
        pool = ShellPool(VmBackend(kvm), MEM, max_free=0)
        shell = pool.acquire()
        pool.release(shell)
        shell.handle.close()  # double close must not double count
        assert kvm.vms_closed == 1


class TestInformationLeakage:
    def test_cleaned_shell_has_no_prior_state(self, pool):
        """The isolation property behind pooling: a recycled shell must
        not expose the previous occupant's memory (Section 5.2)."""
        shell = pool.acquire()
        shell.vm.memory.write(0x2000, b"tenant A's key material")
        pool.release(shell, CleanMode.SYNC)
        reused = pool.acquire()
        assert reused is shell
        contents = reused.vm.memory.read(0x2000, 23)
        assert contents == bytes(23)

    def test_async_clean_also_prevents_leakage(self, pool):
        shell = pool.acquire()
        shell.vm.memory.write(0x2000, b"tenant A")
        pool.release(shell, CleanMode.ASYNC)
        reused = pool.acquire()
        assert reused.vm.memory.read(0x2000, 8) == bytes(8)
