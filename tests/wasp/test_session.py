"""VirtineSession tests: the retained-context ("no teardown") mode."""

import pytest

from repro.runtime.image import ImageBuilder
from repro.wasp import BitmaskPolicy, Hypercall, VirtineConfig, Wasp
from repro.wasp.pool import CleanMode


@pytest.fixture
def wasp():
    return Wasp()


@pytest.fixture
def builder():
    return ImageBuilder()


def counter_entry(env):
    """Counts invocations in the retained context."""
    count = env.persistent.get("count", 0) + 1
    env.persistent["count"] = count
    return count


class TestSessionLifecycle:
    def test_persistent_state_survives(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        session = wasp.session(image, use_snapshot=False)
        assert session.invoke().value == 1
        assert session.invoke().value == 2
        assert session.invoke().value == 3
        session.close()

    def test_warm_invokes_are_cheap(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        session = wasp.session(image, use_snapshot=False)
        cold = session.invoke()
        warm = session.invoke()
        assert warm.cycles < cold.cycles / 3
        session.close()

    def test_close_releases_to_pool(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        pool = wasp.pool_for(wasp.memory_size_for(image))
        session = wasp.session(image, use_snapshot=False)
        session.invoke()
        assert pool.free_count == 0  # retained, not pooled
        session.close()
        assert pool.free_count == 1

    def test_close_scrubs_by_default(self, wasp, builder):
        def writer(env):
            env.memory.write(0x4000, b"retained secret")
            return 0

        image = builder.hosted("writer", writer)
        session = wasp.session(image, use_snapshot=False)
        session.invoke()
        shell = session._shell
        session.close(CleanMode.SYNC)
        assert shell.vm.memory.read(0x4000, 15) == bytes(15)

    def test_context_manager(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        pool = wasp.pool_for(wasp.memory_size_for(image))
        with wasp.session(image, use_snapshot=False) as session:
            session.invoke()
        assert pool.free_count == 1

    def test_new_session_starts_fresh(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        with wasp.session(image, use_snapshot=False) as first:
            first.invoke()
            first.invoke()
        with wasp.session(image, use_snapshot=False) as second:
            assert second.invoke().value == 1  # no state carried over

    def test_invocation_counter(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        with wasp.session(image, use_snapshot=False) as session:
            session.invoke()
            session.invoke()
            assert session.invocations == 2


class TestSessionWithSnapshot:
    def test_first_invoke_uses_snapshot(self, wasp, builder):
        def entry(env):
            if not env.from_snapshot and "init" not in env.persistent:
                env.charge(200_000)
                env.snapshot(payload={"engine": "ready"})
            env.persistent["init"] = True
            return env.persistent.get("n", 0)

        image = builder.hosted("snap-session", entry)
        policy_factory = lambda: BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))
        # A plain launch captures the snapshot...
        wasp.launch(image, policy=policy_factory())
        # ...and a new session starts from it.
        session = wasp.session(image, policy=policy_factory(), use_snapshot=True)
        result = session.invoke()
        assert result.from_snapshot
        session.close()


class TestSessionRunLoop:
    """The session's cold path drives the same KVM_RUN loop as a launch."""

    def test_unknown_port_read_yields_zero_in_both_paths(self, wasp):
        """An ``in`` from a port with no device model reads 0, whether
        the guest runs under ``launch`` or a session's cold invoke."""
        from repro.hw.cpu import Mode
        from repro.hw.isa import Assembler
        from repro.runtime.boot import boot_source
        from repro.runtime.image import VirtineImage

        program = Assembler(0x8000).assemble(
            boot_source(Mode.PROT32, "    mov ax, 7\n    in ax, 0x60\n    hlt"))
        image = VirtineImage(name="in-port", program=program,
                             mode=Mode.PROT32, size=len(program.image))
        assert wasp.launch(image, use_snapshot=False).ax == 0
        with wasp.session(image, use_snapshot=False) as session:
            assert session.invoke().ax == 0

    def test_session_needs_a_vm_backend(self, builder):
        from repro.host.backend import create_host

        with pytest.raises(ValueError, match="VM shell"):
            create_host("sud").session(builder.hosted("counter", counter_entry))


@pytest.mark.parametrize("backend, cycles", [("kvm", 3_600), ("hyperv", 4_000)])
def test_warm_reentry_pays_the_backends_own_run_call(backend, cycles):
    """A warm invoke is one enter/exit round trip through the device's
    run call: KVM_RUN on KVM, the dearer WHvRunVirtualProcessor on
    Hyper-V."""
    wasp = Wasp(backend=backend)
    session = wasp.session(ImageBuilder().hosted("one", lambda env: 1),
                           use_snapshot=False)
    session.invoke()
    assert session.invoke().cycles == cycles
    session.close()
