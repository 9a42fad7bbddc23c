"""One launcher, one lifecycle: the launch API is the same on every backend.

Every backend name builds a :class:`~repro.wasp.hypervisor.Wasp`, so the
launch keywords, the pool, and the metrics view are shared by
construction rather than by a second, drifting copy.
"""

import pytest

from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.wasp import Wasp
from repro.wasp.virtine import VirtineCrash
from repro.wasp.metrics import collect
from repro.wasp.policy import PermissivePolicy


def _trivial(env):
    return 0


class TestOneLauncher:
    def test_every_backend_is_a_wasp(self, host, backend_name):
        assert isinstance(host, Wasp)
        assert host.backend == backend_name

    def test_misspelt_launch_keyword_is_rejected(self, host):
        image = ImageBuilder().hosted("trivial", _trivial)
        with pytest.raises(TypeError, match="deadlin_cycles"):
            host.launch(image, policy=PermissivePolicy(), deadlin_cycles=5)
        assert host.launches == 0

    def test_record_replay_needs_a_vm(self, backend_name):
        from repro.host.backend import create_host
        from repro.replay.stream import InterfaceRecorder

        recorder = InterfaceRecorder()
        if create_host(backend_name).isolation.device is not None:
            assert create_host(backend_name, recorder=recorder).recorder is recorder
        else:
            with pytest.raises(ValueError, match="needs a VM backend"):
                create_host(backend_name, recorder=recorder)

    def test_isa_image_on_a_software_backend_is_refused_up_front(self, host):
        """A plain ISA image needs a VM: a software backend refuses it
        before counting the launch or charging any cycle."""
        image = ImageBuilder().fib(Mode.PROT32, 5)
        if host.isolation.device is not None:
            assert host.launch(image).ax == 5
            return
        before = host.clock.cycles
        with pytest.raises(VirtineCrash, match="hosts Python entries only"):
            host.launch(image)
        assert host.clock.cycles == before
        assert host.launches == 0

    def test_software_backend_names_go_through_create_host(self):
        with pytest.raises(ValueError, match="create_host"):
            Wasp(backend="sud")

    def test_pooled_defaults_to_the_declared_capability(self, host, caps):
        image = ImageBuilder().hosted("trivial", _trivial)
        host.launch(image, policy=PermissivePolicy())
        host.launch(image, policy=PermissivePolicy())
        pool = host.pool_for(host.memory_size_for(image))
        assert pool.hits == (1 if caps.pooled else 0)


class TestMetricsCollect:
    def test_collect_samples_every_backend(self, host):
        image = ImageBuilder().hosted("trivial", _trivial)
        host.launch(image, policy=PermissivePolicy())
        host.launch(image, policy=PermissivePolicy())
        metrics = collect(host)
        assert metrics.launches == 2
        assert sum(p.hits + p.misses for p in metrics.pools) == 2
        assert metrics.timeouts == host.timeouts
