"""Process isolation backend + the Figure 8 creation baselines.

A process context is the classic isolation unit: fork+exec creation,
address-space separation for free, and every interposed interaction
paying an IPC round trip (two syscalls plus two scheduler switches).
The container runtime used by the serverless experiments layers
namespace/cgroup/rootfs setup on top (see :mod:`repro.host.container`
for the full sandbox backend).

Both legacy baseline classes (:class:`ProcessBaseline`,
:class:`ContainerRuntime`) now charge through the shared
:class:`~repro.host.backend.IsolationBackend` cost model instead of
hand-rolling clock math, so the Figure 8 / Table 2 rows and the live
backends can never drift apart.
"""

from __future__ import annotations

from repro.host.backend import BackendCaps, IsolationBackend
from repro.host.kernel import HostKernel


class ProcessBackend(IsolationBackend):
    """fork+exec worker processes: expensive creation, IPC crossings."""

    name = "process"
    caps = BackendCaps(snapshot=False, pooled=True, in_process=False,
                       kill_on_violation=False)

    def creation_cycles(self) -> int:
        return int(self.costs.PROCESS_SPAWN)

    def teardown_cycles(self) -> int:
        # waitpid + the switch back from the dying child.
        return self.costs.syscall() + self.costs.CONTEXT_SWITCH

    def enter_cycles(self) -> int:
        # Write the request into the worker's pipe, switch onto it.
        return self.costs.syscall() + self.costs.CONTEXT_SWITCH

    def exit_cycles(self) -> int:
        # Switch back, read the response.
        return self.costs.CONTEXT_SWITCH + self.costs.syscall()


class ProcessBaseline:
    """fork+exec of a minimal process ("Linux process", Figure 8)."""

    name = "Linux process"

    def __init__(self, kernel: HostKernel) -> None:
        self.kernel = kernel
        self._backend = ProcessBackend(kernel)

    def spawn(self) -> int:
        """Spawn one process; returns elapsed cycles."""
        with self.kernel.clock.region() as region:
            self.kernel.clock.advance(self._backend.creation_cycles())
        return region.elapsed


class ContainerRuntime:
    """A container engine: expensive cold creation, cheap warm reuse.

    Cold creation is the full sandbox build (process + namespaces +
    cgroup + rootfs + filter load) plus the engine-level image/runtime
    overhead (``CONTAINER_EXTRA`` -- what gives container serverless its
    Figure 15 cold-start problem); warm dispatch is the sandbox's IPC
    crossing.
    """

    name = "container"

    def __init__(self, kernel: HostKernel) -> None:
        from repro.host.container import ContainerBackend

        self.kernel = kernel
        self._backend = ContainerBackend(kernel)
        self.cold_starts = 0
        self.warm_starts = 0

    def cold_create(self) -> int:
        """Create a container from scratch (sandbox + engine overhead)."""
        with self.kernel.clock.region() as region:
            self.kernel.clock.advance(self._backend.creation_cycles())
            self.kernel.clock.advance(self.kernel.costs.CONTAINER_EXTRA)
        self.cold_starts += 1
        return region.elapsed

    def warm_invoke(self) -> int:
        """Dispatch into an already-running container (IPC round trip)."""
        with self.kernel.clock.region() as region:
            self.kernel.clock.advance(self._backend.crossing_cycles())
        self.warm_starts += 1
        return region.elapsed
