"""Simulated host operating system.

The host kernel is the substrate underneath both the baselines (threads,
processes, containers) and Wasp's hypercall handlers (which validate guest
requests and then "re-create the calls on the host", Section 6.3).
"""

from repro.host.kernel import HostKernel
from repro.host.filesystem import InMemoryFilesystem
from repro.host.network import LoopbackNetwork

__all__ = [
    "HostKernel",
    "InMemoryFilesystem",
    "LoopbackNetwork",
    # Isolation backends (import from repro.host.backend to avoid the
    # module-load cycle with repro.wasp):
    # IsolationBackend, create_host, BACKEND_NAMES
]
