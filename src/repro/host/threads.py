"""Thread isolation backend ("Linux pthread", Figures 2 and 8).

Threads are the *weakest* point on the spectrum: they share the host
address space, so a "crossing" is just a function call and the only
isolation is conventional.  Kept as a first-class
:class:`~repro.host.backend.IsolationBackend` anyway so the conformance
suite can demonstrate that the *policy plane* (default-deny hypercalls,
audit, taxonomy) holds even where the mechanism provides nothing -- and
so Table 2 has its cheap-crossing anchor.
"""

from __future__ import annotations

from repro.host.backend import BackendCaps, IsolationBackend
from repro.host.kernel import HostKernel


class ThreadBackend(IsolationBackend):
    """pthread contexts: cheap creation, function-call crossings."""

    name = "thread"
    caps = BackendCaps(snapshot=False, pooled=False, in_process=True,
                       kill_on_violation=False)

    def creation_cycles(self) -> int:
        return self.costs.PTHREAD_CREATE_JOIN

    def teardown_cycles(self) -> int:
        # The join half is already in PTHREAD_CREATE_JOIN; detached
        # teardown is a free-list push.
        return self.costs.POOL_BOOKKEEPING

    def enter_cycles(self) -> int:
        return self.costs.FUNCTION_CALL

    def exit_cycles(self) -> int:
        return self.costs.FUNCTION_CALL


class PthreadBaseline:
    """``pthread_create`` followed by ``pthread_join``."""

    name = "Linux pthread"

    def __init__(self, kernel: HostKernel) -> None:
        self.kernel = kernel
        self._backend = ThreadBackend(kernel)

    def create_and_join(self) -> int:
        """Run one create/join round trip; returns elapsed cycles."""
        with self.kernel.clock.region() as region:
            self.kernel.clock.advance(self._backend.creation_cycles())
        return region.elapsed
