"""First-class isolation backends: the Table 2 spectrum as one interface.

The paper positions virtines against processes, pthreads, and SGX
(Table 2); ROADMAP item 2 adds two more points on that spectrum --
mnvkd's ``vk_isolate`` (Syscall User Dispatch) and a namespace/seccomp
container.  Every mechanism answers the same four questions:

* what does *creating* an isolated context cost?
* what does *crossing into/out of* it cost?
* what does each *interposed host interaction* (the hypercall analogue)
  cost while inside?
* what happens on a *violation* -- and how does it map into the shared
  crash taxonomy (:class:`~repro.wasp.virtine.GuestFault` /
  :class:`~repro.wasp.virtine.PolicyKill` / ...)?

:class:`IsolationBackend` is that contract.  There is one launcher,
:class:`~repro.wasp.hypervisor.Wasp`, and it drives every backend --
KVM and Hyper-V included, through :class:`~repro.wasp.hypervisor.
VmBackend` -- through the *same* pool, policy gate, handler table, audit
log, deadline plane, and taxonomy, which is what makes the cross-backend
conformance suite (``tests/conformance/``) meaningful: identical
verdicts, different costs.

Backend selection is by name (``"kvm" | "sud" | "container" | "process"
| "thread"``) through :func:`create_host` and the
``@virtine(backend=...)`` decorator option.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.host.kernel import HostKernel
from repro.hw.costs import COSTS, CostModel
from repro.hw.memory import GuestMemory
from repro.trace.tracer import NO_TRACE

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.wasp imports this)
    from repro.faults import FaultPlan
    from repro.runtime.image import VirtineImage
    from repro.telemetry.registry import TelemetryRegistry
    from repro.trace.tracer import Tracer
    from repro.wasp.hypercall import Hypercall, HypercallDenied
    from repro.wasp.hypervisor import Wasp
    from repro.wasp.virtine import Virtine

#: Every selectable backend, KVM included (the conformance matrix).
BACKEND_NAMES = ("kvm", "sud", "container", "process", "thread")

#: Default guest-memory size for a backend context: large enough for the
#: language extensions' marshalling windows (RET_AREA at 0x240000).
DEFAULT_CONTEXT_MEMORY = 4 * 1024 * 1024


class BackendViolation(Exception):
    """A backend-native isolation violation (mprotect trap, bad gate
    transition...).  The launch path maps it into the shared crash
    taxonomy as a :class:`~repro.wasp.virtine.GuestFault` -- the guest
    did something its mechanism forbids."""


class IsolationKill(BaseException):
    """An *uncatchable* mechanism-delivered kill (seccomp
    ``SECCOMP_RET_KILL_PROCESS`` semantics).

    Deliberately a ``BaseException``: guest code running ``except
    Exception`` cannot swallow it, exactly as a process cannot handle
    the SIGSYS that seccomp's kill action delivers.  The launch path
    converts it to the shared :class:`~repro.wasp.virtine.PolicyKill`
    verdict, so kill-on-violation backends classify identically to
    catch-and-deny ones.
    """

    def __init__(self, message: str, nr: Hypercall | None = None) -> None:
        super().__init__(message)
        self.nr = nr


@dataclass(frozen=True)
class BackendCaps:
    """What an isolation mechanism can and cannot do.

    Conformance tests gate on these instead of special-casing backend
    names: a divergence must be a *declared capability*, never an
    accident (the observable-divergence argument made testable).
    """

    #: Can capture/restore reset states (KVM only today).
    snapshot: bool = False
    #: Contexts are worth caching in a pool (creation is expensive).
    pooled: bool = True
    #: Shares the host address space (no hardware context of its own).
    in_process: bool = False
    #: A policy violation kills the context uncatchably (seccomp
    #: ``SECCOMP_RET_KILL``) instead of surfacing a catchable denial.
    kill_on_violation: bool = False


KVM_CAPS = BackendCaps(snapshot=True, pooled=True, in_process=False,
                       kill_on_violation=False)


@dataclass
class IsolationContext:
    """One isolated execution context (the backend analogue of a
    :class:`~repro.wasp.pool.Shell`).

    Duck-types the parts of a shell the pool and the hosted path touch:
    ``ctx.vm.memory``, ``ctx.vm.milestones``, ``reset`` and
    ``clear_memory`` (via the ``vm`` property returning the context
    itself), so :class:`~repro.wasp.pool.ShellPool` and
    :class:`~repro.wasp.guestenv.GuestEnv` run unchanged on every
    backend.
    """

    backend: str
    memory: GuestMemory
    memory_size: int
    generation: int = 0
    #: Guest-recorded (marker, cycle) milestones, same as a VM's.
    milestones: list = field(default_factory=list)
    #: Backend-private state (SUD gate, seccomp filter, worker pid...).
    state: dict = field(default_factory=dict)
    closed: bool = False

    @property
    def vm(self) -> "IsolationContext":
        return self

    def reset(self) -> None:
        self.milestones.clear()

    def clear_memory(self) -> int:
        """Zero the context's memory; returns the memset cycle cost."""
        self.memory.fill(0)
        self.memory.reset_touch_tracking()
        return int(self.memory.size * COSTS.MEMCPY_CYCLES_PER_BYTE)


class IsolationBackend:
    """The per-mechanism cost + lifecycle contract.

    Subclasses override the ``*_cycles`` cost classes (each one a
    distinct calibrated constant combination, per the timing-simulation
    argument) and, where the mechanism has native machinery, the
    lifecycle hooks.  All charging goes through the shared
    :class:`~repro.host.kernel.HostKernel` clock.
    """

    name = "abstract"
    caps = BackendCaps()
    #: The VMM device behind hardware contexts (``None`` for software
    #: mechanisms, whose contexts the backend builds itself).
    device = None
    #: Where pool provisioning spans go; the launcher binds its tracer.
    tracer: Tracer = NO_TRACE

    def __init__(self, kernel: HostKernel) -> None:
        self.kernel = kernel
        self.costs = kernel.costs
        self.clock = kernel.clock

    # -- cost classes (one per mechanism, never shared generics) ---------
    def creation_cycles(self) -> int:
        """Creating one context from scratch (the Figure 8 quantity)."""
        raise NotImplementedError

    def teardown_cycles(self) -> int:
        """Destroying a context (default: one syscall to reap it)."""
        return self.costs.syscall()

    def enter_cycles(self) -> int:
        """One-way transition from the host into the context."""
        raise NotImplementedError

    def exit_cycles(self) -> int:
        """One-way transition from the context back to the host."""
        raise NotImplementedError

    def crossing_cycles(self) -> int:
        """A full boundary crossing (the Table 2 quantity)."""
        return self.enter_cycles() + self.exit_cycles()

    def gate_out_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        """Interposed host-interaction cost, context -> host direction."""
        return self.exit_cycles()

    def gate_back_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        """Interposed host-interaction cost, host -> context direction."""
        return self.enter_cycles()

    # -- lifecycle --------------------------------------------------------
    def create(self, memory_size: int = DEFAULT_CONTEXT_MEMORY) -> IsolationContext:
        """Build one context, charging the creation cost class."""
        self.clock.advance(self.creation_cycles())
        return IsolationContext(
            backend=self.name,
            memory=GuestMemory(memory_size),
            memory_size=memory_size,
        )

    def destroy(self, ctx: IsolationContext) -> None:
        self.clock.advance(self.teardown_cycles())
        ctx.memory.release()
        ctx.closed = True

    def memory_size_for(self, image: VirtineImage) -> int:
        """The context size an image's launches draw from the pool.

        Software contexts are one fixed size (their memset cost is part
        of every scrub), whatever the image.
        """
        return DEFAULT_CONTEXT_MEMORY

    def prepare_launch(self, virtine: Virtine) -> None:
        """Per-launch setup hook (seccomp filter install, gate arming)."""

    def on_denied(self, virtine: Virtine, nr: Hypercall,
                  denied: HypercallDenied) -> None:
        """What a policy denial *does* on this mechanism.

        Default: re-raise the catchable denial (the KVM semantics).
        Kill-on-violation backends raise their uncatchable kill signal
        instead; either way the launch verdict is a
        :class:`~repro.wasp.virtine.PolicyKill`.
        """
        raise denied


def create_host(
    name: str,
    kernel: HostKernel | None = None,
    *,
    costs: CostModel = COSTS,
    seed: int = 0,
    fault_plan: FaultPlan | None = None,
    tracer: Tracer | None = None,
    telemetry: TelemetryRegistry | bool | None = None,
    **wasp_kwargs: Any,
) -> Wasp:
    """Build the :class:`~repro.wasp.hypervisor.Wasp` launcher for a named
    backend.

    ``"kvm"`` gets the VM backend Wasp builds around its own device; every
    other name gets that software mechanism, charging through ``kernel``.
    The ``seed`` parameterizes seeded backend state (the container's
    seccomp rule ordering).
    """
    from repro.wasp.hypervisor import Wasp

    if kernel is None:
        kernel = HostKernel(costs=costs, fault_plan=fault_plan)
    if name == "kvm":
        backend: str | IsolationBackend = name
    elif name == "sud":
        from repro.host.sud import SudBackend

        backend = SudBackend(kernel)
    elif name == "container":
        from repro.host.container import ContainerBackend

        backend = ContainerBackend(kernel, seed=seed)
    elif name == "process":
        from repro.host.process import ProcessBackend

        backend = ProcessBackend(kernel)
    elif name == "thread":
        from repro.host.threads import ThreadBackend

        backend = ThreadBackend(kernel)
    else:
        raise ValueError(
            f"unknown isolation backend {name!r} (use one of {BACKEND_NAMES})")
    return Wasp(kernel=kernel, costs=costs, backend=backend,
                fault_plan=fault_plan, tracer=tracer, telemetry=telemetry,
                **wasp_kwargs)
