"""Wasp: the embeddable micro-hypervisor (Section 5).

Wasp "is a userspace runtime system built as a library that host
programs (virtine clients) can link against" -- here, a Python class that
applications instantiate.  It owns the isolation backend (by default the
KVM device model, wrapped as a :class:`VmBackend`), the shell pools, the
snapshot store, and the hypercall dispatch path; clients configure
policies and handlers per launch.

The launch path follows Figure 6: a request arrives (A), a context is
provisioned from the pool (D) or created clean (C), the image (or its
snapshot) is installed, the guest runs with hypercall interposition, and
on return the context is cleared (E) and cached for reuse (B).  Every
backend on the isolation spectrum (:mod:`repro.host.backend`) runs this
same lifecycle; only VM shells install images, restore snapshots, and
run the ISA loop -- software contexts run the hosted entry between the
backend's enter and exit crossings.
"""

from __future__ import annotations

import copy
from typing import Any, Callable

from repro.faults import NO_FAULTS, FaultPlan, FaultSite, InjectedFault
from repro.host.backend import (
    KVM_CAPS,
    BackendViolation,
    IsolationBackend,
    IsolationKill,
)
from repro.host.kernel import HostKernel
from repro.units import us_to_cycles
from repro.hw.clock import BackgroundAccountant
from repro.hw.costs import COSTS, CostModel
from repro.hw.memory import GuestMemoryError
from repro.hw.vmx import STEP_BUDGET_EXHAUSTED, ExitReason
from repro.kvm.device import KVM, VM_DEVICES
from repro.replay.stream import (
    NO_RECORD,
    InterfaceRecorder,
    ReplayDivergence,
    encode_value,
)
from repro.runtime.image import HOSTED_ENTER_PORT, VirtineImage
from repro.telemetry.registry import NO_TELEMETRY, TelemetryRegistry
from repro.trace.tracer import NO_TRACE, Category, Tracer
from repro.wasp.guestenv import GuestEnv, GuestExitRequested
from repro.wasp.handlers import CannedHandlers
from repro.wasp.hypercall import (
    HCALL_PORT,
    Hypercall,
    HypercallDenied,
    HypercallError,
    dispatch_handler,
    policy_gate,
)
from repro.wasp.policy import DefaultDenyPolicy, Policy
from repro.wasp.pool import CleanMode, Shell, ShellPool
from repro.wasp.snapshot import RestoreMode, Snapshot, SnapshotGone, SnapshotStore
from repro.wasp.virtine import (
    GuestFault,
    HostFault,
    PolicyKill,
    Virtine,
    VirtineCrash,
    VirtineHang,
    VirtineResult,
    VirtineTimeout,
)

if False:  # pragma: no cover - typing only (avoids a module-load cycle)
    from repro.wasp.admission import Deadline

#: Guest memory below the image: boot scratch, GDT, real-mode stack.
_LOW_RESERVED = 0x8000
#: Guest memory above the image: page tables + protected/long stack.
_RUNTIME_HEADROOM = 0x300000

#: Errno names that indicate the *host* plane failed underneath the
#: virtine (vs. the guest passing bad arguments).  A crash rooted in one
#: of these classifies as a retryable :class:`HostFault`.
HOST_PLANE_ERRNOS = frozenset({"EIO", "ENOSPC", "ENOMEM", "ECONNRESET", "EPIPE", "ETIMEDOUT"})

#: Cycles a :data:`FaultSite.GUEST_STALL` fault wedges the guest for
#: before its hypercall lands: long enough to trip the default watchdog
#: no-progress threshold (1.5 ms) with margin.
GUEST_STALL_CYCLES = us_to_cycles(5_000.0)


def _bucket_size(required: int) -> int:
    """Round a memory requirement up to a power-of-two pool bucket."""
    size = 4 * 1024 * 1024
    while size < required:
        size *= 2
    return size


class VmBackend(IsolationBackend):
    """Hardware virtual contexts: KVM or Hyper-V shells driven through
    the device.

    Contexts are :class:`~repro.wasp.pool.Shell` objects built by the
    device's create-VM, memory-region, and vCPU calls (each charging its
    own cost); every entry pays the device's run call plus the world
    switch, and every exit the world switch plus the ioctl ring
    transitions ("doubly expensive", Section 6.3).
    """

    caps = KVM_CAPS

    def __init__(self, device: KVM) -> None:
        # Priced by the device's clock and cost model, not a host kernel.
        self.device = device
        self.name = device.calls.backend
        self.costs = device.costs
        self.clock = device.clock
        self.tracer = device.tracer

    def enter_cycles(self) -> int:
        return self.device.run_cycles + self.costs.VMRUN_ENTRY

    def exit_cycles(self) -> int:
        # The paper gives no WHP exit cost: both tables pay KVM's.
        costs = self.costs
        return costs.VMRUN_EXIT + costs.ioctl()

    def create(self, memory_size: int) -> Shell:
        handle = self.device.create_vm()
        handle.set_user_memory_region(memory_size)
        return Shell(handle=handle, vcpu=handle.create_vcpu(),
                     memory_size=memory_size)

    def destroy(self, shell: Shell) -> None:
        # Host-side VM teardown is off the critical path: no charge.
        shell.handle.close()

    def memory_size_for(self, image: VirtineImage) -> int:
        """Power-of-two buckets large enough for image + runtime."""
        return _bucket_size(_LOW_RESERVED + image.size + _RUNTIME_HEADROOM)


class Wasp:
    """The embeddable virtine hypervisor, over any isolation backend.

    ``fast_paths`` is the one engine switch for guests on the VM
    backends: ``True`` (the default) is the software TLB, bulk memory
    paths and superblock JIT; ``False`` is the reference interpreter.
    """

    def __init__(
        self,
        kernel: HostKernel | None = None,
        costs: CostModel = COSTS,
        backend: str | IsolationBackend = "kvm",
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
        trace: bool = False,
        fast_paths: bool = True,
        recorder: InterfaceRecorder | None = None,
        replay: Any = None,
        snapshot_store: SnapshotStore | None = None,
        telemetry: TelemetryRegistry | bool | None = None,
    ) -> None:
        #: The engine switch (see the class docstring).  Simulated cycles
        #: are identical either way.  The backend device owns the
        #: :class:`~repro.hw.jit.JitDomain`, whose per-image block caches
        #: give pooled/restored shells their warm start.
        self.fast_paths = fast_paths
        self.fault_plan = fault_plan if fault_plan is not None else NO_FAULTS
        if kernel is not None:
            self.kernel = kernel
            if fault_plan is not None:
                self.kernel.fault_plan = self.fault_plan
        else:
            self.kernel = HostKernel(costs=costs, fault_plan=self.fault_plan)
        self.costs = costs
        self.clock = self.kernel.clock
        #: Tracing is off by default: every instrumentation site calls the
        #: :data:`~repro.trace.tracer.NO_TRACE` no-op unconditionally, so
        #: the disabled path adds zero simulated cycles and no branches.
        if tracer is not None:
            self.tracer = tracer
        elif trace:
            self.tracer = Tracer(self.clock)
        else:
            self.tracer = NO_TRACE
        self.tracer.bind(self.clock)
        #: Telemetry mirrors the tracer contract: off by default, every
        #: site calls :data:`~repro.telemetry.registry.NO_TELEMETRY`
        #: unconditionally, and an enabled registry only ever *reads*
        #: the clock -- zero simulated cycles either way.
        if isinstance(telemetry, TelemetryRegistry):
            self.telemetry = telemetry
        elif telemetry:
            self.telemetry = TelemetryRegistry()
        else:
            self.telemetry = NO_TELEMETRY
        self.telemetry.bind(self.clock)
        #: Boundary-stream recorder: every interface site (launches,
        #: hypercalls, vmexits, device calls) reports through it; the
        #: default :data:`NO_RECORD` makes each report a no-op.
        self.recorder = recorder if recorder is not None else NO_RECORD
        #: Active :class:`~repro.replay.substrate.ReplaySession`, when
        #: this Wasp re-executes a recorded boundary stream instead of
        #: running a live guest.
        self.replay = replay
        if isinstance(backend, str):
            if backend not in VM_DEVICES:
                raise ValueError(
                    f"unknown VMM backend {backend!r} (use "
                    f"{', '.join(map(repr, VM_DEVICES))}, or an "
                    f"IsolationBackend; create_host builds the software ones)")
            device_args = dict(fault_plan=self.fault_plan, tracer=self.tracer,
                               fast_paths=fast_paths, recorder=self.recorder,
                               calls=VM_DEVICES[backend])
            if replay is None:
                device = KVM(self.clock, self.costs, **device_args)
            else:
                # The replay substrate's device feeds recorded vmexits to
                # the handler plane and never builds a guest interpreter.
                from repro.replay.substrate import ReplayDevice

                device = ReplayDevice(self.clock, self.costs, session=replay,
                                      **device_args)
            backend = VmBackend(device)
        if backend.device is None and (recorder is not None or replay is not None):
            raise ValueError(
                f"record/replay needs a VM backend, not {backend.name!r}")
        #: The isolation mechanism every launch runs under.
        self.isolation: IsolationBackend = backend
        backend.tracer = self.tracer
        #: Its declared capabilities (conformance gates on these).
        self.caps = backend.caps
        self.backend = backend.name
        #: The VM device, over either call table (``None`` on software
        #: backends).
        self.kvm = backend.device
        self.background = BackgroundAccountant()
        #: Reset-state registry.  The in-memory :class:`SnapshotStore`
        #: by default; pass a :class:`repro.store.cas.DurableSnapshotStore`
        #: for content-addressed, journaled, crash-consistent storage
        #: (same surface -- the launch path additionally absorbs its
        #: :class:`~repro.store.cas.SnapshotGone` GC-race signal).
        self.snapshots = snapshot_store if snapshot_store is not None else SnapshotStore()
        self.canned = CannedHandlers(self.kernel)
        self._pools: dict[int, ShellPool] = {}
        self.launches = 0
        #: High-water marks of the JIT domain's monotonic stats already
        #: drained into telemetry counters (delta harvest per launch).
        self._jit_harvested: dict[tuple, int] = {}
        #: Launches killed by step budget or cycle deadline.
        self.timeouts = 0
        #: Snapshot restores that failed integrity and fell back cold.
        self.snapshot_fallbacks = 0
        #: The attached :class:`repro.wasp.supervisor.Supervisor`, if any
        #: (set by the supervisor; read by :func:`repro.wasp.metrics.collect`).
        self.supervisor = None
        #: The attached :class:`repro.wasp.admission.Watchdog`, if any
        #: (set by the watchdog; consulted at every preemption point).
        self.watchdog = None

    # -- pools ---------------------------------------------------------------
    def memory_size_for(self, image: VirtineImage) -> int:
        """The pool bucket an image's virtines draw shells from."""
        return self.isolation.memory_size_for(image)

    def pool_for(self, memory_size: int) -> ShellPool:
        if memory_size not in self._pools:
            self._pools[memory_size] = ShellPool(
                self.isolation, memory_size, background=self.background,
                fault_plan=self.fault_plan, telemetry=self.telemetry,
            )
        return self._pools[memory_size]

    # -- launch ------------------------------------------------------------------
    def launch(
        self,
        image: VirtineImage,
        *,
        policy: Policy | None = None,
        handlers: dict[Hypercall, Callable] | None = None,
        resources: dict[int, Any] | None = None,
        allowed_paths: tuple[str, ...] | None = None,
        args: Any = None,
        use_snapshot: bool = True,
        snapshot_key: str | None = None,
        restore_mode: RestoreMode = RestoreMode.EAGER,
        pooled: bool | None = None,
        clean: CleanMode = CleanMode.SYNC,
        max_steps: int = 50_000_000,
        deadline_cycles: int | None = None,
        deadline: "Deadline | None" = None,
    ) -> VirtineResult:
        """Run ``image`` in a fresh virtine and return its result.

        ``pooled=False`` forces scratch context creation (the "Wasp"
        series of Figure 8); otherwise shells are drawn from and returned
        to the per-size pool under the ``clean`` discipline.  The default
        is the backend's declared ``caps.pooled``: cheap-to-create
        mechanisms (SUD, threads) build scratch contexts.  When
        ``use_snapshot`` is set and the image has a stored reset state,
        boot and runtime initialisation are skipped (Figure 7) -- unless
        its integrity checksum mismatches, in which case the launch falls
        back to a cold boot and the rotted snapshot is dropped.

        Image install, snapshots, and the ISA run loop (``use_snapshot``,
        ``snapshot_key``, ``restore_mode``, ``max_steps``) apply only to
        VM shells; a software context runs the image's hosted entry
        between the backend's enter and exit crossings.

        ``deadline_cycles`` bounds the launch's *total* simulated-cycle
        budget; exceeding it (or ``max_steps``) raises a typed
        :class:`VirtineTimeout`.  ``deadline`` instead carries an
        *absolute* request-scoped
        :class:`~repro.wasp.admission.Deadline` minted where the request
        entered the system, so time already burned upstream (queueing,
        admission) counts against the same budget; when both are given
        the absolute deadline wins.  A launch that crashes for any reason
        never returns its shell to the pool unscrubbed -- the shell is
        quarantined (scrub + generation bump) instead.
        """
        isolation = self.isolation
        # The one "is this a VM?" decision: only a VM backend has a device.
        on_vm = isolation.device is not None
        if not on_vm and image.hosted_entry is None:
            raise VirtineCrash(
                f"backend {self.backend!r} hosts Python entries only; "
                f"image {image.name!r} has none"
            )
        if pooled is None:
            pooled = self.caps.pooled
        self.launches += 1
        self.recorder.launch_begin(image.name, pooled, use_snapshot)
        pool = self.pool_for(self.memory_size_for(image))
        region = self.clock.region()
        # The launch root span opens with the measurement region and
        # closes (in the outer ``finally``) after teardown, so its cycle
        # count equals ``VirtineResult.cycles`` exactly: nothing advances
        # the clock between ``region.stop()`` and the span's end.
        launch_span = self.tracer.begin(
            f"launch:{image.name}", Category.LAUNCH,
            image=image.name, pooled=pooled,
        )
        try:
            shell = pool.acquire() if pooled else pool.create_scratch()
            virtine = self._make_virtine(image, shell, policy, handlers, resources, allowed_paths)
            virtine.snapshot_key = snapshot_key or image.name
            virtine.started_cycles = self.clock.cycles
            virtine.last_beat_cycles = self.clock.cycles
            if deadline is not None:
                virtine.deadline = int(deadline.expires_at)
            elif deadline_cycles is not None:
                virtine.deadline = self.clock.cycles + deadline_cycles
            from_snapshot = False
            crashed = False
            try:
                if on_vm:
                    # VM-only steps: snapshot restore or image install,
                    # then the ISA run loop.
                    snap = None
                    if use_snapshot:
                        try:
                            snap = self._usable_snapshot(virtine.snapshot_key)
                        except SnapshotGone as gone:
                            shell = self._replace_gone_shell(pool, shell, pooled, gone)
                            virtine.shell = shell
                    if snap is not None:
                        from_snapshot = True
                        self._restore_snapshot(virtine, snap, restore_mode)
                        if snap.hosted:
                            self._run_hosted(virtine, args, restored=snap.payload_copy(),
                                             from_snapshot=True)
                        self._run_loop(virtine, args, max_steps)
                    else:
                        self._install_image(virtine)
                        self._run_loop(virtine, args, max_steps)
                    final_ax = shell.vm.cpu.regs["ax"]
                else:
                    isolation.prepare_launch(virtine)
                    self.clock.advance(isolation.enter_cycles())
                    self._run_hosted(virtine, args, restored=None)
                    self.clock.advance(isolation.exit_cycles())
                    final_ax = 0
                milestones = [(m.marker, m.cycles) for m in shell.vm.milestones]
            except BaseException:
                crashed = True
                raise
            finally:
                self._close_virtine_fds(virtine)
                if pooled:
                    if crashed:
                        pool.quarantine(shell)
                    else:
                        pool.release(shell, clean)
                else:
                    isolation.destroy(shell)
            launch_span.annotate(from_snapshot=from_snapshot)
        except BaseException as error:
            launch_span.annotate(error=type(error).__name__)
            self.recorder.launch_end(image.name, type(error).__name__,
                                     detail=str(error))
            self.telemetry.counter("launch_failures_total", image=image.name,
                                   error=type(error).__name__).inc()
            self.telemetry.record_flight("launch", "crash", image=image.name,
                                         error=type(error).__name__)
            raise
        finally:
            self.tracer.end(launch_span)
            self._harvest_jit_telemetry()
        self.recorder.launch_end(
            image.name, "ok", exit_code=virtine.exit_code,
            from_snapshot=from_snapshot,
            hypercalls=virtine.hypercall_count, ax=final_ax)
        # Nothing advances the clock between here and the region stop in
        # the result below, so the histogram sample equals
        # ``VirtineResult.cycles`` exactly.
        elapsed = region.stop()
        telemetry = self.telemetry
        telemetry.counter("launches_total", image=image.name,
                          backend=self.backend).inc()
        telemetry.histogram("launch_cycles", image=image.name).record(elapsed)
        telemetry.record_flight("launch", "ok", image=image.name,
                                cycles_cost=elapsed,
                                from_snapshot=from_snapshot)
        return VirtineResult(
            value=virtine.result,
            exit_code=virtine.exit_code,
            cycles=elapsed,
            hypercall_count=virtine.hypercall_count,
            audit=virtine.audit,
            from_snapshot=from_snapshot,
            ax=final_ax,
            milestones=milestones,
        )

    def _harvest_jit_telemetry(self) -> None:
        """Drain JIT-domain stat deltas into dimensional counters.

        The domain's plain-int stats are monotonic; this folds the growth
        since the previous harvest into telemetry (image-labelled where
        the stat is per-image).  Skipped outright with telemetry off:
        :attr:`telemetry` is fixed at construction, so no delta a later
        harvest would need is ever lost.  Never reads or advances the
        clock, so the sim-cost contract holds.
        """
        domain = getattr(self.kvm, "jit_domain", None)
        if domain is None or self.telemetry is NO_TELEMETRY:
            return
        telemetry = self.telemetry
        seen = self._jit_harvested
        for reason, total in domain.side_exits.items():
            delta = total - seen.get(("exit", reason), 0)
            if delta > 0:
                telemetry.counter("jit_side_exits_total",
                                  reason=reason).inc(delta)
                seen[("exit", reason)] = total
        for name, total in domain.counters.items():
            delta = total - seen.get(("ctr", name), 0)
            if delta > 0:
                telemetry.counter(f"jit_{name}_total").inc(delta)
                seen[("ctr", name)] = total
        for cache in domain.images():
            stats = cache.stats()
            for stat in ("compiles", "invalidations",
                         "warm_hits", "warm_misses"):
                total = stats[stat]
                delta = total - seen.get((stat, cache.name), 0)
                if delta > 0:
                    telemetry.counter(f"jit_{stat}_total",
                                      image=cache.name).inc(delta)
                    seen[(stat, cache.name)] = total

    def session(self, image: VirtineImage, **kwargs: Any) -> "VirtineSession":
        """Open a retained-context session (the "no teardown" mode)."""
        return VirtineSession(self, image, **kwargs)

    # -- internals ------------------------------------------------------------------
    def _make_virtine(
        self,
        image: VirtineImage,
        shell: Shell,
        policy: Policy | None,
        handlers: dict[Hypercall, Callable] | None,
        resources: dict[int, Any] | None,
        allowed_paths: tuple[str, ...] | None,
    ) -> Virtine:
        table = dict(self.canned.table())
        if handlers:
            table.update(handlers)
        virtine = Virtine(
            name=image.name,
            image=image,
            shell=shell,
            policy=policy if policy is not None else DefaultDenyPolicy(),
            handlers=table,
            resources=dict(resources or {}),
            allowed_path_prefixes=allowed_paths,
        )
        virtine.policy.reset()
        return virtine

    def _install_image(self, virtine: Virtine) -> None:
        """Cold path: copy the image into guest memory and reset the vCPU."""
        image = virtine.image
        vm = virtine.shell.vm
        with self.tracer.span("image.install", Category.BOOT, bytes=image.size):
            vm.reset()
            cost = self.costs.memcpy(image.size)
            self.clock.advance(cost)
            self.telemetry.counter("component_cycles_total",
                                   component="image.install").inc(int(cost))
            vm.memory.load_bytes(image.image_bytes, image.program.base)
            vm.interp.attach_program(image.program)

    def _usable_snapshot(self, key: str) -> Snapshot | None:
        """Fetch and integrity-check a stored reset state.

        This is the snapshot-corruption injection point: the plan can rot
        a stored bit here, exactly like cold storage would.  Verification
        is charged at checksum bandwidth; a mismatch drops the snapshot
        (it would poison every future restore) and returns ``None`` so
        the caller boots cold -- graceful degradation, not a crash.
        """
        snap = self.snapshots.get(key)
        if snap is None:
            return None
        with self.tracer.span("snapshot.verify", Category.SNAPSHOT, key=key) as span:
            if self.fault_plan.draw(FaultSite.SNAPSHOT_RESTORE, key):
                snap.corrupt()
            cost = self.costs.checksum(snap.copy_size)
            self.clock.advance(cost)
            self.telemetry.counter("component_cycles_total",
                                   component="snapshot.verify").inc(int(cost))
            if not snap.verify():
                self.snapshots.drop(key)
                self.snapshots.integrity_failures += 1
                self.snapshot_fallbacks += 1
                self.telemetry.counter("snapshot_fallbacks_total",
                                       reason="corrupt").inc()
                self.telemetry.record_flight("snapshot", "corrupt", key=key)
                span.annotate(outcome="corrupt")
                return None
            span.annotate(outcome="ok")
            return snap

    def _replace_gone_shell(
        self, pool: Any, shell: Shell, pooled: bool, gone: SnapshotGone,
    ) -> Shell:
        """Absorb the GC-vs-restore race: the reset state promised to
        this shell was collected between acquire and restore.

        The half-prepared shell is quarantined (reset + synchronous
        scrub + generation bump -- it must never re-enter circulation
        carrying provisioning state for an image that no longer has a
        reset state) and a fresh shell is provisioned for the cold
        boot.  The launch degrades, it does not raise.
        """
        self.snapshot_fallbacks += 1
        self.tracer.instant("snapshot.gone", Category.SNAPSHOT, key=gone.key)
        self.telemetry.counter("snapshot_fallbacks_total", reason="gone").inc()
        self.telemetry.record_flight("snapshot", "gone", key=gone.key)
        if pooled:
            pool.quarantine_defect(shell)
            return pool.acquire()
        self.isolation.destroy(shell)
        return pool.create_scratch()

    def check_deadline(self, virtine: Virtine) -> None:
        """Kill a virtine that has outlived its cycle deadline (or hung).

        Called at every natural preemption point (hypercall dispatch,
        vCPU exits, hosted compute charges); raises a typed
        :class:`VirtineTimeout` carrying what the launch consumed.  When
        a :class:`~repro.wasp.admission.Watchdog` is attached it is
        consulted at the same points, so hangs (no heartbeat) are killed
        even on launches with no explicit deadline.
        """
        if virtine.deadline is not None and self.clock.cycles > virtine.deadline:
            self.timeouts += 1
            consumed = self.clock.cycles - virtine.started_cycles
            self.tracer.instant("deadline.exceeded", Category.SUPERVISION,
                                consumed=consumed)
            self.telemetry.counter("timeouts_total", kind="deadline").inc()
            self.telemetry.record_flight("timeout", "deadline",
                                         virtine=virtine.name,
                                         consumed=consumed)
            raise VirtineTimeout(
                f"virtine {virtine.name!r} exceeded its cycle deadline "
                f"({consumed:,} cycles consumed)",
                cycles=consumed,
            )
        if self.watchdog is not None:
            try:
                self.watchdog.check(virtine, self.clock.cycles)
            except VirtineHang as hang:
                self.timeouts += 1
                kind = getattr(getattr(hang, "kind", None), "value", None)
                self.tracer.instant(
                    "watchdog.kill", Category.SUPERVISION, kind=kind,
                )
                self.telemetry.counter("timeouts_total", kind="watchdog").inc()
                self.telemetry.record_flight("timeout", "watchdog",
                                             virtine=virtine.name,
                                             hang_kind=kind)
                raise

    def charge_guest(self, virtine: Virtine, cycles: int) -> None:
        """Advance the clock for hosted-guest compute, clamped at the
        deadline.

        When the charge would blow past the virtine's deadline, only the
        remaining budget (plus the single cycle that trips the strict
        check) is consumed and the work is cancelled *mid-compute* -- the
        guest does not finish on borrowed time only to have the result
        discarded.
        """
        if cycles < 0:
            raise GuestFault(
                f"virtine {virtine.name!r} charged negative guest cycles "
                f"({cycles})"
            )
        self.recorder.hosted_charge(cycles)
        if virtine.deadline is not None:
            remaining = virtine.deadline - self.clock.cycles
            if cycles > remaining:
                charged = max(0, remaining) + 1
                self.clock.advance(charged)
                self.tracer.component("guest.compute", charged, Category.GUEST)
                self.telemetry.counter("component_cycles_total",
                                       component="guest.compute").inc(charged)
                self.timeouts += 1
                self.telemetry.counter("timeouts_total",
                                       kind="mid_compute").inc()
                self.telemetry.record_flight("timeout", "mid_compute",
                                             virtine=virtine.name)
                consumed = self.clock.cycles - virtine.started_cycles
                raise VirtineTimeout(
                    f"virtine {virtine.name!r} cancelled at its cycle "
                    f"deadline mid-compute ({consumed:,} cycles consumed)",
                    cycles=consumed,
                )
        self.clock.advance(cycles)
        self.tracer.component("guest.compute", cycles, Category.GUEST)
        self.telemetry.counter("component_cycles_total",
                               component="guest.compute").inc(int(cycles))
        self.check_deadline(virtine)

    def _beat(self, virtine: Virtine) -> None:
        """Record observable guest progress (the watchdog's heartbeat)."""
        virtine.last_beat_cycles = self.clock.cycles
        virtine.beats += 1

    def _restore_snapshot(
        self,
        virtine: Virtine,
        snap: Snapshot,
        mode: RestoreMode = RestoreMode.EAGER,
    ) -> None:
        """Warm path: install the reset state instead of booting."""
        vm = virtine.shell.vm
        with self.tracer.span("snapshot.restore", Category.SNAPSHOT,
                              mode=mode.value, pages=len(snap.pages)):
            if mode is RestoreMode.EAGER:
                cost = self.costs.memcpy(snap.copy_size)
                self.clock.advance(cost)
                self.telemetry.counter("component_cycles_total",
                                       component="snapshot.restore").inc(int(cost))
                if self.fast_paths:
                    # Coalesced contiguous-run slice copies; identical
                    # state effects (and charge) to the per-page loop.
                    vm.memory.restore_runs(snap.page_runs(), snap.pages)
                else:
                    vm.memory.restore_pages(dict(snap.pages))
            else:
                # CoW: cheap shared mappings now, per-page copies on write.
                cost = self.costs.COW_MAP_PER_PAGE * len(snap.pages)
                self.clock.advance(cost)
                self.telemetry.counter("component_cycles_total",
                                       component="snapshot.restore").inc(int(cost))
                if self.fast_paths:
                    vm.memory.restore_runs_cow(snap.page_runs(), snap.pages)
                else:
                    vm.memory.restore_pages_cow(dict(snap.pages))
            vm.memory.mark_touched(snap.pages.keys())
            vm.cpu.load_state(snap.cpu_state)
            vm.interp.attach_program(virtine.image.program, reset_rip=False)
            vm.milestones.clear()
            self.snapshots.note_restore()

    def _deadline_slice(self, virtine: Virtine, steps_left: int) -> int:
        """Bound one KVM_RUN's step budget by the virtine's deadline.

        Every interpreter step costs at least one cycle, so ``remaining
        + 1`` steps provably crosses the deadline; slicing the budget
        guarantees a spinning guest is cancelled at its deadline instead
        of running out its full (possibly enormous) step budget first.
        """
        if virtine.deadline is None:
            return steps_left
        remaining = virtine.deadline - self.clock.cycles
        return max(1, min(steps_left, remaining + 1))

    def _run_loop(self, virtine: Virtine, args: Any, max_steps: int,
                  persistent: dict | None = None) -> None:
        """Drive KVM_RUN until the guest halts or exits.

        ``persistent`` is a session's retained state, handed to the
        hosted entry when the guest reaches the trampoline.
        """
        shell = virtine.shell
        steps_left = max_steps
        while True:
            if shell.vm.cpu.halted:
                return
            try:
                info = shell.vcpu.run(self._deadline_slice(virtine, steps_left))
            except InjectedFault as fault:
                # The KVM_RUN ioctl itself failed: a host-plane fault,
                # not the guest's doing.
                raise HostFault(
                    f"virtine {virtine.name!r} lost its vCPU: {fault}"
                ) from fault
            steps_left -= info.steps
            self.check_deadline(virtine)
            if info.reason is ExitReason.HLT:
                return
            if info.reason is ExitReason.IO_OUT:
                if info.port == HOSTED_ENTER_PORT:
                    self._run_hosted(virtine, args, restored=None,
                                     persistent=persistent)
                    continue
                if info.port == HCALL_PORT:
                    if self._isa_hypercall(virtine, info.value):
                        return
                    continue
                raise GuestFault(
                    f"virtine {virtine.name!r} wrote unknown port {info.port:#x}"
                )
            if info.reason is ExitReason.IO_IN:
                # No device model exists; reads of unknown ports yield 0.
                shell.vcpu.complete_io_in(info.in_dest, 0)
                continue
            if info.detail == STEP_BUDGET_EXHAUSTED:
                if steps_left > 0:
                    # Only the deadline slice ran dry, not the caller's
                    # budget, and the deadline check above let us
                    # through -- keep driving the guest.
                    continue
                self.timeouts += 1
                self.telemetry.counter("timeouts_total",
                                       kind="step_budget").inc()
                self.telemetry.record_flight("timeout", "step_budget",
                                             virtine=virtine.name)
                raise VirtineTimeout(
                    f"virtine {virtine.name!r} exhausted its step budget "
                    f"({max_steps - steps_left:,} steps)",
                    steps=max_steps - steps_left,
                    cycles=self.clock.cycles - virtine.started_cycles,
                )
            raise GuestFault(f"virtine {virtine.name!r} shut down: {info.detail}")

    def _run_hosted(self, virtine: Virtine, args: Any, restored: Any,
                    persistent: dict | None = None,
                    from_snapshot: bool = False) -> None:
        """Execute the image's hosted entry function in guest context.

        Under replay (:attr:`replay` set) the recorded boundary stream
        stands in for the entry body: a
        :class:`~repro.replay.substrate.ScriptedEntry` re-issues the
        recorded boundary ops against this same handler plane, so every
        crash below re-fires from the handlers exactly as it did live.
        """
        if self.replay is not None:
            entry = self.replay.scripted_entry(virtine.name)
        else:
            entry = virtine.image.hosted_entry
            if entry is None:
                raise VirtineCrash(
                    f"virtine {virtine.name!r} reached the hosted trampoline "
                    "but its image has no hosted entry"
                )
        env = GuestEnv(self, virtine, args=args, restored=restored,
                       persistent=persistent, from_snapshot=from_snapshot)
        recorder = self.recorder
        recorder.hosted_begin()
        try:
            with self.tracer.span("guest.hosted", Category.GUEST):
                virtine.result = entry(env)
        except GuestExitRequested:
            recorder.hosted_end(["exit"])
        except ReplayDivergence:
            # A strict-replay verdict about the *hypervisor*, not the
            # guest: it must escape the crash taxonomy untouched.
            recorder.hosted_end(["divergence"])
            raise
        except (HypercallDenied, IsolationKill) as error:
            # A guest that trips the policy dies -- by catchable denial or
            # by the mechanism's uncatchable kill; the host and other
            # virtines are unaffected (Section 3.3).
            crash = PolicyKill(f"virtine {virtine.name!r} killed: {error}")
            recorder.hosted_end(["crash", "PolicyKill", str(crash)])
            raise crash from error
        except BackendViolation as error:
            # The mechanism's own trap (mprotect fault, gate misuse):
            # untrusted code did something forbidden -- a guest fault.
            crash = GuestFault(f"virtine {virtine.name!r} faulted: {error}")
            recorder.hosted_end(["crash", "GuestFault", str(crash)])
            raise crash from error
        except HypercallError as error:
            # An unhandled hypercall error kills the virtine.  Who is at
            # fault decides retryability: a host-plane errno (EIO,
            # ECONNRESET...) means the host failed underneath a valid
            # request; anything else means the guest passed bad arguments.
            if error.errno_name in HOST_PLANE_ERRNOS:
                crash: VirtineCrash = HostFault(
                    f"virtine {virtine.name!r} killed by host failure: {error}"
                )
            else:
                crash = GuestFault(f"virtine {virtine.name!r} killed: {error}")
            recorder.hosted_end(["crash", type(crash).__name__, str(crash)])
            raise crash from error
        except VirtineCrash as crash:
            recorder.hosted_end(["crash", type(crash).__name__, str(crash)])
            raise
        except Exception as error:
            # An errant guest (the paper's example: a bad strcpy) crashes
            # only its own virtine; the fault is reported, not propagated
            # as a host failure.
            crash = GuestFault(
                f"virtine {virtine.name!r} faulted: {type(error).__name__}: {error}"
            )
            recorder.hosted_end(["crash", "GuestFault", str(crash)])
            raise crash from error
        else:
            recorder.hosted_end(["return", encode_value(virtine.result)])

    #: Largest single buffer an assembly guest may move per hypercall.
    ISA_MAX_TRANSFER = 1 << 20

    def _isa_hypercall(self, virtine: Virtine, nr_value: int) -> bool:
        """Dispatch an ``out HCALL_PORT, nr`` from assembly guest code.

        Register ABI (the co-designed convention of Section 5.1):

        * ``bx`` -- scalar argument (fd, handle, exit code, open flags)
        * ``cx`` -- guest-physical buffer address (data hypercalls)
        * ``dx`` -- buffer length
        * ``ax`` -- result on return (byte count / fd / size), or the
          all-ones error value when the handler rejects the call.

        Data crossing the boundary is copied through guest memory with
        memcpy cost, exactly like the hosted path.  Returns True when the
        virtine is done (EXIT).
        """
        try:
            nr = Hypercall(nr_value)
        except ValueError:
            raise GuestFault(f"virtine {virtine.name!r}: bad hypercall {nr_value}")
        vm = virtine.shell.vm
        cpu = vm.cpu
        bx = cpu.read_reg("bx")
        cx = cpu.read_reg("cx")
        dx = cpu.read_reg("dx")
        virtine.hypercall_count += 1
        self._beat(virtine)
        self.telemetry.counter("hypercalls_total", nr=nr.name).inc()
        try:
            with self.tracer.span(f"hypercall:{nr.name}", Category.HYPERCALL):
                exited = self._isa_hypercall_body(virtine, nr, bx, cx, dx)
        except HypercallDenied as denied:
            # Same fate as a hosted guest tripping the policy.
            raise PolicyKill(f"virtine {virtine.name!r} killed: {denied}") from denied
        self.recorder.isa_hypercall(nr.value, bx, cx, dx,
                                    cpu.read_reg("ax"), exited)
        return exited

    #: Hypercall numbers whose cx/dx registers name a guest buffer.
    _ISA_BUFFER_CALLS = frozenset({
        Hypercall.READ, Hypercall.RECV, Hypercall.WRITE, Hypercall.SEND,
        Hypercall.OPEN, Hypercall.STAT,
    })

    def _check_isa_buffer(
        self, virtine: Virtine, nr: Hypercall, cx: int, dx: int, size: int
    ) -> None:
        """Validate a guest-supplied buffer descriptor before any handler
        or memory path sees it.

        A hostile guest controls cx/dx completely; descriptors that are
        negative or straddle the guest-physical limit must land in the
        crash taxonomy as a precise :class:`GuestFault`, never surface as
        an ``IndexError``/``struct.error`` from the copy machinery.
        """
        if nr not in self._ISA_BUFFER_CALLS:
            return
        if dx < 0:
            raise GuestFault(
                f"virtine {virtine.name!r}: hypercall {nr.name} passed a "
                f"negative buffer length ({dx})"
            )
        if cx < 0:
            raise GuestFault(
                f"virtine {virtine.name!r}: hypercall {nr.name} passed a "
                f"negative buffer address ({cx})"
            )
        # Clamp to the per-call transfer cap first: oversized lengths are
        # the handlers' EINVAL/ENAMETOOLONG business, not a memory fault.
        limit = 4096 if nr in (Hypercall.OPEN, Hypercall.STAT) else self.ISA_MAX_TRANSFER
        window = min(dx, limit)
        if cx + window > size:
            raise GuestFault(
                f"virtine {virtine.name!r}: hypercall {nr.name} buffer "
                f"[{cx:#x}, {cx + window:#x}) straddles the guest-physical "
                f"limit {size:#x}"
            )

    def _isa_hypercall_body(
        self, virtine: Virtine, nr: Hypercall, bx: int, cx: int, dx: int
    ) -> bool:
        vm = virtine.shell.vm
        cpu = vm.cpu
        self._check_isa_buffer(virtine, nr, cx, dx, vm.memory.size)
        if nr is Hypercall.EXIT:
            self._policy_gate(virtine, nr)
            virtine.exit_code = bx
            return True
        if nr is Hypercall.SNAPSHOT:
            self._policy_gate(virtine, nr)
            self._capture(virtine, payload=None, hosted=False)
            return False
        error_value = cpu.mode.mask  # all-ones: the guest-visible errno
        try:
            if nr in (Hypercall.READ, Hypercall.RECV):
                count = min(dx, self.ISA_MAX_TRANSFER)
                data = self._dispatch(virtine, nr, (bx, count))
                self.clock.advance(self.costs.memcpy(len(data)))
                vm.memory.write(cx, data)
                cpu.write_reg("ax", len(data))
            elif nr in (Hypercall.WRITE, Hypercall.SEND):
                if dx > self.ISA_MAX_TRANSFER:
                    raise HypercallError(nr, "EINVAL", f"transfer {dx} too large")
                data = vm.memory.read(cx, dx)
                self.recorder.attach_guest_buffer(cx, data)
                self.clock.advance(self.costs.memcpy(len(data)))
                cpu.write_reg("ax", int(self._dispatch(virtine, nr, (bx, data))))
            elif nr in (Hypercall.OPEN, Hypercall.STAT):
                if dx > 4096:
                    raise HypercallError(nr, "ENAMETOOLONG", f"path length {dx}")
                raw = vm.memory.read(cx, dx)
                self.recorder.attach_guest_buffer(cx, raw)
                path = raw.decode("utf-8", errors="strict")
                args = (path, bx) if nr is Hypercall.OPEN else (path,)
                cpu.write_reg("ax", int(self._dispatch(virtine, nr, args)))
            elif nr is Hypercall.CLOSE:
                self._dispatch(virtine, nr, (bx,))
                cpu.write_reg("ax", 0)
            else:
                # Remaining numbers carry scalars only.
                result = self._dispatch(virtine, nr, (bx, cx))
                cpu.write_reg("ax", int(result) if isinstance(result, int) else 0)
        except GuestMemoryError as error:
            # The descriptor check above bounds the *window*; a handler
            # returning more data than the guest's buffer can hold (or a
            # fuzzer-forged descriptor) still lands here, typed.
            raise GuestFault(
                f"virtine {virtine.name!r}: hypercall {nr.name} touched "
                f"memory outside the guest ({error})"
            ) from error
        except HypercallError as error:
            virtine.audit.record(nr, allowed=True, detail=str(error))
            cpu.write_reg("ax", error_value)
        except UnicodeDecodeError:
            cpu.write_reg("ax", error_value)
        return False

    # -- hypercall dispatch -------------------------------------------------------------
    def dispatch_hosted_hypercall(self, virtine: Virtine, nr: Hypercall, args: tuple) -> Any:
        """Full-cost hypercall from a hosted guest: exit, dispatch, re-enter.

        The boundary is the backend's: on KVM the exits are "doubly
        expensive due to the ring transitions necessitated by KVM"
        (Section 6.3) -- the world switch out, the ioctl return to
        userspace, the handler's own host syscalls, and the ioctl + world
        switch back in; SUD pays its SIGSYS bounce, a container its IPC
        and seccomp walk.  What a policy denial *does* is the backend's
        too (:meth:`~repro.host.backend.IsolationBackend.on_denied`).
        """
        isolation = self.isolation
        boundary = self.telemetry.counter("component_cycles_total",
                                          component="hypercall.boundary")
        with self.tracer.span(f"hypercall:{nr.name}", Category.HYPERCALL):
            out_cost = isolation.gate_out_cycles(virtine, nr)
            self.clock.advance(out_cost)
            boundary.inc(int(out_cost))
            virtine.hypercall_count += 1
            self.telemetry.counter("hypercalls_total", nr=nr.name).inc()
            # Open the op now so a mid-dispatch escape (timeout, stall
            # kill, injected fault) is visible as an op with no outcome.
            op = self.recorder.hosted_hypercall_begin(nr.value, args)
            if self.fault_plan.draw(FaultSite.GUEST_STALL, virtine.name):
                # The guest wedged before this hypercall landed: cycles pass
                # with no heartbeat, which an armed watchdog classifies as a
                # no-progress hang at the check below.
                self.tracer.instant("guest.stall", Category.GUEST,
                                    virtine=virtine.name)
                self.clock.advance(GUEST_STALL_CYCLES)
            self.check_deadline(virtine)
            self._beat(virtine)
            try:
                result = self._dispatch(virtine, nr, args)
                self._charge_marshalling(args, result)
                self.recorder.hosted_hypercall_end(op, "ok", result)
                return result
            except HypercallDenied as denied:
                self.recorder.hosted_hypercall_end(op, "denied")
                isolation.on_denied(virtine, nr, denied)
                raise
            except HypercallError as error:
                self.recorder.hosted_hypercall_end(op, "error", str(error))
                raise
            finally:
                back_cost = isolation.gate_back_cycles(virtine, nr)
                self.clock.advance(back_cost)
                boundary.inc(int(back_cost))

    def _charge_marshalling(self, args: tuple, result: Any) -> None:
        """Data crossing the boundary is copied, not shared (Section 3)."""
        moved = sum(len(a) for a in args if isinstance(a, (bytes, bytearray)))
        if isinstance(result, (bytes, bytearray)):
            moved += len(result)
        if moved:
            self.clock.advance(self.costs.memcpy(moved))

    def _policy_gate(self, virtine: Virtine, nr: Hypercall) -> None:
        policy_gate(virtine, nr)

    def _dispatch(self, virtine: Virtine, nr: Hypercall, args: tuple) -> Any:
        return dispatch_handler(virtine, nr, args)

    # -- snapshots ------------------------------------------------------------------------
    def capture_snapshot(self, virtine: Virtine, payload: Any) -> None:
        """SNAPSHOT hypercall from a hosted guest (policy-checked).

        Snapshots are a declared capability: a backend without one
        rejects the hypercall *typed* (ENOSYS -> GuestFault) before
        anything is charged, never as an untyped surprise.
        """
        if not self.caps.snapshot:
            raise HypercallError(
                Hypercall.SNAPSHOT, "ENOSYS",
                f"backend {self.backend!r} cannot capture reset states",
            )
        isolation = self.isolation
        with self.tracer.span("hypercall:SNAPSHOT", Category.HYPERCALL):
            self.clock.advance(isolation.gate_out_cycles(virtine, Hypercall.SNAPSHOT))
            virtine.hypercall_count += 1
            self.recorder.hosted_snapshot(payload)
            try:
                self._policy_gate(virtine, Hypercall.SNAPSHOT)
                self._capture(virtine, payload, hosted=True)
            finally:
                self.clock.advance(isolation.gate_back_cycles(virtine, Hypercall.SNAPSHOT))

    def _capture(self, virtine: Virtine, payload: Any, hosted: bool) -> None:
        vm = virtine.shell.vm
        with self.tracer.span("snapshot.capture", Category.SNAPSHOT) as span:
            pages = vm.memory.capture_dirty()
            self.recorder.mem_capture(sorted(pages))
            snap = Snapshot(
                image_name=virtine.image.name,
                pages=pages,
                cpu_state=vm.cpu.save_state(),
                hosted_payload=copy.deepcopy(payload),
                hosted=hosted,
            )
            cost = self.costs.memcpy(snap.copy_size)
            self.clock.advance(cost)
            self.telemetry.counter("component_cycles_total",
                                   component="snapshot.capture").inc(int(cost))
            self.telemetry.counter("snapshot_captures_total").inc()
            span.annotate(pages=len(pages))
            self.snapshots.put(getattr(virtine, "snapshot_key", virtine.image.name), snap)

    # -- cleanup --------------------------------------------------------------------------
    def _close_virtine_fds(self, virtine: Virtine) -> None:
        """Close any host fds the virtine leaked (isolation hygiene)."""
        for fd in list(virtine.owned_fds):
            try:
                self.kernel.fs.close(fd)
            except Exception:
                pass
            virtine.owned_fds.discard(fd)


class VirtineSession:
    """A retained virtine: one shell and runtime kept across invocations.

    Implements the "no teardown" optimisation of Section 6.5: "since all
    virtines are cleared and reset after execution, paying the cost of
    tearing down the JavaScript engine can be avoided ... by retaining
    it."  Only safe when every invocation belongs to the same trust
    domain; the session's shell never returns to the shared pool until
    :meth:`close`.
    """

    def __init__(
        self,
        wasp: Wasp,
        image: VirtineImage,
        *,
        policy: Policy | None = None,
        handlers: dict[Hypercall, Callable] | None = None,
        resources: dict[int, Any] | None = None,
        allowed_paths: tuple[str, ...] | None = None,
        use_snapshot: bool = True,
    ) -> None:
        if wasp.isolation.device is None:
            raise ValueError(
                f"a session retains a VM shell; backend {wasp.backend!r} has none")
        self.wasp = wasp
        self.image = image
        self.use_snapshot = use_snapshot
        self._pool = wasp.pool_for(wasp.memory_size_for(image))
        self._shell: Shell | None = None
        self._virtine: Virtine | None = None
        self._persistent: dict = {}
        self._policy = policy
        self._handlers = handlers
        self._resources = resources
        self._allowed_paths = allowed_paths
        self.invocations = 0

    def invoke(
        self,
        args: Any = None,
        max_steps: int = 50_000_000,
        deadline_cycles: int | None = None,
        deadline: "Deadline | None" = None,
    ) -> VirtineResult:
        """Run one invocation, reusing the retained context if present.

        A crashing invocation poisons the retained context: the shell is
        quarantined (never blindly reinserted into the shared pool), the
        persistent state is discarded, and the next :meth:`invoke`
        rebuilds from scratch.
        """
        with self.wasp.tracer.span(f"invoke:{self.image.name}", Category.LAUNCH,
                                   image=self.image.name, session=True):
            try:
                return self._invoke(args, max_steps, deadline_cycles, deadline)
            except VirtineCrash:
                self._abandon_crashed()
                raise

    def _invoke(
        self, args: Any, max_steps: int, deadline_cycles: int | None,
        deadline: "Deadline | None" = None,
    ) -> VirtineResult:
        wasp = self.wasp
        region = wasp.clock.region()
        from_snapshot = False
        if self._shell is None:
            self._shell = self._pool.acquire()
            self._virtine = wasp._make_virtine(
                self.image, self._shell, self._policy, self._handlers,
                self._resources, self._allowed_paths,
            )
            self._virtine.snapshot_key = self.image.name
            self._arm(deadline_cycles, deadline)
            snap = None
            if self.use_snapshot:
                try:
                    snap = wasp._usable_snapshot(self.image.name)
                except SnapshotGone as gone:
                    self._shell = wasp._replace_gone_shell(
                        self._pool, self._shell, True, gone)
                    self._virtine.shell = self._shell
            if snap is not None and snap.hosted:
                from_snapshot = True
                wasp._restore_snapshot(self._virtine, snap)
                wasp._run_hosted(
                    self._virtine, args,
                    restored=snap.payload_copy(), persistent=self._persistent,
                    from_snapshot=True,
                )
                wasp._run_loop(self._virtine, args, max_steps, self._persistent)
            else:
                wasp._install_image(self._virtine)
                wasp._run_loop(self._virtine, args, max_steps, self._persistent)
        else:
            # Warm re-entry: the runtime inside the retained context is
            # still alive; one run-call round trip re-enters it.
            virtine = self._virtine
            assert virtine is not None
            virtine.policy.reset()
            self._arm(deadline_cycles, deadline)
            wasp.clock.advance(wasp.isolation.enter_cycles() + wasp.costs.VMRUN_EXIT)
            wasp._run_hosted(virtine, args, restored=self._persistent.get("state"),
                             persistent=self._persistent)
        self.invocations += 1
        virtine = self._virtine
        assert virtine is not None
        return VirtineResult(
            value=virtine.result,
            exit_code=virtine.exit_code,
            cycles=region.stop(),
            hypercall_count=virtine.hypercall_count,
            audit=virtine.audit,
            from_snapshot=from_snapshot,
            ax=self._shell.vm.cpu.regs["ax"],
        )

    def _arm(self, deadline_cycles: int | None,
             deadline: "Deadline | None" = None) -> None:
        """Reset the per-invocation timeout accounting."""
        virtine = self._virtine
        assert virtine is not None
        virtine.started_cycles = self.wasp.clock.cycles
        virtine.last_beat_cycles = self.wasp.clock.cycles
        if deadline is not None:
            virtine.deadline = int(deadline.expires_at)
        else:
            virtine.deadline = (
                self.wasp.clock.cycles + deadline_cycles
                if deadline_cycles is not None else None
            )

    def _abandon_crashed(self) -> None:
        """Quarantine the shell and drop all retained state post-crash."""
        if self._shell is not None:
            self._pool.quarantine(self._shell)
            self._shell = None
            self._virtine = None
            self._persistent.clear()

    def close(self, clean: CleanMode = CleanMode.SYNC) -> None:
        """Release the retained shell back to the pool."""
        if self._shell is not None:
            self._pool.release(self._shell, clean)
            self._shell = None
            self._virtine = None
            self._persistent.clear()

    def __enter__(self) -> "VirtineSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
