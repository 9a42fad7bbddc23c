"""Wasp observability: an aggregated view over the hypervisor's state.

Production runtimes (Firecracker et al.) export counters; Wasp's live
state is spread over the pool(s), snapshot store, and background
accountant.  :func:`collect` gathers one consistent sample, suitable for
dashboards, capacity planning (shell pools), and the tests' invariant
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import cycles_to_us
from repro.wasp.hypervisor import Wasp


@dataclass(frozen=True)
class PoolMetrics:
    """One shell pool's counters."""

    memory_size: int
    free_shells: int
    hits: int
    misses: int
    #: Shells quarantined after hosting a crash.
    quarantines: int = 0
    #: Cached shells found defective on acquire and rebuilt.
    defects: int = 0
    #: Shells quarantined because their snapshot vanished (GC race)
    #: between acquire and restore.
    restore_defects: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class WaspMetrics:
    """A consistent sample of a Wasp instance's counters."""

    launches: int
    vms_created: int
    snapshot_captures: int
    snapshot_restores: int
    background_cycles: int
    background_operations: int
    host_syscalls: int
    clock_cycles: int
    pools: tuple[PoolMetrics, ...]
    # -- supervision plane (all zero when no faults and no supervisor) ----
    #: Launches killed for exceeding a deadline or step budget.
    timeouts: int = 0
    #: Snapshot restores that failed verification and fell back cold.
    snapshot_fallbacks: int = 0
    #: Snapshot integrity failures recorded by the store.
    snapshot_integrity_failures: int = 0
    #: Shells quarantined across all pools.
    quarantined_shells: int = 0
    #: Defective cached shells discarded across all pools.
    pool_defects: int = 0
    #: Supervisor retries performed.
    retries: int = 0
    #: Launches rejected by an open circuit breaker.
    breaker_rejections: int = 0
    #: Crash counts keyed by :class:`~repro.wasp.supervisor.CrashClass`
    #: value ("guest_fault", "host_fault", "policy_kill", "timeout").
    crashes_by_class: dict = field(default_factory=dict)
    #: Image name -> breaker state value ("closed"/"open"/"half_open").
    breaker_states: dict = field(default_factory=dict)
    # -- overload plane (all zero without an admission controller) --------
    #: VM fds released back to the device (created - closed = live).
    vms_closed: int = 0
    #: Requests the admission gate let through.
    admission_admitted: int = 0
    #: Requests shed before any work ran, keyed by decision value.
    admission_shed: dict = field(default_factory=dict)
    #: Admitted requests cancelled at their deadline.
    admission_timeouts: int = 0
    #: Deepest the bounded admission queue ever got.
    admission_queue_high_water: int = 0
    #: Watchdog kills keyed by hang kind ("no_progress"/"slow_progress").
    hangs_by_kind: dict = field(default_factory=dict)
    # -- snapshot-store plane ---------------------------------------------
    #: The snapshot store's own counter surface (backend, dedup ratio,
    #: GC/scrub/journal counters for a durable store).
    store: dict = field(default_factory=dict)

    @property
    def pool_hit_rate(self) -> float:
        hits = sum(p.hits for p in self.pools)
        misses = sum(p.misses for p in self.pools)
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def restores_per_launch(self) -> float:
        return self.snapshot_restores / self.launches if self.launches else 0.0

    def to_dict(self) -> dict:
        """A JSON-ready view of the sample (``repro metrics --json``).

        Nested dicts are key-sorted and pools are emitted in bucket-size
        order, so two samples of identical state serialize identically --
        stable under diff, like every other exported artifact.
        """
        return {
            "launches": self.launches,
            "vms_created": self.vms_created,
            "vms_closed": self.vms_closed,
            "snapshot_captures": self.snapshot_captures,
            "snapshot_restores": self.snapshot_restores,
            "restores_per_launch": self.restores_per_launch,
            "background_cycles": self.background_cycles,
            "background_operations": self.background_operations,
            "host_syscalls": self.host_syscalls,
            "clock_cycles": self.clock_cycles,
            "pool_hit_rate": self.pool_hit_rate,
            "pools": [
                {
                    "memory_size": pool.memory_size,
                    "free_shells": pool.free_shells,
                    "hits": pool.hits,
                    "misses": pool.misses,
                    "hit_rate": pool.hit_rate,
                    "quarantines": pool.quarantines,
                    "defects": pool.defects,
                    "restore_defects": pool.restore_defects,
                }
                for pool in self.pools
            ],
            "store": dict(sorted(self.store.items())),
            "timeouts": self.timeouts,
            "snapshot_fallbacks": self.snapshot_fallbacks,
            "snapshot_integrity_failures": self.snapshot_integrity_failures,
            "quarantined_shells": self.quarantined_shells,
            "pool_defects": self.pool_defects,
            "retries": self.retries,
            "breaker_rejections": self.breaker_rejections,
            "crashes_by_class": dict(sorted(self.crashes_by_class.items())),
            "breaker_states": dict(sorted(self.breaker_states.items())),
            "admission_admitted": self.admission_admitted,
            "admission_shed": dict(sorted(self.admission_shed.items())),
            "admission_timeouts": self.admission_timeouts,
            "admission_queue_high_water": self.admission_queue_high_water,
            "hangs_by_kind": dict(sorted(self.hangs_by_kind.items())),
        }

    def summary(self) -> str:
        """A human-readable one-screen report."""
        lines = [
            f"launches={self.launches}  vms_created={self.vms_created}  "
            f"pool_hit_rate={self.pool_hit_rate:.0%}",
            f"snapshots: captures={self.snapshot_captures} "
            f"restores={self.snapshot_restores}",
            f"background cleaning: {self.background_operations} ops, "
            f"{cycles_to_us(self.background_cycles):,.0f} us off the critical path",
            f"host syscalls={self.host_syscalls}  "
            f"clock={cycles_to_us(self.clock_cycles):,.0f} us",
        ]
        if self.store.get("backend") == "durable":
            lines.append(
                f"store: chunks={self.store.get('chunks', 0)} "
                f"dedup_ratio={self.store.get('dedup_ratio', 1.0):.2f} "
                f"gc_reclaimed={self.store.get('gc_reclaimed_chunks', 0)} "
                f"scrubs={self.store.get('scrub_passes', 0)}"
                f"/{self.store.get('scrub_repairs', 0)} repairs "
                f"journal={self.store.get('journal_records', 0)} records"
                f"/{self.store.get('journal_replays', 0)} replays"
            )
        crashes = sum(self.crashes_by_class.values())
        if crashes or self.retries or self.breaker_rejections or self.timeouts:
            by_class = " ".join(
                f"{name}={count}"
                for name, count in sorted(self.crashes_by_class.items())
                if count
            ) or "none"
            lines.append(
                f"supervision: crashes={crashes} ({by_class}) "
                f"retries={self.retries} timeouts={self.timeouts} "
                f"breaker_rejections={self.breaker_rejections}"
            )
            lines.append(
                f"  quarantined_shells={self.quarantined_shells} "
                f"pool_defects={self.pool_defects} "
                f"snapshot_fallbacks={self.snapshot_fallbacks}"
            )
            if self.breaker_states:
                states = " ".join(
                    f"{image}={state}"
                    for image, state in self.breaker_states.items()
                )
                lines.append(f"  breakers: {states}")
        shed_total = sum(self.admission_shed.values())
        hangs_total = sum(self.hangs_by_kind.values())
        if self.admission_admitted or shed_total or hangs_total:
            by_reason = " ".join(
                f"{name}={count}"
                for name, count in sorted(self.admission_shed.items())
                if count
            ) or "none"
            lines.append(
                f"admission: admitted={self.admission_admitted} "
                f"shed={shed_total} ({by_reason}) "
                f"timeouts={self.admission_timeouts} "
                f"queue_high_water={self.admission_queue_high_water}"
            )
            if hangs_total:
                by_kind = " ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.hangs_by_kind.items())
                    if count
                )
                lines.append(f"  watchdog kills: {by_kind}")
        for pool in self.pools:
            lines.append(
                f"  pool[{pool.memory_size >> 20} MB]: free={pool.free_shells} "
                f"hits={pool.hits} misses={pool.misses} ({pool.hit_rate:.0%})"
            )
        return "\n".join(lines)


#: Breaker-state merge order: the aggregate reports the most degraded
#: state any core observed for an image.
_BREAKER_SEVERITY = {"closed": 0, "half_open": 1, "open": 2}


def _merge_counts(dicts: list[dict]) -> dict:
    out: dict = {}
    for d in dicts:
        for key, count in d.items():
            out[key] = out.get(key, 0) + count
    return out


def _merge_stores(stores: list[dict]) -> dict:
    """Merge per-core store counter surfaces.

    Under ``cores=N`` every engine usually shares one snapshot store, so
    the samples are identical -- detect that and pass one through
    verbatim.  Genuinely distinct stores get integer counters summed,
    float rates averaged, and a ``backend`` of ``mixed`` when they
    disagree.
    """
    stores = [s for s in stores if s]
    if not stores:
        return {}
    if all(s == stores[0] for s in stores[1:]):
        return dict(stores[0])
    merged: dict = {}
    backends = {s.get("backend") for s in stores if "backend" in s}
    if backends:
        merged["backend"] = (backends.pop() if len(backends) == 1
                             else "mixed")
    keys = sorted({k for s in stores for k in s} - {"backend"})
    for key in keys:
        values = [s[key] for s in stores if key in s]
        if all(isinstance(v, bool) for v in values):
            merged[key] = any(values)
        elif any(isinstance(v, float) for v in values):
            merged[key] = sum(values) / len(values)
        elif all(isinstance(v, int) for v in values):
            merged[key] = sum(values)
        else:
            merged[key] = values[0]
    return merged


def aggregate(samples: list[WaspMetrics]) -> WaspMetrics:
    """Merge per-core samples into one cluster-wide :class:`WaspMetrics`.

    Throughput counters sum; ``clock_cycles`` is the makespan (max over
    cores -- the cores run in lockstep, so summing would overstate time
    by ``cores``x); ``admission_queue_high_water`` is the deepest any
    core's queue got; breaker states report the most degraded state any
    core observed; pools merge by memory bucket; keyed crash/shed/hang
    maps merge per key (the PR-3 ``hangs_by_kind`` merge semantics
    applied across cores).
    """
    if not samples:
        raise ValueError("aggregate() needs at least one sample")
    if len(samples) == 1:
        return samples[0]
    by_bucket: dict[int, list[PoolMetrics]] = {}
    for sample in samples:
        for pool in sample.pools:
            by_bucket.setdefault(pool.memory_size, []).append(pool)
    pools = tuple(
        PoolMetrics(
            memory_size=size,
            free_shells=sum(p.free_shells for p in group),
            hits=sum(p.hits for p in group),
            misses=sum(p.misses for p in group),
            quarantines=sum(p.quarantines for p in group),
            defects=sum(p.defects for p in group),
            restore_defects=sum(p.restore_defects for p in group),
        )
        for size, group in sorted(by_bucket.items())
    )
    breaker_states: dict[str, str] = {}
    for sample in samples:
        for image, state in sample.breaker_states.items():
            seen = breaker_states.get(image)
            if seen is None or (_BREAKER_SEVERITY.get(state, 0)
                                > _BREAKER_SEVERITY.get(seen, 0)):
                breaker_states[image] = state
    return WaspMetrics(
        launches=sum(s.launches for s in samples),
        vms_created=sum(s.vms_created for s in samples),
        snapshot_captures=sum(s.snapshot_captures for s in samples),
        snapshot_restores=sum(s.snapshot_restores for s in samples),
        background_cycles=sum(s.background_cycles for s in samples),
        background_operations=sum(s.background_operations for s in samples),
        host_syscalls=sum(s.host_syscalls for s in samples),
        clock_cycles=max(s.clock_cycles for s in samples),
        pools=pools,
        timeouts=sum(s.timeouts for s in samples),
        snapshot_fallbacks=sum(s.snapshot_fallbacks for s in samples),
        snapshot_integrity_failures=sum(
            s.snapshot_integrity_failures for s in samples),
        quarantined_shells=sum(p.quarantines for p in pools),
        pool_defects=sum(p.defects for p in pools),
        retries=sum(s.retries for s in samples),
        breaker_rejections=sum(s.breaker_rejections for s in samples),
        crashes_by_class=_merge_counts(
            [s.crashes_by_class for s in samples]),
        breaker_states=breaker_states,
        vms_closed=sum(s.vms_closed for s in samples),
        admission_admitted=sum(s.admission_admitted for s in samples),
        admission_shed=_merge_counts([s.admission_shed for s in samples]),
        admission_timeouts=sum(s.admission_timeouts for s in samples),
        admission_queue_high_water=max(
            s.admission_queue_high_water for s in samples),
        hangs_by_kind=_merge_counts([s.hangs_by_kind for s in samples]),
        store=_merge_stores([s.store for s in samples]),
    )


def collect(wasp: Wasp) -> WaspMetrics:
    """Sample every counter of ``wasp`` at this instant."""
    pools = tuple(
        PoolMetrics(
            memory_size=size,
            free_shells=pool.free_count,
            hits=pool.hits,
            misses=pool.misses,
            quarantines=pool.quarantines,
            defects=pool.defects,
            restore_defects=pool.restore_defects,
        )
        for size, pool in sorted(wasp._pools.items())
    )
    supervisor = getattr(wasp, "supervisor", None)
    crashes_by_class: dict[str, int] = {}
    breaker_states: dict[str, str] = {}
    retries = breaker_rejections = 0
    hangs_by_kind: dict[str, int] = {}
    admission = None
    if supervisor is not None:
        crashes_by_class = {
            crash_class.value: count
            for crash_class, count in supervisor.crashes_by_class.items()
        }
        breaker_states = supervisor.breaker_states()
        retries = supervisor.retries
        breaker_rejections = supervisor.breaker_rejections
        hangs_by_kind = {
            kind.value: count
            for kind, count in supervisor.hangs_by_kind.items()
        }
        admission = supervisor.admission
    watchdog = getattr(wasp, "watchdog", None)
    if watchdog is not None:
        # Merge, don't overwrite: the watchdog's kill counters are
        # authoritative *per kind* (they fire even on unsupervised
        # launches), but its map carries zero entries for every kind, so
        # replacing the supervisor's view wholesale would erase hangs the
        # supervisor observed for kinds the watchdog never killed.
        for kind, count in watchdog.kills_by_kind.items():
            if count:
                hangs_by_kind[kind.value] = count
    # Software backends have no VMM device, hence no VM fds.
    device = wasp.isolation.device
    admission_admitted = admission_timeouts = admission_queue_high_water = 0
    admission_shed: dict[str, int] = {}
    if admission is not None:
        admission_admitted = admission.admitted
        admission_timeouts = admission.timeouts
        admission_queue_high_water = admission.queue_depth_high_water
        admission_shed = dict(admission.shed_by_reason)
    return WaspMetrics(
        launches=wasp.launches,
        vms_created=device.vms_created if device is not None else 0,
        snapshot_captures=wasp.snapshots.captures,
        snapshot_restores=wasp.snapshots.restores,
        background_cycles=wasp.background.cycles,
        background_operations=wasp.background.operations,
        host_syscalls=wasp.kernel.syscall_count,
        clock_cycles=wasp.clock.cycles,
        pools=pools,
        timeouts=wasp.timeouts,
        snapshot_fallbacks=wasp.snapshot_fallbacks,
        snapshot_integrity_failures=wasp.snapshots.integrity_failures,
        quarantined_shells=sum(p.quarantines for p in pools),
        pool_defects=sum(p.defects for p in pools),
        retries=retries,
        breaker_rejections=breaker_rejections,
        crashes_by_class=crashes_by_class,
        breaker_states=breaker_states,
        vms_closed=device.vms_closed if device is not None else 0,
        admission_admitted=admission_admitted,
        admission_shed=admission_shed,
        admission_timeouts=admission_timeouts,
        admission_queue_high_water=admission_queue_high_water,
        hangs_by_kind=hangs_by_kind,
        store=wasp.snapshots.counters(),
    )
