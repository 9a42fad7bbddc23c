"""The shared serverless scheduling simulator.

Both platforms (Vespid and the OpenWhisk-like baseline) schedule
arrivals onto a bounded pool of workers; what differs is the cost of
provisioning a worker cold, dispatching to a warm one, and executing the
function -- the numbers each concrete platform *measures from its own
execution stack* (Vespid launches real virtines to calibrate itself).

The simulation is a simple earliest-free-worker queueing model with a
keep-alive policy: a worker reused within ``keepalive_s`` of its last
completion is warm; otherwise it must be provisioned cold again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.stats import percentile
from repro.wasp.admission import (
    AdmissionController,
    AdmissionRejected,
    BrownoutLevel,
    Deadline,
)
from repro.wasp.hypervisor import Wasp
from repro.wasp.supervisor import (
    BreakerConfig,
    BreakerOpen,
    RetryPolicy,
    Supervisor,
)
from repro.wasp.virtine import VirtineCrash, VirtineResult


@dataclass
class InvocationRecord:
    """One function invocation's life cycle (times in seconds)."""

    arrival_s: float
    start_s: float
    finish_s: float
    cold: bool

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1000.0


class ServerlessPlatform:
    """Base platform: subclasses provide the three cost hooks."""

    name = "abstract"

    def __init__(
        self,
        max_workers: int = 16,
        keepalive_s: float = 60.0,
        admission: AdmissionController | None = None,
        deadline_s: float | None = None,
        cores: int | None = None,
    ) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if keepalive_s < 0:
            # A negative keep-alive would silently make every worker
            # cold (now - last_finish is always > keepalive).
            raise ValueError("keepalive_s cannot be negative")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if cores is not None and cores <= 0:
            raise ValueError("cores must be positive")
        self.max_workers = max_workers
        self.keepalive_s = keepalive_s
        #: Optional overload gate (seconds clock): arrivals pass it
        #: before any worker is considered, and waiting happens in its
        #: bounded queue instead of an unbounded earliest-free backlog.
        self.admission = admission
        #: Per-request latency budget (seconds from arrival, spanning
        #: queueing *and* execution) when admission is enabled.
        self.deadline_s = deadline_s
        #: Physical-core cap on *simultaneously executing* workers
        #: (Figure 9/10's x-axis): workers are software capacity, cores
        #: are hardware capacity.  ``None`` models unbounded parallelism
        #: (every worker has a core), the historical behaviour.
        self.cores = cores

    def _new_core_plan(self) -> list[float] | None:
        return [0.0] * self.cores if self.cores is not None else None

    @staticmethod
    def _core_start(core_free: list[float] | None, t: float) -> float:
        """Earliest a hardware core is available at-or-after ``t``."""
        if core_free is None:
            return t
        return max(t, min(core_free))

    @staticmethod
    def _occupy_core(core_free: list[float] | None, until: float) -> None:
        if core_free is None:
            return
        core_free[core_free.index(min(core_free))] = until

    # -- cost hooks (seconds) ---------------------------------------------------
    def cold_start_s(self) -> float:
        """Provision a worker from nothing (includes first execution)."""
        raise NotImplementedError

    def warm_invoke_s(self) -> float:
        """Dispatch + execute on an existing warm worker."""
        raise NotImplementedError

    # -- simulation ------------------------------------------------------------------
    def run(self, arrivals: list[float]) -> list[InvocationRecord]:
        """Schedule ``arrivals`` and return per-invocation records.

        With an admission controller attached the overload-protected
        scheduler runs instead (bounded queue, shedding, deadlines) and
        only *completed* invocations are returned; shed/cancelled
        requests are accounted on the controller.
        """
        if self.admission is not None:
            return self.run_with_admission(arrivals).records
        # Worker state: (free_at, last_finish) heaps keyed by free time.
        workers: list[list[float]] = []  # [free_at, last_finish]
        core_free = self._new_core_plan()
        records: list[InvocationRecord] = []
        for arrival in sorted(arrivals):
            candidate = None
            # Prefer an idle warm worker.
            for worker in workers:
                if worker[0] <= arrival and arrival - worker[1] <= self.keepalive_s:
                    if candidate is None or worker[1] > candidate[1]:
                        candidate = worker  # most recently used idles warmest
            if candidate is not None:
                worker = candidate
                start = self._core_start(core_free, arrival)
                # Waiting for a hardware core can outlast the keep-alive.
                if start - worker[1] <= self.keepalive_s:
                    service = self.warm_invoke_s()
                    cold = False
                else:
                    service = self.cold_start_s()
                    cold = True
            elif len(workers) < self.max_workers:
                start = self._core_start(core_free, arrival)
                service = self.cold_start_s()
                cold = True
                worker = [0.0, 0.0]
                workers.append(worker)
            else:
                # Queue on the earliest-free worker (and a free core).
                worker = min(workers, key=lambda w: w[0])
                start = self._core_start(core_free, max(arrival, worker[0]))
                if start - worker[1] <= self.keepalive_s:
                    service = self.warm_invoke_s()
                    cold = False
                else:
                    service = self.cold_start_s()
                    cold = True
            finish = start + service
            worker[0] = finish
            worker[1] = finish
            self._occupy_core(core_free, finish)
            records.append(
                InvocationRecord(arrival_s=arrival, start_s=start, finish_s=finish, cold=cold)
            )
        return records

    # -- overload-protected simulation -------------------------------------------
    def run_with_admission(self, arrivals: list[float]) -> "OverloadReport":
        """Schedule ``arrivals`` through the admission controller.

        Differences from the unprotected :meth:`run`:

        * every arrival passes the gate first (rate limit, dead-on-
          arrival deadline) -- shed arrivals never touch a worker;
        * when all workers are busy the request waits in the
          controller's *bounded* queue (the shed policy decides who is
          sacrificed on overflow) instead of an unbounded backlog;
        * a queued request whose deadline expires before a worker frees
          up is dropped unstarted (``EXPIRED_IN_QUEUE``), and a running
          request whose projected finish overruns is *cancelled at* its
          deadline (``TIMEOUT``) -- the worker is released at the
          deadline, not at the would-be completion.

        Deterministic: the same arrivals (and controller seed) replay
        the identical decision trace.
        """
        ctrl = self.admission
        if ctrl is None:
            raise ValueError("run_with_admission requires an admission controller")
        workers: list[list[float]] = []  # [free_at, last_finish]
        core_free = self._new_core_plan()
        records: list[InvocationRecord] = []

        def find_worker(now: float) -> tuple[list[float] | None, bool]:
            """An idle worker usable at ``now`` (warm preferred), or a
            new one if capacity allows; ``(None, False)`` means queue."""
            candidate = None
            for worker in workers:
                if worker[0] <= now and now - worker[1] <= self.keepalive_s:
                    if candidate is None or worker[1] > candidate[1]:
                        candidate = worker  # most recently used idles warmest
            if candidate is not None:
                return candidate, False
            if len(workers) < self.max_workers:
                worker = [0.0, 0.0]
                workers.append(worker)
                return worker, True
            for worker in workers:  # idle but stale: cold restart
                if worker[0] <= now:
                    return worker, True
            return None, False

        def execute(worker: list[float], cold: bool, arrival: float,
                    start: float, deadline: Deadline | None,
                    request_id: int) -> None:
            start = self._core_start(core_free, start)
            service = self.cold_start_s() if cold else self.warm_invoke_s()
            finish = start + service
            if deadline is not None and finish > deadline.expires_at:
                # Cancelled mid-run: the worker frees at the deadline
                # and the invocation never completes.
                cutoff = max(start, deadline.expires_at)
                worker[0] = cutoff
                worker[1] = cutoff
                self._occupy_core(core_free, cutoff)
                ctrl.record_timeout(self.name, cutoff, request_id=request_id)
                return
            worker[0] = finish
            worker[1] = finish
            self._occupy_core(core_free, finish)
            records.append(InvocationRecord(
                arrival_s=arrival, start_s=start, finish_s=finish, cold=cold,
            ))

        def drain(until: float | None) -> None:
            """Serve queued requests that can start by ``until``."""
            while len(ctrl.queue):
                now = min(worker[0] for worker in workers) if workers else 0.0
                if until is not None and now > until:
                    return
                entry = ctrl.pop_ready(now)
                if entry is None:
                    return  # everything left had expired
                start = max(now, entry.enqueued_at)
                worker, cold = find_worker(start)
                assert worker is not None  # some worker is free at `now`
                execute(worker, cold, entry.enqueued_at, start,
                        entry.deadline, entry.request_id)

        for arrival in sorted(arrivals):
            drain(until=arrival)
            deadline = (Deadline.after(arrival, self.deadline_s)
                        if self.deadline_s is not None else None)
            ticket = ctrl.admit(self.name, arrival, deadline=deadline)
            if not ticket.admitted:
                continue
            worker, cold = find_worker(arrival)
            if worker is not None:
                execute(worker, cold, arrival, arrival, deadline,
                        ticket.request_id)
            else:
                ctrl.enqueue(self.name, arrival,
                             request_id=ticket.request_id, deadline=deadline)
        drain(until=None)
        return OverloadReport(platform=self.name, records=records, admission=ctrl)


@dataclass
class PlatformReport:
    """Aggregated Figure 15-style results for one platform run."""

    platform: str
    records: list[InvocationRecord]
    bucket_s: float = 1.0

    @property
    def cold_count(self) -> int:
        return sum(1 for r in self.records if r.cold)

    def latency_percentile_ms(self, q: float) -> float:
        return percentile([r.latency_ms for r in self.records], q)

    def mean_latency_ms(self) -> float:
        latencies = [r.latency_ms for r in self.records]
        return sum(latencies) / len(latencies)

    def time_series(self) -> list[tuple[float, float, float, float]]:
        """Per-bucket rows: (time_s, p50_ms, p99_ms, achieved_rps)."""
        if not self.records:
            return []
        end = max(r.finish_s for r in self.records)
        rows: list[tuple[float, float, float, float]] = []
        bucket_start = 0.0
        while bucket_start < end:
            bucket_end = bucket_start + self.bucket_s
            in_bucket = [r for r in self.records if bucket_start <= r.arrival_s < bucket_end]
            completed = sum(1 for r in self.records if bucket_start <= r.finish_s < bucket_end)
            if in_bucket:
                lats = [r.latency_ms for r in in_bucket]
                rows.append(
                    (
                        bucket_start,
                        percentile(lats, 50.0),
                        percentile(lats, 99.0),
                        completed / self.bucket_s,
                    )
                )
            else:
                rows.append((bucket_start, 0.0, 0.0, completed / self.bucket_s))
            bucket_start = bucket_end
        return rows


@dataclass
class OverloadReport:
    """Outcome of an overload-protected platform run.

    Completed invocations live in ``records``; everything the platform
    *chose not to complete* (sheds, evictions, queue expiries, deadline
    cancellations) is accounted on the attached controller, whose trace
    signature is the determinism check for replay.
    """

    platform: str
    records: list[InvocationRecord]
    admission: AdmissionController

    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def admitted(self) -> int:
        return self.admission.admitted

    @property
    def shed(self) -> int:
        return self.admission.shed_total

    @property
    def timeouts(self) -> int:
        return self.admission.timeouts

    @property
    def queue_high_water(self) -> int:
        return self.admission.queue_depth_high_water

    def latency_percentile_ms(self, q: float) -> float:
        if not self.records:
            return 0.0
        return percentile([r.latency_ms for r in self.records], q)

    def signature(self) -> tuple:
        """The replayable shed/timeout decision sequence."""
        return self.admission.signature()


# ---------------------------------------------------------------------------
# Supervised execution: graceful degradation under faults
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisedRequest:
    """How one client request was ultimately served."""

    request_id: int
    #: "primary" or "fallback" -- which Wasp node produced the result.
    served_by: str
    #: True if the primary failed (crash or open breaker) first.
    degraded: bool
    #: Simulated end-to-end cycles on the serving node's clock.
    cycles: int
    value: Any


@dataclass
class SupervisedReport:
    """Outcome of a supervised workload run."""

    requests: list[SupervisedRequest]
    #: Requests that no node could serve (exceptions surfaced to the
    #: client).  The robustness acceptance bar is zero.
    client_visible_failures: int
    #: Requests shed by the admission gate (deliberate, not failures:
    #: the client got a clean back-off signal, not an error).
    shed_requests: int = 0

    @property
    def degraded_count(self) -> int:
        return sum(1 for r in self.requests if r.degraded)

    @property
    def served(self) -> int:
        return len(self.requests)


class SupervisedPlatform:
    """A serverless front end that degrades gracefully under faults.

    Every request is a *real* virtine launch driven through a
    :class:`~repro.wasp.supervisor.Supervisor` on the primary node:
    transient crashes are retried there, deterministic ones trip the
    image's circuit breaker.  When the primary cannot serve (breaker
    open, retries exhausted), the request is re-routed to an optional
    fallback node -- a different Wasp whose host plane does not share
    the primary's failures -- so the client sees a slower answer, never
    an error.
    """

    def __init__(
        self,
        primary: Wasp,
        fallback: Wasp | None = None,
        retry: RetryPolicy | None = None,
        breaker: BreakerConfig | None = None,
        admission: AdmissionController | None = None,
        deadline_cycles: int | None = None,
    ) -> None:
        #: The admission gate guards the *primary* only: the fallback
        #: is the pressure-relief valve, not another queue to fill.
        self.admission = admission
        self.primary = Supervisor(primary, retry=retry, breaker=breaker,
                                  admission=admission)
        self.fallback = (
            Supervisor(fallback, retry=retry, breaker=breaker)
            if fallback is not None else None
        )
        #: Per-request cycle budget (minted on the serving node's clock).
        self.deadline_cycles = deadline_cycles
        #: Requests the primary could not serve.
        self.degraded_requests = 0
        #: Requests no node could serve.
        self.client_failures = 0
        #: Requests shed by the admission gate.
        self.shed_requests = 0

    def _launch_on(self, supervisor: Supervisor, image: Any, args: Any,
                   launch_kwargs: dict) -> VirtineResult:
        """Launch on one node, minting its deadline on *that* node's
        clock (the two Wasps do not share a clock)."""
        if self.deadline_cycles is not None and "deadline" not in launch_kwargs:
            launch_kwargs = dict(
                launch_kwargs,
                deadline=Deadline.after(
                    supervisor.wasp.clock.cycles, self.deadline_cycles,
                ),
            )
        return supervisor.launch(image, args=args, **launch_kwargs)

    def invoke(self, image: Any, args: Any = None, **launch_kwargs: Any) -> VirtineResult:
        """Serve one request; raises only when every route is exhausted.

        Raises :class:`~repro.wasp.admission.AdmissionRejected` when the
        gate sheds the request -- deliberately *not* routed to the
        fallback (shedding exists to cut work, and a fallback stampede
        would just move the overload).  In DEGRADED posture the primary
        is bypassed entirely and requests fail over directly.
        """
        if (
            self.admission is not None
            and self.fallback is not None
            and self.admission.brownout_level() is BrownoutLevel.DEGRADED
        ):
            self.degraded_requests += 1
            try:
                return self._launch_on(self.fallback, image, args, launch_kwargs)
            except (BreakerOpen, VirtineCrash):
                self.client_failures += 1
                raise
        try:
            return self._launch_on(self.primary, image, args, launch_kwargs)
        except AdmissionRejected:
            self.shed_requests += 1
            raise
        except (BreakerOpen, VirtineCrash):
            if self.fallback is None:
                self.client_failures += 1
                raise
            self.degraded_requests += 1
            try:
                return self._launch_on(self.fallback, image, args, launch_kwargs)
            except (BreakerOpen, VirtineCrash):
                self.client_failures += 1
                raise

    def run_workload(
        self, image: Any, request_args: list[Any], **launch_kwargs: Any
    ) -> SupervisedReport:
        """Serve a whole request stream, recording how each was routed."""
        requests: list[SupervisedRequest] = []
        failures = 0
        shed = 0
        for request_id, args in enumerate(request_args):
            degraded_before = self.degraded_requests
            try:
                result = self.invoke(image, args=args, **launch_kwargs)
            except AdmissionRejected:
                # A clean back-off signal, not a failure: the client was
                # told to retry later before any work was provisioned.
                shed += 1
                continue
            except (BreakerOpen, VirtineCrash):
                failures += 1
                continue
            degraded = self.degraded_requests > degraded_before
            requests.append(SupervisedRequest(
                request_id=request_id,
                served_by="fallback" if degraded else "primary",
                degraded=degraded,
                cycles=result.cycles,
                value=result.value,
            ))
        return SupervisedReport(
            requests=requests, client_visible_failures=failures,
            shed_requests=shed,
        )
