"""Record and replay drivers for the boundary-stream plane.

Replay is *re-record + diff*: the workload driver re-runs against the
replay substrate (no guest interpreter) with a fresh recorder attached,
and the re-recorded stream is compared byte-for-byte against the
original -- signature, first divergent event, and the determinism meta
(handler responses, taxonomy verdicts, trace attribution) all at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.kvm.device import VM_DEVICES
from repro.replay.stream import BoundaryStream, InterfaceRecorder, ReplayDivergence
from repro.replay.substrate import ReplaySession
from repro.workloads import WorkloadContext, collect_meta, resolve


def record(workload: str, seed: int = 1234, requests: int = 4,
           backend: str = "kvm") -> BoundaryStream:
    """Run ``workload`` live with a recorder attached; return the stream."""
    drive = resolve(workload).drive
    recorder = InterfaceRecorder()
    ctx = WorkloadContext(seed=seed, requests=requests, backend=backend,
                          recorder=recorder)
    wasp, stats = drive(ctx)
    return recorder.finish(
        workload,
        {"seed": seed, "requests": requests, "backend": backend},
        collect_meta(wasp, stats),
    )


@dataclass
class ReplayReport:
    """Outcome of one replay-vs-recording comparison."""

    ok: bool
    recorded_signature: str
    replayed_signature: str
    #: Human-readable divergence descriptions (empty when ok).
    divergences: list[str] = field(default_factory=list)
    #: Recorded events the replay never consumed, by kind.
    leftover: dict = field(default_factory=dict)
    #: The re-recorded stream (for triage / artifact dumps).
    replayed: BoundaryStream | None = None


def _event_lines(stream: BoundaryStream) -> list[str]:
    return [json.dumps(event, sort_keys=True, separators=(",", ":"))
            for event in stream.events]


def diff_streams(recorded: BoundaryStream, replayed: BoundaryStream) -> list[str]:
    """First divergent event + meta/param deltas, as readable strings."""
    divergences: list[str] = []
    a, b = _event_lines(recorded), _event_lines(replayed)
    for index, (line_a, line_b) in enumerate(zip(a, b)):
        if line_a != line_b:
            divergences.append(
                f"event {index} diverged:\n  recorded: {line_a}\n  replayed: {line_b}")
            break
    else:
        if len(a) != len(b):
            divergences.append(
                f"event count diverged: recorded {len(a)}, replayed {len(b)}")
    for key in sorted(set(recorded.meta) | set(replayed.meta)):
        va, vb = recorded.meta.get(key), replayed.meta.get(key)
        if va != vb:
            divergences.append(
                f"meta[{key!r}] diverged:\n  recorded: {va!r}\n  replayed: {vb!r}")
    if recorded.params != replayed.params:
        divergences.append(
            f"params diverged: recorded {recorded.params!r}, "
            f"replayed {replayed.params!r}")
    return divergences


def replay(stream: BoundaryStream, strict: bool = True) -> ReplayReport:
    """Re-execute the handler plane against ``stream`` and diff."""
    drive = resolve(stream.workload).drive
    params = stream.params
    seed, requests = params.get("seed"), params.get("requests")
    backend = params.get("backend")
    if (not isinstance(seed, int) or isinstance(seed, bool)
            or not isinstance(requests, int) or isinstance(requests, bool)
            or requests < 0 or backend not in tuple(VM_DEVICES)):
        raise ValueError(f"stream carries malformed params {params!r}")
    session = ReplaySession(stream, strict=strict)
    recorder = InterfaceRecorder()
    ctx = WorkloadContext(seed=seed, requests=requests, backend=backend,
                          recorder=recorder, session=session)
    try:
        wasp, stats = drive(ctx)
    except ReplayDivergence as error:
        # Strict replay caught the handler plane disagreeing with the
        # recording mid-drive: report it, don't let it escape as a bare
        # exception.
        replayed = recorder.finish(stream.workload, dict(params), {})
        leftover = {kind: count
                    for kind, count in session.drained().items() if count}
        return ReplayReport(
            ok=False,
            recorded_signature=stream.signature(),
            replayed_signature=replayed.signature(),
            divergences=[f"replay diverged: {error}"],
            leftover=leftover,
            replayed=replayed,
        )
    replayed = recorder.finish(stream.workload, dict(params),
                               collect_meta(wasp, stats))
    divergences = diff_streams(stream, replayed)
    leftover = {kind: count for kind, count in session.drained().items() if count}
    for kind, count in sorted(leftover.items()):
        divergences.append(f"replay left {count} recorded {kind} unconsumed")
    return ReplayReport(
        ok=not divergences,
        recorded_signature=stream.signature(),
        replayed_signature=replayed.signature(),
        divergences=divergences,
        leftover=leftover,
        replayed=replayed,
    )


__all__ = [
    "ReplayDivergence",
    "ReplayReport",
    "diff_streams",
    "record",
    "replay",
]
