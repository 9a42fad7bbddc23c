"""Boundary-stream fuzzing: mutate recordings, assert typed containment.

The hostile-guest invariant under test: whatever a recorded stream is
mutated into, replaying it against the live handler plane must resolve
to the typed crash taxonomy (``GuestFault``/``HostFault``/``PolicyKill``
or their supervision-layer shed signals) -- never an unhandled Python
exception -- and must leave the host kernel (no leaked fds), the
snapshot store (every entry still passes integrity), and sibling
virtines (the driver's remaining requests) unperturbed.

Mutations are seeded per case (``Random(f"{seed}:{index}")``), so any CI
failure replays locally from the seed + case index alone.
"""

from __future__ import annotations

import base64
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.faults import InjectedFault
from repro.replay.stream import BoundaryStream
from repro.replay.substrate import ReplaySession
from repro.wasp.admission import AdmissionRejected
from repro.wasp.supervisor import BreakerOpen
from repro.wasp.virtine import VirtineCrash
from repro.workloads import WorkloadContext, resolve

#: Exception types that count as a *typed* verdict when they escape the
#: driver's own per-request containment.
TYPED_ESCAPES = (VirtineCrash, BreakerOpen, AdmissionRejected, InjectedFault)

_HCALL_PORT = 0x200


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


# -- mutation operators ------------------------------------------------------
# Each operator takes (events, rng) and returns True if it applied (some
# need a target -- e.g. a hypercall exit -- that a given stream may lack).

def _vmexits(events: list) -> list[dict]:
    return [e for e in events if e.get("kind") == "vmexit"]


def _hcall_exits(events: list) -> list[dict]:
    return [e for e in _vmexits(events) if e.get("port") == _HCALL_PORT]


def _hosted_ops(events: list, kind: str) -> list[list]:
    ops = []
    for event in events:
        if event.get("kind") == "hosted_run" and isinstance(event.get("ops"), list):
            ops.extend(op for op in event["ops"]
                       if isinstance(op, list) and op and op[0] == kind)
    return ops


def _pick(rng: random.Random, items: list) -> Any:
    return items[rng.randrange(len(items))] if items else None


def _mut_reserved_hypercall_nr(events, rng):
    target = _pick(rng, _hcall_exits(events))
    if target is None:
        return False
    target["value"] = rng.choice([99, 2 ** 40, -3])
    return True


def _mut_straddling_buffer(events, rng):
    target = _pick(rng, _hcall_exits(events))
    if target is None or not isinstance(target.get("cpu"), dict):
        return False
    regs = target["cpu"].get("regs")
    if not isinstance(regs, dict):
        return False
    regs["cx"] = 0x3FFFF0
    regs["dx"] = 0x1000
    return True


def _mut_oob_buffer_addr(events, rng):
    target = _pick(rng, _hcall_exits(events))
    if target is None or not isinstance(target.get("cpu"), dict):
        return False
    regs = target["cpu"].get("regs")
    if not isinstance(regs, dict):
        return False
    regs["cx"] = 0xFFFF_F000
    regs["dx"] = 64
    return True


def _mut_truncate_stream(events, rng):
    exits = _vmexits(events)
    if not exits:
        return False
    events.remove(exits[-1])
    return True


def _mut_drop_first_vmexit(events, rng):
    exits = _vmexits(events)
    if not exits:
        return False
    events.remove(exits[0])
    return True


def _mut_duplicate_vmexit(events, rng):
    target = _pick(rng, _vmexits(events))
    if target is None:
        return False
    events.insert(events.index(target), json.loads(json.dumps(target)))
    return True


def _mut_swap_adjacent_vmexits(events, rng):
    exits = _vmexits(events)
    if len(exits) < 2:
        return False
    first = rng.randrange(len(exits) - 1)
    i, j = events.index(exits[first]), events.index(exits[first + 1])
    events[i], events[j] = events[j], events[i]
    return True


def _mut_unknown_exit_reason(events, rng):
    target = _pick(rng, _vmexits(events))
    if target is None:
        return False
    target["reason"] = "mystery-exit-0x7f"
    return True


def _mut_hostile_shutdown(events, rng):
    target = _pick(rng, _vmexits(events))
    if target is None:
        return False
    target["reason"] = "shutdown"
    target["detail"] = "triple fault (hostile)"
    return True


def _mut_negative_interior(events, rng):
    target = _pick(rng, _vmexits(events))
    if target is None:
        return False
    target["cycles"] = -500
    return True


def _mut_segment_overrun(events, rng):
    for event in _vmexits(events):
        segments = event.get("segments")
        if isinstance(segments, list) and segments:
            segment = _pick(rng, segments)
            if isinstance(segment, list) and len(segment) >= 2:
                segment[1] = 2 ** 50
                return True
    return False


def _mut_unknown_cpu_mode(events, rng):
    target = _pick(rng, _vmexits(events))
    if target is None or not isinstance(target.get("cpu"), dict):
        return False
    target["cpu"]["mode"] = "RING3"
    return True


def _mut_drop_cpu_state(events, rng):
    target = _pick(rng, _vmexits(events))
    if target is None or "cpu" not in target:
        return False
    del target["cpu"]
    return True


def _mut_early_halt(events, rng):
    exits = _vmexits(events)
    if not exits or not isinstance(exits[0].get("cpu"), dict):
        return False
    exits[0]["cpu"]["halted"] = True
    return True


def _mut_oob_mem_buffer(events, rng):
    target = _pick(rng, _vmexits(events))
    if target is None or not isinstance(target.get("mem"), list):
        return False
    target["mem"].append([2 ** 40, _b64(b"\xff" * 16)])
    return True


def _mut_negative_mem_addr(events, rng):
    target = _pick(rng, _vmexits(events))
    if target is None or not isinstance(target.get("mem"), list):
        return False
    target["mem"].append([-1, _b64(b"A" * 8)])
    return True


def _mut_garbage_mem_b64(events, rng):
    target = _pick(rng, _vmexits(events))
    if target is None or not isinstance(target.get("mem"), list):
        return False
    target["mem"].append([4096, "!!!not-base64!!!"])
    return True


def _mut_overlapping_buffers(events, rng):
    for event in _vmexits(events):
        mem = event.get("mem")
        if isinstance(mem, list) and mem and isinstance(mem[0], list):
            addr = mem[0][0]
            if isinstance(addr, int):
                mem.append([addr + 8, mem[0][1]])
                return True
    return False


def _mut_huge_capture_page(events, rng):
    captures = [e for e in events if e.get("kind") == "mem_capture"]
    target = _pick(rng, captures)
    if target is None:
        return False
    target["pages"] = [2 ** 40]
    return True


def _mut_negative_mem_clear(events, rng):
    clears = [e for e in events if e.get("kind") == "mem_clear"]
    target = _pick(rng, clears)
    if target is None:
        return False
    target["bytes"] = -4096
    return True


def _mut_negative_charge(events, rng):
    target = _pick(rng, _hosted_ops(events, "charge"))
    if target is None:
        return False
    target[1] = -1000
    return True


def _mut_bad_hosted_nr(events, rng):
    target = _pick(rng, _hosted_ops(events, "hypercall"))
    if target is None:
        return False
    target[1] = 999
    return True


def _mut_hostile_hypercall_args(events, rng):
    target = _pick(rng, _hosted_ops(events, "hypercall"))
    if target is None or len(target) < 3:
        return False
    target[2] = rng.choice([[{"__bytes__": "!!!"}], [-1, -1]])
    return True


def _mut_unknown_hosted_op(events, rng):
    target = _pick(rng, _hosted_ops(events, "hypercall")
                   + _hosted_ops(events, "charge"))
    if target is None:
        return False
    target[0] = "frobnicate"
    return True


def _mut_drop_hosted_run(events, rng):
    runs = [e for e in events if e.get("kind") == "hosted_run"]
    target = _pick(rng, runs)
    if target is None:
        return False
    events.remove(target)
    return True


def _mut_strip_hosted_end(events, rng):
    runs = [e for e in events if e.get("kind") == "hosted_run"]
    target = _pick(rng, runs)
    if target is None:
        return False
    target["end"] = None
    return True


def _mut_arm_vcpu_fault(events, rng):
    events.append({"kind": "fault_arm", "site": "vcpu_run",
                   "nth": rng.randrange(1, 4)})
    return True


MUTATORS: list[tuple[str, Callable[[list, random.Random], bool]]] = [
    ("reserved-hypercall-nr", _mut_reserved_hypercall_nr),
    ("straddling-buffer", _mut_straddling_buffer),
    ("oob-buffer-addr", _mut_oob_buffer_addr),
    ("truncate-stream", _mut_truncate_stream),
    ("drop-first-vmexit", _mut_drop_first_vmexit),
    ("duplicate-vmexit", _mut_duplicate_vmexit),
    ("swap-adjacent-vmexits", _mut_swap_adjacent_vmexits),
    ("unknown-exit-reason", _mut_unknown_exit_reason),
    ("hostile-shutdown", _mut_hostile_shutdown),
    ("negative-interior-cycles", _mut_negative_interior),
    ("segment-overrun", _mut_segment_overrun),
    ("unknown-cpu-mode", _mut_unknown_cpu_mode),
    ("drop-cpu-state", _mut_drop_cpu_state),
    ("early-halt", _mut_early_halt),
    ("oob-mem-buffer", _mut_oob_mem_buffer),
    ("negative-mem-addr", _mut_negative_mem_addr),
    ("garbage-mem-b64", _mut_garbage_mem_b64),
    ("overlapping-buffers", _mut_overlapping_buffers),
    ("huge-capture-page", _mut_huge_capture_page),
    ("negative-mem-clear", _mut_negative_mem_clear),
    ("negative-charge", _mut_negative_charge),
    ("bad-hosted-hypercall-nr", _mut_bad_hosted_nr),
    ("hostile-hypercall-args", _mut_hostile_hypercall_args),
    ("unknown-hosted-op", _mut_unknown_hosted_op),
    ("drop-hosted-run", _mut_drop_hosted_run),
    ("strip-hosted-end", _mut_strip_hosted_end),
    ("arm-vcpu-fault", _mut_arm_vcpu_fault),
]


@dataclass
class CaseResult:
    """One fuzz case's verdict."""

    index: int
    mutation: str
    #: "completed" | "typed:<ExceptionClass>" | "untyped:<ExceptionClass>"
    outcome: str
    detail: str = ""
    invariant_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.outcome.startswith("untyped:") and not self.invariant_failures


@dataclass
class FuzzReport:
    """Aggregate over a fuzz run."""

    seed: int
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def failures(self) -> list[CaseResult]:
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for case in self.cases:
            counts[case.outcome] = counts.get(case.outcome, 0) + 1
        return counts


class InterfaceFuzzer:
    """Mutates a recorded stream and replays it in hostile mode."""

    def __init__(self, stream: BoundaryStream, seed: int = 1234,
                 artifacts_dir: str | None = None) -> None:
        self.drive = resolve(stream.workload).drive
        self.stream = stream
        self.seed = seed
        self.artifacts_dir = Path(artifacts_dir) if artifacts_dir else None

    def run(self, cases: int = 100, only_case: int | None = None) -> FuzzReport:
        report = FuzzReport(seed=self.seed)
        indices = [only_case] if only_case is not None else range(cases)
        for index in indices:
            report.cases.append(self._run_case(index))
        return report

    # -- one case ------------------------------------------------------------
    def _run_case(self, index: int) -> CaseResult:
        rng = random.Random(f"{self.seed}:{index}")
        payload = json.loads(self.stream.to_json())
        mutation = self._mutate(payload["events"], rng)
        mutated = BoundaryStream.from_json(json.dumps(payload))
        params = self.stream.params
        session = ReplaySession(mutated, strict=False)
        ctx = WorkloadContext(
            seed=params["seed"], requests=params["requests"],
            backend=params["backend"], session=session,
        )
        result = CaseResult(index=index, mutation=mutation, outcome="completed")
        try:
            self.drive(ctx)
        except TYPED_ESCAPES as escape:
            result.outcome = f"typed:{type(escape).__name__}"
            result.detail = str(escape)
        except Exception as escape:  # the invariant being fuzzed for
            result.outcome = f"untyped:{type(escape).__name__}"
            result.detail = str(escape)
        result.invariant_failures = self._check_invariants(ctx)
        if not result.ok:
            self._dump_artifacts(result, mutated)
        return result

    def _mutate(self, events: list, rng: random.Random) -> str:
        for _ in range(8):
            name, operator = MUTATORS[rng.randrange(len(MUTATORS))]
            if operator(events, rng):
                return name
        return "noop"

    def _check_invariants(self, ctx: WorkloadContext) -> list[str]:
        """Host-plane health after the case, crashed or not."""
        problems: list[str] = []
        wasp = ctx.wasp
        if wasp is None:
            return problems
        open_fds = wasp.kernel.fs.open_fd_count()
        if open_fds:
            problems.append(f"host kernel leaked {open_fds} open fds")
        for key, snap in sorted(wasp.snapshots._snapshots.items()):
            if not snap.verify():
                problems.append(f"snapshot store entry {key!r} failed integrity")
        return problems

    def _dump_artifacts(self, result: CaseResult, mutated: BoundaryStream) -> None:
        if self.artifacts_dir is None:
            return
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        mutated.save(self.artifacts_dir / f"case_{result.index}_stream.json",
                     indent=2)
        crash = {
            "seed": self.seed,
            "case": result.index,
            "mutation": result.mutation,
            "outcome": result.outcome,
            "detail": result.detail,
            "invariant_failures": result.invariant_failures,
            "workload": self.stream.workload,
            "params": self.stream.params,
        }
        path = self.artifacts_dir / f"case_{result.index}_crash.json"
        path.write_text(json.dumps(crash, indent=2, sort_keys=True) + "\n")
