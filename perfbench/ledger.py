"""Host-time spans around the public entry points of each layer.

The benchmark's traced run patches these methods at class level for
each traced block and restores them afterwards; nothing in ``src/``
knows it is being measured.  Each wrapper opens a ``perf_counter_ns``
span; a span's *self* time is its duration minus the time its child
spans cover, so the self times of all keys sum exactly to the duration
of the outermost spans (the wrapped top-level launches).  Each wrapper's
own bookkeeping lands in its parent's self time.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

from repro.host.kernel import HostKernel
from repro.hw.isa import Interpreter
from repro.hw.memory import GuestMemory
from repro.kvm.device import KVM, VcpuHandle, VMHandle
from repro.wasp import Snapshot, Supervisor, Wasp
from repro.wasp.admission import AdmissionController
from repro.wasp.pool import ShellPool

#: (class, method, ledger key).  Keys group methods into the layers the
#: README's prediction table names.
SPANS = [
    (Interpreter, "run_steps", "engine.run"),
    (Interpreter, "attach_program", "engine.predecode"),
    (KVM, "create_vm", "kvm.create"),
    (VMHandle, "set_user_memory_region", "kvm.create"),
    (VMHandle, "create_vcpu", "kvm.create"),
    (VMHandle, "load_program", "kvm.load"),
    (GuestMemory, "load_bytes", "kvm.load"),
    (VcpuHandle, "run", "kvm.run"),
    (ShellPool, "acquire", "pool.acquire"),
    (ShellPool, "create_scratch", "pool.acquire"),
    (ShellPool, "release", "pool.release"),
    (Snapshot, "verify", "snapshot.verify"),
    (GuestMemory, "restore_runs", "snapshot.restore"),
    (GuestMemory, "restore_runs_cow", "snapshot.restore"),
    (Wasp, "dispatch_hosted_hypercall", "hypercall.dispatch"),
    (Supervisor, "launch", "supervisor"),
    (AdmissionController, "admit", "admission"),
    (Wasp, "launch", "lifecycle"),
    # The one private hook: it runs on every launch, telemetry on or off.
    (Wasp, "_harvest_jit_telemetry", "telemetry.harvest"),
] + [
    (HostKernel, name, "hypercall.host_kernel")
    for name in sorted(vars(HostKernel)) if name.startswith("sys_")
]

KEYS = sorted({key for _, _, key in SPANS})


class Ledger:
    """Self-time and count accumulators over the traced blocks of a run."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        #: Guest instructions and software-TLB hits/misses retired inside
        #: ``Interpreter.run_steps`` (the counters are per interpreter, and
        #: cold launches discard theirs with the VM).
        self.insns = 0
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.gc_ns = 0
        # Element 0 accumulates the outermost spans' total duration.
        self._stack = [0]
        self._saved: list[tuple[type, str, object]] = []
        self._gc_start = 0

    @property
    def root_ns(self) -> int:
        return self._stack[0]

    def _span(self, orig, key):
        stack = self._stack
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                took = clock() - start
                self_ns[key] += took - stack.pop()
                stack[-1] += took

        return timed

    def _engine_span(self, orig, key):
        timed = self._span(orig, key)

        def run_steps(interp, budget):
            insns, hits, misses = (interp.instructions_retired,
                                   interp.tlb_hits, interp.tlb_misses)
            try:
                return timed(interp, budget)
            finally:
                self.insns += interp.instructions_retired - insns
                self.tlb_hits += interp.tlb_hits - hits
                self.tlb_misses += interp.tlb_misses - misses

        return run_steps

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start

    def __enter__(self) -> "Ledger":
        for cls, attr, key in SPANS:
            self._saved.append((cls, attr, vars(cls).get(attr)))
            orig = getattr(cls, attr)
            make = self._engine_span if key == "engine.run" else self._span
            setattr(cls, attr, make(orig, key))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._on_gc)
        for cls, attr, orig in reversed(self._saved):
            if orig is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, orig)
        self._saved.clear()
