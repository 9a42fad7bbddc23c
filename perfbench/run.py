"""Layer-ledger benchmark for the virtine stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one thread launches virtines back to back (a closed loop
with no think time).  ``--trace 0`` measures the end-to-end metrics with
nothing wrapped; ``--trace 1`` measures the per-layer ledger in a
separate run: untraced blocks alternating with blocks in which every
layer's entry points are wrapped in host-time spans (see ``ledger.py``),
then passes with the program's own cycle ``Tracer`` on.  Both modes
check every launch's output and the workload's path claims; the traced
run also checks that the ledger reconciles and that simulated cycles are
deterministic per seed.  The last line of standard output is one JSON object.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Length of one seed's per-launch input sequence; the timed loop cycles
#: through it.  ``sim_cycles_*`` are taken over one full pass, so they are
#: a function of the seed alone, whatever the host speed.
SEQUENCE = 1000
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 5
#: Launches per window for ``host_us_p99``, which is the median of the
#: windows' 99th percentiles: each window has ten launches beyond its
#: percentile, and a few seconds of contention from other tenants move
#: the median window no more than they move ``host_us_p50``.
P99_WINDOW = 1000
#: Launches per ``Tracer`` pass in the traced run.
SIM_LAUNCHES = 150
#: The traced run alternates this many untraced and wrapped blocks, so
#: drift within the process does not bias ``trace.overhead_ratio``.
BLOCKS = 4
#: Share of ``--seconds`` the traced run spends in those blocks; the rest
#: goes to the two ``Tracer`` passes.
BLOCK_SHARE = 0.8
#: Length of one CPU-steering window (see :class:`Steering`).
WINDOW_NS = 250_000_000
#: Every this many windows, the client re-measures the CPU it has run on
#: least recently.
EXPLORE_EVERY = 8
#: The wrapped top-level launches must cover at least this share of the
#: host time the loop measures around them; the rest is the root
#: wrapper's own cost and the loop's call overhead.
MIN_ROOT_COVERAGE = 0.95

END_TO_END = {
    "launches_per_s": "1/s",
    "host_us_p50": "us",
    "host_us_p99": "us",
    "sim_cycles_p50": "cycles",
    "sim_cycles_p99": "cycles",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Tracer categories the ``sim.*`` metrics fold simulated cycles into.
SIM_CATEGORIES = ("boot", "vmm", "pool", "snapshot", "guest", "hypercall",
                  "supervision", "teardown", "other")

PER_LAYER = {
    "engine.host_us": "us",
    "engine.predecode_us": "us",
    "engine.guest_insns": "count",
    "engine.ns_per_insn": "ns",
    "engine.jit_insn_share": "ratio",
    "engine.jit_compiles": "count",
    "engine.side_exits": "count",
    "kvm.create_us": "us",
    "kvm.load_us": "us",
    "kvm.run_self_us": "us",
    "kvm.vm_creates": "count",
    "kvm.tlb_hit_ratio": "ratio",
    "pool.acquire_us": "us",
    "pool.release_us": "us",
    "pool.hit_ratio": "ratio",
    "snapshot.verify_us": "us",
    "snapshot.restore_us": "us",
    "snapshot.restore_ratio": "ratio",
    "hypercall.count": "count",
    "hypercall.dispatch_us": "us",
    "hypercall.host_kernel_us": "us",
    "supervisor.self_us": "us",
    "admission.admit_us": "us",
    "supervisor.retries": "count",
    "lifecycle.self_us": "us",
    "telemetry.harvest_us": "us",
    "gc.pause_us": "us",
    "trace.overhead_ratio": "ratio",
    **{f"sim.{category}_cycles": "cycles" for category in SIM_CATEGORIES},
}


@dataclass
class Phase:
    """One closed-loop phase over a rig."""

    launches: int = 0
    failed: int = 0
    elapsed_ns: int = 0
    #: Host ns and simulated cycles of each completed launch, in order.
    host_ns: list[int] = field(default_factory=list)
    cycles: list[int] = field(default_factory=list)
    #: Input -> simulated cycles of every completed launch of it.
    cycles_by_input: dict = field(default_factory=dict)
    hypercalls: int = 0
    problems: list[str] = field(default_factory=list)
    delta: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.launches - self.failed


def counters(rig) -> dict:
    """The program's own counters that the path claims and ledger read."""
    wasp = rig.wasp
    domain = wasp.kvm.jit_domain
    return {
        "pool_hits": rig.pool.hits,
        "pool_misses": rig.pool.misses,
        "vm_creates": wasp.kvm.vms_created,
        "restores": wasp.snapshots.restores,
        "jit_block_insns": domain.counters["block_instructions"],
        "jit_compiles": domain.stats()["blocks_compiled"],
        "side_exits": sum(domain.side_exits.values()),
        "retries": wasp.supervisor.retries if wasp.supervisor else 0,
    }


class Steering:
    """Keeps the client on the CPU that has recently served it fastest.

    On a VM whose vCPUs share physical cores with other tenants, one vCPU
    can run at half the speed of the other for seconds at a time, and the
    scheduler does not move a busy task away from it.  The loop measures
    its own launch rate per window on each allowed CPU and runs the next
    window on the fastest one, re-measuring the others now and then.
    Every launch still counts; only where the client runs changes.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.rate: dict[int, float] = {}
        self.measured_at: dict[int, int] = {}
        self.windows = 0
        self.cpu: int | None = None

    def choose(self) -> None:
        unmeasured = [cpu for cpu in self.cpus if cpu not in self.rate]
        if unmeasured:
            cpu = unmeasured[0]
        elif self.windows % EXPLORE_EVERY == EXPLORE_EVERY - 1:
            cpu = min(self.cpus, key=self.measured_at.__getitem__)
        else:
            cpu = max(self.cpus, key=self.rate.__getitem__)
        if cpu != self.cpu and len(self.cpus) > 1:
            os.sched_setaffinity(0, {cpu})
        self.cpu = cpu

    def record(self, launches: int, took_ns: int) -> None:
        self.rate[self.cpu] = launches / took_ns
        self.measured_at[self.cpu] = self.windows
        self.windows += 1


def run_phase(rig, inputs: list, seconds: float, min_launches: int = 0,
              start: int = 0, phase: Phase | None = None, *,
              steering: Steering) -> Phase:
    """Launch ``inputs`` cyclically from index ``start`` for ``seconds``
    (and at least ``min_launches`` times), checking every result.

    Passing ``phase`` accumulates this block into it."""
    from repro.wasp import AdmissionRejected, BreakerOpen, VirtineCrash

    phase = phase if phase is not None else Phase()
    before = counters(rig)
    launched = 0
    clock = time.perf_counter_ns
    began = window_start = clock()
    deadline = began + int(seconds * 1e9)
    window_launches = 0
    steering.choose()
    index = start
    while True:
        choice = inputs[index % len(inputs)]
        index += 1
        launched += 1
        phase.launches += 1
        t0 = clock()
        try:
            result = rig.launch(choice)
        except (VirtineCrash, AdmissionRejected, BreakerOpen) as error:
            phase.failed += 1
            phase.problems.append(f"launch of {choice!r} failed: {error!r}")
            t1 = clock()
        else:
            t1 = clock()
            phase.host_ns.append(t1 - t0)
            phase.cycles.append(result.cycles)
            phase.hypercalls += result.hypercall_count
            seen = phase.cycles_by_input.setdefault(choice, result.cycles)
            if seen != result.cycles:
                phase.problems.append(
                    f"{choice!r} took {result.cycles} simulated cycles after "
                    f"taking {seen}")
            if not rig.check(choice, result):
                phase.problems.append(f"wrong result for {choice!r}: {result!r}")
        window_launches += 1
        if t1 - window_start >= WINDOW_NS:
            steering.record(window_launches, t1 - window_start)
            steering.choose()
            window_start, window_launches = t1, 0
        if t1 >= deadline and launched >= min_launches:
            break
    phase.elapsed_ns += clock() - began
    after = counters(rig)
    for key in after:
        phase.delta[key] = phase.delta.get(key, 0) + after[key] - before[key]
    return phase


def quantile(values: list, q: int) -> float:
    """The ``q``-th percentile (Python's exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure_end_to_end(workload, seed: int, seconds: float):
    setups = []
    for _ in range(SETUPS):
        rig = None
        gc.collect()
        t0 = time.perf_counter()
        rig = workload.build(seed)
        setups.append(time.perf_counter() - t0)
    gc.collect()
    inputs = workload.inputs(seed, SEQUENCE)
    phase = run_phase(rig, inputs, seconds, min_launches=SEQUENCE,
                      steering=Steering())
    phase.problems += workload.claims(phase.delta, phase.launches)
    host_us = [ns / 1000 for ns in phase.host_ns]
    windows = [host_us[i:i + P99_WINDOW]
               for i in range(0, len(host_us) - P99_WINDOW + 1, P99_WINDOW)]
    sim = phase.cycles[:SEQUENCE]
    if phase.failed:
        # A failed launch leaves a hole in the seed's sequence; the
        # cycle percentiles are then not a function of the seed.
        phase.problems.append("sim_cycles_* span a failed launch")
    metrics = {
        "launches_per_s": phase.completed / (phase.elapsed_ns / 1e9),
        "host_us_p50": quantile(host_us, 50),
        "host_us_p99": statistics.median(quantile(window, 99)
                                         for window in windows),
        "sim_cycles_p50": quantile(sim, 50),
        "sim_cycles_p99": quantile(sim, 99),
        "setup_s": statistics.median(setups),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return phase.launches, phase.failed, phase.problems, metrics


def sim_pass(workload, seed: int):
    """Launch the first :data:`SIM_LAUNCHES` inputs of ``seed`` on a fresh
    rig with the program's cycle tracer on; fold by category."""
    from repro.trace import attribution

    rig = workload.build(seed, trace=True)
    tracer = rig.wasp.tracer
    first = len(tracer.roots)
    cycles = []
    problems = []
    for choice in workload.inputs(seed, SIM_LAUNCHES):
        result = rig.launch(choice)
        cycles.append(result.cycles)
        if not rig.check(choice, result):
            problems.append(f"wrong traced result for {choice!r}: {result!r}")
    spans = [span for root in tracer.roots[first:] for span in root.walk()]
    fold = attribution(spans, by="category")
    if not set(fold) <= set(SIM_CATEGORIES):
        problems.append(f"cycles in unexpected categories: {sorted(fold)}")
    if sum(fold.values()) != sum(cycles):
        problems.append(f"sim.* sum to {sum(fold.values())} cycles but the "
                        f"launches took {sum(cycles)}")
    return cycles, fold, problems


def measure_layers(workload, seed: int, seconds: float):
    from ledger import KEYS, Ledger

    rig = workload.build(seed)
    gc.collect()
    inputs = workload.inputs(seed, SEQUENCE)
    plain, traced, ledger, steering = Phase(), Phase(), Ledger(), Steering()
    block = seconds * BLOCK_SHARE / (2 * BLOCKS)
    # The first block is untraced and covers the seed's first
    # SIM_LAUNCHES inputs, which the Tracer pass below replays.
    run_phase(rig, inputs, block, min_launches=SIM_LAUNCHES, phase=plain,
              steering=steering)
    for index in range(BLOCKS):
        if index:
            run_phase(rig, inputs, block, phase=plain, steering=steering,
                      start=plain.launches + traced.launches)
        with ledger:
            run_phase(rig, inputs, block, phase=traced, steering=steering,
                      start=plain.launches + traced.launches)
    problems = plain.problems + traced.problems
    problems += workload.claims(plain.delta, plain.launches)
    delta = traced.delta
    delta["jit_insn_share"] = (delta["jit_block_insns"] / ledger.insns
                               if ledger.insns else 0.0)
    problems += workload.claims(delta, traced.launches)

    # Wrapping changes host time only: every input costs the same
    # simulated cycles with and without the wrappers.
    for choice, cycles in traced.cycles_by_input.items():
        if plain.cycles_by_input.get(choice, cycles) != cycles:
            problems.append(f"{choice!r}: {cycles} cycles traced, "
                            f"{plain.cycles_by_input[choice]} untraced")
    # Self times partition the wrapped top-level launches, which cover
    # nearly all of the host time the loop measured around them.
    if sum(ledger.self_ns.values()) != ledger.root_ns:
        problems.append(f"layer self times sum to "
                        f"{sum(ledger.self_ns.values())} ns, top-level "
                        f"launches to {ledger.root_ns} ns")
    coverage = ledger.root_ns / sum(traced.host_ns)
    if not MIN_ROOT_COVERAGE <= coverage <= 1.0:
        problems.append(f"wrapped launches cover {coverage:.3f} of the "
                        f"measured launch time")

    cycles, fold, sim_problems = sim_pass(workload, seed)
    problems += sim_problems
    if cycles != plain.cycles[:SIM_LAUNCHES]:
        problems.append("traced-pass cycles differ from the untraced run's "
                        "for the same seed")
    other_cycles, _, other_problems = sim_pass(workload, seed + 1)
    problems += other_problems
    if other_cycles == cycles:
        problems.append(f"seeds {seed} and {seed + 1} gave identical cycles")

    n = traced.completed
    us = {key: ledger.self_ns.get(key, 0) / n / 1000 for key in KEYS}
    lookups = delta["pool_hits"] + delta["pool_misses"]
    tlb = ledger.tlb_hits + ledger.tlb_misses
    metrics = {
        "engine.host_us": us["engine.run"],
        "engine.predecode_us": us["engine.predecode"],
        "engine.guest_insns": ledger.insns / n,
        "engine.ns_per_insn": (ledger.self_ns["engine.run"] / ledger.insns
                               if ledger.insns else 0.0),
        "engine.jit_insn_share": delta["jit_insn_share"],
        "engine.jit_compiles": delta["jit_compiles"] / n,
        "engine.side_exits": delta["side_exits"] / n,
        "kvm.create_us": us["kvm.create"],
        "kvm.load_us": us["kvm.load"],
        "kvm.run_self_us": us["kvm.run"],
        "kvm.vm_creates": delta["vm_creates"] / n,
        "kvm.tlb_hit_ratio": ledger.tlb_hits / tlb if tlb else 0.0,
        "pool.acquire_us": us["pool.acquire"],
        "pool.release_us": us["pool.release"],
        "pool.hit_ratio": delta["pool_hits"] / lookups if lookups else 0.0,
        "snapshot.verify_us": us["snapshot.verify"],
        "snapshot.restore_us": us["snapshot.restore"],
        "snapshot.restore_ratio": delta["restores"] / n,
        "hypercall.count": traced.hypercalls / n,
        "hypercall.dispatch_us": us["hypercall.dispatch"],
        "hypercall.host_kernel_us": us["hypercall.host_kernel"],
        "supervisor.self_us": us["supervisor"],
        "admission.admit_us": us["admission"],
        "supervisor.retries": delta["retries"] / n,
        "lifecycle.self_us": us["lifecycle"],
        "telemetry.harvest_us": us["telemetry.harvest"],
        "gc.pause_us": ledger.gc_ns / n / 1000,
        "trace.overhead_ratio": ((traced.elapsed_ns / traced.launches)
                                 / (plain.elapsed_ns / plain.launches)),
        **{f"sim.{category}_cycles": fold.get(category, 0) / SIM_LAUNCHES
           for category in SIM_CATEGORIES},
    }
    attempted = plain.launches + traced.launches + 2 * SIM_LAUNCHES
    return attempted, plain.failed + traced.failed, problems, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
    measure = measure_layers if args.trace else measure_end_to_end
    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed, problems, metrics = measure(workload, args.seed,
                                                   args.seconds)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.4f} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
