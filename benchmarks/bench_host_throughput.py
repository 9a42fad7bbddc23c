"""Host throughput of the simulator's fast-path engine and superblock JIT.

This benchmark measures *host* wall-clock time, not simulated cycles:
how fast the interpreter chews through guest work in each of its two
engine modes.  Simulated cycles are asserted bit-identical across both
modes -- the fast paths and the JIT change how quickly the simulation
runs, never what it computes.

Engine modes (the ablation axis, recorded in the results file):

* ``reference``  -- plain interpreter, every layer on the slow path
                    (``fast_paths=False``).
* ``fast+jit``   -- software TLB, bulk-memory paths and the trace-driven
                    superblock JIT (``fast_paths=True``, the library
                    default).

Three workloads cover the engine's distinct hot paths:

* ``fib``           -- instruction-dense: recursive fib(22) in LONG64,
                       ~460K guest instructions through paged memory.
* ``boot_storm``    -- transition-heavy: repeated cold boots to 64-bit
                       (GDT loads, CR writes, 514 page-table stores, TLB
                       flushes) via the raw KVM interface.
* ``http_snapshot`` -- runtime-heavy: the static HTTP server with
                       snapshot isolation, exercising pool recycling and
                       bulk snapshot restores.

Results land in ``results/BENCH_host_throughput.json``.  If a committed
baseline is present it is read *before* being overwritten and each
workload's ``total_speedup`` (reference / fast+jit) must stay within 30%
of it (the ratio is host-independent to first order: both sides run on
the same machine in the same process).
"""

import json
import pathlib
from functools import partial

import pytest

from repro.hw.clock import Clock
from repro.hw.cpu import Mode
from repro.hw.vmx import ExitReason, VirtualMachine
from repro.kvm.device import KVM
from repro.runtime.image import ImageBuilder

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_host_throughput.json"

FIB_N = 22
BOOT_LAUNCHES = 30
HTTP_REQUESTS = 80
#: Host wall-clock repeats per (workload, mode); best-of is reported.
REPEATS = 3
#: A fresh run must keep each workload's speedup within 30% of the
#: committed baseline's (CI regression gate).
BASELINE_RATIO_FLOOR = 0.7

#: The ablation axis.  JSON keys use ``slow`` / ``fast_jit``.
ENGINE_MODES = ("reference", "fast+jit")
_MODE_KEY = {"reference": "slow", "fast+jit": "fast_jit"}


def _engine_kwargs(mode: str) -> dict:
    return {"fast_paths": mode != "reference"}


def run_fib(mode: str):
    """Instruction-dense: boot to LONG64, compute fib(22) recursively."""
    image = ImageBuilder().fib(Mode.LONG64, FIB_N)
    clock = Clock()
    vm = VirtualMachine(4 * 1024 * 1024, clock, **_engine_kwargs(mode))
    vm.load_program(image.program)
    info = vm.vmrun()
    assert info.reason is ExitReason.HLT, info
    assert vm.cpu.regs["ax"] == 17_711  # fib(22)
    return clock.cycles, vm.interp.instructions_retired


def run_boot_storm(mode: str):
    """Transition-heavy: repeated cold boots through the raw KVM path."""
    image = ImageBuilder().minimal(Mode.LONG64)
    clock = Clock()
    kvm = KVM(clock, **_engine_kwargs(mode))
    instructions = 0
    for _ in range(BOOT_LAUNCHES):
        handle = kvm.create_vm()
        handle.set_user_memory_region(4 * 1024 * 1024)
        vcpu = handle.create_vcpu()
        handle.load_program(image.program)
        info = vcpu.run()
        assert info.reason is ExitReason.HLT, info
        instructions += handle.vm.interp.instructions_retired
    return clock.cycles, instructions


def run_http_snapshot(mode: str):
    """Runtime-heavy: snapshot-isolated HTTP serving on the Wasp stack."""
    from repro.apps.http.client import RequestGenerator
    from repro.apps.http.server import StaticHttpServer
    from repro.wasp import Wasp

    wasp = Wasp(**_engine_kwargs(mode))
    wasp.kernel.fs.add_file("/srv/index.html", b"<html>bench</html>")
    server = StaticHttpServer(wasp, port=8080, isolation="snapshot")
    generator = RequestGenerator(wasp.kernel, server, "/index.html")
    for _ in range(HTTP_REQUESTS):
        outcome = generator.one_request()
        assert outcome.response.status == 200
    return wasp.clock.cycles, None


WORKLOADS = {
    "fib": run_fib,
    "boot_storm": run_boot_storm,
    "http_snapshot": run_http_snapshot,
}


@pytest.fixture(scope="module")
def measured(report, host_timer):
    report.owns_results_file = True
    report.engine_mode = "ablation:" + "/".join(ENGINE_MODES)

    baseline = None
    if RESULTS_PATH.exists():
        try:
            baseline = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            baseline = None

    workloads = {}
    for name, fn in WORKLOADS.items():
        cycles = {}
        seconds = {}
        insns = {}
        # Repeats alternate the modes, so a slow spell of a shared host
        # lands on both sides of the speedup ratio, not on one.
        for _ in range(REPEATS):
            for mode in ENGINE_MODES:
                key = _MODE_KEY[mode]
                (cycles[key], insns[key]), elapsed = host_timer.measure(
                    partial(fn, mode))
                seconds[key] = min(elapsed, seconds.get(key, elapsed))
        entry = {
            "simulated_cycles": cycles,
            "host_seconds": {k: round(s, 6) for k, s in seconds.items()},
            "total_speedup": round(seconds["slow"] / seconds["fast_jit"], 3),
            "cycles_per_host_second": {
                k: int(cycles[k] / seconds[k]) for k in seconds
            },
        }
        if insns["fast_jit"] is not None:
            entry["guest_instructions"] = insns["fast_jit"]
            entry["insns_per_host_second"] = {
                k: int(insns[k] / seconds[k]) for k in seconds
            }
        workloads[name] = entry
        report.row(f"{name}: speedup over reference",
                   ">= 4x (fib)" if name == "fib" else "n/a",
                   f"{entry['total_speedup']:.2f}x")
        report.row(f"{name}: Mcycles / host s", "n/a",
                   f"{entry['cycles_per_host_second']['fast_jit'] / 1e6:,.1f}")
    report.note(f"best of {REPEATS} host timings per mode; simulated cycles "
                f"are asserted identical across both engine modes")

    data = {
        "engine_modes": list(ENGINE_MODES),
        "repeats": REPEATS,
        "workload_params": {
            "fib_n": FIB_N,
            "boot_launches": BOOT_LAUNCHES,
            "http_requests": HTTP_REQUESTS,
        },
        "workloads": workloads,
    }
    if baseline is not None:
        data["previous_speedups"] = {
            name: {"total_speedup": entry["total_speedup"]}
            for name, entry in baseline.get("workloads", {}).items()
            if entry.get("total_speedup") is not None
        }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    data["_baseline"] = baseline
    return data


class TestHostThroughput:
    def test_simulated_cycles_identical(self, measured):
        """Fast paths and JIT change host time only; the virtual clock is
        bit-exact across both engine modes."""
        for name, entry in measured["workloads"].items():
            cycles = entry["simulated_cycles"]
            assert cycles["fast_jit"] == cycles["slow"], name

    def test_instruction_dense_speedup(self, measured):
        """The fast+jit engine must pay off where instructions dominate.

        The committed baseline records ~9x on fib; the in-test floor is
        looser because shared CI runners time noisily even under best-of.
        """
        assert measured["workloads"]["fib"]["total_speedup"] >= 4.0

    def test_no_pathological_slowdown(self, measured):
        """Compilation cost must never eat its winnings on any workload."""
        for name, entry in measured["workloads"].items():
            assert entry["total_speedup"] >= 0.49, (
                name, entry["total_speedup"])

    def test_no_regression_vs_baseline(self, measured):
        baseline = measured["_baseline"]
        if baseline is None:
            pytest.skip("no committed baseline to compare against")
        for name, entry in baseline.get("workloads", {}).items():
            if name not in measured["workloads"]:
                continue
            old = entry["total_speedup"]
            fresh = measured["workloads"][name]["total_speedup"]
            assert fresh >= BASELINE_RATIO_FLOOR * old, (
                f"{name}: total_speedup fell to {fresh:.2f}x from "
                f"baseline {old:.2f}x (floor {BASELINE_RATIO_FLOOR:.0%})")

    def test_results_file_written(self, measured):
        stored = json.loads(RESULTS_PATH.read_text())
        assert len(stored["workloads"]) >= 3
        assert stored["engine_modes"] == list(ENGINE_MODES)
