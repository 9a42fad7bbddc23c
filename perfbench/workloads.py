"""The benchmark's three workloads, driven through the public Wasp API.

Each workload fixes a small set of distinct per-launch inputs; the seed
only draws the per-launch sequence over that set (and the hosted
workload's file contents), so the program sees nothing but the
generated inputs.  A :class:`Rig` is one built instance of a workload:
a fresh ``Wasp`` with its images, after the first launch and the
warm-up that set-up time covers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.host.filesystem import O_RDONLY
from repro.hw.cpu import Mode
from repro.runtime import boot
from repro.runtime.image import ImageBuilder
from repro.wasp import (
    AdmissionController,
    Hypercall,
    PermissivePolicy,
    Supervisor,
    VirtineResult,
    Wasp,
)


@dataclass
class Rig:
    """One built workload: its Wasp and how to launch and check an input."""

    wasp: Wasp
    launch: Callable[[Any], VirtineResult]
    check: Callable[[Any, VirtineResult], bool]
    #: The shell pool every image of the workload draws from.
    pool: Any


def _warm(rig: Rig, choices: tuple) -> Rig:
    """Run every distinct input past the JIT hotness threshold, so the
    timed loop starts with its compiled blocks in place."""
    rounds = rig.wasp.kvm.jit_domain.threshold + 4
    for _ in range(rounds):
        for choice in choices:
            result = rig.launch(choice)
            if not rig.check(choice, result):
                raise RuntimeError(f"warm-up launch of {choice!r} returned "
                                   f"a wrong result: {result!r}")
    return rig


def _single_pool(wasp: Wasp, images) -> Any:
    sizes = {wasp.memory_size_for(image) for image in images}
    if len(sizes) != 1:
        raise ValueError(f"workload images span several pool buckets: {sizes}")
    return wasp.pool_for(sizes.pop())


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class Workload:
    name = ""
    #: The distinct per-launch inputs the seed draws from.
    choices: tuple = ()

    def inputs(self, seed: int, count: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.choice(self.choices) for _ in range(count)]

    def build(self, seed: int, trace: bool = False) -> Rig:
        raise NotImplementedError

    def claims(self, delta: dict, launches: int) -> list[str]:
        """Path claims over one timed phase; returns the ones missed.

        ``delta`` holds the growth of the program's own counters (see
        ``run.counters``) across the phase.
        """
        raise NotImplementedError


class FibCompute(Workload):
    """Engine-bound: the interpreter/JIT does nearly all the host work,
    and the snapshot, hypercall and supervisor layers are idle."""

    name = "fib_compute"
    choices = (13, 14, 15)
    #: ``engine.jit_insn_share`` floor: 0.9988 was measured when this
    #: benchmark was introduced.
    JIT_SHARE_FLOOR = 0.99

    def build(self, seed: int, trace: bool = False) -> Rig:
        wasp = Wasp(trace=trace)
        builder = ImageBuilder()
        images = {n: builder.fib(Mode.LONG64, n) for n in self.choices}

        def launch(n: int) -> VirtineResult:
            return wasp.launch(images[n], use_snapshot=False)

        def check(n: int, result: VirtineResult) -> bool:
            return result.ax == fib(n) and result.hypercall_count == 0

        rig = Rig(wasp, launch, check, _single_pool(wasp, images.values()))
        return _warm(rig, self.choices)

    def claims(self, delta: dict, launches: int) -> list[str]:
        missed = []
        if delta["pool_misses"] or delta["pool_hits"] != launches:
            missed.append(f"pool hit ratio is not 1.0: {delta['pool_hits']} "
                          f"hits, {delta['pool_misses']} misses over "
                          f"{launches} launches")
        share = delta.get("jit_insn_share")
        if share is not None and share < self.JIT_SHARE_FLOOR:
            missed.append(f"JIT-compiled instruction share {share:.3f} is "
                          f"below the floor {self.JIT_SHARE_FLOOR}")
        return missed


#: Root the hosted function may open files under.
DATA_ROOT = "/data/"
#: Guest cycles of the one-time initialisation the snapshot elides.
INIT_CYCLES = 20_000


def _hosted_entry(env) -> int:
    if not env.from_snapshot:
        env.charge(INIT_CYCLES)
        env.snapshot()
    path, length = env.args
    fd = env.hypercall(Hypercall.OPEN, path, O_RDONLY)
    data = env.hypercall(Hypercall.READ, fd, length)
    env.hypercall(Hypercall.CLOSE, fd)
    env.charge_bytes(len(data))
    return len(data)


class HostedSnapshot(Workload):
    """Lifecycle-bound: snapshot verify/restore, hosted hypercalls,
    supervision and admission dominate, and the engine is idle."""

    name = "hosted_snapshot"
    #: (file index, size in bytes); the seed fills the files' contents.
    choices = tuple(enumerate((512, 1024, 2048, 4096, 8192)))

    def build(self, seed: int, trace: bool = False) -> Rig:
        wasp = Wasp(trace=trace)
        supervisor = Supervisor(wasp, admission=AdmissionController())
        rng = random.Random(f"{self.name}:files:{seed}")
        for index, size in self.choices:
            wasp.kernel.fs.add_file(self._path(index), rng.randbytes(size))
        image = ImageBuilder().hosted(name="perfbench-hosted",
                                      entry=_hosted_entry)
        policy = PermissivePolicy()

        def launch(choice) -> VirtineResult:
            index, size = choice
            return supervisor.launch(image, policy=policy,
                                     allowed_paths=(DATA_ROOT,),
                                     args=(self._path(index), size))

        def check(choice, result: VirtineResult) -> bool:
            return result.value == choice[1] and result.from_snapshot

        rig = Rig(wasp, launch, check, _single_pool(wasp, [image]))
        first = launch(self.choices[0])
        if first.from_snapshot or first.value != self.choices[0][1]:
            raise RuntimeError(f"first hosted launch did not capture: {first!r}")
        return _warm(rig, self.choices)

    @staticmethod
    def _path(index: int) -> str:
        return f"{DATA_ROOT}blob{index}"

    def claims(self, delta: dict, launches: int) -> list[str]:
        missed = []
        if delta["restores"] != launches:
            missed.append(f"{delta['restores']} snapshot restores over "
                          f"{launches} launches")
        if delta["pool_misses"] or delta["pool_hits"] != launches:
            missed.append(f"pool hit ratio is not 1.0: {delta['pool_hits']} "
                          f"hits, {delta['pool_misses']} misses over "
                          f"{launches} launches")
        return missed


#: Milestones each boot mode's minimal image passes before it halts.
BOOT_MILESTONES = {
    Mode.REAL16: [boot.MS_BOOT_START, boot.MS_MAIN_ENTRY],
    Mode.PROT32: [boot.MS_BOOT_START, boot.MS_AFTER_LGDT32, boot.MS_AFTER_PE,
                  boot.MS_IN_PROT32, boot.MS_MAIN_ENTRY],
    Mode.LONG64: [boot.MS_BOOT_START, boot.MS_AFTER_LGDT32, boot.MS_AFTER_PE,
                  boot.MS_IN_PROT32, boot.MS_AFTER_IDENT_MAP,
                  boot.MS_PAGING_ON, boot.MS_AFTER_LGDT64, boot.MS_IN_LONG64,
                  boot.MS_MAIN_ENTRY],
}


class ColdBoot(Workload):
    """Creation-bound: every launch creates a VM and loads, predecodes and
    boots its image once, and the pool only misses."""

    name = "cold_boot"
    choices = tuple((mode, size) for mode in Mode
                    for size in (16 * 1024, 64 * 1024, 256 * 1024))

    def build(self, seed: int, trace: bool = False) -> Rig:
        wasp = Wasp(trace=trace)
        builder = ImageBuilder()
        images = {(mode, size): builder.minimal(mode, size)
                  for mode, size in self.choices}

        def launch(choice) -> VirtineResult:
            return wasp.launch(images[choice], pooled=False, use_snapshot=False)

        def check(choice, result: VirtineResult) -> bool:
            # Wasp's run loop returns normally only on HLT or on the EXIT
            # hypercall; no hypercall means the guest halted.
            markers = [marker for marker, _ in result.milestones]
            return (result.hypercall_count == 0
                    and markers == BOOT_MILESTONES[choice[0]])

        rig = Rig(wasp, launch, check, _single_pool(wasp, images.values()))
        return _warm(rig, self.choices)

    def claims(self, delta: dict, launches: int) -> list[str]:
        missed = []
        if delta["vm_creates"] != launches:
            missed.append(f"{delta['vm_creates']} VM creations over "
                          f"{launches} launches")
        if delta["pool_hits"]:
            missed.append(f"{delta['pool_hits']} pool hits on scratch launches")
        return missed


WORKLOADS = {w.name: w for w in (FibCompute(), HostedSnapshot(), ColdBoot())}
