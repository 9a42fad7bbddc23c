"""Observability conformance: every backend emits the same signals.

The shared launch lifecycle is what emits spans, component counters,
and flight records, so the same launch produces the same span names,
the same ``component_cycles_total`` label sets, and the same flight
kinds on all five mechanisms.  The only legal extras are the VM-only
boot, device, and snapshot signals, and only on a backend whose
declared capabilities include snapshots (i.e. a VM shell).
"""

import pytest

from repro.trace import Category, attribution
from repro.units import us_to_cycles
from repro.wasp import Watchdog
from repro.wasp.hypercall import Hypercall
from repro.wasp.policy import BitmaskPolicy, PermissivePolicy, VirtineConfig
from repro.wasp.virtine import VirtineHang
from repro.runtime.image import ImageBuilder

from tests.conformance.conftest import make_host

COMPUTE = 5000

#: Spans every backend's launch carries (pooled, one permitted READ).
COMMON_SPANS = {"launch:obs", "pool.acquire", "guest.hosted",
                "guest.compute", "hypercall:READ", "pool.release"}
COMMON_COMPONENTS = {"guest.compute", "hypercall.boundary"}
#: Span categories only a VM shell produces (boot code, device ioctls,
#: snapshot verify/restore/capture).
VM_ONLY_CATEGORIES = {Category.BOOT, Category.VMM, Category.SNAPSHOT}
VM_ONLY_COMPONENTS = {"image.install", "snapshot.verify",
                      "snapshot.restore", "snapshot.capture"}


def _body(env):
    env.charge(COMPUTE)
    return env.hypercall(Hypercall.READ, 3, 4)


@pytest.fixture
def observed(backend_name):
    """One pooled launch of the reference body on a traced host."""
    host = make_host(backend_name, trace=True, telemetry=True)
    result = host.launch(
        ImageBuilder().hosted("obs", _body), pooled=True,
        policy=BitmaskPolicy(VirtineConfig.allowing(Hypercall.READ)),
        handlers={Hypercall.READ: lambda request: b"data"},
    )
    assert result.value == b"data"
    return host


def _components(host):
    return {dict(i.labels)["component"] for i in host.telemetry.instruments()
            if i.name == "component_cycles_total"}


class TestSameSignals:
    def test_span_names(self, observed):
        spans = list(observed.tracer.walk())
        names = {s.name for s in spans}
        assert COMMON_SPANS <= names
        extras = {s.category for s in spans
                  if s.name not in COMMON_SPANS | {"other"}}
        if not observed.caps.snapshot:
            assert extras == set()
        assert extras <= VM_ONLY_CATEGORIES

    def test_component_counter_labels(self, observed):
        components = _components(observed)
        assert COMMON_COMPONENTS <= components
        extras = components - COMMON_COMPONENTS
        if not observed.caps.snapshot:
            assert extras == set()
        assert extras <= VM_ONLY_COMPONENTS

    def test_flight_record_kinds(self, observed):
        kinds = {(e["kind"], e["name"]) for e in observed.telemetry.flight.dump()}
        assert kinds == {("launch", "ok")}

    def test_guest_compute_attribution(self, observed):
        assert attribution(observed.tracer)["guest.compute"] == COMPUTE


class TestWatchdogKill:
    def test_hang_is_counted_everywhere(self, backend_name):
        host = make_host(backend_name, trace=True, telemetry=True)
        threshold = us_to_cycles(1_000.0)
        Watchdog(host, no_progress_cycles=threshold)

        def wedged(env):
            env.charge(10 * threshold)

        with pytest.raises(VirtineHang):
            host.launch(ImageBuilder().hosted("wedged", wedged),
                        policy=PermissivePolicy())
        assert host.timeouts == 1
        assert host.telemetry.counter("timeouts_total", kind="watchdog").value == 1
        kinds = {(e["kind"], e["name"]) for e in host.telemetry.flight.dump()}
        assert ("timeout", "watchdog") in kinds
        assert "watchdog.kill" in {e.name for e in host.tracer.all_events()}
