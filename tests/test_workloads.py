"""The workload registry and the mode pairs it leans on.

Every registry entry must run the paths it claims (checked from the
Wasp's own counters), and every pair of modes documented to differ
must differ in its path counters -- a mode that silently falls through
to its sibling's path is the defect these tests exist to catch.
"""

import pytest

from repro.apps.http.client import RequestGenerator
from repro.apps.http.server import StaticHttpServer
from repro.wasp import CleanMode, PermissivePolicy, Wasp
from repro.wasp.metrics import WaspMetrics, collect
from repro.wasp.snapshot import RestoreMode
from repro.workloads import WORKLOADS, Workload, serverless_job

SEED = 1234
REQUESTS = 8
#: Launches per mode in the differential pairs.
LAUNCHES = 4


class TestPathClaims:
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_workload_runs_its_claimed_paths(self, name):
        entry = WORKLOADS[name]
        wasp = entry.run(SEED, REQUESTS)
        assert entry.missed(wasp, REQUESTS) == []

    def test_a_false_claim_is_reported(self):
        echo = WORKLOADS["echo"]
        wasp = echo.run(SEED, REQUESTS)
        claims_restores = Workload(echo.drive, restores=True, pool_hits=False)
        assert claims_restores.missed(wasp, REQUESTS) == [
            "0 snapshot restores over 7 warm launches, claimed all",
            "7 pool hits over 7 warm launches, claimed none",
        ]

    def test_unbitten_faults_are_reported(self):
        serverless = WORKLOADS["serverless"]
        wasp = serverless.run(SEED, REQUESTS)
        assert Workload(serverless.drive, faulted=True).missed(wasp, REQUESTS) == [
            "faults did not bite: 0 retries, 0 snapshot fallbacks",
        ]


def _hosted(**launch) -> WaspMetrics:
    """``LAUNCHES`` snapshotting hosted launches under ``launch``."""
    wasp = Wasp()
    image = serverless_job("mode-pair", wasp)
    for _ in range(LAUNCHES):
        wasp.launch(image, policy=PermissivePolicy(), allowed_paths=("/data/",),
                    **launch)
    return collect(wasp)


def _http(isolation: str) -> WaspMetrics:
    """``LAUNCHES`` Figure 13 requests under ``isolation``."""
    wasp = Wasp()
    wasp.kernel.fs.add_file("/srv/index.html", b"<html>pair</html>")
    server = StaticHttpServer(wasp, port=8000, isolation=isolation)
    generator = RequestGenerator(wasp.kernel, server, "/index.html")
    for _ in range(LAUNCHES):
        assert generator.one_request().response.status == 200
    return collect(wasp)


#: Documented mode pairs: (one mode, the other mode, a path counter).
MODE_PAIRS = {
    "pooled/scratch": (lambda: _hosted(pooled=True),
                       lambda: _hosted(pooled=False), "vms_created"),
    "sync/async clean": (lambda: _hosted(clean=CleanMode.SYNC),
                         lambda: _hosted(clean=CleanMode.ASYNC),
                         "background_operations"),
    "eager/cow restore": (lambda: _hosted(restore_mode=RestoreMode.EAGER),
                          lambda: _hosted(restore_mode=RestoreMode.COW),
                          "clock_cycles"),
    "snapshot on/off": (lambda: _hosted(use_snapshot=True),
                        lambda: _hosted(use_snapshot=False),
                        "snapshot_restores"),
    "http snapshot/virtine": (lambda: _http("snapshot"),
                              lambda: _http("virtine"), "snapshot_restores"),
}


class TestModePairs:
    @pytest.mark.parametrize("pair", list(MODE_PAIRS))
    def test_documented_modes_differ_in_their_path(self, pair):
        one, other, counter = MODE_PAIRS[pair]
        assert getattr(one(), counter) != getattr(other(), counter)

    def test_http_snapshot_mode_captures_once_and_restores(self):
        sample = _http("snapshot")
        assert (sample.snapshot_captures, sample.snapshot_restores) == (
            1, LAUNCHES - 1)

    def test_http_virtine_mode_never_snapshots(self):
        sample = _http("virtine")
        assert (sample.snapshot_captures, sample.snapshot_restores) == (0, 0)
