"""CLI tests (the artifact's smoketest analogue)."""

import pytest

from repro.cli import main


class TestCli:
    def test_smoketest_passes(self, capsys):
        assert main(["smoketest"]) == 0
        out = capsys.readouterr().out
        assert "smoketest passed" in out
        assert "[FAIL]" not in out

    def test_boot_breakdown(self, capsys):
        assert main(["boot"]) == 0
        out = capsys.readouterr().out
        assert "ept faults" in out
        assert "protected transition" in out

    def test_creation_table(self, capsys):
        assert main(["creation"]) == 0
        out = capsys.readouterr().out
        assert "vmrun (hardware limit)" in out
        assert "Wasp+CA" in out

    def test_backends_table(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("kvm", "sud", "container", "process", "thread"):
            assert name in out
        assert "SIGSYS trap" in out
        assert "@virtine(backend=...)" in out

    def test_backends_json(self, capsys):
        import json

        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["backend"]: row for row in payload["backends"]}
        assert set(rows) == {"kvm", "sud", "container", "process", "thread"}
        assert rows["sud"]["caps"]["in_process"] is True
        assert rows["container"]["caps"]["kill_on_violation"] is True
        # The spectrum shape the Table 2 matrix asserts.
        assert (rows["thread"]["crossing_cycles"]
                < rows["kvm"]["crossing_cycles"]
                < rows["process"]["crossing_cycles"]
                < rows["container"]["crossing_cycles"])

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "tinker" in out
        assert "6.7 GB/s" in out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_jit_stats(self, capsys):
        assert main(["jit", "stats"]) == 0
        out = capsys.readouterr().out
        assert "blocks compiled" in out
        assert "side exits:" in out
        assert "warm hit ratio" in out

    def test_jit_stats_json(self, capsys):
        import json

        assert main(["jit", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["blocks_compiled"] > 0
        assert stats["block_runs"] > 0
        assert set(stats["side_exits"]) == {
            "branch", "fault", "halt", "io", "budget_guard", "mode_guard"}
        # Two launches of one image: the second attach must be warm.
        assert stats["images"][0]["warm_hit_ratio"] > 0

    def test_jit_dump(self, capsys):
        assert main(["jit", "dump"]) == 0
        out = capsys.readouterr().out
        assert "pc=0x" in out
        assert "paging=on" in out  # the fib loop compiles under paging

    def test_jit_dump_json(self, capsys):
        import json

        assert main(["jit", "dump", "--json"]) == 0
        blocks = json.loads(capsys.readouterr().out)
        assert blocks and all("instructions" in blk for blk in blocks)

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

class TestAdmissionReplay:
    def test_replay_is_identical(self, capsys):
        assert main(["admission-replay", "--seed", "7", "--scale", "0.1",
                     "--workers", "4", "--queue-depth", "16"]) == 0
        out = capsys.readouterr().out
        assert "replay identical" in out
        assert "DIVERGED" not in out

    def test_overloaded_run_sheds_and_still_passes(self, capsys):
        assert main(["admission-replay", "--seed", "7", "--scale", "0.5",
                     "--workers", "1", "--queue-depth", "8",
                     "--rate", "40", "--burst", "8",
                     "--burst-fault-rate", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "shed_rate_limit" in out
        assert "[ok]" in out

    def test_trace_roundtrips_through_disk(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        args = ["admission-replay", "--seed", "3", "--scale", "0.1",
                "--trace", trace]
        assert main(args) == 0
        assert "recorded trace" in capsys.readouterr().out
        assert main(args) == 0  # second run verifies against the file
        assert "stored trace" in capsys.readouterr().out


class TestMetricsJson:
    def test_json_output_is_machine_readable(self, capsys):
        import json

        assert main(["metrics", "--json", "--seed", "7",
                     "--requests", "25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 25
        assert payload["client_visible_failures"] == 0
        assert payload["primary"]["launches"] > 0
        assert isinstance(payload["fault_trace"], list)

    def test_json_is_deterministic_per_seed(self, capsys):
        def run() -> str:
            assert main(["metrics", "--json", "--seed", "7",
                         "--requests", "25"]) == 0
            return capsys.readouterr().out

        assert run() == run()


class TestTrace:
    def test_text_timeline(self, capsys):
        assert main(["trace", "echo", "--requests", "2"]) == 0
        out = capsys.readouterr().out
        assert "launch:replay-echo" in out
        assert "attribution (leaf cycles by category):" in out
        assert "per-phase latency histograms" in out
        assert "pool.acquire" in out

    def test_json_validates_and_is_deterministic(self, capsys):
        import json

        from repro.trace import validate_chrome_trace

        def run() -> str:
            assert main(["trace", "echo", "--format", "json",
                         "--seed", "3"]) == 0
            return capsys.readouterr().out

        first, second = run(), run()
        assert first == second
        assert validate_chrome_trace(json.loads(first)) > 0

    def test_json_to_file(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        assert main(["trace", "echo", "--format", "json",
                     "--out", str(out_path)]) == 0
        assert "perfetto" in capsys.readouterr().out
        obj = json.loads(out_path.read_text())
        assert obj["otherData"]["clock_domain"] == "simulated-cycles"

    def test_serverless_workload_shows_supervision(self, capsys):
        assert main(["trace", "serverless", "--requests", "8",
                     "--seed", "1234"]) == 0
        out = capsys.readouterr().out
        assert "supervise:replay-serverless" in out

    def test_http_workload(self, capsys):
        assert main(["trace", "http_snapshot", "--requests", "2"]) == 0
        out = capsys.readouterr().out
        assert "hypercall" in out

    @pytest.mark.parametrize("command", ["trace", "telemetry"])
    def test_unknown_workload_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "http"])
        assert exit_info.value.code == 2
        assert "unknown workload 'http' (one of" in capsys.readouterr().err


class TestScaleCommand:
    def test_scale_table(self, capsys):
        assert main(["scale", "--cores", "4", "--launches", "16",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "pooled/s" in out
        assert "determinism: every row replayed" in out

    def test_scale_json(self, capsys):
        import json

        assert main(["scale", "--cores", "2", "--launches", "8",
                     "--seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 7
        cores = [row["cores"] for row in payload["rows"]]
        assert cores == [1, 2]
        throughputs = [row["pooled"]["throughput_per_s"]
                       for row in payload["rows"]]
        assert throughputs == sorted(throughputs)


class TestChaos:
    def test_gauntlet_passes(self, capsys):
        assert main(["chaos", "--seed", "7", "--cases", "40",
                     "--tasks", "12"]) == 0
        out = capsys.readouterr().out
        assert "every kill point recovered" in out
        assert "exactly-once held" in out
        assert "replayed identically" in out
        assert "DIVERGED" not in out

    def test_json_output(self, capsys):
        import json

        assert main(["chaos", "--seed", "7", "--cases", "40",
                     "--tasks", "12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["deterministic"] is True
        assert payload["crash_point"]["ok"] is True
        assert payload["chaos"]["violations"] == []
        assert len(payload["recovery_signature"]) == 64

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_SEED", "55")
        assert main(["chaos", "--cases", "30", "--tasks", "10"]) == 0
        assert "seed=55" in capsys.readouterr().out


class TestStoreScrub:
    def test_files_roundtrip_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(bytes(range(256)) * 40)
        b.write_bytes(b"same page " * 1000)
        assert main(["store", "scrub", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "every file recovered byte-identical; scrub clean" in out
        assert "FAIL" not in out

    def test_committed_corpus_scrubs_clean(self, capsys):
        import glob

        paths = sorted(glob.glob("corpus/replay/*.json"))
        assert paths, "committed replay corpus missing"
        assert main(["store", "scrub", *paths]) == 0
        assert "scrub clean" in capsys.readouterr().out

    def test_empty_file_roundtrips(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert main(["store", "scrub", str(empty)]) == 0
        assert "scrub clean" in capsys.readouterr().out


class TestMetricsStore:
    def test_json_includes_durable_store_counters(self, capsys):
        import json

        main(["metrics", "--seed", "7", "--requests", "30", "--json"])
        payload = json.loads(capsys.readouterr().out)
        store = payload["primary"]["store"]
        assert store["backend"] == "durable"
        for key in ("chunks", "dedup_ratio", "scrub_passes", "gc_reclaimed_chunks",
                    "journal_records", "journal_replays"):
            assert key in store
        assert payload["fallback"]["store"]["backend"] == "memory"

    def test_text_summary_shows_store_line(self, capsys):
        main(["metrics", "--seed", "7", "--requests", "30"])
        out = capsys.readouterr().out
        assert "store: chunks=" in out


class TestTelemetryCli:
    def test_text_summary(self, capsys):
        assert main(["telemetry", "echo", "--requests", "3"]) == 0
        out = capsys.readouterr().out
        assert "telemetry snapshot v1" in out
        assert "launches_total" in out
        assert "signature:" in out

    def test_json_is_deterministic_per_seed(self, capsys):
        def run() -> str:
            assert main(["telemetry", "serverless", "--seed", "7",
                         "--requests", "6", "--format", "json"]) == 0
            return capsys.readouterr().out

        assert run() == run()

    def test_cluster_json_is_deterministic(self, capsys):
        def run() -> str:
            assert main(["telemetry", "--cores", "3", "--seed", "7",
                         "--requests", "9", "--format", "json"]) == 0
            return capsys.readouterr().out

        first = run()
        assert first == run()
        import json

        payload = json.loads(first)
        assert payload["cores"] == 3
        assert payload["meta"]["cores"] == 3

    def test_prometheus_exposition(self, capsys):
        assert main(["telemetry", "echo", "--requests", "3",
                     "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_launches_total counter" in out
        assert "repro_launch_cycles_bucket" in out

    def test_slo_monitor_attaches(self, capsys):
        assert main(["telemetry", "echo", "--requests", "10",
                     "--slo-deadline", "1"]) == 0
        out = capsys.readouterr().out
        assert "slo launch-p99" in out
        assert "BREACHED" in out

    def test_out_file_and_signature_echo(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        assert main(["telemetry", "echo", "--requests", "3",
                     "--format", "json", "--out", str(path)]) == 0
        assert "signature=" in capsys.readouterr().out
        import json

        assert json.loads(path.read_text())["version"] == 1


class TestProfileCli:
    def _snapshot(self, tmp_path, name: str, requests: int) -> str:
        path = tmp_path / name
        assert main(["telemetry", "serverless", "--seed", "7",
                     "--requests", str(requests),
                     "--format", "json", "--out", str(path)]) == 0
        return str(path)

    def test_identical_runs_gate_clean(self, tmp_path, capsys):
        a = self._snapshot(tmp_path, "a.json", 6)
        b = self._snapshot(tmp_path, "b.json", 6)
        capsys.readouterr()
        assert main(["profile", "diff", a, b, "--gate"]) == 0
        assert "no component moved" in capsys.readouterr().out

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        import json

        a = self._snapshot(tmp_path, "a.json", 6)
        payload = json.loads((tmp_path / "a.json").read_text())
        for state in payload["instruments"]:
            if (state["name"] == "component_cycles_total"
                    and state["labels"]["component"] == "guest.compute"):
                state["value"] *= 3
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["profile", "diff", a, str(slow), "--gate"]) == 1
        assert "REGRESSION guest.compute" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        import json

        a = self._snapshot(tmp_path, "a.json", 6)
        capsys.readouterr()
        assert main(["profile", "diff", a, a, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == []
        assert payload["total_delta_ratio"] == 0.0


class TestMetricsCores:
    def test_single_core_output_shape_unchanged(self, capsys):
        import json

        assert main(["metrics", "--seed", "7", "--requests", "25",
                     "--cores", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # cores=1 keeps the PR-2 primary/fallback schema verbatim.
        assert "fallback" in payload and "per_core" not in payload

    def test_cluster_json_aggregates_with_breakdown(self, capsys):
        import json

        assert main(["metrics", "--seed", "7", "--requests", "40",
                     "--cores", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cores"] == 3
        assert len(payload["per_core"]) == 3
        assert (payload["primary"]["launches"]
                == sum(c["launches"] for c in payload["per_core"]))
        # hangs_by_kind merges per kind across cores (the PR-3 rule).
        merged = payload["primary"]["hangs_by_kind"]
        for core in payload["per_core"]:
            for kind, count in core["hangs_by_kind"].items():
                assert merged[kind] >= count

    def test_cluster_json_is_deterministic(self, capsys):
        def run() -> str:
            assert main(["metrics", "--seed", "7", "--requests", "40",
                         "--cores", "3", "--json"]) == 0
            return capsys.readouterr().out

        assert run() == run()

    def test_cluster_text_summary(self, capsys):
        assert main(["metrics", "--seed", "7", "--requests", "40",
                     "--cores", "3"]) == 0
        out = capsys.readouterr().out
        assert "aggregate (all cores):" in out
        assert "core 2:" in out


class TestTraceTelemetryMerge:
    def test_counter_tracks_merge_into_trace_json(self, capsys):
        import json

        assert main(["trace", "echo", "--format", "json",
                     "--telemetry"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(e["ph"] == "C" for e in payload["traceEvents"])

    def test_default_trace_has_no_counter_tracks(self, capsys):
        import json

        assert main(["trace", "echo", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert not any(e["ph"] == "C" for e in payload["traceEvents"])


class TestChaosTelemetryCli:
    def test_chaos_telemetry_flag(self, capsys):
        assert main(["chaos", "--seed", "7", "--cases", "10",
                     "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "flight-recorder entries" in out
