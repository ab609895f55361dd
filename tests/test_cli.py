"""Unit tests for the command-line interface."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.bench import TARGETS

#: ``repro bench`` flags per target: ``--quick`` where taken, and small
#: sizes, so every target runs in seconds.
BENCH_ARGV = {
    "obs": ["--requests", "3", "--rounds", "1"],
    "spcache": ["--quick", "--requests", "3", "--rounds", "1"],
    "csr": ["--quick", "--rounds", "1"],
    "appro": ["--quick", "--requests", "2", "--rounds", "1"],
    "stream-obs": ["--quick", "--requests", "40", "--rounds", "2"],
    "stream": ["--quick", "--requests", "200"],
}

#: The payload keys each target writes (its section, for a merging one).
BENCH_KEYS = {
    "obs": {
        "topology", "requests", "max_servers", "seed", "rounds", "timing",
        "disabled_baseline_seconds", "enabled_seconds",
        "enabled_overhead_ratio", "counters", "phases",
    },
    "spcache": {
        "topology", "requests", "max_servers", "seed", "rounds", "quick",
        "timing", "reference_seconds", "cached_seconds", "speedup",
        "min_speedup_required", "cost_mismatches",
    },
    "csr": {
        "timing", "rounds", "seed", "quick", "min_speedup_required", "cases",
    },
    "appro": {
        "topology", "requests", "max_servers", "seed", "rounds", "quick",
        "timing", "dict_seconds", "csr_seconds", "dict_ms_per_request",
        "csr_ms_per_request", "speedup", "min_speedup_required",
        "tree_mismatches",
    },
    "stream-obs": {
        "topology", "requests", "every_requests", "seed", "rounds", "quick",
        "timing", "disabled_seconds", "enabled_seconds", "round_ratios",
        "overhead_ratio", "flushes", "disabled_admitted", "enabled_admitted",
    },
    "stream": {
        "benchmark", "quick", "config", "requests", "elapsed_seconds",
        "throughput_rps", "admitted", "rejected", "departed",
        "admission_ratio", "peak_active", "digest", "rss", "resume",
        "shard_invariance",
    },
}


def _obs_witness(payload):
    assert payload["counters"]["appro_multi.invocations"] == 3.0
    assert payload["disabled_baseline_seconds"] > 0


def _spcache_witness(payload):
    assert payload["cost_mismatches"] == 0


def _appro_witness(payload):
    assert payload["tree_mismatches"] == 0


def _csr_witness(payload):
    assert [case["name"] for case in payload["cases"]] == ["GEANT", "ER500"]
    assert all(case["tree_mismatches"] == 0 for case in payload["cases"])


def _stream_obs_witness(payload):
    assert payload["disabled_admitted"] == payload["enabled_admitted"]
    assert payload["flushes"] > 0


def _stream_witness(payload):
    assert payload["benchmark"] == "stream-scale"
    assert payload["requests"] == 200
    assert payload["resume"]["bit_identical"] is True
    assert payload["shard_invariance"]["bit_identical"] is True
    assert payload["rss"]["windows"] > 0


#: Identity witnesses only: tier-1 never asserts a speedup or an overhead.
BENCH_WITNESSES = {
    "obs": _obs_witness,
    "spcache": _spcache_witness,
    "csr": _csr_witness,
    "appro": _appro_witness,
    "stream-obs": _stream_obs_witness,
    "stream": _stream_witness,
}

#: Text each target's summary must print.
BENCH_SUMMARY = {
    "obs": ("disabled baseline", "phase breakdown"),
    "spcache": ("cost mismatches 0)",),
    "csr": ("GEANT: dict", "ER500: dict"),
    "appro": ("Appro_Multi GEANT: dict path",),
    "stream-obs": ("admitted: disabled",),
    "stream": ("stream scale: 200 requests", "resume differential: bit-identical"),
}


def bench_argv(target, path):
    return ["bench", "--target", target, "--output", str(path),
            *BENCH_ARGV[target]]


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ["fig5", "fig6", "fig7", "fig8", "fig9", "ablations", "all"]:
            assert name in out

    def test_demo(self, capsys):
        assert main(["demo", "--size", "25", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "network:" in out
        assert "Online_CP admitted" in out

    def test_unknown_profile_errors(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            main(["fig5", "--profile", "nope"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_output_json_and_chart(self, tmp_path, capsys):
        import json

        markdown = tmp_path / "out.md"
        payload = tmp_path / "out.json"
        assert main([
            "fig5", "--profile", "fast",
            "--output", str(markdown),
            "--json", str(payload),
            "--chart",
        ]) == 0
        content = markdown.read_text()
        assert "## fig5" in content
        parsed = json.loads(payload.read_text())
        assert "fig5" in parsed
        assert parsed["fig5"][0]["series"]
        out = capsys.readouterr().out
        # the chart legend with series markers was printed
        assert "o Appro_Multi" in out

    def test_bare_profile_prints_phase_table(self, capsys):
        assert main(["fig5", "--profile", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "appro_multi" in out
        assert "kmb" in out

    def test_metrics_out_writes_json_and_prometheus(self, tmp_path, capsys):
        import json

        from repro.obs.export import parse_prometheus

        metrics = tmp_path / "metrics.json"
        assert main([
            "fig5", "--profile", "fast",
            "--metrics-out", str(metrics),
            "--workers", "1",
        ]) == 0
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["appro_multi.invocations"] > 0
        assert "run_offline" in snap["timers"]
        prom = tmp_path / "metrics.prom"
        assert prom.exists()
        parsed = parse_prometheus(prom.read_text())
        assert (
            parsed["repro_appro_multi_invocations_total"]
            == snap["counters"]["appro_multi.invocations"]
        )
        out = capsys.readouterr().out
        assert f"wrote {metrics}" in out
        assert f"wrote {prom}" in out

    @pytest.mark.parametrize(
        "target",
        [
            pytest.param(name, marks=pytest.mark.slow)
            if name == "stream" else name
            for name in BENCH_ARGV
        ],
    )
    def test_bench_writes_artifact(self, target, tmp_path, capsys):
        path = tmp_path / "bench.json"
        obs.enable()
        obs.inc("test.marker")
        before = obs.snapshot()
        try:
            assert main(bench_argv(target, path)) == 0
            # the caller's telemetry flag and registry are left as found
            assert obs.enabled()
            assert obs.snapshot() == before
        finally:
            obs.disable()
            obs.reset()
        document = json.loads(path.read_text())
        section = TARGETS[target].section
        payload = document[section] if section else document
        assert set(payload) == BENCH_KEYS[target] | {"provenance"}
        assert set(payload["provenance"]) == {
            "git_sha", "python", "platform", "cpu_count",
        }
        BENCH_WITNESSES[target](payload)
        out = capsys.readouterr().out
        for text in BENCH_SUMMARY[target]:
            assert text in out
        assert f"wrote {path}" in out

    @pytest.mark.parametrize(
        "first, second",
        [
            ("obs", "stream-obs"),
            ("stream-obs", "obs"),
            ("csr", "appro"),
            ("appro", "csr"),
        ],
    )
    def test_bench_keeps_the_sibling_section(
        self, first, second, tmp_path, capsys
    ):
        path = tmp_path / "shared.json"
        assert main(bench_argv(first, path)) == 0
        kept = json.loads(path.read_text())
        assert main(bench_argv(second, path)) == 0
        document = json.loads(path.read_text())
        section = TARGETS[first].section or TARGETS[second].section
        assert section in document
        if TARGETS[first].section:
            # a whole-file write carries the merged section over
            assert document[section] == kept[section]
        else:
            # a section merge leaves the rest of the file alone
            assert {key: document[key] for key in kept} == kept

    @pytest.mark.parametrize(
        "target, flag",
        [
            ("obs", ["--quick"]),
            ("csr", ["--requests", "5"]),
            ("stream", ["--rounds", "2"]),
        ],
        ids=["obs-quick", "csr-requests", "stream-rounds"],
    )
    def test_bench_rejects_a_flag_the_target_does_not_take(
        self, target, flag, tmp_path, capsys
    ):
        path = tmp_path / "bench.json"
        argv = ["bench", "--target", target, "--output", str(path), *flag]
        assert main(argv) == 2
        assert f"--target {target} does not take {flag[0]}" in (
            capsys.readouterr().err
        )
        assert not path.exists()

    def test_bench_help_reads_the_registry_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for name, target in TARGETS.items():
            assert f"'{name}' {target.summary}" in out
        assert "csr 12, appro 8, stream-obs 3; not taken by stream" in out
        assert "stream 1000000; not taken by csr" in out
