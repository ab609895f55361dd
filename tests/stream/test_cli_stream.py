"""CLI surface of the stream subsystem: workloads, checkpoints, shards."""

import json

from repro.cli import main


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestStreamWorkloadRuns:
    def test_workload_run_prints_digest_and_writes_jsonl(
        self, tmp_path, capsys
    ):
        out = str(tmp_path / "run.jsonl")
        text = run_cli(
            capsys,
            "stream", "--workload", "poisson", "--requests", "120",
            "--every", "40", "--out", out,
        )
        assert "stream geant [poisson]: 120 requests" in text
        assert "digest " in text
        assert f"wrote {out}" in text
        payloads = [
            json.loads(line)
            for line in open(out, encoding="utf-8")
            if line.strip()
        ]
        assert payloads  # the emitter streamed delta snapshots

    def test_default_replay_path_is_untouched(self, tmp_path, capsys):
        out = str(tmp_path / "plain.jsonl")
        text = run_cli(
            capsys,
            "stream", "--requests", "60", "--every", "30", "--out", out,
        )
        # The legacy summary line, not the StreamEngine one.
        assert "stream GEANT: 60 requests" in text
        assert "digest" not in text


class TestStreamCheckpointResume:
    def test_kill_and_resume_reproduces_the_digest(self, tmp_path, capsys):
        out = str(tmp_path / "run.jsonl")
        ckpt = str(tmp_path / "run.ckpt")

        straight = run_cli(
            capsys,
            "stream", "--workload", "poisson", "--requests", "300",
            "--every", "100", "--out", out,
        )
        digest = next(
            line.split()[1]
            for line in straight.splitlines()
            if line.startswith("digest ")
        )

        # A "killed" run: only 300 requests were configured, and the
        # checkpoint at 200 is what a crash would leave behind.
        run_cli(
            capsys,
            "stream", "--workload", "poisson", "--requests", "300",
            "--every", "100", "--out", str(tmp_path / "partial.jsonl"),
            "--checkpoint-every", "100", "--checkpoint", ckpt,
        )
        resumed = run_cli(
            capsys,
            "stream", "--resume", ckpt,
            "--out", str(tmp_path / "resumed.jsonl"),
        )
        assert f"digest {digest}" in resumed

    def test_shards_cannot_combine_with_checkpointing(self, capsys):
        assert main([
            "stream", "--workload", "poisson", "--shards", "2",
            "--checkpoint-every", "10",
        ]) == 2


class TestStreamShards:
    def test_sharded_run_prints_merged_digest(self, tmp_path, capsys):
        argv = [
            "stream", "--workload", "poisson", "--requests", "200",
            "--shards", "2", "--out", str(tmp_path / "s.jsonl"),
        ]
        first = run_cli(capsys, *argv, "--workers", "1")
        second = run_cli(capsys, *argv, "--workers", "2")

        def merged_digest(text):
            return next(
                line.split()[2]
                for line in text.splitlines()
                if line.startswith("merged digest ")
            )

        assert "200 requests across 2 shards" in first
        assert merged_digest(first) == merged_digest(second)
