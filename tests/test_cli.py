"""Tests for the command-line interface."""

import hashlib
import json

import pytest

from conftest import example
from repro import cli
from repro.cli import build_parser, main

CANONICAL = example("canonical-3isp.yaml")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in (
            ["quickstart"],
            ["breakeven"],
            ["compare"],
            ["adoption", "--isps", "50"],
            ["spec-check", "--steps", "100", "--cheat"],
            ["zombie", "--limit", "10"],
            ["run", "doc.yaml", "--mode", "cluster", "--shards", "4"],
            ["run", "doc.yaml", "--trace", "t.jsonl", "--metrics", "m.json"],
        ):
            args = parser.parse_args(command)
            assert args.command == command[0]

    def test_every_subcommand_accepts_seed(self):
        """Seed handling is uniform: no subcommand hardcodes its RNG."""
        parser = build_parser()
        for command in (
            "quickstart",
            "breakeven",
            "compare",
            "adoption",
            "spec-check",
            "zombie",
            "audit",
            "run doc.yaml",
            "fuzz",
            "arena",
        ):
            args = parser.parse_args(command.split() + ["--seed", "123"])
            assert args.seed == 123, f"{command} ignored --seed"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_quickstart(self, capsys):
        assert main(["quickstart", "--messages", "3"]) == 0
        out = capsys.readouterr().out
        assert "reconciliation consistent: True" in out
        assert "conserved: True" in out

    def test_breakeven(self, capsys):
        assert main(["breakeven"]) == 0
        out = capsys.readouterr().out
        assert "101x" in out or "cost factor" in out
        assert "pharma-bulk" in out

    def test_compare(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "zmail" in out
        assert "shred/vanquish" in out

    def test_adoption(self, capsys):
        assert main(["adoption", "--isps", "40"]) == 0
        out = capsys.readouterr().out
        assert "positive feedback" in out

    def test_spec_check_honest(self, capsys):
        assert main(["spec-check", "--steps", "500"]) == 0
        out = capsys.readouterr().out
        assert "flagged pairs:         0" in out

    def test_spec_check_cheater_caught(self, capsys):
        assert main(["spec-check", "--steps", "6000", "--cheat"]) == 0
        out = capsys.readouterr().out
        assert "cheater isp[1] caught: True" in out

    def test_zombie(self, capsys):
        assert main(["zombie", "--limit", "15"]) == 0
        out = capsys.readouterr().out
        assert "zombie detected: True" in out


class TestExtendedCommands:
    def test_scenario(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["run", example("mixed-4isp.yaml"),
                     "--report", str(report)]) == 0
        assert "conserved:       True" in capsys.readouterr().out
        summary = json.loads(report.read_text())
        assert summary["all_consistent"] is True
        assert summary["zombies_detected"] >= 1

    def test_audit_catches_minting(self, capsys):
        assert main(["audit", "--mint", "5000"]) == 0
        out = capsys.readouterr().out
        assert "ALERT: isp1" in out

    def test_audit_honest_all_clear(self, capsys):
        assert main(["audit", "--mint", "0"]) == 0
        out = capsys.readouterr().out
        assert "all clear" in out


#: sha256 of the canonical document's ``--trace`` file per executor: the
#: regression pins of the trace format. Direct and columnar emit the same
#: ordered stream; the engine's reconcile trigger and timestamps differ.
TRACE_SHA256 = {
    "direct": "febd3980f405720894514efdf28807e0bdd7bc993aeb3884274c35818226d8b1",
    "columnar": "febd3980f405720894514efdf28807e0bdd7bc993aeb3884274c35818226d8b1",
    "engine": "ef22b4a01a335ef639e0e8a659719226b09aa63b06b295a1cac045e9ec4cc772",
}


class TestTraceCommand:
    def test_trace_prints_digests(self, tmp_path, capsys):
        assert main(["run", CANONICAL, "--trace",
                     str(tmp_path / "t.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "trace digest:" in out
        assert "manifest digest:" in out
        assert "conserved:       True" in out

    def test_trace_writes_schema_valid_jsonl_and_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import RunManifest
        from repro.obs.schema import validate_trace_lines

        out_path = tmp_path / "trace.jsonl"
        manifest_path = tmp_path / "manifest.json"
        assert main(["run", CANONICAL, "--trace", str(out_path),
                     "--manifest", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        lines = out_path.read_text().splitlines()
        assert validate_trace_lines(lines) == len(lines) > 0
        assert f"trace events:    {len(lines)}" in out
        manifest = RunManifest.from_json(manifest_path.read_text())
        assert 0 < manifest.event_count < len(lines)

    def test_trace_same_seed_byte_identical_files(self, tmp_path, capsys):
        runs = [(tmp_path / f"{n}.jsonl", tmp_path / f"{n}.json")
                for n in "ab"]
        for trace, manifest in runs:
            assert main(["run", CANONICAL, "--seed", "5", "--trace",
                         str(trace), "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        assert runs[0][0].read_bytes() == runs[1][0].read_bytes()
        assert runs[0][1].read_bytes() == runs[1][1].read_bytes()
        assert hashlib.sha256(runs[0][0].read_bytes()).hexdigest() != (
            TRACE_SHA256["direct"]
        ), "--seed must change the world"

    @pytest.mark.parametrize("mode", sorted(TRACE_SHA256))
    def test_trace_bytes_pinned_per_mode(self, mode, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["run", CANONICAL, "--mode", mode,
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            TRACE_SHA256[mode]
        )

    def test_metrics_dumps_sorted_export(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        assert main(["run", CANONICAL, "--metrics", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "metrics digest:" in out
        doc = json.loads(out_path.read_text())
        assert doc["format_version"] == 1
        names = list(doc["metrics"])
        assert names == sorted(names)
        assert "zmail.deliver.delivered" in doc["metrics"]

    def test_metrics_bytes_same_with_and_without_trace(self, tmp_path, capsys):
        # --metrics alone re-runs the world untraced; tracing has no
        # observer effect on the counters the export reads.
        untraced, traced = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", CANONICAL, "--metrics", str(untraced)]) == 0
        assert "trace digest:" not in capsys.readouterr().out
        assert main(["run", CANONICAL, "--metrics", str(traced),
                     "--trace", str(tmp_path / "t.jsonl")]) == 0
        assert "trace digest:" in capsys.readouterr().out
        assert untraced.read_bytes() == traced.read_bytes()


class TestProfile:
    """``repro --profile`` wraps any command in cProfile."""

    ARGS = ["--profile", "--profile-top", "5", "run", CANONICAL]

    def test_profile_prints_the_run_then_a_pstats_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        run_output, table = out.split("function calls", 1)
        assert "conserved:       True" in run_output
        assert "Ordered by: cumulative time" in table
        assert "due to restriction <5>" in table
        assert "(cmd_run)" in table

    def test_profile_returns_the_commands_exit_code(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, "run", lambda args: 1)
        assert main(self.ARGS) == 1
        assert "Ordered by: cumulative time" in capsys.readouterr().out


class TestCluster:
    def args(self, shards="2"):
        return ["run", example("mixed-4isp.yaml"), "--mode", "cluster",
                "--shards", shards]

    def test_cluster_same_seed_reruns_cmp_identical(self, tmp_path, capsys):
        """Same-seed cluster reruns write byte-identical manifests, and
        the shard count doesn't matter."""
        paths = [tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"]
        for path, shards in zip(paths, ("2", "2", "1")):
            code = main(self.args(shards)
                        + ["--seed", "9", "--manifest", str(path)])
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == paths[2].read_bytes()

    def test_cluster_prints_summary_and_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(self.args() + ["--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "conserved:       True" in out
        assert "manifest digest:" in out
        report = json.loads(report_path.read_text())
        assert report["n_shards"] == 2
        assert len(report["assignment"]) == 4

    def test_cluster_seed_changes_results(self, tmp_path, capsys):
        digests = []
        for seed in ("1", "2"):
            path = tmp_path / f"seed{seed}.json"
            assert main(
                self.args() + ["--seed", seed, "--manifest", str(path)]
            ) == 0
            digests.append(path.read_bytes())
        capsys.readouterr()
        assert digests[0] != digests[1]


class TestRunRejectsBadInput:
    """Bad input is one ``repro: error:`` line and exit status 2."""

    CASES = {
        "shards-outside-cluster": [CANONICAL, "--shards", "2"],
        "lag-outside-cluster": [CANONICAL, "--lag", "1"],
        "cluster-mode-outside-cluster": [CANONICAL, "--cluster-mode", "spawn"],
        "zero-shards": [CANONICAL, "--mode", "cluster", "--shards", "0"],
        "too-many-shards": [CANONICAL, "--mode", "cluster", "--shards", "100"],
        "negative-lag": [CANONICAL, "--mode", "cluster", "--lag", "-1"],
        "trace-in-chaos-mode": [
            example("chaos-clean.yaml"), "--mode", "chaos", "--trace", "t"],
        "columnar-non-compliant": [
            example("mixed-4isp.yaml"), "--mode", "columnar"],
        "missing-file": [example("no-such-world.yaml")],
        "store-outside-soak": [CANONICAL, "--store", "s.db"],
        "metrics-in-soak-mode": [
            example("soak.yaml"), "--mode", "soak", "--metrics", "m"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_option_is_a_usage_error(self, case, capsys):
        assert main(["run"] + self.CASES[case]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert captured.err.count("\n") == 1

    def test_unknown_document_key_is_a_usage_error(self, tmp_path, capsys):
        doc = tmp_path / "typo.yaml"
        doc.write_text("schema_version: 1\nname: typo\ntopolgy: {}\n")
        assert main(["run", str(doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "topolgy" in err

    def test_soak_refuses_an_existing_store(self, tmp_path, capsys):
        store = tmp_path / "soak.db"
        store.write_bytes(b"")
        assert main([
            "run", example("soak.yaml"), "--mode", "soak", "--store", str(store),
        ]) == 2
        assert "already exists" in capsys.readouterr().err


class TestArenaCommand:
    ARGS = [
        "arena", "--seed", "5", "--worlds", "2", "--periods", "3",
        "--attackers", "static,zombie_fleet",
        "--defenders", "zmail_static,price_tuner",
    ]

    def test_arena_prints_summary_and_passes(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "2 attackers x 2 defenders x 2 worlds" in out
        assert "report digest:" in out
        assert "passed:         True" in out

    def test_arena_report_is_cmp_identical(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        assert main(self.ARGS + ["--out", str(one)]) == 0
        assert main(self.ARGS + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_arena_json_output_parses(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert len(report["cells"]) == 8

    def test_arena_unknown_strategy_is_loud(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="unknown attacker"):
            main(["arena", "--worlds", "1", "--attackers", "nope"])
