"""Chaos campaign tests: fault injection, differential recovery, and
bit-reproducible reports.

The headline is the differential test: the *same* workload run
fault-free and run under heavy faults plus an ISP crash/restart must end
with identical accounting state (SHA-256 digest over every balance,
credit counter, and pool). Recovery is not merely "no invariant broke" —
it converges to the exact state the failure-free execution reaches.
"""

import json

import pytest

from conftest import example, load_plan
from repro.chaos import (
    ChaosDeployment,
    CrashEvent,
    FaultSpec,
    FaultyNetwork,
    NO_FAULTS,
    run_cell,
)
from repro.core import ZmailConfig
from repro.errors import SimulationError
from repro.obs.manifest import accounting_digest as digest
from repro.scenario import load
from repro.sim import Engine, LinkSpec, SeededStreams
from repro.sim.rng import derive_seed
from repro.sim.workload import NormalUserWorkload


class TestFaultyNetwork:
    def make_net(self, faults, seed=0):
        engine = Engine()
        net = FaultyNetwork(
            engine,
            SeededStreams(seed),
            default_link=LinkSpec(base_latency=0.1),
            default_faults=faults,
        )
        received = []

        class Sink:
            def on_message(self, src, payload):
                received.append(payload)

        net.register("a", Sink())
        net.register("b", Sink())
        return engine, net, received

    def test_no_faults_delivers_everything(self):
        engine, net, received = self.make_net(NO_FAULTS)
        for i in range(50):
            net.send("a", "b", i)
        engine.run()
        assert received == list(range(50))
        assert net.faults_dropped == 0
        assert net.faults_duplicated == 0
        assert net.faults_reordered == 0

    def test_drop_rate_loses_messages(self):
        engine, net, received = self.make_net(FaultSpec(drop_rate=0.5), seed=3)
        for i in range(200):
            net.send("a", "b", i)
        engine.run()
        assert net.faults_dropped > 0
        assert len(received) == 200 - net.faults_dropped
        # Survivors keep FIFO order: drops thin the stream, never shuffle it.
        assert received == sorted(received)

    def test_duplicate_rate_duplicates_messages(self):
        engine, net, received = self.make_net(
            FaultSpec(duplicate_rate=0.5), seed=4
        )
        for i in range(100):
            net.send("a", "b", i)
        engine.run()
        assert net.faults_duplicated > 0
        assert len(received) == 100 + net.faults_duplicated

    def test_reorder_rate_shuffles_delivery(self):
        engine, net, received = self.make_net(
            FaultSpec(reorder_rate=0.5, reorder_delay=5.0), seed=5
        )
        for i in range(100):
            net.send("a", "b", i)
        engine.run()
        assert net.faults_reordered > 0
        assert sorted(received) == list(range(100))
        assert received != list(range(100))

    def test_down_node_blackholes_traffic_both_directions(self):
        engine, net, received = self.make_net(NO_FAULTS)
        net.set_down("b")
        net.send("a", "b", "to-dead")
        net.send("b", "a", "from-dead")
        engine.run()
        assert received == []
        assert net.dropped_down == 2
        net.set_up("b")
        net.send("a", "b", "alive")
        engine.run()
        assert received == ["alive"]

    def test_down_node_drops_in_flight_messages(self):
        engine, net, received = self.make_net(NO_FAULTS)
        net.send("a", "b", "in-flight")  # latency 0.1: crashes at 0.05
        engine.schedule_at(0.05, lambda: net.set_down("b"))
        engine.run()
        assert received == []
        assert net.dropped_down == 1

    def test_fault_streams_are_independent_per_fault(self):
        """Changing the duplicate rate must not perturb which messages
        get dropped — each fault type draws from its own stream."""

        def dropped_set(duplicate_rate):
            engine, net, received = self.make_net(
                FaultSpec(drop_rate=0.3, duplicate_rate=duplicate_rate),
                seed=9,
            )
            for i in range(100):
                net.send("a", "b", i)
            engine.run()
            return set(range(100)) - set(received)

        assert dropped_set(0.0) == dropped_set(0.9)

    def test_fault_spec_validation(self):
        with pytest.raises(SimulationError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(SimulationError):
            FaultSpec(drop_rate=-0.1)
        with pytest.raises(SimulationError):
            FaultSpec(reorder_rate=0.5, reorder_delay=-1.0)
        assert not NO_FAULTS.active
        assert FaultSpec(drop_rate=0.1).active


class TestDifferentialRecovery:
    """Satellite 2: faults + crash/recovery converge to the exact
    accounting state of the fault-free run."""

    # Generous limits so no send is ever refused for economic reasons:
    # the letter sets of the two runs are then identical, and final
    # balances depend only on *which* letters existed, not on timing.
    CONFIG = ZmailConfig(
        default_user_balance=100_000,
        default_daily_limit=1_000_000,
        auto_topup_amount=0,
    )

    def run_workload(self, *, faults, crashes=(), seed=21, duration=200.0):
        deployment = ChaosDeployment(
            n_isps=3,
            users_per_isp=4,
            seed=seed,
            config=self.CONFIG,
            faults=faults,
            monitor_interval=5.0,
        )
        for crash in crashes:
            deployment.schedule_crash(crash)
        workload = NormalUserWorkload(
            n_isps=3,
            users_per_isp=4,
            rate_per_day=30_000.0,
            streams=SeededStreams(derive_seed(seed, "diff-workload")),
        )
        converged = deployment.run(
            workload.generate(duration), until=duration, drain_window=3_000.0
        )
        assert converged, "deployment failed to drain"
        return deployment

    def test_faults_and_crash_recovery_reach_fault_free_state(self):
        clean = self.run_workload(faults=NO_FAULTS)
        chaotic = self.run_workload(
            faults=FaultSpec(drop_rate=0.25, duplicate_rate=0.2,
                             reorder_rate=0.25, reorder_delay=2.0),
            crashes=[
                CrashEvent(node="isp1", at=60.0, down_for=30.0),
                CrashEvent(node="bank", at=120.0, down_for=20.0),
            ],
        )
        assert chaotic.crash_controller.restarts == 2
        assert chaotic.net.faults_dropped > 0
        assert digest(clean.network) == digest(chaotic.network)
        assert clean.monitor.green and chaotic.monitor.green

    def test_digest_actually_discriminates(self):
        """Guard against a vacuous differential: different workload seeds
        must produce different digests."""
        one = self.run_workload(faults=NO_FAULTS, seed=21, duration=100.0)
        other = self.run_workload(faults=NO_FAULTS, seed=22, duration=100.0)
        assert digest(one.network) != digest(other.network)


CHAOS_DOCUMENTS = ("chaos-clean.yaml", "chaos-lossy-dup-reorder.yaml",
                   "chaos-crashy.yaml")


def run_campaign(seed=None):
    """The three built-in chaos documents' rows, keyed by cell name."""
    rows = (run_cell(load_plan(doc, seed=seed)) for doc in CHAOS_DOCUMENTS)
    return {row["cell"]: row for row in rows}


class TestCampaign:
    def test_default_campaign_passes_and_is_bit_reproducible(self):
        first = run_campaign()
        second = run_campaign()
        assert all(row["passed"] for row in first.values())
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seed_different_report(self):
        base = run_campaign()
        other = run_campaign(seed=99)
        assert all(row["passed"] for row in other.values())
        assert {cell: row["digest"] for cell, row in base.items()} != {
            cell: row["digest"] for cell, row in other.items()
        }

    def test_crashy_cell_recovers_with_monitors_green(self):
        """Acceptance criterion: ISP crash + restart + dup/reorder over
        reliable links ends with all monitors green."""
        crashy = run_cell(load_plan("chaos-crashy.yaml"))
        assert crashy["passed"]
        assert crashy["crashes"] == 2
        assert crashy["restarts"] == 2
        assert crashy["violations"] == 0
        assert crashy["first_violation"] is None

    def test_touching_crash_windows_run_in_any_listed_order(self):
        # isp1 crashes again the instant it restarts, listed first: the
        # restart still fires before the second crash.
        doc = load(example("chaos-crashy.yaml"))
        doc["crashes"].insert(0, {"node": "isp1", "at": 180.0, "down_for": 30.0})
        row = run_cell(load_plan(doc))
        assert row["passed"], row
        assert row["crashes"] == row["restarts"] == 3

    def test_campaign_document_loads_from_json_and_yaml(self, tmp_path):
        # A chaos world is an ordinary scenario document: its canonical
        # JSON form is the same world as the committed YAML.
        from repro.scenario import canonical_dump

        yaml_plan = load_plan("chaos-crashy.yaml")
        json_path = tmp_path / "crashy.json"
        json_path.write_text(canonical_dump(yaml_plan.doc))
        assert load_plan(str(json_path)) == yaml_plan

    def test_campaign_document_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json: [nor yaml")
        with pytest.raises(SimulationError):
            load_plan(str(bad))
        typo = {"schema_version": 1, "name": "x", "chaos": {"drain": 9.0}}
        with pytest.raises(SimulationError, match="chaos"):
            load_plan(typo)


class TestCli:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_chaos_cli_stdout_is_byte_identical_across_runs(self, capsys):
        argv = ["run", example("chaos-crashy.yaml"), "--mode", "chaos"]
        code1, out1 = self.run_cli(argv, capsys)
        code2, out2 = self.run_cli(argv, capsys)
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        assert "passed:          True" in out1

    def test_chaos_cli_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = self.run_cli(
            ["run", example("chaos-clean.yaml"), "--mode", "chaos",
             "--seed", "7", "--report", str(out_path)],
            capsys,
        )
        assert code == 0
        row = json.loads(out_path.read_text())
        assert row["passed"]
        assert f"digest:          {row['digest']}" in out
