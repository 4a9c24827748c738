"""Tests for the Abstract Protocol engine: channels, processes, scheduler."""

import pytest

from repro.apn.channel import Channel, Message
from repro.apn.process import Process
from repro.apn.scheduler import InvariantViolation, ProtocolState, Scheduler
from repro.errors import APNError, ChannelClosed, GuardError


class TestChannel:
    def test_fifo_order(self):
        chan = Channel("p", "q")
        for i in range(5):
            chan.send(Message("m", (i,)))
        received = [chan.receive().fields[0] for _ in range(5)]
        assert received == list(range(5))

    def test_peek_does_not_consume(self):
        chan = Channel("p", "q")
        chan.send(Message("m", (1,)))
        assert chan.peek() == Message("m", (1,))
        assert len(chan) == 1

    def test_peek_empty(self):
        assert Channel("p", "q").peek() is None

    def test_receive_empty_raises(self):
        with pytest.raises(ChannelClosed, match="empty"):
            Channel("p", "q").receive()

    def test_closed_channel(self):
        chan = Channel("p", "q")
        chan.closed = True
        with pytest.raises(ChannelClosed):
            chan.send(Message("m"))

    def test_contents_snapshot(self):
        chan = Channel("p", "q")
        chan.send(Message("a"))
        chan.send(Message("b"))
        assert [m.name for m in chan.contents()] == ["a", "b"]

    def test_message_meta_excluded_from_equality(self):
        assert Message("m", (1,), meta={"x": 1}) == Message("m", (1,), meta=None)

    def test_message_str(self):
        assert str(Message("email", (1, 2))) == "email(1, 2)"


class TestProcess:
    def test_state_sections(self):
        proc = Process(
            "p",
            constants={"n": 3},
            inputs={"limit": 10},
            variables={"x": 0},
        )
        assert proc["n"] == 3
        assert proc["limit"] == 10
        assert proc["x"] == 0
        assert "x" in proc and "missing" not in proc

    def test_variables_writable(self):
        proc = Process("p", variables={"x": 0})
        proc["x"] = 5
        assert proc["x"] == 5

    def test_constants_write_protected(self):
        proc = Process("p", constants={"n": 3})
        with pytest.raises(APNError, match="read-only"):
            proc["n"] = 4

    def test_inputs_write_protected(self):
        proc = Process("p", inputs={"limit": 10})
        with pytest.raises(APNError, match="read-only"):
            proc["limit"] = 20

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            Process("p")["nope"]

    def test_new_variables_creatable(self):
        proc = Process("p")
        proc["fresh"] = 1
        assert proc["fresh"] == 1

    def test_parameterised_action_expansion(self):
        """The paper's `par` construct: one action per domain value,
        written as a loop (here the spec's ``rcv email from isp[g]``)."""
        from repro.apn.zmail_spec import ZmailSpecConfig, build_zmail_protocol

        config = ZmailSpecConfig(n=3, m=2, seed=7, key_bits=128)
        isp0 = build_zmail_protocol(config).isps[0]
        names = [a.name for a in isp0.actions if a.name.startswith("rcv-email")]
        assert names == ["rcv-email[1]", "rcv-email[2]"]


class TestProtocolState:
    def test_channels_created_lazily(self):
        state = ProtocolState([Process("p"), Process("q")])
        assert state.channels() == {}
        chan = state.channel("p", "q")
        assert state.channel("p", "q") is chan

    def test_duplicate_names_rejected(self):
        with pytest.raises(APNError, match="duplicate"):
            ProtocolState([Process("p"), Process("p")])

    def test_unknown_process(self):
        state = ProtocolState([Process("p")])
        with pytest.raises(APNError, match="unknown"):
            state.process("q")

    def test_in_flight_counts(self):
        state = ProtocolState([Process("p"), Process("q")])
        state.send("p", "q", Message("m"))
        state.send("p", "q", Message("m"))
        assert state.in_flight() == 2


class TestScheduler:
    def test_runs_to_quiescence(self):
        proc = Process("p", variables={"x": 0})
        proc.add_local_action(
            "inc", lambda p: p["x"] < 3, lambda p: p.__setitem__("x", p["x"] + 1)
        )
        sched = Scheduler([proc], seed=1)
        steps = sched.run(max_steps=100)
        assert steps == 3
        assert proc["x"] == 3

    def test_receive_guard_matches_head_only(self):
        sender = Process("s")
        receiver = Process("r", variables={"got": []})
        receiver.add_receive_action(
            "rcv-a", "a", "s", lambda p, m: p["got"].append(m.name)
        )
        sched = Scheduler([sender, receiver], seed=1)
        sched.state.send("s", "r", Message("b"))  # head doesn't match
        sched.state.send("s", "r", Message("a"))
        assert sched.run(10) == 0  # blocked: head is 'b'
        assert receiver["got"] == []

    def test_receive_consumes_in_order(self):
        sender = Process("s")
        receiver = Process("r", variables={"got": []})
        receiver.add_receive_action(
            "rcv", "m", "s", lambda p, m: p["got"].append(m.fields[0])
        )
        sched = Scheduler([sender, receiver], seed=1)
        for i in range(5):
            sched.state.send("s", "r", Message("m", (i,)))
        sched.run(100)
        assert receiver["got"] == [0, 1, 2, 3, 4]

    def test_weak_fairness_statistical(self):
        """Two always-enabled actions both fire under the random scheduler."""
        proc = Process("p", variables={"a": 0, "b": 0, "steps": 0})

        def guard(p):
            return p["steps"] < 200

        def bump(key):
            def run(p):
                p[key] = p[key] + 1
                p["steps"] = p["steps"] + 1

            return run

        proc.add_local_action("bump-a", guard, bump("a"))
        proc.add_local_action("bump-b", guard, bump("b"))
        sched = Scheduler([proc], seed=3)
        sched.run(1000)
        assert proc["a"] > 20 and proc["b"] > 20

    def test_weights_bias_selection(self):
        proc = Process("p", variables={"a": 0, "b": 0, "steps": 0})

        def guard(p):
            return p["steps"] < 500

        def bump(key):
            def run(p):
                p[key] = p[key] + 1
                p["steps"] = p["steps"] + 1

            return run

        proc.add_local_action("rare", guard, bump("a"), weight=0.01)
        proc.add_local_action("common", guard, bump("b"), weight=1.0)
        Scheduler([proc], seed=4).run(2000)
        assert proc["b"] > 10 * proc["a"]

    def test_timeout_guard_sees_global_state(self):
        p = Process("p", variables={"done": False})
        q = Process("q", variables={"sent": False})

        def send_action(proc):
            proc["sent"] = True

        q.add_local_action("send", lambda pr: not pr["sent"], send_action)
        p.add_timeout_action(
            "watch",
            lambda state, proc: state.process("q")["sent"] and not proc["done"],
            lambda proc: proc.__setitem__("done", True),
        )
        sched = Scheduler([p, q], seed=5)
        sched.run(100)
        assert p["done"] is True

    def test_non_boolean_guard_rejected(self):
        proc = Process("p")
        proc.add_local_action("bad", lambda p: 1, lambda p: None)
        with pytest.raises(GuardError, match="returned"):
            Scheduler([proc], seed=0).run(10)

    def test_invariant_violation_raised(self):
        proc = Process("p", variables={"x": 0})
        proc.add_local_action(
            "inc", lambda p: p["x"] < 10, lambda p: p.__setitem__("x", p["x"] + 1)
        )
        sched = Scheduler([proc], seed=0)
        sched.add_invariant("x-small", lambda s: s.process("p")["x"] < 3)
        with pytest.raises(InvariantViolation, match="x-small"):
            sched.run(100)

    def test_trace_recording(self):
        proc = Process("p", variables={"x": 0})
        proc.add_local_action(
            "inc", lambda p: p["x"] < 2, lambda p: p.__setitem__("x", p["x"] + 1)
        )
        sched = Scheduler([proc], seed=0, trace=True)
        sched.run(10)
        assert [r.action for r in sched.trace] == ["inc", "inc"]

    def test_fire_counts(self):
        proc = Process("p", variables={"x": 0})
        proc.add_local_action(
            "inc", lambda p: p["x"] < 4, lambda p: p.__setitem__("x", p["x"] + 1)
        )
        sched = Scheduler([proc], seed=0)
        sched.run(100)
        assert proc.actions[0].fired == 4
