"""Crash-safety tests for the JSONL trace sink."""

import io
import json
import os

from repro.obs.trace import JsonlSink, TraceRecorder


class TestJsonlSinkModes:
    def test_write_mode_truncates(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as handle:
            handle.write("old content\n")
        with JsonlSink(path) as sink:
            sink.accept({"a": 1}, '{"a":1}')
        assert open(path).read() == '{"a":1}\n'

    def test_sync_flushes_to_disk(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlSink(path)
        sink.accept({"a": 1}, '{"a":1}')
        sink.sync()
        # Visible to an independent reader before close.
        assert open(path).read() == '{"a":1}\n'
        sink.close()

    def test_sync_tolerates_fd_free_objects(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.accept({"a": 1}, '{"a":1}')
        sink.sync()  # StringIO.fileno() raises; sync must swallow it
        sink.close()  # never closes a caller-supplied object
        assert buffer.getvalue() == '{"a":1}\n'

    def test_recorder_integration(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlSink(path) as sink:
            recorder = TraceRecorder(sink=sink, clock=lambda: 1.0)
            recorder.emit("crash", node="isp0")
        lines = open(path).read().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["type"] == "crash"


class TestKilledProcessTraceParseable:
    def test_sigkill_mid_write_leaves_recoverable_trace(self, tmp_path):
        # A real fail-stop: a child process is SIGKILLed while streaming
        # events. Each line is one write, so every newline-terminated
        # line survives whole; only an unterminated tail can be torn.
        import signal
        import subprocess
        import sys
        import time

        path = str(tmp_path / "killed.jsonl")
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                (
                    "import sys\n"
                    "sys.path.insert(0, %r)\n"
                    "from repro.obs.trace import JsonlSink, TraceRecorder\n"
                    "sink = JsonlSink(%r)\n"
                    "rec = TraceRecorder(sink=sink, clock=lambda: 0.0)\n"
                    "i = 0\n"
                    "while True:\n"
                    "    rec.emit('crash', node='isp%%d' %% i)\n"
                    "    sink.sync()\n"
                    "    i += 1\n"
                )
                % (os.path.join(os.path.dirname(__file__), "..", "src"), path),
            ]
        )
        try:
            deadline = time.time() + 10.0
            while time.time() < deadline:
                if os.path.exists(path) and os.path.getsize(path) > 4096:
                    break
                time.sleep(0.05)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
        assert os.path.getsize(path) > 0
        *lines, _torn_tail = open(path).read().split("\n")
        assert lines, "no complete events survived"
        for line in lines:
            assert json.loads(line)["type"] == "crash"
