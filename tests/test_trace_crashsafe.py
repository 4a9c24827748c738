"""Crash-safety tests for the JSONL trace sink and tail recovery."""

import io
import json
import os

import pytest

from repro.errors import SimulationError
from repro.obs.trace import JsonlSink, TraceRecorder, recover_jsonl_tail


class TestJsonlSinkModes:
    def test_write_mode_truncates(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as handle:
            handle.write("old content\n")
        with JsonlSink(path) as sink:
            sink.accept({"a": 1}, '{"a":1}')
        assert open(path).read() == '{"a":1}\n'

    def test_resume_mode_appends(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlSink(path) as sink:
            sink.accept({"a": 1}, '{"a":1}')
        with JsonlSink(path, resume=True) as sink:
            sink.accept({"a": 2}, '{"a":2}')
        assert open(path).read() == '{"a":1}\n{"a":2}\n'

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


class TestRecoverJsonlTail:
    def _write(self, tmp_path, payload: bytes) -> str:
        path = str(tmp_path / "trace.jsonl")
        with open(path, "wb") as handle:
            handle.write(payload)
        return path

    def test_clean_file_untouched(self, tmp_path):
        payload = b'{"a":1}\n{"a":2}\n'
        path = self._write(tmp_path, payload)
        assert recover_jsonl_tail(path) == 0
        assert open(path, "rb").read() == payload

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, b"")
        assert recover_jsonl_tail(path) == 0

    def test_torn_unterminated_tail_dropped(self, tmp_path):
        path = self._write(tmp_path, b'{"a":1}\n{"a":2}\n{"a":')
        assert recover_jsonl_tail(path) == len(b'{"a":')
        assert open(path, "rb").read() == b'{"a":1}\n{"a":2}\n'

    def test_torn_terminated_tail_dropped(self, tmp_path):
        # A newline-terminated final line that is not valid JSON (the
        # page holding it was half-flushed) must go too.
        path = self._write(tmp_path, b'{"a":1}\n{"a":2\x00\x00\n')
        dropped = recover_jsonl_tail(path)
        assert dropped == len(b'{"a":2\x00\x00\n')
        assert open(path, "rb").read() == b'{"a":1}\n'

    def test_multiple_torn_lines_dropped(self, tmp_path):
        path = self._write(tmp_path, b'{"a":1}\ngarbage\nmore garbage\n')
        recover_jsonl_tail(path)
        assert open(path, "rb").read() == b'{"a":1}\n'

    def test_entirely_torn_file_empties(self, tmp_path):
        path = self._write(tmp_path, b"not json\n")
        recover_jsonl_tail(path)
        assert open(path, "rb").read() == b""

    def test_only_unterminated_garbage(self, tmp_path):
        path = self._write(tmp_path, b"half a line with no newline")
        recover_jsonl_tail(path)
        assert open(path, "rb").read() == b""

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SimulationError, match="cannot recover trace"):
            recover_jsonl_tail(str(tmp_path / "absent.jsonl"))

    def test_recovered_file_resumable(self, tmp_path):
        # The full crash-restart cycle: torn tail, recover, resume append.
        path = self._write(tmp_path, b'{"a":1}\n{"a":2}\n{"to')
        recover_jsonl_tail(path)
        with JsonlSink(path, resume=True) as sink:
            sink.accept({"a": 3}, '{"a":3}')
        lines = open(path).read().splitlines()
        assert [json.loads(line)["a"] for line in lines] == [1, 2, 3]


class TestKilledProcessTraceParseable:
    def test_sigkill_mid_write_leaves_recoverable_trace(self, tmp_path):
        # A real fail-stop: a child process is SIGKILLed while streaming
        # events; the survivor file must recover to parseable JSONL.
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
        recover_jsonl_tail(path)
        lines = open(path).read().splitlines()
        assert lines, "no complete events survived"
        for line in lines:
            assert json.loads(line)["type"] == "crash"
