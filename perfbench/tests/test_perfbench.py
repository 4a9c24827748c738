"""The benchmark's own tests (smoke size; run with ``pytest perfbench/tests``).

* every workload runs end to end through the command, untraced and
  traced, and prints exactly the metrics ``BENCHMARK.json`` declares;
* the traced run has no observer effect: every digest and manifest is
  byte-identical with and without the layer wrappers;
* a corrupted reference digest fails the run;
* without the checkout's ``src/`` the command fails and prints no result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

import batch
import layers
import run
import smtp_submit
from harness import BENCH_DIR, ROOT, Outcome

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR.relative_to(ROOT) / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PERFBENCH_SMOKE="1"),
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3",
                  "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_traced_macro_run_changes_no_digest():
    from repro.obs.manifest import accounting_digest
    from repro.scenario import compile_scenario

    plan = compile_scenario(batch.macro_doc(5, days=1))
    plain = plan.scenario("columnar").run()
    tracer = layers.LayerTracer()
    with layers.install(tracer):
        traced = plan.scenario("columnar").run()
    assert traced.cut_digests == plain.cut_digests
    assert accounting_digest(traced.network) == accounting_digest(plain.network)
    assert tracer.stats["columnar.batch"].calls > 0
    assert tracer.counts["workload.requests"] == plain.sends_attempted


def test_traced_fuzz_world_changes_no_manifest():
    from repro.scenario import compile_scenario
    from repro.scenario.compiler import run_plan
    from repro.scenario.fuzz import world_seed
    from repro.scenario.generate import generate_doc

    doc = generate_doc(world_seed(batch.CORPUS_CAMPAIGN, 0))
    plan = compile_scenario(batch.reseed(doc, 5, 0, 0))

    def manifests():
        return [
            run_plan(plan, mode, shards=2)["manifest"].to_json()
            for mode in ("direct", "columnar", "cluster")
        ]

    plain = manifests()
    tracer = layers.LayerTracer()
    with layers.install(tracer):
        traced = manifests()
    assert traced == plain
    assert tracer.stats["trace.emit"].calls > 0
    assert tracer.stats["cluster.epoch"].calls > 0


def test_every_wrapper_is_removed_on_exit():
    import importlib

    def resolve(target):
        module, _, path = target.partition(":")
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    before = [resolve(t) for t, *_ in layers.BOUNDARIES]
    with layers.install(layers.LayerTracer()):
        assert all(resolve(t) is not b for (t, *_), b in zip(layers.BOUNDARIES, before))
    assert all(resolve(t) is b for (t, *_), b in zip(layers.BOUNDARIES, before))


def test_self_time_excludes_nested_spans():
    tracer = layers.LayerTracer()
    inner = tracer._call_wrapper("inner", lambda: time.sleep(0.02), None)
    outer = tracer._call_wrapper(
        "outer", lambda: (time.sleep(0.01), inner()), None
    )
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    stats = tracer.stats
    assert stats["outer"].total >= stats["inner"].total >= 0.02
    assert stats["outer"].self == pytest.approx(
        stats["outer"].total - stats["inner"].total
    )
    assert tracer.covered() == pytest.approx(stats["outer"].total)
    assert tracer.covered() <= wall


def test_corrupted_reference_digest_fails_the_run():
    reference = batch.macro_reference(5, days=1)
    good = batch.run_macro(5, 0.01, False, reference=reference, days=1)
    assert good.correct, good.problems
    for key, bad in (("cuts", ["0" * 64] + reference["cuts"][1:]),
                     ("final", "0" * 64)):
        corrupted = dict(reference, **{key: bad})
        outcome = batch.run_macro(5, 0.01, False, reference=corrupted, days=1)
        assert not outcome.correct
        assert any("digest" in problem for problem in outcome.problems)


def test_fuzz_failure_names_the_reseeded_world(monkeypatch, tmp_path):
    import repro.scenario.fuzz as fuzz
    from repro.scenario.generate import generate_doc

    doc = generate_doc(fuzz.world_seed(batch.CORPUS_CAMPAIGN, 1))
    failing = batch.reseed(doc, 5, 0, 1)
    monkeypatch.setattr(batch, "FUZZ_FAILURES", tmp_path)
    monkeypatch.setattr(
        fuzz, "check_world",
        lambda world, shards: "boom" if world == failing else None,
    )
    unit = batch.fuzz_pass(5, 0)
    assert not unit["passed"]
    [message] = unit["failures"]
    [path] = tmp_path.iterdir()
    assert str(failing["seed"]) in message and str(path) in message
    assert json.loads(path.read_text())["seed"] == failing["seed"]


def test_failed_check_gives_nonzero_exit(monkeypatch, capsys):
    metrics = {
        name: (1.0, "s") for name in (*run.END_TO_END, *run.REPORTED_ONLY)
        if name != "error_rate"
    }
    monkeypatch.setattr(
        run, "run_workload",
        lambda *args: Outcome(10, 0, metrics, ["digest mismatch"]),
    )
    assert run.main(["--workload", "macro-columnar", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_without_source_the_command_fails_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = _bench("--workload", "macro-columnar", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_sustained_rate_interpolates_the_knee():
    limit = smtp_submit.P99_LIMIT_MS
    rung = lambda rate, p99, passed, valid=True: {  # noqa: E731
        "rate": rate, "p99_ms": p99, "passed": passed, "valid": valid,
    }
    at_limit = smtp_submit.sustained_rate(
        [rung(500, limit / 4, True), rung(1000, limit * 4, False)]
    )
    assert at_limit == pytest.approx(500 * 2 ** 0.5)
    # An invalid rung is skipped; the knee then sits above 700.
    assert smtp_submit.sustained_rate([
        rung(500, 1.0, True), rung(700, limit * 9, False, valid=False),
        rung(1000, limit * 2, False),
    ]) > 700
    assert smtp_submit.sustained_rate([rung(500, 1.0, True)]) == 500
