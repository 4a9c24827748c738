#!/usr/bin/env bash
# CI gate: tier-1 tests + a macro-scale throughput smoke run.
#
# 1. Runs the full tier-1 test suite (ROADMAP.md's verify command).
# 2. Re-runs the suite under tools/coverage_gate.py: overall line
#    coverage must stay at or above the pinned floor (CI_COVERAGE_FLOOR,
#    default 94 — measured 94.9% when the gate was introduced) and the
#    observability package src/repro/obs must be 100% covered. Set
#    CI_COVERAGE=0 to skip the traced re-run on slow machines.
# 3. Runs the canonical macro scenario at smoke scale (~50k messages),
#    which also asserts cross-mode determinism, and fails the build if
#    columnar/direct/engine_stream throughput regresses more than
#    CI_BENCH_TOLERANCE (default 45%) against the committed
#    BENCH_scale.json numbers. Absolute msgs/sec varies with machine
#    load (the committed references are idle-machine numbers), so the
#    absolute floor is loose; the load-invariant guarantees are the
#    *ratio* gates — smoke columnar must hold >=2x engine_stream within
#    the same run, and the committed full-scale columnar lead must stay
#    >=3x.
# 4. Runs every chaos and overload document under examples/scenarios/
#    twice in chaos mode (well under 60s total) and fails if any cell
#    breaks an invariant (the overload cells also keep their monitors
#    green: bounded queues, no lost accounting) or the two report rows
#    are not byte-identical (determinism gate).
# 5. Runs the cluster determinism smoke on examples/scenarios/
#    cluster-8isp.yaml: the same seeded world at 1 and 4 shards (real
#    spawn workers) must produce byte-identical invariant manifests
#    (cmp), the sharding-invariance contract — then again at 4 shards
#    under the bounded-lag asynchronous drive (--lag 2, streaming
#    reconciliation): its manifest must byte-match the lockstep one,
#    the lockstep-as-oracle contract.
# 6. Runs the columnar determinism smoke: the canonical document driven
#    by the columnar batch executor and by the engine must produce
#    byte-identical invariant manifests (cmp) — ledger event multiset,
#    protocol metrics and accounting digest all agree. The throughput
#    gate additionally requires the committed columnar run to hold a
#    >=3x lead over engine_stream at full scale.
# 7. Runs the store soak smoke: a short seeded soak with two injected
#    crash/restart cycles against the durable SQLite store must produce
#    a run manifest byte-identical to the uninterrupted in-memory
#    oracle (cmp) — the recovery-equivalence contract of repro.store.
# 8. Runs the arena determinism smoke: the same seeded mini-tournament
#    (three attacker strategies vs the static Zmail defender) twice,
#    byte-comparing the two canonical reports (cmp) and requiring every
#    cell to pass conservation/consistency. The full 100-world phase
#    diagram runs via benchmarks/bench_arena.py (see the workflow).
#
# The committed reference was measured on a developer machine; raw
# msgs/sec on other hardware differ, so the default tolerance is loose
# (it catches algorithmic regressions, not single-digit noise) and the
# knobs below let slow/shared runners relax it further:
#
#   CI_BENCH_MESSAGES=20000 CI_BENCH_TOLERANCE=0.5 tools/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

# `tools/ci.sh fuzz` runs the nightly differential fuzzing campaign
# instead of the regular gate: CI_FUZZ_COUNT generated worlds (default
# 200) through every executor, byte-comparing invariant manifests. The
# seed defaults to the UTC date so each night explores fresh worlds yet
# stays replayable (`repro fuzz --replay SEED:INDEX`); failing worlds
# (original + shrunk) land in CI_FUZZ_OUT for artifact upload.
if [ "${1:-}" = "fuzz" ]; then
    FUZZ_COUNT="${CI_FUZZ_COUNT:-200}"
    FUZZ_SEED="${CI_FUZZ_SEED:-$(date -u +%Y%m%d)}"
    FUZZ_OUT="${CI_FUZZ_OUT:-/tmp/fuzz-artifacts}"
    echo "== nightly fuzz campaign (${FUZZ_COUNT} worlds, seed ${FUZZ_SEED}) =="
    PYTHONPATH=src python -m repro fuzz \
        --count "${FUZZ_COUNT}" --seed "${FUZZ_SEED}" --out "${FUZZ_OUT}"
    echo "== fuzz campaign passed =="
    exit 0
fi

MESSAGES="${CI_BENCH_MESSAGES:-50000}"
TOLERANCE="${CI_BENCH_TOLERANCE:-0.45}"

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

if [ "${CI_COVERAGE:-1}" != "0" ]; then
    COVERAGE_FLOOR="${CI_COVERAGE_FLOOR:-94}"
    echo "== coverage gate (floor ${COVERAGE_FLOOR}%, obs at 100%, cluster/columnar/store/scenario/arena/reconcile at 90%) =="
    PYTHONPATH=src python tools/coverage_gate.py \
        --target src/repro \
        --floor "${COVERAGE_FLOOR}" \
        --require-100 obs \
        --require cluster=90 \
        --require columnar=90 \
        --require store=90 \
        --require scenario=90 \
        --require arena=90 \
        --require core/reconcile.py=90 \
        -- -q -p no:cacheprovider
else
    echo "== coverage gate skipped (CI_COVERAGE=0) =="
fi

echo "== macro smoke benchmark (${MESSAGES} messages) =="
python benchmarks/bench_macro_scale.py \
    --messages "${MESSAGES}" \
    --output /tmp/BENCH_smoke.json

echo "== throughput regression check (tolerance ${TOLERANCE}) =="
python - "$TOLERANCE" <<'EOF'
import json
import pathlib
import sys

tolerance = float(sys.argv[1])
committed = json.loads(pathlib.Path("BENCH_scale.json").read_text())
smoke = json.loads(pathlib.Path("/tmp/BENCH_smoke.json").read_text())

if not smoke.get("determinism_ok", False):
    raise SystemExit("determinism check failed in smoke benchmark")

failures = []
for mode in ("columnar", "direct", "engine_stream"):
    # Compare smoke-scale against the committed smoke-scale reference
    # (throughput is scale-dependent); fall back to the full-scale
    # number if an older BENCH_scale.json lacks the smoke section.
    reference_run = committed["current"].get(
        f"{mode}_smoke", committed["current"][mode]
    )
    reference = reference_run["messages_per_sec"]
    measured = smoke["current"][mode]["messages_per_sec"]
    floor = reference * (1.0 - tolerance)
    status = "OK" if measured >= floor else "REGRESSION"
    print(
        f"  {mode:>14}: {measured:>12,.0f} msgs/sec "
        f"(committed {reference:,.0f}, floor {floor:,.0f}) {status}"
    )
    if measured < floor:
        failures.append(mode)
if failures:
    raise SystemExit(
        f"throughput regression (> {tolerance:.0%}) in: {', '.join(failures)}"
    )
print("throughput within tolerance")

# Ratio of two modes measured in the same run is load-invariant, so it
# gets a tight floor where the absolute check above cannot: the smoke
# columnar run must hold >=2x engine_stream (3x+ when idle; the lower
# bar absorbs residual per-subprocess scheduling noise).
smoke_ratio = (
    smoke["current"]["columnar"]["messages_per_sec"]
    / smoke["current"]["engine_stream"]["messages_per_sec"]
)
print(f"smoke columnar/engine_stream ratio: {smoke_ratio:.2f}x")
if smoke_ratio < 2.0:
    raise SystemExit(f"smoke columnar ratio {smoke_ratio:.2f}x below 2x")

# The committed full-scale numbers must show the columnar executor
# holding its headline lead: >=3x engine_stream on the same scenario.
full_columnar = committed["current"].get("columnar")
full_engine = committed["current"].get("engine_stream")
if not (full_columnar and full_engine):
    raise SystemExit("BENCH_scale.json lacks full-scale columnar/engine runs")
lead = full_columnar["messages_per_sec"] / full_engine["messages_per_sec"]
print(f"committed columnar lead over engine_stream: {lead:.2f}x")
if lead < 3.0:
    raise SystemExit(f"columnar lead {lead:.2f}x below the 3x floor")
EOF

echo "== chaos and overload smoke (every chaos document, run twice) =="
for doc in examples/scenarios/chaos-*.yaml examples/scenarios/overload-*.yaml; do
    PYTHONPATH=src python -m repro run "${doc}" --mode chaos \
        --report /tmp/chaos_row_1.json
    PYTHONPATH=src python -m repro run "${doc}" --mode chaos \
        --report /tmp/chaos_row_2.json >/dev/null
    cmp /tmp/chaos_row_1.json /tmp/chaos_row_2.json \
        || { echo "${doc}: chaos row is not reproducible"; exit 1; }
done
echo "chaos and overload rows reproducible"

FUZZ_SMOKE_SEED="${CI_FUZZ_SMOKE_SEED:-7}"
echo "== scenario fuzz smoke (5 worlds, seed ${FUZZ_SMOKE_SEED}) =="
# Fixed-seed differential smoke: five generated worlds through the
# direct/columnar/cluster executor matrix must byte-agree on their
# invariant manifests. The full 200-world campaign runs nightly via
# `tools/ci.sh fuzz`.
PYTHONPATH=src python -m repro fuzz --count 5 --seed "${FUZZ_SMOKE_SEED}"

CLUSTER_DOC=examples/scenarios/cluster-8isp.yaml
CLUSTER_SEED="${CI_CLUSTER_SEED:-9}"
echo "== cluster determinism smoke (seed ${CLUSTER_SEED}, 1 vs 4 shards) =="
PYTHONPATH=src python -m repro run "${CLUSTER_DOC}" --mode cluster \
    --cluster-mode spawn --seed "${CLUSTER_SEED}" --shards 1 \
    --manifest /tmp/cluster_manifest_1.json
PYTHONPATH=src python -m repro run "${CLUSTER_DOC}" --mode cluster \
    --cluster-mode spawn --seed "${CLUSTER_SEED}" --shards 4 \
    --manifest /tmp/cluster_manifest_4.json >/dev/null
cmp /tmp/cluster_manifest_1.json /tmp/cluster_manifest_4.json \
    || { echo "cluster runtime is not shard-invariant"; exit 1; }
echo "cluster manifests byte-identical across shard counts"

echo "== bounded-lag determinism smoke (seed ${CLUSTER_SEED}, lockstep vs --lag 2) =="
PYTHONPATH=src python -m repro run "${CLUSTER_DOC}" --mode cluster \
    --cluster-mode spawn --seed "${CLUSTER_SEED}" --shards 4 --lag 2 \
    --manifest /tmp/cluster_manifest_lag.json >/dev/null
cmp /tmp/cluster_manifest_1.json /tmp/cluster_manifest_lag.json \
    || { echo "bounded-lag drive diverges from lockstep"; exit 1; }
echo "bounded-lag manifest byte-identical to lockstep"

CANONICAL_DOC=examples/scenarios/canonical-3isp.yaml
COLUMNAR_SEED="${CI_COLUMNAR_SEED:-7}"
echo "== columnar determinism smoke (seed ${COLUMNAR_SEED}, columnar vs engine) =="
PYTHONPATH=src python -m repro run "${CANONICAL_DOC}" \
    --seed "${COLUMNAR_SEED}" --mode columnar \
    --manifest /tmp/invariant_columnar.json >/dev/null
PYTHONPATH=src python -m repro run "${CANONICAL_DOC}" \
    --seed "${COLUMNAR_SEED}" --mode engine \
    --manifest /tmp/invariant_engine.json >/dev/null
cmp /tmp/invariant_columnar.json /tmp/invariant_engine.json \
    || { echo "columnar executor diverges from the engine"; exit 1; }
echo "invariant manifests byte-identical across executors"

SOAK_SEED="${CI_SOAK_SEED:-7}"
echo "== store soak smoke (seed ${SOAK_SEED}, durable vs in-memory oracle) =="
# Recovery-equivalence gate: the same seeded crash/restart/flood soak
# run against the durable store (every restart rebuilt from disk) and
# as an uninterrupted in-memory oracle must produce byte-identical run
# manifests. Two crash/restart cycles are injected by default.
PYTHONPATH=src python -m repro soak --seed "${SOAK_SEED}" \
    --days 0.25 --crashes 2 \
    --store /tmp/soak_store.db \
    --manifest /tmp/soak_manifest_durable.json
PYTHONPATH=src python -m repro soak --seed "${SOAK_SEED}" \
    --days 0.25 --crashes 2 --oracle \
    --manifest /tmp/soak_manifest_oracle.json >/dev/null
cmp /tmp/soak_manifest_durable.json /tmp/soak_manifest_oracle.json \
    || { echo "durable soak diverges from the in-memory oracle"; exit 1; }
rm -f /tmp/soak_store.db
echo "soak manifests byte-identical (recovery equivalence holds)"

ARENA_SEED="${CI_ARENA_SEED:-13}"
echo "== arena determinism smoke (seed ${ARENA_SEED}, mini-tournament twice) =="
# Strategy-tournament reproducibility gate: the same seeded matchup
# matrix must produce a byte-identical canonical report, and the run
# itself fails (exit nonzero) if any cell breaks conservation or §4.4
# consistency. One cell is also lowered and cross-checked against the
# executor matrix (--verify 1).
PYTHONPATH=src python -m repro arena --seed "${ARENA_SEED}" \
    --worlds 2 --periods 3 --verify 1 \
    --attackers static,zombie_fleet,response_rate \
    --defenders zmail_static \
    --out /tmp/arena_report_1.json
PYTHONPATH=src python -m repro arena --seed "${ARENA_SEED}" \
    --worlds 2 --periods 3 --verify 1 \
    --attackers static,zombie_fleet,response_rate \
    --defenders zmail_static \
    --out /tmp/arena_report_2.json >/dev/null
cmp /tmp/arena_report_1.json /tmp/arena_report_2.json \
    || { echo "arena tournament is not reproducible"; exit 1; }
echo "arena reports byte-identical"

echo "== CI gate passed =="
