"""Every committed example document runs, and runs the same everywhere.

``examples/scenarios/`` is the only definition of every built-in world:
the canonical 3-ISP world, the mixed deployment, the cluster
shard-invariance world, the strategy-arena world and the six cells of
the chaos and overload campaigns. These tests hold every document to
its contract — a plain world's invariant manifest is byte-identical on
every executor and the world passes on the chaos drive, and a chaos
cell passes with byte-reproducible rows whose bytes are pinned — plus
the ``repro run`` surface that executes them.
"""

import glob
import hashlib
import json
import os

import pytest

from conftest import EXAMPLES, example, load_plan
from repro.chaos.deployment import ChaosDeployment
from repro.cli import main
from repro.scenario import load, run_plan

DOCUMENTS = sorted(
    os.path.basename(path) for path in glob.glob(os.path.join(EXAMPLES, "*.yaml"))
)


def is_chaos(plan):
    """Chaos documents name the campaign cell they reproduce."""
    return plan.doc["chaos"]["cell"] is not None


#: sha256 of a plain document's invariant manifest (``to_json()`` bytes),
#: the same on every executor — pins the absolute ledger multiset and
#: accounting digests, which the executor-vs-executor checks cannot.
MANIFEST_SHA256 = {
    "canonical-3isp.yaml":
        "fd3283b5859b8cec65806da4914893a3f649765796e05dc21b1799e5d4984117",
    "mixed-4isp.yaml":
        "29de3b551ef062d1bb7fd746045bad61d5725adf3a57f3db8df4802f8f7c526d",
}


@pytest.mark.parametrize(
    "name", DOCUMENTS, ids=lambda name: name.removesuffix(".yaml")
)
def test_document_runs_agree(name):
    plan = load_plan(name)
    if is_chaos(plan):
        first = run_plan(plan, "chaos")["report"]
        second = run_plan(plan, "chaos")["report"]
        assert first["passed"], first
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        return
    shards = min(4, plan.doc["topology"]["n_isps"])
    manifests = {
        mode: run_plan(plan, mode, shards=shards)["manifest"]
        for mode in ("direct", "columnar", "cluster")
    }
    texts = {mode: manifest.to_json() for mode, manifest in manifests.items()}
    assert len(set(texts.values())) == 1, sorted(texts)
    assert manifests["direct"].extra["conserved"] is True
    # The chaos drive runs the same traffic under its deployment; it
    # reports a campaign row, not a manifest.
    row = run_plan(plan, "chaos")["report"]
    assert row["passed"], row
    if name in MANIFEST_SHA256:
        blob = texts["direct"].encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == MANIFEST_SHA256[name]


#: sha256 of each campaign document's chaos row (sorted-key JSON).
ROW_SHA256 = {
    "chaos-clean":
        "1db6547dc6f2c222e01c4d1c9aab8def4a42e614235c3a89f25fee66e70ad079",
    "chaos-lossy-dup-reorder":
        "914647d5a12ec09fcc87ee134a7d0455437da2ae9ca3cebabad6a6665d22f99d",
    "chaos-crashy":
        "65e6a9f0d9dbf2fa4d30bdfd0dd2ed7cdb591934cb0c35399e6939f131a79fd6",
    "overload-baseline":
        "88844b5c183d898b80de63f946273440d539a6612a9835ad0e53b38d7da984a8",
    "overload-burst-2x":
        "96e9c7b8bc97f300c8d596f61a97e8342cb1ff4f60bbb02b8516cd8ff7a0e0a7",
    "overload-flood-10x":
        "c7022263d47db5b066ce440e70d1510042c3225421829e89cb51c66f4ecd3026",
}


@pytest.mark.parametrize("stem", sorted(ROW_SHA256))
def test_campaign_documents_reproduce_cell_rows(stem):
    row = run_plan(load_plan(f"{stem}.yaml"), "chaos")["report"]
    blob = json.dumps(row, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == ROW_SHA256[stem], row
    assert row["passed"]


#: One spam, zombie and flood window each that runs past
#: canonical-3isp's two-day horizon (172800 s).
PAST_HORIZON = {
    "spam": ("spammers", {"start": 150000.0, "duration": 86400.0}),
    "zombie": ("zombies", {"start": 160000.0, "end": 300000.0}),
    "flood": ("floods", {"attacker_isp": 0, "target_isp": 1,
                         "rate_per_sec": 0.5, "start": 170000.0,
                         "duration": 7200.0}),
}


@pytest.mark.parametrize("term", sorted(PAST_HORIZON))
def test_traffic_past_the_horizon_is_cut_on_every_executor(term, monkeypatch):
    key, window = PAST_HORIZON[term]
    doc = load(example("canonical-3isp.yaml"))
    doc["traffic"][key] = [{**(doc["traffic"][key] or [{}])[0], **window}]
    plan = load_plan(doc)
    texts = {
        mode: run_plan(plan, mode, shards=3)["manifest"].to_json()
        for mode in ("direct", "columnar", "cluster")
    }
    assert len(set(texts.values())) == 1, sorted(texts)
    if term != "flood":
        return
    # The chaos drive drains past the horizon; no request may reach it
    # there.
    submitted, submit = [], ChaosDeployment.submit

    def record(deployment, request):
        submitted.append(request.time)
        submit(deployment, request)

    monkeypatch.setattr(ChaosDeployment, "submit", record)
    row = run_plan(plan, "chaos")["report"]
    assert row["passed"], row
    assert submitted and max(submitted) < doc["traffic"]["duration"]


def test_cli_run_writes_manifest_and_report(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    report_path = tmp_path / "report.json"
    code = main([
        "run", example("canonical-3isp.yaml"),
        "--mode", "direct",
        "--manifest", str(manifest_path),
        "--report", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario:        canonical-3isp" in out
    assert "conserved:       True" in out
    manifest = json.loads(manifest_path.read_text())
    assert manifest["extra.scenario"] == "canonical-3isp"
    assert manifest["extra.conserved"] is True
    assert json.loads(report_path.read_text())["conserved"] is True


def test_cli_run_chaos_mode(tmp_path, capsys):
    code = main([
        "run", example("chaos-clean.yaml"), "--mode", "chaos",
        "--manifest", str(tmp_path / "nope.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chaos cell:      clean" in out
    assert "no invariant manifest was written" in out
    assert not (tmp_path / "nope.json").exists()


def test_cli_fuzz_smoke(capsys):
    assert main(["fuzz", "--count", "1", "--seed", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"seed": 5, "count": 1, "shards": 2,
                      "failures": [], "passed": True}
