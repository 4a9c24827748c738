"""Shared reporting and world running for the experiment benchmarks.

Each ``bench_e*.py`` module regenerates one experiment from DESIGN.md's
index (the paper has no numbered tables/figures; each quantitative claim
is an experiment). Benchmarks do three things:

1. time the experiment's computational core via pytest-benchmark;
2. *assert* the claim's shape (who wins, roughly by how much) so the
   benchmark run doubles as a reproduction check;
3. emit a claim-vs-measured table through :func:`report`, which also
   stores it as the experiment's one record in
   ``benchmarks/results.jsonl`` for EXPERIMENTS.md.

A world of plain normal, spam and zombie traffic is a scenario document
(a dict in its bench module) run through :func:`run_document`, which
checks it on more than one executor and pins its invariant manifest.

Run (CI runs the first, then ``make_experiments_md.py``, and fails if
EXPERIMENTS.md or the results file changed)::

    python -m pytest benchmarks --benchmark-disable -o addopts="" -q
    pytest benchmarks/ --benchmark-only -s      # timed, with the tables
"""

import hashlib
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from make_experiments_md import render_table, store_record  # noqa: E402
from repro.scenario import compile_scenario, run_plan  # noqa: E402

#: sha256 of each world document's invariant manifest, by document name.
MANIFEST_SHA256 = {
    "e2-funded-campaign":
        "f20d7cfbe33667272f9db1a149b1282dd69fd0bb2b1b885f982f975cb1d0215e",
    "e3-zero-sum":
        "bf721f27ab087c1bd4c3064dae25cdf5c454b01ba092e7cff4db52c287ac3e27",
    "e4-balanced":
        "510812f3756caa0b9243d30f0cd2b52dffb6a17757242f4d3dd4b3cc8f5b651b",
    "e8-limit10-rate150":
        "1092c86bf28f226e873136699d6eb756b13199113942ede1408d65bfd5743fcf",
    "e8-limit50-rate150":
        "c01b5a5adfc26d4792dc5dfcb8696d92320cd738eb895ca778036110e70b8a2f",
    "e8-limit200-rate150":
        "f12fced13b17424c5905470a63ab158482be9d506b2695b44c5ddec824c94ec6",
    "e8-limit50-rate30":
        "0992ca7621ed0411430c316fbaf8d60ed7ddd842957df82e6e96a569e0336a29",
    "e8-limit50-rate600":
        "a7d261addd3758917737ada1f1e9577da1b3cc45743f93f1698cdb7f067fce95",
    "e16-compliant2":
        "e81297cb5fb5d695615d43462462a852658317c5fc6e399e45e361ae13ab390b",
    "e16-compliant4":
        "16f6b7977aa3130a11951364df3b47da31aaa3261188711e873bc3a558c24b66",
    "e16-compliant6":
        "115d09dedc08f7947b41bebc25c0c2a1af54661285598fb252d3b0f84153d4f7",
    "e16-compliant8":
        "6cc0b23796077cafb710680e35ffae37a55ac4793ad0d0f258b85ceb83a5a7a0",
}


def run_document(doc, modes=("direct", "columnar")):
    """Run a world document on every executor in ``modes``.

    Their invariant manifests must be byte-identical, with the sha256
    pinned in :data:`MANIFEST_SHA256`. Returns the direct executor's
    :class:`~repro.core.scenario.ScenarioResult`, from which the claim's
    measures are read.
    """
    plan = compile_scenario(doc)
    texts = {m: run_plan(plan, m)["manifest"].to_json() for m in modes}
    assert len(set(texts.values())) == 1, f"{plan.name}: {modes} disagree"
    digest = hashlib.sha256(texts["direct"].encode("utf-8")).hexdigest()
    assert digest == MANIFEST_SHA256.get(plan.name), f"{plan.name}: {digest}"
    return plan.scenario("direct").run()


def report(experiment: str, claim: str, rows: list[dict]) -> None:
    """Print an experiment table and store it as the experiment's record."""
    print(f"\n[{experiment}] paper claim: {claim}\n{render_table(rows)}")
    store_record({"experiment": experiment, "claim": claim, "rows": rows})
