"""Command-line interface: ``python -m repro <command>``.

Commands map onto the library's headline capabilities so a user can see
the system work without writing code (``python -m repro --help`` lists
them): the paper's tables and demos (``quickstart``, ``breakeven``,
``compare``, ``adoption``, ``spec-check``, ``zombie``, ``audit``), the
durable SMTP service (``serve``, ``selftest``), and the world runners.
``run`` executes one scenario document — every built-in world is a
document under ``examples/scenarios/`` — on any drive (direct loop,
columnar batch, event engine, sharded cluster, fault-injecting chaos, or
the store soak: crash/restart through a durable store with ``--store``,
its in-memory oracle without) and writes its invariant manifest, JSONL
trace and metrics export; ``fuzz`` and ``arena`` run seeded campaigns of
generated worlds.

Usage errors (bad options, unreadable or invalid documents) print one
``repro: error: …`` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Zmail (ICDCS 2005) reproduction — runnable scenarios",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the command under cProfile and print the hottest "
        "functions afterwards (e.g. `repro --profile run doc.yaml`)",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="with --profile: number of rows to print (default 25)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quickstart = sub.add_parser("quickstart", help="two-ISP zero-sum demo")
    quickstart.add_argument("--messages", type=int, default=5)
    quickstart.add_argument("--seed", type=int, default=1)

    breakeven = sub.add_parser("breakeven", help="§1.2 spammer break-even table")
    breakeven.add_argument(
        "--seed", type=int, default=0,
        help="accepted for interface uniformity; the table is closed-form",
    )
    compare = sub.add_parser("compare", help="§2 baseline comparison table")
    compare.add_argument("--seed", type=int, default=0)

    adoption = sub.add_parser("adoption", help="§5 adoption S-curve")
    adoption.add_argument("--isps", type=int, default=100)
    adoption.add_argument("--propensity", type=float, default=0.15)
    adoption.add_argument("--seed", type=int, default=3)

    spec = sub.add_parser("spec-check", help="model-check the §4 formal spec")
    spec.add_argument("--steps", type=int, default=3000)
    spec.add_argument("--isps", type=int, default=3)
    spec.add_argument("--users", type=int, default=3)
    spec.add_argument("--seed", type=int, default=7)
    spec.add_argument(
        "--cheat", action="store_true",
        help="inject a credit-inflating cheater at isp[1]",
    )

    zombie = sub.add_parser("zombie", help="§5 zombie containment scenario")
    zombie.add_argument("--limit", type=int, default=40)
    zombie.add_argument("--seed", type=int, default=2)

    audit = sub.add_parser(
        "audit", help="solvency audit demo: catch an e-penny-minting ISP"
    )
    audit.add_argument("--mint", type=int, default=5000)
    audit.add_argument("--seed", type=int, default=18)

    serve = sub.add_parser(
        "serve",
        help="run the durable SMTP service: one listener per compliant "
        "ISP over the SQLite write-ahead store, with periodic barrier "
        "commits and restart-safe pending queues",
    )
    serve.add_argument(
        "--store", metavar="PATH", required=True,
        help="durable store file; created (with --isps/--users/--seed) "
        "if it does not exist yet",
    )
    serve.add_argument("--isps", type=int, default=3,
                       help="ISP count when creating a new store")
    serve.add_argument("--users", type=int, default=16,
                       help="users per ISP when creating a new store")
    serve.add_argument("--seed", type=int, default=7,
                       help="network seed when creating a new store")
    serve.add_argument(
        "--overload", action="store_true",
        help="enable outbound admission control (token bucket + bounded "
        "deferred queue); pending retries survive restarts",
    )
    serve.add_argument(
        "--commit-interval", type=float, default=5.0, metavar="SECONDS",
        help="wall seconds between automatic barrier commits (default 5)",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve for this long then exit cleanly "
        "(default: until interrupted)",
    )

    selftest = sub.add_parser(
        "selftest",
        help="verify a durable store: checksum sweep, anti-symmetry and "
        "conservation invariants, one live SMTP round trip",
    )
    selftest.add_argument("--store", metavar="PATH", required=True,
                          help="durable store file to verify")

    run = sub.add_parser(
        "run",
        help="compile a scenario document (JSON/YAML) and execute it on "
        "one drive; the invariant manifest is byte-identical across "
        "direct/columnar/engine/cluster for the same document",
    )
    run.add_argument(
        "scenario", metavar="PATH",
        help="scenario document (.json or .yaml, schema_version-pinned)",
    )
    run.add_argument(
        "--mode",
        choices=("direct", "columnar", "engine", "cluster", "chaos", "soak"),
        default="direct",
        help="drive to execute the compiled plan on (default direct); "
        "soak is the store's recovery-equivalence run",
    )
    run.add_argument(
        "--seed", type=int, default=None,
        help="override the document's seed",
    )
    run.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="cluster mode: worker count (default: the document's "
        "cluster.shards); the manifest does not depend on it",
    )
    run.add_argument(
        "--lag", type=int, default=None, metavar="K",
        help="cluster mode: bounded-lag drive, shards up to K epochs "
        "apart (default: the document's cluster.lag)",
    )
    run.add_argument(
        "--cluster-mode", choices=("inline", "spawn"), default=None,
        help="cluster mode: drive workers in-process (default) or as "
        "spawned processes",
    )
    run.add_argument(
        "--store", metavar="PATH", default=None,
        help="soak mode: crash and restart nodes through this new "
        "durable store file (default: the in-memory oracle, whose "
        "manifest the durable run must match byte for byte)",
    )
    run.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="write the cross-executor invariant manifest here "
        "(unavailable in chaos mode; soak mode writes its run manifest)",
    )
    run.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the drive's native report JSON here",
    )
    run.add_argument(
        "--trace", metavar="PATH", default=None,
        help="direct/columnar/engine: write the schema-valid JSONL event "
        "trace here (byte-identical across same-seed runs)",
    )
    run.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="direct/columnar/engine: write the unified metrics export "
        "(sorted, namespaced JSON) here",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign: N seeded random worlds "
        "through every executor, byte-comparing invariant manifests; "
        "failing worlds shrink to minimal reproductions",
    )
    fuzz.add_argument(
        "--count", type=int, default=25, metavar="N",
        help="number of generated worlds (default 25)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; world i generates from "
        "derive_seed(seed, 'world:i') (default 0)",
    )
    fuzz.add_argument(
        "--shards", type=int, default=2,
        help="cluster shard count for the executor matrix (default 2; "
        "clamped to the world's ISP count)",
    )
    fuzz.add_argument(
        "--out", metavar="DIR", default=None,
        help="write failing-world artifacts (original + shrunk "
        "documents) into this directory",
    )
    fuzz.add_argument(
        "--replay", metavar="SEED:INDEX", default=None,
        help="re-run (and re-shrink) one world from a failure report "
        "instead of a fresh campaign",
    )
    fuzz.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the full campaign report as JSON instead of text",
    )
    fuzz.add_argument(
        "--max-shrink-steps", type=int, default=200, metavar="N",
        help="oracle-call budget per shrink descent (default 200)",
    )

    arena = sub.add_parser(
        "arena",
        help="strategy tournament: adaptive attackers vs defender "
        "policies over seeded worlds; emits a byte-reproducible report "
        "with profit/goodput frontiers and the collapse-region phase "
        "diagram",
    )
    arena.add_argument(
        "--seed", type=int, default=0,
        help="tournament seed; worlds and every cell derive from it "
        "(default 0)",
    )
    arena.add_argument(
        "--worlds", type=int, default=25, metavar="N",
        help="number of generated worlds per matchup (default 25)",
    )
    arena.add_argument(
        "--periods", type=int, default=8, metavar="N",
        help="match length in periods/virtual days (default 8)",
    )
    arena.add_argument(
        "--attackers", metavar="A,B,...", default=None,
        help="comma-separated attacker strategies (default: all "
        "registered)",
    )
    arena.add_argument(
        "--defenders", metavar="A,B,...", default=None,
        help="comma-separated defender policies (default: all "
        "registered)",
    )
    arena.add_argument(
        "--verify", type=int, default=0, metavar="N",
        help="lower the first N cells and run them through the "
        "cross-executor differential oracle (default 0)",
    )
    arena.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the canonical report JSON here (byte-identical for "
        "the same seed and arguments)",
    )
    arena.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full report JSON instead of the text summary",
    )
    return parser


def cmd_quickstart(args: argparse.Namespace) -> int:
    from .core import ZmailNetwork
    from .sim import Address

    net = ZmailNetwork(n_isps=2, users_per_isp=5, seed=args.seed)
    alice, bob = Address(0, 1), Address(1, 2)
    for _ in range(args.messages):
        net.send(alice, bob)
    sender = net.isps[0].ledger.user(1)
    receiver = net.isps[1].ledger.user(2)
    print(f"{alice} sent {sender.lifetime_sent} messages, "
          f"balance {sender.balance}")
    print(f"{bob} received {receiver.lifetime_received}, "
          f"balance {receiver.balance}")
    print(f"reconciliation consistent: {net.reconcile('direct').consistent}")
    print(f"conserved: {net.total_value() == net.expected_total_value()}")
    return 0


def cmd_breakeven(args: argparse.Namespace) -> int:
    from .economics import break_even_table, cost_increase_factor

    print(f"per-message cost factor under Zmail: {cost_increase_factor():.0f}x")
    print(f"{'campaign':<16} {'sq volume':>12} {'zmail volume':>13} survives")
    for row in break_even_table():
        print(f"{row.campaign:<16} {row.statusquo_volume:>12,} "
              f"{row.zmail_volume:>13,} {'yes' if row.survives else 'no':>8}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .baselines import ComparisonScenario, run_comparison

    results = run_comparison(
        ComparisonScenario(n_train=800, n_test=800, seed=args.seed)
    )
    print(f"{'approach':<22} {'blocked':>8} {'ham lost':>9} "
          f"{'$/msg':>8} {'needs defn':>10}")
    for result in results:
        print(f"{result.approach:<22} "
              f"{result.spam_blocked_fraction:>7.0%} "
              f"{result.ham_lost_fraction:>8.1%} "
              f"{result.sender_dollar_cost_per_msg:>8.4f} "
              f"{'yes' if result.needs_spam_definition else 'no':>10}")
    return 0


def cmd_adoption(args: argparse.Namespace) -> int:
    from .core import AdoptionParams, AdoptionSimulation

    sim = AdoptionSimulation(
        AdoptionParams(
            n_isps=args.isps,
            base_switch_propensity=args.propensity,
            seed=args.seed,
        )
    )
    sim.run(max_rounds=100)
    for record in sim.rounds[:: max(1, len(sim.rounds) // 15)]:
        bar = "#" * int(40 * record.compliant_fraction)
        print(f"round {record.round_index:>3}: {bar:<40} "
              f"{record.compliant_fraction:.0%}")
    print(f"positive feedback: {sim.has_positive_feedback()}")
    return 0


def cmd_spec_check(args: argparse.Namespace) -> int:
    from .apn import CheatMode, ZmailSpecConfig, build_zmail_protocol

    cheaters = {1: CheatMode.INFLATE_SENT} if args.cheat else {}
    config = ZmailSpecConfig(
        n=args.isps, m=args.users, seed=args.seed, key_bits=128,
        cheaters=cheaters,
    )
    protocol = build_zmail_protocol(config)
    steps = protocol.run(args.steps)
    print(f"steps executed:        {steps}")
    print(f"reconciliation rounds: {protocol.completed_rounds()}")
    print(f"flagged pairs:         {len(protocol.flagged_pairs())}")
    if args.cheat:
        flagged = {isp for pair in protocol.flagged_pairs() for isp in pair}
        caught = 1 in flagged
        print(f"cheater isp[1] caught: {caught}")
        return 0 if caught else 1
    return 0 if not protocol.flagged_pairs() else 1


def cmd_zombie(args: argparse.Namespace) -> int:
    from .core import ZmailConfig, ZmailNetwork
    from .core.zombie import ZombieMonitor
    from .sim import Address

    config = ZmailConfig(
        default_daily_limit=args.limit,
        default_user_balance=1000,
        auto_topup_amount=0,
    )
    net = ZmailNetwork(n_isps=2, users_per_isp=5, config=config,
                       seed=args.seed)
    zombie = Address(0, 1)
    for i in range(10 * args.limit):
        net.send(zombie, Address(1, i % 5))
    monitor = ZombieMonitor(net)
    monitor.poll()
    user = net.isps[0].ledger.user(1)
    print(f"daily limit:     {args.limit}")
    print(f"zombie detected: {monitor.detected(zombie)}")
    print(f"liability:       {1000 - user.balance} e-pennies (bound: "
          f"{args.limit})")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    import random

    from .core import ZmailConfig, ZmailNetwork
    from .core.audit import EconomicAuditor
    from .sim import Address

    config = ZmailConfig(
        initial_pool=500, minavail=200, maxavail=900,
        default_user_balance=50, auto_topup_amount=10,
    )
    net = ZmailNetwork(n_isps=3, users_per_isp=8, config=config,
                       seed=args.seed)
    auditor = EconomicAuditor()
    endowment = config.initial_pool + 8 * config.default_user_balance
    for isp_id in net.compliant_isps():
        auditor.register_isp(isp_id, initial_endowment=endowment)
    net.isps[1].ledger.pool += args.mint
    print(f"isp1 secretly minted {args.mint} e-pennies...")

    rng = random.Random(args.seed)
    for day in range(1, 15):
        for _ in range(300):
            net.send(Address(rng.randrange(3), rng.randrange(8)),
                     Address(rng.randrange(3), rng.randrange(8)))
        isps = net.compliant_isps()
        for isp in isps.values():
            isp.begin_snapshot(net.bank.next_seq)
        reports = {}
        for isp_id, isp in sorted(isps.items()):
            reports[isp_id] = isp.snapshot_reply()
            isp.resume_sending()
        net.bank.reconcile(reports)
        auditor.ingest_credit_reports(reports)
        before = {i: net.bank.account_balance(i) for i in isps}
        net.advance_day_to(day)
        for isp_id in isps:
            delta = net.bank.account_balance(isp_id) - before[isp_id]
            if delta < 0:
                auditor.note_purchase(isp_id, -delta)
            elif delta > 0:
                auditor.note_sale(isp_id, delta)
    alerts = auditor.check()
    for alert in alerts:
        print(f"ALERT: isp{alert.isp_id} sold {alert.sold} e-pennies, "
              f"solvency ceiling {alert.ceiling} (excess {alert.excess})")
    if not alerts:
        print("all clear")
    caught = any(a.isp_id == 1 for a in alerts) if args.mint else not alerts
    return 0 if caught else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .core import ZmailNetwork
    from .core.overload import OverloadConfig
    from .store import DurableStore, init_store
    from .store.service import ZmailService

    if os.path.exists(args.store):
        store = DurableStore.open(args.store)
        print(f"opened store {args.store} at barrier {store.barrier} "
              f"({store.count()} records)")
    else:
        store = DurableStore.create(args.store)
        init_store(
            store,
            ZmailNetwork(
                n_isps=args.isps, users_per_isp=args.users, seed=args.seed
            ),
        )
        print(f"created store {args.store} "
              f"({args.isps} ISPs x {args.users} users, seed {args.seed})")
    overload = OverloadConfig() if args.overload else None

    async def _serve() -> None:
        service = ZmailService(
            store, overload=overload, commit_interval=args.commit_interval
        )
        addresses = await service.start()
        for isp_id, (host, port) in sorted(addresses.items()):
            print(f"isp{isp_id}.example listening on {host}:{port}")
        print("serving (Ctrl-C to stop)...")
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await service.stop()
            stats = service.stats()
            print(f"stopped at barrier {stats['barrier']}: "
                  f"{stats['messages_handled']} messages handled, "
                  f"{stats['pending_sends']} pending, "
                  f"conserved={stats['conserved']}")

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        store.close()
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .store.service import run_selftest

    report = run_selftest(args.store)
    for key in ("records", "barrier", "isps", "anti_symmetric",
                "conserved", "roundtrip"):
        print(f"{key:<16} {report[key]}")
    print(f"{'passed':<16} {report['passed']}")
    return 0 if report["passed"] else 1


def _usage_error(message: str) -> int:
    """Report bad input as one ``repro: error:`` line; exit status 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _run_usage_error(args: argparse.Namespace, plan) -> str | None:
    """Why ``args`` cannot drive ``plan``, or None when they can."""
    cluster_only = [
        flag
        for flag, value in (("--shards", args.shards), ("--lag", args.lag),
                            ("--cluster-mode", args.cluster_mode))
        if value is not None
    ]
    n_isps = plan.doc["topology"]["n_isps"]
    if args.mode != "cluster" and cluster_only:
        return f"{', '.join(cluster_only)}: only valid with --mode cluster"
    if args.shards is not None and not 1 <= args.shards <= n_isps:
        return f"--shards must be in 1..{n_isps} (the ISP count), got {args.shards}"
    if args.lag is not None and args.lag < 0:
        return f"--lag must be >= 0, got {args.lag}"
    if args.mode in ("cluster", "chaos", "soak") and (args.trace or args.metrics):
        return f"--trace and --metrics are unavailable with --mode {args.mode}"
    if args.store is not None:
        if args.mode != "soak":
            return "--store: only valid with --mode soak"
        if os.path.exists(args.store):
            return f"store {args.store!r} already exists"
    if args.mode == "columnar" and not plan.all_compliant:
        return "--mode columnar needs a document with no non-compliant ISPs"
    return None


def cmd_run(args: argparse.Namespace) -> int:
    import json

    from .errors import SimulationError
    from .obs import JsonlSink, TraceRecorder, export_network
    from .scenario import compile_scenario, load, run_plan

    try:
        doc = load(args.scenario)
        if args.seed is not None:
            doc["seed"] = args.seed
        plan = compile_scenario(doc)
    except (OSError, SimulationError) as exc:
        return _usage_error(str(exc))
    problem = _run_usage_error(args, plan)
    if problem is not None:
        return _usage_error(problem)
    if args.mode == "soak":
        from .store.soak import run_soak

        soak = run_soak(plan, store_path=args.store)
        result = {
            "mode": "soak",
            "manifest": soak["manifest"],
            "report": {**soak, "manifest": soak["manifest"].to_dict()},
        }
    else:
        result = run_plan(
            plan,
            args.mode,
            shards=args.shards,
            lag=args.lag,
            cluster_mode=args.cluster_mode or "inline",
        )
    manifest = result["manifest"]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(result["report"], sort_keys=True, indent=2) + "\n"
            )
    print(f"scenario:        {plan.name}")
    print(f"scenario digest: {plan.digest}")
    print(f"mode:            {result['mode']}")
    if manifest is None:
        row = result["report"]
        print(f"chaos cell:      {row['cell']} (seed {row['seed']})")
        print(f"converged:       {row['converged']}")
        print(f"conserved:       {row['conserved']}")
        print(f"digest:          {row['digest']}")
        print(f"passed:          {row['passed']}")
        if args.manifest:
            print("note: chaos mode reports a campaign row; no invariant "
                  "manifest was written")
        return 0 if row["passed"] else 1
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as handle:
            handle.write(manifest.to_json())
    extra, report = manifest.extra, result["report"]
    if result["mode"] == "soak":
        print(f"store:           {report['mode']}")
        print(f"cuts:            {report['cuts']}")
        print(f"crashes:         {extra['crashes']} "
              f"(restarts {extra['restarts']})")
        print(f"converged:       {report['converged']}")
        print(f"conserved:       {report['conserved']}")
        print(f"final digest:    {report['final_digest']}")
        print(f"event digest:    {manifest.event_digest}")
        print(f"passed:          {report['passed']}")
        return 0 if report["passed"] else 1
    # The cluster reports its §4.4 rounds; the other drives summarize.
    consistent = (
        all(round_["consistent"] for round_ in report["rounds"])
        if result["mode"] == "cluster" else report["all_consistent"]
    )
    print(f"sends attempted: {extra['sends_attempted']}")
    print(f"events:          {manifest.event_count}")
    print(f"zombies caught:  {extra['zombies_detected']}")
    print(f"conserved:       {extra['conserved']}")
    print(f"consistent:      {consistent}")
    print(f"manifest digest: {manifest.digest()}")
    if args.trace or args.metrics:
        # A second run, traced only for --trace; tracing has no observer
        # effect, so either way it is the run the manifest describes.
        scenario = plan.scenario(args.mode)
        sink = None
        if args.trace:
            sink = JsonlSink(args.trace)
            scenario.tracer = recorder = TraceRecorder(sink=sink)
        try:
            network = scenario.run().network
        finally:
            if sink is not None:
                sink.close()
        if args.trace:
            print(f"trace events:    {recorder.events_emitted}")
            print(f"trace digest:    {recorder.digest()}")
        if args.metrics:
            exporter = export_network(network)
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(exporter.to_json() + "\n")
            print(f"metrics digest:  {exporter.digest()}")
    return 0 if extra["conserved"] and consistent else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .scenario import format_report, replay_world, run_fuzz

    if args.replay:
        report = replay_world(
            args.replay,
            shards=args.shards,
            out=args.out,
            max_shrink_steps=args.max_shrink_steps,
        )
    else:
        report = run_fuzz(
            count=args.count,
            seed=args.seed,
            shards=args.shards,
            out=args.out,
            max_shrink_steps=args.max_shrink_steps,
        )
    if args.as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(format_report(report))
    return 0 if report["passed"] else 1


def cmd_arena(args: argparse.Namespace) -> int:
    import json

    from .arena import report_digest, report_json, run_tournament

    report = run_tournament(
        seed=args.seed,
        attackers=args.attackers.split(",") if args.attackers else None,
        defenders=args.defenders.split(",") if args.defenders else None,
        worlds=args.worlds,
        periods=args.periods,
        verify=args.verify,
    )
    text = report_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.as_json:
        print(text, end="")
        return 0 if report["passed"] else 1
    print(f"arena:          {len(report['attackers'])} attackers x "
          f"{len(report['defenders'])} defenders x "
          f"{report['world_count']} worlds ({report['periods']} periods)")
    print(f"seed:           {report['seed']}")
    print(f"report digest:  {report_digest(report)}")
    print(f"cells:          {len(report['cells'])} "
          f"(verified: {report['verify']['cells']}, "
          f"verify failures: {len(report['verify']['failures'])})")
    print(f"{'defender':<18} {'profitable':>10} {'collapsed':>9} "
          f"{'boundary ev $/msg':>18}")
    for defender in report["defenders"]:
        phase = report["phase"][defender]
        boundary = phase["collapse_boundary_ev"]
        shown = "-" if boundary is None else format(boundary, ".6f")
        print(f"{defender:<18} "
              f"{phase['profitable_worlds']:>7}/{phase['worlds']:<3}"
              f"{phase['collapsed_worlds']:>9} "
              f"{shown:>18}")
    print(f"passed:         {report['passed']}")
    return 0 if report["passed"] else 1


_COMMANDS = {
    "quickstart": cmd_quickstart,
    "breakeven": cmd_breakeven,
    "compare": cmd_compare,
    "adoption": cmd_adoption,
    "spec-check": cmd_spec_check,
    "zombie": cmd_zombie,
    "audit": cmd_audit,
    "serve": cmd_serve,
    "selftest": cmd_selftest,
    "run": cmd_run,
    "fuzz": cmd_fuzz,
    "arena": cmd_arena,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        code = profiler.runcall(command, args)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(args.profile_top)
        return code
    return command(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
