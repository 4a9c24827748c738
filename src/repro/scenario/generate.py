"""Seeded random-world sampling over the scenario schema.

:func:`generate_doc` maps one integer to one valid canonical scenario
document — same seed, same world, forever. The sampler is biased toward
worlds that finish in well under a second (small topologies, light
rates) while still crossing every interesting boundary: spam campaigns,
zombie outbreaks, cross-ISP floods, non-compliant ISPs, reconciliation
cadences and multi-shard cluster layouts. Durations are sampled in
multiples of six hours and epochs from divisors of six hours, so every
generated world tiles cleanly under any shard count (the schema's
cluster cross-check can never fire on a generated world — tested).

Draw discipline: one ``random.Random`` per world, seeded from the world
seed alone. Samplers draw in a fixed order, so adding a new dimension at
the end changes no existing world's prefix draws gratuitously; changing
anything earlier is a schema-visible event (pinned by test).
"""

from __future__ import annotations

import random
from typing import Any

from ..sim.clock import HOUR
from .schema import validate

__all__ = ["generate_doc"]

#: Durations (in hours) every generated world draws from. All multiples
#: of 6h, so any epoch drawn from _EPOCH_HOURS tiles them and the day.
_DURATION_HOURS = (6, 12, 18, 24, 36, 48)
_EPOCH_HOURS = (1, 2, 3, 6)
_RECONCILE_HOURS = (6, 12, 24)


def generate_doc(seed: int) -> dict[str, Any]:
    """One valid canonical scenario document per seed, deterministically."""
    rng = random.Random(seed)
    n_isps = rng.randint(2, 5)
    users_per_isp = rng.randint(2, 8)
    duration_hours = rng.choice(_DURATION_HOURS)
    duration = duration_hours * HOUR

    doc: dict[str, Any] = {
        "schema_version": 1,
        "name": f"fuzz-{seed}",
        "seed": rng.randrange(1 << 16),
        "topology": {"n_isps": n_isps, "users_per_isp": users_per_isp},
        "traffic": {
            "duration": duration,
            "normal_rate_per_day": round(rng.uniform(2.0, 30.0), 1),
        },
    }

    # One ISP in five runs non-compliant (only when a compliant majority
    # remains): exercises the §5 incremental-deployment boundary.
    if n_isps >= 3 and rng.random() < 0.2:
        doc["topology"]["noncompliant"] = [rng.randrange(n_isps)]

    # Most worlds carry *credit slack*: every user starts with enough
    # e-pennies to pay for a full run of limit-capped sending, so no
    # balance ever binds and the ledger multiset is independent of
    # delivery timing — the precondition for byte-equality against the
    # epoch-barriered cluster (see fuzz.cluster_comparable). The rest
    # are tight-balance worlds that exercise the paper's exhaustion
    # economics on the instant-delivery executors only.
    daily_limit = rng.randint(30, 300) if rng.random() < 0.4 else 200
    slack_days = duration_hours // 24 + 2
    if rng.random() < 0.7:
        balance = daily_limit * slack_days
    else:
        balance = rng.randint(20, 150)
    doc["economics"] = {
        "default_daily_limit": daily_limit,
        "default_user_balance": balance,
        "auto_topup_amount": rng.choice((0, 50)),
    }

    spammers = []
    for _ in range(rng.randint(0, 2)):
        start_h = rng.randrange(duration_hours // 2 + 1)
        spammers.append({
            "isp": rng.randrange(n_isps),
            "user": rng.randrange(users_per_isp),
            "volume": rng.randint(50, 400),
            "war_chest": rng.choice((0, 20, 60)),
            "start": start_h * HOUR,
            "duration": rng.randint(1, duration_hours - start_h) * HOUR,
        })
    if spammers:
        doc["traffic"]["spammers"] = spammers

    zombies = []
    for _ in range(rng.randint(0, 2)):
        start_h = rng.randrange(duration_hours - 1)
        zombies.append({
            "isp": rng.randrange(n_isps),
            "user": rng.randrange(users_per_isp),
            "rate_per_hour": round(rng.uniform(30.0, 240.0), 1),
            "start": start_h * HOUR,
            "end": rng.randint(start_h + 1, duration_hours) * HOUR,
        })
    if zombies:
        doc["traffic"]["zombies"] = zombies

    floods = []
    for _ in range(rng.randint(0, 2)):
        attacker = rng.randrange(n_isps)
        target = rng.randrange(n_isps - 1)
        if target >= attacker:
            target += 1
        start_h = rng.randrange(duration_hours - 1)
        floods.append({
            "attacker_isp": attacker,
            "target_isp": target,
            "rate_per_sec": round(rng.uniform(0.5, 6.0), 2),
            "start": start_h * HOUR,
            "duration": rng.randint(1, min(4, duration_hours - start_h)) * HOUR,
            "attackers": rng.randint(1, 6),
            "kind": rng.choice(("zombie", "zombie", "spam", "normal")),
        })
    if floods:
        doc["traffic"]["floods"] = floods

    if rng.random() < 0.8:
        choices = [h for h in _RECONCILE_HOURS if h <= duration_hours]
        doc["reconcile"] = {"every": rng.choice(choices) * HOUR}

    doc["cluster"] = {
        "shards": rng.randint(1, min(3, n_isps)),
        "epoch": rng.choice(_EPOCH_HOURS) * HOUR,
    }
    return validate(doc)
