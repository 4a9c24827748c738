"""Shared helpers: every test world is a scenario document.

Tests load the committed documents under ``examples/scenarios/`` (the
same files ``repro run`` executes), or build a small inline document
when they need to vary a world's size.
"""

import os

from repro.scenario import compile_scenario, load
from repro.sim.clock import DAY

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples", "scenarios")


def example(name):
    """Path of a committed example document."""
    return os.path.join(EXAMPLES, name)


def load_plan(source, seed=None):
    """Compile a document — an example's file name, any path, or an
    inline dict — with its seed optionally overridden (``repro run
    --seed``)."""
    doc = load(example(source)) if isinstance(source, str) else dict(source)
    if seed is not None:
        doc["seed"] = seed
    return compile_scenario(doc)


def mixed_world(
    seed=0, *, n_isps, users_per_isp, days, normal_rate_per_day=24.0,
    adversarial=True,
):
    """``cluster-8isp.yaml`` resized, as an inline single-shard document:
    legitimate mail plus (optionally) its funded spam campaign at isp0
    and twelve-hour zombie outbreak at isp1, reconciled daily."""
    doc = load(example("cluster-8isp.yaml"))
    doc.update(seed=seed, cluster={}, topology={
        "n_isps": n_isps, "users_per_isp": users_per_isp,
    })
    traffic = doc["traffic"]
    traffic.update(duration=days * DAY, normal_rate_per_day=normal_rate_per_day)
    volume = int(users_per_isp * normal_rate_per_day * days * 2)
    spammer, zombie = traffic["spammers"][0], traffic["zombies"][0]
    spammer.update(volume=volume, war_chest=volume // 3, duration=days * DAY)
    zombie.update(user=users_per_isp // 2)
    if not adversarial:
        traffic.update(spammers=[], zombies=[])
    return doc


def smoke_world(seed):
    """The small two-day world the cluster fail-stop and chaos suites
    share: 6 ISPs × 12 users, as a direct-mode ``Scenario``."""
    doc = mixed_world(
        n_isps=6, users_per_isp=12, days=2, normal_rate_per_day=16.0
    )
    return load_plan(doc, seed=seed).scenario()
