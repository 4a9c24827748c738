"""Shared plumbing for the Zmail benchmark: source, host, stats, setup.

Every workload module returns a :class:`Outcome`; :mod:`run` turns it
into the one-line JSON result. Nothing here imports ``repro`` at module
level: :func:`use_checkout_source` must run first, so the benchmark
always measures the ``src/`` tree of the checkout it lives in and fails
loudly when that tree is missing.
"""

from __future__ import annotations

import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (git-ignored).
SCRATCH = ROOT / ".perfbench_tmp"
#: ``PERFBENCH_SMOKE=1`` shrinks every workload to a seconds-long smoke
#: run (the benchmark's own tests); figures from it mean nothing.
SMOKE = os.environ.get("PERFBENCH_SMOKE") == "1"
#: Fresh processes timed per ``setup_s`` figure (plus one discarded).
SETUP_PROBES = 2 if SMOKE else 9


class SourceMissing(RuntimeError):
    """The checkout has no importable ``src/repro`` tree."""


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or raise.

    An installed copy elsewhere on ``sys.path`` would silently measure
    the wrong program, so the imported package must live under ``SRC``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    location = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SourceMissing(f"repro imported from {location}, not {SRC}")


def child_env() -> dict[str, str]:
    """Environment for helper processes: this checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def host_info() -> dict[str, object]:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return statistics.median(values)


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs held."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    problems: list[str] = field(default_factory=list)
    #: Human-readable context printed above the JSON line.
    notes: dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def measure_setup(workload: str, *, extra: tuple[str, ...] = ()) -> float:
    """Median wall time from process spawn to the workload's first offer.

    Each probe is a fresh interpreter running ``run.py --setup-probe``,
    which imports the program, builds the workload's first world (or
    opens its store and starts its listeners) and prints ``READY``. The
    probed world does not depend on ``--seed``, so every run sets up the
    same thing. One extra discarded probe first warms the bytecode
    cache, so a fresh checkout's first compile does not land in the
    figure; the median of the rest keeps a probe that lost its core to
    another tenant out of it.
    """
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--setup-probe", workload, *extra,
    ]
    samples = []
    for index in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r} {err[-2000:]}")
        if index:
            samples.append(elapsed)
    return median(samples)
