"""Run the benchmark's tests at smoke size against this checkout's source."""

import os
import pathlib
import sys

os.environ["PERFBENCH_SMOKE"] = "1"
BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from harness import use_checkout_source  # noqa: E402

use_checkout_source()
