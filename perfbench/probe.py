"""One timed set-up of a batch workload: imports, input generation, and a
warmed worker pool; prints ``ready`` when done.

    python3 perfbench/probe.py <table1-cold|fuzz-lazy-certified> <seed> <seconds>
"""

import sys

from common import require_sources

require_sources()

import batch  # noqa: E402
import fuzzbatch  # noqa: E402
import table1  # noqa: E402

MODULES = {"table1-cold": table1, "fuzz-lazy-certified": fuzzbatch}

if __name__ == "__main__":
    name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    MODULES[name].build_jobs(seed, seconds)
    batch.warm_pool()
    print("ready", flush=True)
