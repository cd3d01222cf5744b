"""Closed-loop probe of the rate ``serve-mixed`` could sustain.

Sends one seed's ``serve-mixed`` schedule to a fresh server closed-loop:
each of the client's ``WORKERS`` connections sends its next request as
soon as the previous one reaches its terminal status.  Requests
completed per second is then the highest arrival rate this client (at
most ``WORKERS`` requests in flight) can keep up with; the open-loop
``servemix.RATE`` must sit well below it.

    python3 perfbench/saturation.py --seeds 1 2 3 --seconds 20
"""

import argparse
import os
import statistics
import sys

from common import cleanup, require_sources, workdir

require_sources()

import servemix  # noqa: E402


def probe(seed: int, seconds: float) -> float:
    """Completed requests per second for one seed, closed-loop."""
    schedule = [dict(req, due=0.0) for req in servemix.build_schedule(seed, seconds)]
    records, _ = servemix.run_pass(schedule, workdir(f"saturation{seed}"))
    if servemix.failures(records) or servemix.wrong_verdicts(records):
        sys.exit(f"seed {seed}: failed or wrong verdicts under closed-loop load")
    span = max(r["end"] for r in records) - min(r["due"] for r in records)
    return len(records) / span


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()
    os.environ["TMPDIR"] = workdir("tmp")
    try:
        rates = []
        for seed in args.seeds:
            rates.append(probe(seed, args.seconds))
            print(f"seed {seed}: {rates[-1]:.2f} requests/s closed-loop", flush=True)
    finally:
        cleanup()
    print(f"median {statistics.median(rates):.2f} requests/s; open-loop RATE {servemix.RATE:g} "
          f"is {servemix.RATE / statistics.median(rates):.0%} of it")


if __name__ == "__main__":
    main()
