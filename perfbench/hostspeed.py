"""Samples the host's speed while a benchmark run goes on.

Every ``PERIOD_S`` it times one round of ``common._calibration_loop`` in
thread CPU time, on each core in turn, and prints the sample as one JSON
line ``[monotonic time, core, seconds]``; it stops when its stdin closes.
A shared 2-core host runs the same fixed loop up to twice as fast at
one moment as at another; these samples show which speed a run had.

    python3 perfbench/hostspeed.py < pipe
"""

import json
import os
import sys
import threading
import time

from common import _calibration_loop

#: one round (a few milliseconds) per period: well under 1% of one core.
PERIOD_S = 0.25

if __name__ == "__main__":
    stop = threading.Event()

    def wait_for_eof():
        sys.stdin.read()
        stop.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    cores = sorted(os.sched_getaffinity(0))
    rounds = 0
    while not stop.wait(PERIOD_S):
        core = cores[rounds % len(cores)]
        rounds += 1
        os.sched_setaffinity(0, {core})
        t0 = time.thread_time()
        _calibration_loop()
        print(json.dumps([time.monotonic(), core, time.thread_time() - t0]), flush=True)
