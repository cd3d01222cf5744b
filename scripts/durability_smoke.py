#!/usr/bin/env python
"""CI smoke for durable checking (docs/ROBUSTNESS.md).

The kill-9-and-resume acceptance path, end to end through the CLI:

1. a crash-free baseline campaign runs with a write-ahead journal;
2. the same campaign is SIGKILLed mid-run (the injected
   ``engine_crash:kill`` fault) — the journal must show admitted jobs
   still owed, and none of its pool workers may outlive it by more than
   5 s;
3. ``--resume`` replays the journal and finishes the run: the verdict
   tallies must equal the baseline, every admitted job must reach a
   terminal state, and the cache must hold exactly one entry per key;
4. a second ``--resume`` must be a pure cache replay: >= 90% of the
   jobs answered from the cache with nothing re-checked.

Exit status 0 means all four held; any assertion failure is fatal.
Artifacts: ``DURABILITY_journal.jsonl`` (the crashed run's journal) and
``DURABILITY_recovery.json`` (recovery summaries + comparison numbers).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from repro.campaign import replay_journal

DRIVERS = "tracedrv,imca"

#: how long a killed campaign's pool workers may outlive it.
ORPHAN_GRACE_S = 5.0


def campaign(work, name, *extra):
    """One CLI campaign run; output goes to a log file, not a pipe — a
    SIGKILLed parent orphans its pool workers, and inherited pipe ends
    would block a capture long after the kill."""
    log = os.path.join(work, f"{name}.log")
    with open(log, "a") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign",
             "--drivers", DRIVERS, "--jobs", "2",
             "--cache-dir", os.path.join(work, f"{name}-cache"),
             "--journal", os.path.join(work, f"{name}.jsonl"),
             "--summary-json", os.path.join(work, f"{name}.json"),
             *extra],
            stdout=out, stderr=subprocess.STDOUT, timeout=300)
    with open(log) as f:
        return proc.returncode, f.read()


def live_processes(marker):
    """Pids of live (non-zombie) processes whose command line contains
    ``marker``; pool workers are forked, so they carry the campaign's
    command line.  Linux ``/proc`` only."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmdline = f.read()
            with open(f"/proc/{entry}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue  # exited while we looked
        if marker.encode() in cmdline and state != "Z":
            pids.append(int(entry))
    return pids


def orphans_after_kill(marker, grace=ORPHAN_GRACE_S):
    """Wait up to ``grace`` seconds for every process naming ``marker``
    to exit; returns the pids still alive then."""
    deadline = time.monotonic() + grace
    while True:
        alive = live_processes(marker)
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.1)


def summary(work, name):
    with open(os.path.join(work, f"{name}.json")) as f:
        return json.load(f)


def cache_keys(work, name):
    keys = []
    with open(os.path.join(work, f"{name}-cache", "results.jsonl")) as f:
        for line in f:
            if line.strip().endswith("}"):  # torn tails are noise, not keys
                keys.append(json.loads(line)["key"])
    return keys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kill-hit", type=int, default=4,
                        help="engine_crash hit index for the SIGKILL (default 4)")
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="kiss-durability-smoke-")

    clean_rc, clean_log = campaign(work, "clean")
    assert clean_rc in (0, 1, 2), f"baseline failed ({clean_rc}):\n{clean_log}"
    clean = summary(work, "clean")
    print(f"baseline: {clean['jobs']} jobs, verdicts {clean['verdicts']}")

    crash_rc, crash_log = campaign(
        work, "crash", "--inject", f"engine_crash:kill:hits={args.kill_hit}")
    assert crash_rc == -9, f"expected SIGKILL, got {crash_rc}:\n{crash_log}"
    plan = replay_journal(os.path.join(work, "crash.jsonl"))
    assert plan.admitted > 0 and plan.incomplete > 0, plan.summary()
    print(f"kill -9 landed: {plan.incomplete}/{plan.admitted} jobs owed")
    if os.path.isdir("/proc"):
        alive = orphans_after_kill(os.path.join(work, "crash.jsonl"))
        assert not alive, f"pool workers outlived the killed campaign: {alive}"
        print(f"no pool worker outlived the kill by {ORPHAN_GRACE_S:g} s")
    shutil.copy(os.path.join(work, "crash.jsonl"), "DURABILITY_journal.jsonl")
    crashed_doc = plan.summary_doc()

    resume_rc, resume_log = campaign(work, "crash", "--resume")
    assert resume_rc == clean_rc, f"resume exited {resume_rc}:\n{resume_log}"
    resumed = summary(work, "crash")
    assert resumed["verdicts"] == clean["verdicts"], (
        f"verdict drift after resume: {resumed['verdicts']} != {clean['verdicts']}")
    after = replay_journal(os.path.join(work, "crash.jsonl"))
    assert after.incomplete == 0, after.summary()
    for name in ("clean", "crash"):
        keys = cache_keys(work, name)
        assert len(keys) == len(set(keys)), f"{name}: duplicate cache entries"
    print(f"resume: verdicts match the baseline, journal settled, "
          f"{len(cache_keys(work, 'crash'))} unique cache entries")

    again_rc, again_log = campaign(work, "crash", "--resume")
    assert again_rc == clean_rc, f"second resume exited {again_rc}:\n{again_log}"
    replay = summary(work, "crash")
    hits, total = replay["cache"]["hits"], replay["jobs"]
    need = -(-total * 9 // 10)  # ceil(0.9 * total)
    assert hits >= need, f"only {hits}/{total} jobs answered from cache on resume"
    print(f"second resume: pure replay, {hits}/{total} cache hits")

    with open("DURABILITY_recovery.json", "w") as f:
        json.dump({"crashed": crashed_doc, "settled": after.summary_doc(),
                   "baseline_verdicts": clean["verdicts"],
                   "resumed_verdicts": resumed["verdicts"],
                   "replay_cache_hits": hits, "jobs": total}, f, indent=2)
    print("wrote DURABILITY_journal.jsonl, DURABILITY_recovery.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
