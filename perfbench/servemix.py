"""``serve-mixed``: ``python -m repro serve --jobs 2 --journal ...`` as a
subprocess, driven open-loop at a fixed arrival rate.

Request ``i`` is due at a seeded point of its slot, ``(i + u) / RATE``
seconds after the start with ``u`` uniform in [0, 1): the arrivals keep
the fixed rate but do not fall in step with the engine's 50 ms polling
cycle.  A request's latency runs from when it was due to when the client
sees its terminal status, so a client that falls behind shows up in the
latency instead of slowing the arrivals.  Two client threads (one per core) share the
schedule, each holding at most one connection.

The traffic comes from pinned inputs — the fuzz corpus in
``tests/fuzz_corpus`` and a small Table 1 driver — never from the
fuzz generator, so a change there cannot move this workload.  Every
block of ``BLOCK_LEN`` requests has the same mix:

* ``fresh``: a corpus program, salted with an unused global named by the
  seed, as an assertion job (a cache miss, then a cache write and
  journal appends);
* ``repeat``: the exact payload of an earlier fresh request (a cache hit);
* ``race``: a salted imca race job on one device-extension field;
* ``swarm``: ``POST /v1/swarm`` with 8 lazy tiles at K=3 over a salted
  ``increment-chain.kp`` or ``loop-safe.kp``, alternately.

The mix was chosen, not measured from real traffic; no traffic log of
this service exists to measure it from.  Each share has a reason:
fresh jobs are half the traffic because the miss path (check, cache
write, journal) is the service's main work; repeats are 30% so a run
has enough cache hits (36 at 20 s) for a steady hit median; race jobs
(15%) are the heaviest single jobs a client sends and set the tail;
one swarm in 20 gives a run six swarm latencies, and more would make
the eight-tile fan-out most of the server's load instead of one part of
it.

Corpus programs and imca fields are dealt from decks reshuffled per
seed, so every run of one size has nearly the same mix of costs; the
slowest requests (race jobs and swarms) set the tail, so their mix is
exact.

Known answers: the manifest's ``sequential`` verdict for corpus jobs,
the ``DriverSpec`` field kind for race jobs, and, for the swarms,
``error`` for increment-chain (its error needs three context switches,
which lazy K=3 covers) and ``safe`` for loop-safe (no interleaving of it
fails).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote

from common import (HERE, ROOT, WORKERS, child_env, cpu_seconds, descendants,
                    median, salt, tail, wait_gone, workdir)

#: requests per second.  ``saturation.py`` (the same mix, closed-loop,
#: 2 connections) completed 14.7, 15.8 and 16.4 requests/s on seeds
#: 1-3 at 20 s on a 2-vCPU host, so this rate keeps the server and the
#: client at about 38% of what they can sustain.
RATE = 6.0
#: a verdict slower than this does not count as goodput.  At ``RATE``
#: every verdict arrives well within it (the slowest in 0.5-0.7 s), so
#: ``goodput_per_s`` equals ``jobs_per_s`` until a change pushes
#: verdicts past the limit.
LATENCY_LIMIT_S = 1.0
#: one block of the traffic mix: the slow kinds sit at fixed, evenly
#: spaced slots, so how often they overlap does not depend on the seed;
#: fresh jobs and repeats fill the other slots in a seeded order.
BLOCK_LEN = 20
SLOW_SLOTS = {2: "race", 7: "race", 12: "swarm", 17: "race"}
LIGHT = ["fresh"] * 10 + ["repeat"] * 6
#: a repeat copies a fresh request at least this many slots earlier, so
#: the original has long finished (a hit, not an in-flight dedupe).
REPEAT_GAP = 5
SWARMS = {"increment-chain.kp": "error", "loop-safe.kp": "safe"}
RACE_DRIVERS = ("imca",)
CORPUS = os.path.join(ROOT, "tests", "fuzz_corpus")
WAIT_S = 60.0


def request_count(seconds: float) -> int:
    return max(BLOCK_LEN, round(RATE * seconds))


def _corpus() -> List[Tuple[str, str, int, str]]:
    """(file, source, max_ts, sequential verdict) per manifest program."""
    with open(os.path.join(CORPUS, "manifest.json")) as fh:
        manifest = json.load(fh)
    out = []
    for p in manifest["programs"]:
        with open(os.path.join(CORPUS, p["file"])) as fh:
            out.append((p["file"], fh.read(), p["max_ts"], p["sequential"]))
    return out


def _race_fields() -> List[Tuple[str, str, str, str]]:
    """(driver, source, target, expected verdict) per field."""
    from repro.drivers.corpus import DRIVER_SPECS
    from repro.drivers.generator import EXTENSION, generate_source

    out = []
    for spec in DRIVER_SPECS:
        if spec.name in RACE_DRIVERS:
            source = generate_source(spec)
            for f in spec.fields:
                verdict = "error" if f.kind.races_in_permissive else "safe"
                out.append((spec.name, source, f"{EXTENSION}.{f.name}", verdict))
    return out


def build_schedule(seed: int, seconds: float) -> List[dict]:
    """The run's requests: ``kind``, ``path``, ``body``, ``expect`` and
    ``due`` (seconds after the start)."""
    rng = random.Random(f"serve:{seed}")
    corpus = _corpus()
    races = _race_fields()
    swarm_sources = {name: src for name, src, _, _ in corpus if name in SWARMS}
    n = request_count(seconds)
    kinds: List[str] = []
    while len(kinds) < n:
        light = LIGHT[:]
        rng.shuffle(light)
        kinds += [SLOW_SLOTS.get(j) or light.pop() for j in range(BLOCK_LEN)]
    decks: Dict[str, list] = {"fresh": [], "race": []}
    swarms = 0

    def deal(kind: str, items: list):
        if not decks[kind]:
            decks[kind] = items[:]
            rng.shuffle(decks[kind])
        return decks[kind].pop()

    schedule: List[dict] = []
    fresh_slots: List[int] = []
    for i in range(n):
        earlier = [j for j in fresh_slots if j <= i - REPEAT_GAP]
        if kinds[i] == "repeat" and not earlier:
            # nothing to repeat yet: swap in the next fresh job
            k = next((k for k in range(i + 1, len(kinds)) if kinds[k] == "fresh"), None)
            if k is None:
                kinds.append("fresh")
                k = len(kinds) - 1
            kinds[i], kinds[k] = kinds[k], kinds[i]
        kind = kinds[i]
        if kind == "fresh":
            name, source, max_ts, verdict = deal("fresh", corpus)
            body = {"program": salt(source, seed, i), "prop": "assertion",
                    "config": {"max_ts": max_ts}, "driver": name}
            req = {"path": "/v1/jobs", "body": body, "expect": verdict}
            fresh_slots.append(i)
        elif kind == "repeat":
            original = schedule[rng.choice(earlier)]
            req = {"path": "/v1/jobs", "body": original["body"], "expect": original["expect"]}
        elif kind == "race":
            driver, source, target, verdict = deal("race", races)
            body = {"program": salt(source, seed, i), "prop": "race", "target": target,
                    "config": {"max_ts": 0}, "driver": driver}
            req = {"path": "/v1/jobs", "body": body, "expect": verdict}
        else:
            name = sorted(SWARMS)[swarms % len(SWARMS)]
            swarms += 1
            body = {"program": salt(swarm_sources[name], seed, i), "tiles": 8, "rounds": 3}
            req = {"path": "/v1/swarm", "body": body, "expect": SWARMS[name]}
        req["kind"] = kind
        req["due"] = (i + rng.random()) / RATE
        schedule.append(req)
    return schedule


# -- the server ------------------------------------------------------------------------

def _server_args(work: str) -> List[str]:
    return ["serve", "--port", "0", "--jobs", str(WORKERS),
            "--cache-dir", os.path.join(work, "cache"),
            "--journal", os.path.join(work, "journal.jsonl"),
            "--quota-rate", "1000", "--quota-burst", "1000"]


class Server:
    """One ``repro serve`` subprocess; ``span_dir`` runs it traced."""

    def __init__(self, work: str, span_dir: Optional[str] = None):
        if span_dir is None:
            cmd = [sys.executable, "-m", "repro"] + _server_args(work)
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_host.py"), span_dir] + _server_args(work)
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, text=True)
        self.port = None
        for line in self.proc.stdout:
            if '"serve_listening"' in line:
                self.port = json.loads(line)["port"]
                break
        self.ready_s = time.perf_counter() - self.t0
        if self.port is None:
            self.proc.wait(timeout=30)
            raise RuntimeError("server exited before listening")
        # keep draining stdout so the server can never block on it
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def stop(self) -> None:
        """SIGTERM: the server drains admitted work and exits; then wait
        for its pool workers too."""
        workers = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not drain within 60 s")
        self._drain.join(timeout=5)
        self.proc.stdout.close()
        wait_gone(workers)
        if code != 0:
            raise RuntimeError(f"server exited with {code}")


def time_setup(repeats: int) -> Tuple[float, List[float]]:
    samples = []
    for k in range(repeats):
        server = Server(workdir(f"setup{k}"))
        samples.append(server.ready_s)
        server.stop()
    return median(samples), samples


# -- the open-loop client --------------------------------------------------------------

def _call(port: int, method: str, path: str, body: Optional[dict] = None,
          timeout: float = WAIT_S + 10) -> Tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Connection": "close", "X-Kiss-Tenant": "perfbench"}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, (json.loads(raw) if raw else {})
    finally:
        conn.close()


def _one(port: int, req: dict) -> dict:
    """Submit one request and wait for its terminal status."""
    t0 = time.monotonic()
    status, doc = _call(port, "POST", req["path"], req["body"])
    out = {"post_s": time.monotonic() - t0, "status": status}
    if status not in (200, 202):
        return out
    if req["kind"] == "swarm":
        status, doc = _call(port, "GET", "/v1/swarm/" + quote(doc["swarm"], safe="")
                            + f"?wait={WAIT_S:g}")
        if status == 200 and doc.get("state") == "done":
            out.update(verdict=doc["verdict"], cache="swarm")
        return out
    if status == 202:
        status, doc = _call(port, "GET", "/v1/jobs/" + quote(doc["job"], safe="")
                            + f"?wait={WAIT_S:g}")
    result = doc.get("result") if status == 200 else None
    if result is not None and doc.get("state") == "done":
        out.update(verdict=result["verdict"], cache=result["cache"], wall_s=result["wall_s"])
    return out


def drive(port: int, schedule: List[dict]) -> List[dict]:
    """Run the schedule open-loop; one record per request."""
    records: List[Optional[dict]] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.monotonic() + 0.05

    def worker():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = start + schedule[i]["due"]
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            try:
                rec = _one(port, schedule[i])
            except (OSError, http.client.HTTPException, ValueError) as exc:
                rec = {"status": 0, "error": repr(exc)}
            now = time.monotonic()
            rec.update(kind=schedule[i]["kind"], expect=schedule[i]["expect"],
                       due=due, end=now, lag_s=sent - due, latency_s=now - due)
            records[i] = rec

    threads = [threading.Thread(target=worker) for _ in range(WORKERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records


def run_pass(schedule: List[dict], work: str,
             span_dir: Optional[str] = None) -> Tuple[List[dict], float]:
    """One server, the whole schedule; returns the records and the CPU
    seconds the server, its workers and the client spent."""
    cpu0 = cpu_seconds()
    server = Server(work, span_dir)
    try:
        records = drive(server.port, schedule)
    finally:
        server.stop()
    return records, cpu_seconds() - cpu0


# -- results --------------------------------------------------------------------------

def ok(rec: dict) -> bool:
    return "verdict" in rec


def wrong_verdicts(records: List[dict]) -> int:
    return sum(1 for r in records if ok(r) and r["verdict"] != r["expect"])


def failures(records: List[dict]) -> int:
    """Refused (429/5xx), errored, or never reached a terminal status."""
    return sum(1 for r in records if not ok(r))


def kind_latencies(records: List[dict]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {"hit": [], "miss": [], "swarm": []}
    for r in records:
        if ok(r) and r["cache"] in out:
            out[r["cache"]].append(r["latency_s"])
    return out


def end_to_end(records: List[dict], setup_s: float, peak_rss_mb: float,
               speed_scale: float) -> dict:
    """``jobs_per_s`` is verdicts over the schedule's span, so below
    saturation it follows the offered ``RATE``; it drops only when the
    server falls behind.  ``latency_tail_s`` is multiplied by
    ``speed_scale`` (reference seconds per measured second during the
    pass): the slowest tenth are race jobs and swarms, hundreds of
    milliseconds of checking.  The median request is a cache miss that
    mostly waits for the engine's 50 ms poll, which no host speed
    changes, so ``latency_p50_s`` is left as measured."""
    done = [r for r in records if ok(r)]
    lat = [r["latency_s"] for r in done]
    span = max(r["end"] for r in done) - min(r["due"] for r in records)
    tail_s, q, beyond = tail(lat)
    print(f"latency_tail_s is p{q:g} of {len(lat)} requests ({beyond} beyond it); "
          f"slowest {max(lat):.3f} s")
    print(f"unscaled: latency_tail_s={tail_s:.6g}")
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(done) / span,
        "latency_p50_s": median(lat),
        "latency_tail_s": tail_s * speed_scale,
        "goodput_per_s": sum(1 for x in lat if x <= LATENCY_LIMIT_S) / span,
        "peak_rss_mb": peak_rss_mb,
    }


def client_layers(records: List[dict], admit_s: float) -> Dict[str, float]:
    """The serve-side per-layer numbers the client can see."""
    kinds = kind_latencies(records)
    misses = [r for r in records if ok(r) and r["cache"] == "miss"]
    return {
        "hit_latency_p50_s": median(kinds["hit"]) if kinds["hit"] else 0.0,
        "miss_latency_p50_s": median(kinds["miss"]) if kinds["miss"] else 0.0,
        "swarm_latency_p50_s": median(kinds["swarm"]) if kinds["swarm"] else 0.0,
        "serve.http_s": sum(r.get("post_s", 0.0) for r in records) - admit_s,
        "serve.engine_wait_s": sum(r["latency_s"] - r["wall_s"] for r in misses),
        "serve.rejected": sum(1 for r in records if r["status"] == 429 or r["status"] >= 500),
        "bench.generator_lag_s": max(r["lag_s"] for r in records),
    }
