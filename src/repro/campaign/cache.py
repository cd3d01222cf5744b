"""Content-addressed result cache for campaign runs.

The key of a job is the SHA-256 over (a) the pretty-printed *lowered*
program — so formatting/comment changes in the surface source do not
invalidate results, but any semantic edit does — and (b) the
verdict-relevant configuration: property, target, transformer knobs
(``max_ts``, alias pruning, ``strategy``/``rounds``/``por``/``cs_tile``),
and backend budget (``backend``, ``max_states``, ``cegar_rounds``).  See
:meth:`~repro.campaign.jobs.CheckJob.verdict_config`.

Results persist as JSONL under ``.kiss-cache/`` (one object per line:
``{"schema": "kiss-cache/5", "key": ..., "result": {...}}``), appended
as jobs finish, so a re-run of the same campaign only checks drivers
whose programs or configurations changed.  Appends go through an
exclusive ``flock`` (:func:`repro.ioutil.locked_append`), so two
campaigns sharing one cache directory can never interleave torn lines.
Unreadable lines are still skipped at load — a truncated write from a
SIGKILLed run degrades to a cache miss, never an error — and counted in
``corrupt_lines``.  So is a line with a missing or different ``schema``
tag (counted in ``stale_lines``): entries written before a
key-affecting format change (the pre-tag layout is retroactively
``kiss-cache/1``) are recomputed, not trusted and not crashed on.  A
*failed* append (disk full, injected ``cache_append`` fault) keeps the
entry in memory for this run and simply leaves it unpersisted.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro import faults, obs
from repro.ioutil import atomic_write_text, locked_append
from repro.lang import is_core_program, lower_program, parse
from repro.lang.pretty import pretty_program

from .jobs import CheckJob, JobResult

CACHE_FILE = "results.jsonl"

#: Entry-format tag.  Bump when the key derivation or the result shape
#: changes incompatibly; loaders skip entries with any other tag.
#: ``/2``: added ``strategy``/``rounds`` to the verdict configuration.
#: ``/3``: added ``por``/``cs_tile`` (lazy strategy, swarm tiling).
#: ``/4``: dropped ``inline`` (the pre-pass knob is gone).
#: ``/5``: error results carry ``trace_validated`` and ``trace``.
SCHEMA = "kiss-cache/5"

#: Degraded-outcome detail prefixes that must never be cached: a re-run
#: with more headroom (longer timeout, higher memory ceiling, no
#: interrupt or cancellation) should try again.
UNCACHED_DETAIL_PREFIXES = (
    "timeout", "crash", "memory", "interrupted", "deadline", "cancelled",
)


class _LRU:
    """A small bounded memo (least-recently-used eviction).  Long fuzz
    campaigns push one generated program per job through the canonical
    form; an unbounded dict grows with the campaign, so cap it."""

    def __init__(self, cap: int):
        self.cap = cap
        self._data: "OrderedDict[str, str]" = OrderedDict()

    def get(self, key: str) -> Optional[str]:
        hit = self._data.get(key)
        if hit is not None:
            self._data.move_to_end(key)
        return hit

    def put(self, key: str, value: str) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.cap:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data


#: Cap on the canonical-form memo.  A corpus driver contributes one job
#: per device-extension field — dozens of jobs sharing one source — so
#: memoizing pays; 256 distinct programs is far beyond any one batch's
#: working set while bounding week-long fuzz campaigns.
CANONICAL_MEMO_CAP = 256

#: source text -> canonical (lowered, pretty-printed) form, per process.
_canonical_memo = _LRU(CANONICAL_MEMO_CAP)


def canonical_program_text(source: str) -> str:
    """The lowered program, pretty-printed — the cache key's view of a
    program."""
    hit = _canonical_memo.get(source)
    if hit is not None:
        return hit
    prog = parse(source)
    if not is_core_program(prog):
        prog = lower_program(prog)
    text = pretty_program(prog)
    _canonical_memo.put(source, text)
    return text


def cache_key(job: CheckJob) -> str:
    """SHA-256 hex digest identifying a job's verdict-relevant content."""
    h = hashlib.sha256()
    try:
        text = canonical_program_text(job.source)
    except Exception:
        # unparsable source: key on the raw text so the job still flows
        # through the scheduler and fails in a worker, not here
        text = "unparsable:" + job.source
    h.update(text.encode("utf-8"))
    h.update(b"\0")
    h.update(json.dumps(job.verdict_config(), sort_keys=True).encode("utf-8"))
    return h.hexdigest()


class ResultCache:
    """JSONL-backed map from cache key to :class:`JobResult`.

    ``ResultCache(None)`` is a disabled cache (always misses, never
    writes) so callers need no conditionals.
    """

    def __init__(self, directory: Optional[str]):
        self.directory = directory
        self.enabled = directory is not None
        self.hits = 0
        self.misses = 0
        #: lines skipped at load because they would not parse (torn
        #: writes) — with flock-guarded appends this stays 0 unless a
        #: writer was SIGKILLed mid-append or a torn-write fault fired.
        self.corrupt_lines = 0
        #: parseable lines skipped for carrying another schema tag.
        self.stale_lines = 0
        #: appends that failed at the OS level (entry kept in memory).
        self.write_errors = 0
        self._entries: Dict[str, dict] = {}
        #: key -> unix timestamp of the entry's append (0.0 for entries
        #: written before timestamps existed — any prune drops them).
        self._times: Dict[str, float] = {}
        if self.enabled:
            os.makedirs(directory, exist_ok=True)
            self._load()

    @property
    def path(self) -> Optional[str]:
        return os.path.join(self.directory, CACHE_FILE) if self.enabled else None

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    if obj.get("schema") != SCHEMA:
                        self.stale_lines += 1
                        continue  # stale format: recompute, don't crash
                    self._entries[obj["key"]] = obj["result"]
                    self._times[obj["key"]] = float(obj.get("t", 0.0))
                except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
                    self.corrupt_lines += 1
                    continue  # torn write from an interrupted run

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[JobResult]:
        """Look up a key, counting the hit/miss."""
        if not self.enabled:
            return None
        raw = self._entries.get(key)
        if raw is None:
            self.misses += 1
            return None
        self.hits += 1
        try:
            r = JobResult.from_dict(raw)
        except (KeyError, TypeError):
            self.misses += 1
            self.hits -= 1
            return None
        r.cache_hit = True
        return r

    def put(self, key: str, result: JobResult) -> None:
        if not self.enabled or result.cache_hit:
            return
        # Degraded verdicts from timeouts/crashes/memory ceilings and
        # interrupted remainders are not cached: a re-run with more
        # headroom should try again (so should an unreplayed error: its
        # replay may have been cut short), and `resource-bound` from an
        # exhausted state budget is already captured by max_states being
        # part of the key.
        if result.detail.startswith(UNCACHED_DETAIL_PREFIXES) or result.trace_validated is False:
            return
        now = round(time.time(), 3)
        self._entries[key] = result.to_dict()
        self._times[key] = now
        line = json.dumps(
            {"schema": SCHEMA, "key": key, "t": now, "result": result.to_dict()}
        ) + "\n"
        try:
            faults.fire("cache_append")
            locked_append(self.path, faults.corrupt("cache_append", line))
        except OSError:
            # Disk full, permissions, an injected cache_append fault:
            # the entry stays served from memory this run and is simply
            # not persisted — never a campaign error.
            self.write_errors += 1
            obs.inc("cache_write_errors")

    # -- maintenance (``python -m repro cache``) ---------------------------------

    def stats(self) -> dict:
        """Shape of the store for ``cache stats``: entry count, file
        size, verdict tallies, and the load-time health counters."""
        verdicts: Dict[str, int] = {}
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for key, raw in self._entries.items():
            v = raw.get("verdict", "?") if isinstance(raw, dict) else "?"
            verdicts[v] = verdicts.get(v, 0) + 1
            t = self._times.get(key, 0.0)
            if t > 0.0:
                oldest = t if oldest is None else min(oldest, t)
                newest = t if newest is None else max(newest, t)
        size = 0
        if self.enabled and os.path.exists(self.path):
            size = os.path.getsize(self.path)
        return {
            "enabled": self.enabled,
            "path": self.path,
            "entries": len(self._entries),
            "file_bytes": size,
            "verdicts": verdicts,
            "corrupt_lines": self.corrupt_lines,
            "stale_lines": self.stale_lines,
            "oldest_t": oldest,
            "newest_t": newest,
        }

    def prune(self, older_than_s: float, now: Optional[float] = None) -> Tuple[int, int]:
        """Drop entries older than ``older_than_s`` seconds (entries
        predating timestamps count as infinitely old) and compact the
        JSONL file atomically.  Returns ``(kept, dropped)``."""
        if not self.enabled:
            return (0, 0)
        cutoff = (time.time() if now is None else now) - older_than_s
        kept_keys = [k for k in self._entries if self._times.get(k, 0.0) >= cutoff]
        dropped = len(self._entries) - len(kept_keys)
        if dropped:
            self._entries = {k: self._entries[k] for k in kept_keys}
            self._times = {k: self._times[k] for k in kept_keys}
        # Rewrite even when nothing was dropped: pruning doubles as
        # compaction, deduplicating superseded appends and shedding
        # corrupt/stale lines.
        text = "".join(
            json.dumps(
                {"schema": SCHEMA, "key": k, "t": self._times[k], "result": self._entries[k]}
            ) + "\n"
            for k in self._entries
        )
        atomic_write_text(self.path, text)
        self.corrupt_lines = 0
        self.stale_lines = 0
        return (len(self._entries), dropped)
