"""Per-layer timing from outside the program.

``install()`` wraps the public entry points of every layer named in
``LAYERS`` — nothing under ``src/`` changes.  A wrapped call opens a
span; spans are not stored one by one but folded, per thread, into
``[calls, total seconds, self seconds]`` per layer, where *self* is the
span minus the spans of wrapped calls nested inside it.  A layer that
re-enters itself (``RaceTransformer.transform`` calling
``KissTransformer.transform``) counts once, at the outermost call.

Pool workers are forked from the process that called ``install()``, so
they inherit the wrappers.  A worker folds its own spans per job and,
when the job ends, appends them to ``<span_dir>/w<pid>.jsonl``;
``collect()`` merges those files with the spans of the calling process.

Besides time, the wrappers keep exact counts (states, transitions,
certificate bytes, cache hits, swarm tiles) and, for the campaign
runtime, per-job timestamps: when a job was submitted, when a worker
started it, and when the runtime recorded it with the worker's own
``wall_s`` — the inputs of ``campaign.queue_wait_s`` and
``campaign.dispatch_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from common import failed

#: layer -> public entry points ("module", "Class.method" or "function").
LAYERS: Dict[str, List[tuple]] = {
    "lang.parse": [("repro.lang", "parse")],
    "lang.lower": [("repro.lang.lower", "lower_program")],
    "drivers.generate": [("repro.drivers.generator", "generate_source")],
    "analysis.alias": [("repro.analysis.alias", "AliasAnalysis.__init__")],
    "analysis.shared_access": [("repro.analysis.sharedaccess", "analyze_shared_access")],
    "core.transform": [("repro.core.transform", "KissTransformer.transform"),
                       ("repro.core.race", "RaceTransformer.transform")],
    "lazy.transform": [("repro.lazy.transform", "LazyTransformer.transform")],
    "cfg.build": [("repro.cfg.build", "build_program_cfg")],
    "seqcheck.check": [("repro.seqcheck.explicit", "SequentialChecker.check")],
    "seqcheck.freeze": [("repro.seqcheck.interp", "Freezer.freeze")],
    "seqcheck.clone": [("repro.seqcheck.interp", "World.clone")],
    "concheck.check": [("repro.concheck.interleave", "ConcurrentChecker.check")],
    "concheck.replay": [("repro.concheck.replay", "TraceReplayer.replay")],
    "witness.emit": [("repro.witness.emit", "emit_witness")],
    "witness.validate": [("repro.witness.validate", "validate_witness_doc")],
    "fuzz.gen": [("repro.fuzz.gen", "ProgramGenerator.generate_batch")],
    "fuzz.oracle": [("repro.fuzz.oracle", "differential_check")],
    "campaign.cache_get": [("repro.campaign.cache", "ResultCache.get")],
    "campaign.cache_put": [("repro.campaign.cache", "ResultCache.put")],
    "campaign.journal_append": [("repro.campaign.journal", f"JobJournal.{m}")
                                for m in ("admit", "started", "done", "cancelled", "abandoned")],
    "campaign.swarm_plan": [("repro.campaign.swarm", "plan_tiles")],
    "campaign.swarm_aggregate": [("repro.campaign.swarm", "aggregate")],
    "serve.admit": [("repro.serve.service", "CheckService.submit")],
    "serve.swarm_admit": [("repro.serve.service", "CheckService.submit_swarm")],
}

# The wrappers patch process-wide functions, so their state is
# process-wide too.
_lock = threading.Lock()
_tls = threading.local()
#: every thread's fold: layer -> [calls, total_s, self_s]
_folds: List[Dict[str, list]] = []
_counts: Dict[str, float] = {}
_jobs: Dict[str, Dict[str, dict]] = {"submit": {}, "start": {}, "record": {}}
_installed_pid: Optional[int] = None
_span_dir: Optional[str] = None


def _after_fork_in_child() -> None:
    # a pool may fork while another thread holds the lock
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _state():
    st = getattr(_tls, "st", None)
    if st is None:
        st = _tls.st = {"stack": [], "active": set(), "fold": {}}
        with _lock:
            _folds.append(st["fold"])
    return st


def count(name: str, n: float = 1) -> None:
    with _lock:
        _counts[name] = _counts.get(name, 0) + n


def _wrap(layer: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = _state()
        active = st["active"]
        if layer in active:
            return fn(*args, **kwargs)
        active.add(layer)
        stack = st["stack"]
        frame = [0.0]
        stack.append(frame)
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            elapsed = clock() - t0
            stack.pop()
            active.discard(layer)
            rec = st["fold"].get(layer)
            if rec is None:
                rec = st["fold"][layer] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed
        if on_result is not None:
            on_result(args, out)
        return out

    return wrapper


# -- exact counts read off the wrapped calls' results ---------------------------------

def _on_check(args, result) -> None:
    count("seqcheck.states", result.stats.states)
    count("seqcheck.transitions", result.stats.transitions)


def _on_emit(args, doc) -> None:
    if doc is not None:
        count("witness.bytes", len(json.dumps(doc, sort_keys=True)))


def _on_cache_get(args, hit) -> None:
    if hit is not None:
        count("campaign.cache_hits")


def _on_aggregate(args, report) -> None:
    results = args[2]
    cancelled = sum(1 for r in results if r.verdict == "cancelled")
    count("campaign.swarm_tiles_run", len(results) - cancelled)
    count("campaign.swarm_tiles_cancelled", cancelled)


_ON_RESULT = {
    "seqcheck.check": _on_check,
    "witness.emit": _on_emit,
    "campaign.cache_get": _on_cache_get,
    "campaign.swarm_aggregate": _on_aggregate,
}


# -- campaign runtime job timestamps --------------------------------------------------

def _runtime_submit(fn):
    @functools.wraps(fn)
    def submit(self, job, key=None, tenant=None):
        _jobs["submit"].setdefault(job.job_id, time.monotonic())
        return fn(self, job, key, tenant)
    return submit


def _runtime_record(fn):
    @functools.wraps(fn)
    def record(self, tel, job, key, result):
        out = fn(self, tel, job, key, result)
        _jobs["record"][job.job_id] = {"t": time.monotonic(), "wall_s": result.wall_s}
        count("core.race_checks_emitted", result.checks_emitted)
        count("core.race_checks_pruned", result.checks_pruned)
        count("campaign.retries", max(0, result.attempts - 1))
        if failed(result):
            count("campaign.failed")
        return out
    return record


def _execute_job(fn):
    @functools.wraps(fn)
    def execute_job(job, *args, **kwargs):
        in_worker = os.getpid() != _installed_pid
        if in_worker:
            # drop what the fork copied from the parent
            reset()
            st = _state()
            st["stack"].clear()
            st["active"].clear()
        _jobs["start"].setdefault(job.job_id, time.monotonic())
        try:
            return fn(job, *args, **kwargs)
        finally:
            if in_worker and _span_dir:
                path = os.path.join(_span_dir, f"w{os.getpid()}.jsonl")
                with open(path, "a") as fh:
                    fh.write(json.dumps(snapshot()) + "\n")
    return execute_job


# -- installation ---------------------------------------------------------------------

def _replace_everywhere(old, new) -> None:
    """Point every ``repro`` module attribute bound to ``old`` at ``new``
    (``from x import f`` copies the reference into each importer)."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _patch(module: str, qualname: str, make: Callable[[Callable], Callable]) -> None:
    mod = importlib.import_module(module)
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
    else:
        old = getattr(mod, qualname)
        _replace_everywhere(old, make(old))


def install(span_dir: str) -> None:
    """Wrap every layer entry point; worker spans go to ``span_dir``."""
    global _installed_pid, _span_dir
    if _installed_pid is not None:
        return
    _installed_pid = os.getpid()
    _span_dir = span_dir
    # import every package first so _replace_everywhere sees all importers
    for pkg in ("repro.cli", "repro.campaign", "repro.fuzz", "repro.serve", "repro.witness",
                "repro.lazy", "repro.concheck", "repro.seqcheck", "repro.drivers"):
        importlib.import_module(pkg)
    for layer, points in LAYERS.items():
        for module, qualname in points:
            _patch(module, qualname,
                   lambda fn, layer=layer: _wrap(layer, fn, _ON_RESULT.get(layer)))
    _patch("repro.campaign.runtime", "CampaignRuntime.submit", _runtime_submit)
    _patch("repro.campaign.runtime", "CampaignRuntime.record", _runtime_record)
    _patch("repro.campaign.worker", "execute_job", _execute_job)


def reset() -> None:
    with _lock:
        for fold in _folds:
            fold.clear()
        _counts.clear()
        for table in _jobs.values():
            table.clear()


def snapshot() -> dict:
    """This process's spans, counts and job timestamps."""
    with _lock:
        docs = [{"layers": dict(fold), "counts": {}, "jobs": {}} for fold in _folds]
        docs.append({"layers": {}, "counts": dict(_counts),
                     "jobs": {k: dict(v) for k, v in _jobs.items()}})
    return merge(docs)


def merge(docs: List[dict]) -> dict:
    """Sum spans and counts over documents; keep the first timestamp per job."""
    out = {"layers": {}, "counts": {}, "jobs": {"submit": {}, "start": {}, "record": {}}}
    for doc in docs:
        for layer, (calls, total, self_s) in doc["layers"].items():
            rec = out["layers"].setdefault(layer, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, n in doc["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + n
        for kind, table in doc["jobs"].items():
            for job_id, value in table.items():
                out["jobs"][kind].setdefault(job_id, value)
    return out


def read_dir(span_dir: str) -> List[dict]:
    """Every span document written under ``span_dir``."""
    docs = []
    for name in sorted(os.listdir(span_dir)):
        if name.endswith(".jsonl") or name.endswith(".json"):
            with open(os.path.join(span_dir, name)) as fh:
                docs.extend(json.loads(line) for line in fh if line.strip())
    return docs


def collect(span_dir: str) -> dict:
    """Merge this process's spans with every worker's."""
    return merge([snapshot()] + read_dir(span_dir))
