"""The machine-readable document schemas and their validators.

Every JSON artifact the system emits carries a ``schema`` tag naming its
shape and revision:

==================  =======================================================
``kiss-metrics/1``  one :meth:`repro.obs.Recorder.metrics` snapshot
``kiss-profile/1``  ``python -m repro profile --json`` output
``kiss-campaign/1`` the end-of-campaign summary document
``kiss-serve/1``    one result event streamed by ``python -m repro serve``
``kiss-witness/1``  a safety certificate (:mod:`repro.witness`)
``kiss-journal/1``  one write-ahead job-journal record
                    (:mod:`repro.campaign.journal`)
==================  =======================================================

The validators here are deliberately hand-rolled (zero dependencies, no
jsonschema) and are the single source of truth: the producers in
:mod:`repro.obs`, :mod:`repro.campaign.telemetry`, and
:mod:`repro.serve` re-export them, golden-file tests run them over real
output, and the CI jobs run them over artifacts.  Keeping them in one
module means a schema revision is one diff, not a hunt across layers.

All validators return the document (for chaining) or raise
:class:`SchemaError`, a ``ValueError`` subclass.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple, Union

#: Schema tag of :meth:`repro.obs.Recorder.metrics` snapshots.
METRICS_SCHEMA = "kiss-metrics/1"

#: Schema tag of the ``profile --json`` document.
PROFILE_SCHEMA = "kiss-profile/1"

#: Schema tag of the campaign summary document.
CAMPAIGN_SCHEMA = "kiss-campaign/1"

#: Schema tag of events streamed by the checking service.
SERVE_SCHEMA = "kiss-serve/1"

#: Schema tag of safety certificates (:mod:`repro.witness`).
WITNESS_SCHEMA = "kiss-witness/1"

#: The two certificate kinds: the explicit backend exports its frozen
#: reached-set, the cegar backend its final predicate abstraction.
WITNESS_KINDS = ("reached-set", "predicate-invariant")

#: What the independent validator can say about a certificate.
WITNESS_STATUSES = ("certified", "refuted", "unsupported")

#: The event vocabulary of a ``kiss-serve/1`` stream, in lifecycle
#: order: admission, first attempt, bounded retries, then exactly one
#: terminal event — ``done`` (a verdict) or ``cancelled`` (no verdict).
SERVE_EVENTS = ("queued", "started", "retry", "done", "cancelled")

#: Schema tag of write-ahead job-journal records
#: (:mod:`repro.campaign.journal`).
JOURNAL_SCHEMA = "kiss-journal/1"

#: Journal record vocabulary: admission (with the full job spec), the
#: attempts, then exactly one terminal record.  Replay precedence is
#: ``done > cancelled > abandoned``.
JOURNAL_EVENTS = ("admitted", "started", "done", "cancelled", "abandoned")

#: Where a served verdict came from: the content-addressed cache, a
#: fresh check, piggybacked on an identical in-flight submission, a run
#: with caching disabled, or a server-side swarm aggregation (the tile
#: results each carry their own cache state).
SERVE_CACHE_STATES = ("hit", "miss", "dedup", "off", "aggregate")

#: The verdict vocabulary shared by every layer
#: (:class:`repro.core.checker.KissResult` and everything built on it).
VERDICTS = ("safe", "error", "resource-bound")

#: The sequentialization strategies every layer agrees on: ``kiss``
#: (Figure 4, two context switches) and ``lazy`` (the pc-guarded lazy
#: K-round round-robin transform of :mod:`repro.lazy`).  Consumed by the
#: CLI's ``choices=``, :class:`repro.core.checker.Kiss`, the fuzz
#: oracle, and the campaign cache key.
STRATEGIES = ("kiss", "lazy")


class SchemaError(ValueError):
    """A document does not match its documented schema."""


_TypeSpec = Union[type, Tuple[type, ...]]


def _require_object(doc: Any, schema: str, what: str) -> Dict[str, Any]:
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be an object, got {type(doc).__name__}")
    if doc.get("schema") != schema:
        raise SchemaError(f"unknown {what} schema {doc.get('schema')!r}")
    return doc


def _require_keys(doc: Dict[str, Any], what: str,
                  spec: Sequence[Tuple[str, _TypeSpec]]) -> None:
    for key, kind in spec:
        if not isinstance(doc.get(key), kind):
            want = kind.__name__ if isinstance(kind, type) else "/".join(
                k.__name__ for k in kind)
            raise SchemaError(f"{what}: {key!r} missing or not {want}")


# ---------------------------------------------------------------------------
# kiss-metrics/1 and kiss-profile/1 (repro.obs)
# ---------------------------------------------------------------------------


def validate_metrics(doc: dict) -> dict:
    """Check a metrics snapshot against the ``kiss-metrics/1`` schema;
    returns ``doc`` for chaining, raises :class:`SchemaError` otherwise."""
    if not isinstance(doc, dict):
        raise SchemaError(f"metrics must be an object, got {type(doc).__name__}")
    if doc.get("schema") != METRICS_SCHEMA:
        raise SchemaError(f"unknown metrics schema {doc.get('schema')!r}")
    for key in ("wall_s", "phases", "counters"):
        if key not in doc:
            raise SchemaError(f"metrics missing key {key!r}")
    if not isinstance(doc["wall_s"], (int, float)) or doc["wall_s"] < 0:
        raise SchemaError(f"wall_s must be a non-negative number: {doc['wall_s']!r}")
    if not isinstance(doc["phases"], list):
        raise SchemaError("phases must be a list")
    for row in doc["phases"]:
        for key, typ in (("name", str), ("calls", int), ("wall_s", (int, float)),
                         ("self_s", (int, float))):
            if not isinstance(row.get(key), typ):
                raise SchemaError(f"phase row {row!r}: bad {key!r}")
        if row["calls"] < 1 or row["wall_s"] < 0:
            raise SchemaError(f"phase row {row!r}: negative count or time")
    if not isinstance(doc["counters"], dict):
        raise SchemaError("counters must be an object")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            raise SchemaError(f"counter {name!r} must be a non-negative int: {value!r}")
    return doc


def validate_profile(doc: dict) -> dict:
    """Check a ``profile --json`` document; returns ``doc``."""
    if not isinstance(doc, dict):
        raise SchemaError(f"profile must be an object, got {type(doc).__name__}")
    if doc.get("schema") != PROFILE_SCHEMA:
        raise SchemaError(f"unknown profile schema {doc.get('schema')!r}")
    for key in ("file", "prop", "verdict", "config", "metrics"):
        if key not in doc:
            raise SchemaError(f"profile missing key {key!r}")
    if doc["prop"] not in ("assertion", "race"):
        raise SchemaError(f"unknown prop {doc['prop']!r}")
    if doc["verdict"] not in VERDICTS:
        raise SchemaError(f"unknown verdict {doc['verdict']!r}")
    if not isinstance(doc["config"], dict):
        raise SchemaError("config must be an object")
    validate_metrics(doc["metrics"])
    return doc


# ---------------------------------------------------------------------------
# kiss-campaign/1 (repro.campaign.telemetry)
# ---------------------------------------------------------------------------


def validate_summary(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Check a ``kiss-campaign/1`` document's shape and internal
    consistency; returns the document or raises :class:`SchemaError`."""

    def fail(msg: str):
        raise SchemaError(f"invalid {CAMPAIGN_SCHEMA} document: {msg}")

    if not isinstance(doc, dict):
        fail("not an object")
    if doc.get("schema") != CAMPAIGN_SCHEMA:
        fail(f"schema is {doc.get('schema')!r}")
    for key, kind in (("jobs", int), ("completed", int), ("interrupted_jobs", int),
                      ("unreplayed_errors", int), ("deadline_hit", bool),
                      ("verdicts", dict), ("table", dict), ("drivers", list),
                      ("cache", dict)):
        if not isinstance(doc.get(key), kind):
            fail(f"{key} missing or not {kind.__name__}")
    if doc["interrupted"] is not None and not isinstance(doc["interrupted"], str):
        fail("interrupted must be null or a signal name")
    if "version" in doc and not isinstance(doc["version"], str):
        fail("version must be a string")
    if doc["jobs"] != doc["completed"] + doc["interrupted_jobs"]:
        fail("jobs != completed + interrupted_jobs")
    for tally in (doc["verdicts"], doc["table"]):
        if any(not isinstance(v, int) or v < 0 for v in tally.values()):
            fail("negative or non-integer tally")
        if sum(tally.values()) != doc["jobs"]:
            fail("tallies do not sum to jobs")
    if not 0 <= doc["unreplayed_errors"] <= doc["verdicts"].get("error", 0):
        fail("unreplayed_errors is not between 0 and the error count")
    fields = 0
    for row in doc["drivers"]:
        for key in ("driver", "fields", "race", "no-race", "unresolved", "other",
                    "cached", "wall_s"):
            if key not in row:
                fail(f"driver row missing {key}")
        if row["race"] + row["no-race"] + row["unresolved"] + row["other"] != row["fields"]:
            fail(f"driver {row['driver']}: field counts do not sum")
        fields += row["fields"]
    if fields != doc["jobs"]:
        fail("driver rows do not cover all jobs")
    if not all(isinstance(doc["cache"].get(k), int) for k in ("hits", "misses")):
        fail("cache hits/misses missing")
    return doc


# ---------------------------------------------------------------------------
# kiss-serve/1 (repro.serve)
# ---------------------------------------------------------------------------


def validate_serve_event(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Check one streamed service event against the ``kiss-serve/1``
    schema; returns ``doc`` or raises :class:`SchemaError`.

    Every event carries the schema tag, an ``event`` name from
    :data:`SERVE_EVENTS`, a monotonic-relative timestamp ``t``, and the
    server-assigned ``job`` id.  ``queued`` adds the admission facts
    (tenant, cache key, dedupe flag); ``done`` adds the verdict and its
    provenance — and a ``done`` or ``cancelled`` event is the only way
    a stream ends (``cancelled`` carries a reason, never a verdict).
    """
    doc = _require_object(doc, SERVE_SCHEMA, "serve event")
    _require_keys(doc, "serve event", (("event", str), ("t", (int, float)),
                                       ("job", str)))
    if doc["event"] not in SERVE_EVENTS:
        raise SchemaError(f"unknown serve event {doc['event']!r}")
    if doc["t"] < 0:
        raise SchemaError(f"serve event t must be non-negative: {doc['t']!r}")
    if not doc["job"]:
        raise SchemaError("serve event job id is empty")
    if doc["event"] == "queued":
        _require_keys(doc, "queued event", (("tenant", str), ("key", str),
                                            ("deduped", bool)))
    elif doc["event"] == "started":
        _require_keys(doc, "started event", (("attempt", int),))
        if doc["attempt"] < 1:
            raise SchemaError(f"started attempt must be >= 1: {doc['attempt']!r}")
    elif doc["event"] == "retry":
        _require_keys(doc, "retry event", (("attempt", int), ("reason", str)))
    elif doc["event"] == "cancelled":
        _require_keys(doc, "cancelled event", (("reason", str),))
    elif doc["event"] == "done":
        _require_keys(doc, "done event", (("verdict", str), ("attempts", int),
                                          ("cache", str), ("wall_s", (int, float)),
                                          ("version", str)))
        if doc["verdict"] not in VERDICTS:
            raise SchemaError(f"unknown serve verdict {doc['verdict']!r}")
        if doc["cache"] not in SERVE_CACHE_STATES:
            raise SchemaError(f"unknown serve cache state {doc['cache']!r}")
        if doc["attempts"] < 0 or doc["wall_s"] < 0:
            raise SchemaError("done event attempts/wall_s must be non-negative")
        if doc.get("witness") is not None:
            w = doc["witness"]
            if not isinstance(w, dict):
                raise SchemaError("done event witness must be an object")
            _require_keys(w, "done event witness", (("kind", str),
                                                    ("program_sha256", str)))
            if w["kind"] not in WITNESS_KINDS:
                raise SchemaError(f"unknown witness kind {w['kind']!r}")
        for key, kind in (("trace_validated", bool), ("trace", str)):
            if doc.get(key) is not None and not isinstance(doc[key], kind):
                raise SchemaError(f"done event {key} must be a {kind.__name__} or null")
    return doc


# ---------------------------------------------------------------------------
# kiss-journal/1 (repro.campaign.journal)
# ---------------------------------------------------------------------------


def validate_journal_record(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Check one write-ahead journal record against the
    ``kiss-journal/1`` schema; returns ``doc`` or raises
    :class:`SchemaError`.

    Every record carries the schema tag, an ``event`` from
    :data:`JOURNAL_EVENTS`, a unix timestamp ``t``, and the ``job`` id.
    ``admitted`` additionally carries the content-addressed cache
    ``key``, the ``origin`` frontend, an optional ``tenant``, and the
    full job ``spec`` — enough to re-enqueue the job from the journal
    alone.  ``started`` carries the attempt number; ``done`` the
    verdict; ``cancelled``/``abandoned`` a reason string.
    """
    doc = _require_object(doc, JOURNAL_SCHEMA, "journal record")
    _require_keys(doc, "journal record", (("event", str), ("t", (int, float)),
                                          ("job", str)))
    if doc["event"] not in JOURNAL_EVENTS:
        raise SchemaError(f"unknown journal event {doc['event']!r}")
    if doc["t"] < 0:
        raise SchemaError(f"journal record t must be non-negative: {doc['t']!r}")
    if not doc["job"]:
        raise SchemaError("journal record job id is empty")
    if doc["event"] == "admitted":
        _require_keys(doc, "admitted record", (("key", str), ("origin", str),
                                               ("spec", dict)))
        if len(doc["key"]) != 64:
            raise SchemaError("admitted key must be a sha256 hex digest")
        if doc.get("tenant") is not None and not isinstance(doc["tenant"], str):
            raise SchemaError("admitted tenant must be null or a string")
        _require_keys(doc["spec"], "admitted spec", (("job_id", str),
                                                     ("driver", str),
                                                     ("source", str),
                                                     ("prop", str)))
    elif doc["event"] == "started":
        _require_keys(doc, "started record", (("attempt", int),))
        if doc["attempt"] < 1:
            raise SchemaError(f"started attempt must be >= 1: {doc['attempt']!r}")
    elif doc["event"] == "done":
        _require_keys(doc, "done record", (("verdict", str),))
        if doc["verdict"] not in VERDICTS:
            raise SchemaError(f"unknown journal verdict {doc['verdict']!r}")
    else:  # cancelled | abandoned
        _require_keys(doc, f"{doc['event']} record", (("reason", str),))
    return doc


# ---------------------------------------------------------------------------
# kiss-witness/1 (repro.witness)
# ---------------------------------------------------------------------------


def validate_witness(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Check a ``kiss-witness/1`` certificate's *shape*; returns ``doc``
    or raises :class:`SchemaError`.

    This is the cheap structural gate shared by the emitter, the
    campaign artifact writer, and the independent validator.  It says
    nothing about whether the invariant actually holds — that is the
    semantic judgment of :mod:`repro.witness.validate`.
    """
    doc = _require_object(doc, WITNESS_SCHEMA, "witness")
    _require_keys(doc, "witness", (("kind", str), ("backend", str),
                                   ("strategy", str), ("entry", str),
                                   ("program", str), ("program_sha256", str),
                                   ("invariant", dict), ("ghost", dict)))
    if doc["kind"] not in WITNESS_KINDS:
        raise SchemaError(f"unknown witness kind {doc['kind']!r}")
    if doc.get("rounds") is not None and not isinstance(doc["rounds"], int):
        raise SchemaError("witness rounds must be null or an int")
    if len(doc["program_sha256"]) != 64:
        raise SchemaError("witness program_sha256 must be a sha256 hex digest")
    inv = doc["invariant"]
    if doc["kind"] == "reached-set":
        if not isinstance(inv.get("states"), list) or not inv["states"]:
            raise SchemaError("reached-set witness needs a non-empty states list")
        for state in inv["states"]:
            _require_keys(state, "witness state", (("globals", list),
                                                   ("heap", list),
                                                   ("stacks", list)))
    else:
        if not isinstance(inv.get("predicates"), dict):
            raise SchemaError("predicate witness needs a predicates object")
        _require_keys(inv["predicates"], "witness predicates",
                      (("global", list), ("local", dict)))
        if not isinstance(inv.get("locations"), list):
            raise SchemaError("predicate witness needs a locations list")
        for loc in inv["locations"]:
            _require_keys(loc, "witness location", (("func", str), ("ordinal", int),
                                                    ("stmt", str), ("cubes", list)))
    return doc
