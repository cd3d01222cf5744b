"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro check file.kp                 # assertion checking
    python -m repro check file.kp --max-ts 1
    python -m repro lazy file.kp --rounds 3       # K-round sequentialization
    python -m repro campaign --swarm file.kp      # N-tile swarm of one program
    python -m repro race file.kp --target g       # race on global g
    python -m repro race file.kp --target S.field # race on a struct field
    python -m repro race file.kp --all-fields S   # the per-field loop
    python -m repro sequentialize file.kp         # print Figure 4 output
    python -m repro interleavings file.kp         # baseline model checker
    python -m repro campaign --jobs 8             # parallel cached corpus sweep
    python -m repro fuzz --count 500 --seed 0     # differential fuzzing
    python -m repro check file.kp --witness       # certify a safe verdict
    python -m repro witness check --doc cert.json # validate a certificate
    python -m repro witness check                 # certify corpora end to end
    python -m repro profile file.kp               # per-phase timing breakdown
    python -m repro profile file.kp --json        # kiss-profile/1 document
    python -m repro serve --port 8731             # the checking service (HTTP)
    python -m repro cache stats                   # result-cache shape
    python -m repro cache prune --older-than 7d   # drop old entries, compact
    python -m repro campaign --journal j.jsonl    # write-ahead job journal
    python -m repro campaign --journal j.jsonl --resume   # crash recovery
    python -m repro journal stats j.jsonl         # journal shape
    python -m repro journal replay j.jsonl        # what a resume would re-run
    python -m repro --version                     # print the package version

The input language is the paper's parallel language with C-like syntax
(see README).  Exit status: 0 = safe, 1 = error found, 2 = resource
bound, 3 = usage/parse error, 130 = campaign gracefully interrupted
(SIGINT/SIGTERM; the partial summary is still written and the cache
holds every completed job).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.concheck import check_concurrent
from repro.core.checker import Kiss
from repro.core.race import RaceTarget
from repro.lang import parse_core
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError
from repro.lang.pretty import pretty_program
from repro.lang.types import KissTypeError
from repro.schemas import STRATEGIES

EXIT_SAFE = 0
EXIT_ERROR = 1
EXIT_BOUND = 2
EXIT_USAGE = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell convention


def _load(path: str):
    with open(path) as f:
        return parse_core(f.read())


def _kiss(args) -> Kiss:
    return Kiss(
        max_ts=args.max_ts,
        max_states=args.max_states,
        use_alias_analysis=not getattr(args, "no_alias", False),
        backend=getattr(args, "backend", "explicit"),
        strategy=getattr(args, "strategy", "kiss"),
        rounds=getattr(args, "rounds", 2),
        por=getattr(args, "por", False),
        witness=getattr(args, "witness", False) or bool(getattr(args, "witness_out", None)),
    )


def _report(result, args=None) -> int:
    print(f"verdict: {result.summary()}")
    if result.is_error and result.concurrent_trace is not None:
        print("concurrent error trace:")
        print(result.concurrent_trace.format())
        print(f"trace replayed against concurrent semantics: "
              f"{'ok' if result.trace_validated else 'FAILED'}")
    stats = result.backend_result.stats
    print(f"[backend: {stats.states} states, {stats.transitions} transitions]")
    if result.witness is not None:
        w = result.witness
        print(f"witness: {w['kind']} (sha256 {w['program_sha256'][:12]}…) — "
              f"validate with `python -m repro witness check --doc CERT.json`")
        out = getattr(args, "witness_out", None) if args is not None else None
        if out:
            from repro.ioutil import atomic_write_json

            atomic_write_json(out, w)
            print(f"wrote {out}")
    elif args is not None and getattr(args, "witness", False) and result.is_safe:
        print("witness: none emitted (canonical re-run not safe within budget)")
    if result.is_error:
        return EXIT_ERROR
    if result.exhausted:
        return EXIT_BOUND
    return EXIT_SAFE


def _parse_target(text: str) -> RaceTarget:
    if "." in text:
        struct, field = text.split(".", 1)
        return RaceTarget.field_of(struct, field)
    return RaceTarget.global_var(text)


def cmd_check(args) -> int:
    """The `check` subcommand: assertion checking (Figure 4)."""
    prog = _load(args.file)
    return _report(_kiss(args).check_assertions(prog), args)


def cmd_lazy(args) -> int:
    """The `lazy` subcommand: assertion checking through the lazy
    pc-guarded K-round sequentialization (see docs/SEQUENTIALIZATION.md).

    ``--rounds 2`` subsumes the KISS coverage for two threads; larger
    budgets cover executions with up to K-1 preemptions per thread.  The
    driver interprets one thread segment at a time over the single
    shared store, so every reported error is a real K-round execution by
    construction.  ``--por`` prunes context-switch candidates at
    statements that touch no shared global.  The verdict line reports
    the round budget.
    """
    prog = _load(args.file)
    return _report(_kiss(args).check_assertions(prog), args)


def cmd_race(args) -> int:
    """The `race` subcommand: race checking (Figure 5), one target or per-field.

    The per-field loop (``--all-fields``) runs through the campaign
    scheduler: ``--jobs`` fans fields out over worker processes and
    ``--timeout`` bounds each field's wall clock, so one diverging field
    degrades to ``resource-bound`` instead of hanging the run.
    """
    prog = _load(args.file)
    kiss = _kiss(args)
    if args.all_fields:
        results = kiss.check_races_on_struct(
            prog, args.all_fields, jobs=args.jobs, timeout=args.timeout
        )
        worst = EXIT_SAFE
        for field, r in results.items():
            print(f"{args.all_fields}.{field}: {r.summary()}")
            if r.is_error:
                worst = EXIT_ERROR
            elif r.exhausted and worst == EXIT_SAFE:
                worst = EXIT_BOUND
        return worst
    if not args.target:
        print("race: provide --target NAME or --all-fields STRUCT", file=sys.stderr)
        return EXIT_USAGE
    return _report(kiss.check_race(prog, _parse_target(args.target)), args)


def _resume_journal(config) -> None:
    """``--resume``: replay the write-ahead journal and run the jobs a
    crashed run still owed *before* the main campaign.  Settled work
    answers from the result cache; the re-run writes fresh terminal
    records, so a second resume finds nothing left."""
    import dataclasses

    from repro.campaign import CampaignScheduler
    from repro.campaign.journal import replay as journal_replay

    plan = journal_replay(config.journal_path)
    print(plan.summary())
    if not plan.jobs:
        return
    # The recovery pass keeps the journal but not the main run's
    # telemetry stream (Telemetry opens its path with "w").
    sched = CampaignScheduler(dataclasses.replace(config, telemetry_path=None))
    results = sched.run(plan.jobs)
    hits = sum(1 for r in results if r.cache_hit)
    print(f"recovery: re-ran {len(results)} incomplete jobs "
          f"({hits} answered from cache)")


def cmd_campaign(args) -> int:
    """The `campaign` subcommand: the Table 1 job matrix through the
    campaign engine (parallel workers, result cache, telemetry).

    Robustness knobs (docs/ROBUSTNESS.md): `--memory-limit` arms a
    per-worker RLIMIT_AS ceiling, `--deadline` bounds the whole
    campaign (past it, in-flight jobs are cooperatively cancelled),
    SIGINT/SIGTERM drain gracefully (exit 130, partial but
    schema-valid `--summary-json`, cache intact for the re-run), and
    `--inject` runs a deterministic fault plan for chaos testing.

    Durability (docs/ROBUSTNESS.md): `--journal PATH` records every
    job's admitted/started/terminal lifecycle write-ahead; after a
    crash (even kill -9), `--resume` replays the journal and re-runs
    exactly the jobs still owed.

    `--swarm FILE.kp` switches to swarm mode (docs/SWARM.md): one
    program expanded into `--tiles` schedule tiles of the lazy
    sequentialization, each an ordinary cached job, aggregated back to
    one verdict with a replay-validated trace on error.  `--first-error`
    cancels sibling tiles the moment any tile errs.
    """
    from repro.campaign import CampaignConfig, DEFAULT_CACHE_DIR, default_jobs, run_corpus_campaign
    from repro.drivers import DRIVER_SPECS, spec_by_name
    from repro.faults import FaultPlan
    from repro.ioutil import atomic_write_json

    if args.swarm:
        return _swarm(args)
    if args.list_drivers:
        for s in DRIVER_SPECS:
            print(f"{s.name}  ({len(s.fields)} fields)")
        return EXIT_SAFE
    try:
        specs = (
            [spec_by_name(n.strip()) for n in args.drivers.split(",")]
            if args.drivers
            else DRIVER_SPECS
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    try:
        plan = FaultPlan.parse(args.inject, seed=args.inject_seed) if args.inject else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.resume and not args.journal:
        print("error: --resume needs --journal PATH", file=sys.stderr)
        return EXIT_USAGE
    cache_dir = None if args.no_cache else (args.cache_dir or DEFAULT_CACHE_DIR)
    config = CampaignConfig(
        jobs=args.jobs if args.jobs is not None else default_jobs(),
        timeout=args.timeout,
        retries=args.retries,
        cache_dir=cache_dir,
        telemetry_path=args.telemetry,
        deadline=args.deadline,
        memory_limit=args.memory_limit,
        fault_plan=plan,
        journal_path=args.journal,
    )
    if args.resume:
        _resume_journal(config)
    _, results, scheduler = run_corpus_campaign(
        specs,
        config,
        refined=args.refined,
        max_states=args.max_states,
        loc_scale=args.loc_scale,
        witness=args.witness or bool(args.witness_dir),
    )
    print(scheduler.summary(results))
    if args.witness_dir:
        import os

        from repro.ioutil import atomic_write_json

        os.makedirs(args.witness_dir, exist_ok=True)
        written = 0
        for r in results:
            if r.witness is None:
                continue
            name = r.job_id.replace("/", "__") + ".witness.json"
            atomic_write_json(os.path.join(args.witness_dir, name), r.witness)
            written += 1
        print(f"wrote {written} certificates to {args.witness_dir}")
    if args.summary_json:
        atomic_write_json(args.summary_json, scheduler.summary_doc(results))
        print(f"wrote {args.summary_json}")
    if scheduler.interrupted is not None:
        print(f"campaign interrupted ({scheduler.interrupted}); "
              f"completed jobs are cached — re-run to resume", file=sys.stderr)
        return EXIT_INTERRUPTED
    if any(r.table_verdict == "race" for r in results):
        return EXIT_ERROR
    if any(r.table_verdict == "unresolved" for r in results):
        return EXIT_BOUND
    return EXIT_SAFE


def _swarm(args) -> int:
    """`campaign --swarm`: the N-tile swarm mode over one program."""
    from repro.campaign import CampaignConfig, DEFAULT_CACHE_DIR, default_jobs, run_swarm_campaign
    from repro.faults import FaultPlan

    try:
        plan = FaultPlan.parse(args.inject, seed=args.inject_seed) if args.inject else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.resume and not args.journal:
        print("error: --resume needs --journal PATH", file=sys.stderr)
        return EXIT_USAGE
    cache_dir = None if args.no_cache else (args.cache_dir or DEFAULT_CACHE_DIR)
    config = CampaignConfig(
        jobs=args.jobs if args.jobs is not None else default_jobs(),
        timeout=args.timeout,
        retries=args.retries,
        cache_dir=cache_dir,
        telemetry_path=args.telemetry,
        deadline=args.deadline,
        memory_limit=args.memory_limit,
        fault_plan=plan,
        journal_path=args.journal,
    )
    if args.resume:
        _resume_journal(config)
    with open(args.swarm) as f:
        source = f.read()
    report = run_swarm_campaign(
        source,
        tiles=args.tiles,
        rounds=args.swarm_rounds,
        seed=args.swarm_seed,
        por=args.por,
        max_states=args.max_states,
        campaign_config=config,
        first_error=args.first_error,
    )
    print(report.summary())
    if report.interrupted is not None:
        print(f"swarm interrupted ({report.interrupted}); completed tiles are "
              f"cached — re-run to resume", file=sys.stderr)
        return EXIT_INTERRUPTED
    if report.is_error:
        return EXIT_ERROR
    if report.verdict == "resource-bound":
        return EXIT_BOUND
    return EXIT_SAFE


def cmd_fuzz(args) -> int:
    """The `fuzz` subcommand: differential fuzzing of the KISS pipeline
    against the balanced-interleaving oracle (see docs/FUZZING.md).

    Generates ``--count`` random concurrent programs from ``--seed``,
    cross-checks each through the campaign scheduler (``--jobs``
    workers, optional cache and telemetry), and delta-debugs any
    verdict divergence to a minimal witness before reporting it.
    """
    from repro.campaign import CampaignConfig, default_jobs
    from repro.fuzz import GenConfig, run_fuzz_campaign

    gen_config = GenConfig(
        max_workers=args.max_workers,
        max_stmts=args.max_stmts,
        max_depth=args.max_depth,
    )
    campaign_config = CampaignConfig(
        jobs=args.jobs if args.jobs is not None else default_jobs(),
        timeout=args.timeout,
        retries=args.retries,
        cache_dir=args.cache_dir,
        telemetry_path=args.telemetry,
    )
    if args.strategy != "kiss" and args.race:
        print(f"fuzz: --race is not available with --strategy {args.strategy}",
              file=sys.stderr)
        return EXIT_USAGE
    report = run_fuzz_campaign(
        count=args.count,
        seed=args.seed,
        gen_config=gen_config,
        campaign_config=campaign_config,
        max_states=args.max_states,
        race=args.race,
        strategy=args.strategy,
        rounds=args.rounds,
        por=args.por,
        witness=args.witness,
        do_shrink=not args.no_shrink,
    )
    print(report.summary())
    if args.save and report.divergences:
        import os

        os.makedirs(args.save, exist_ok=True)
        for d in report.divergences:
            path = os.path.join(args.save, f"divergence_{d.seed}.kp")
            with open(path, "w") as f:
                f.write(f"// seed {d.seed}: {d.detail}\n" + d.shrunk_source)
            print(f"saved {path}")
    return EXIT_SAFE if report.ok else EXIT_ERROR


def cmd_profile(args) -> int:
    """The `profile` subcommand: one observed checking run with a
    per-phase timing breakdown (see docs/OBSERVABILITY.md).

    Runs the same pipeline as ``check`` (or ``race`` when ``--target``
    is given) under an ambient :mod:`repro.obs` recorder, so every
    phase — parse, lower, transform, backend, trace mapping — lands in
    one per-phase table alongside the checker's counter registry.
    ``--json`` prints the ``kiss-profile/1`` document instead (the
    shape used for ``BENCH_*.json`` artifacts); ``--output`` writes
    that document to a file in either mode.
    """
    import json

    from repro import obs

    recorder = obs.Recorder()
    with obs.observing(recorder):
        prog = _load(args.file)
        kiss = _kiss(args)
        if args.target:
            result = kiss.check_race(prog, _parse_target(args.target))
        else:
            result = kiss.check_assertions(prog)
    metrics = recorder.metrics()
    doc = obs.profile_document(
        file=args.file,
        prop="race" if args.target else "assertion",
        target=args.target,
        verdict=result.verdict,
        config={
            "max_ts": args.max_ts,
            "max_states": args.max_states,
            "backend": args.backend,
            "use_alias_analysis": not getattr(args, "no_alias", False),
        },
        metrics=metrics,
    )
    if args.output:
        from repro.ioutil import atomic_write_json

        atomic_write_json(args.output, doc)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"verdict: {result.summary()}")
        print(obs.render_metrics(metrics))
        if args.output:
            print(f"wrote {args.output}")
    if result.is_error:
        return EXIT_ERROR
    if result.exhausted:
        return EXIT_BOUND
    return EXIT_SAFE


def cmd_serve(args) -> int:
    """The `serve` subcommand: checking-as-a-service (docs/SERVICE.md).

    Hosts the stdlib HTTP JSON API over the shared campaign engine:
    POST program + property + config to ``/v1/jobs``, stream
    ``kiss-serve/1`` events, dedupe through the content-addressed
    cache.  Prints one ``serve_listening`` JSON line once bound (use
    ``--port 0`` to let the OS pick).  SIGTERM/SIGINT drain gracefully:
    admission stops, admitted work finishes, every stream ends with a
    schema-valid ``done`` event; a second signal degrades the
    not-yet-started backlog, like a batch campaign interrupt.
    """
    from repro import obs
    from repro.campaign import DEFAULT_CACHE_DIR
    from repro.faults import FaultPlan
    from repro.serve import CheckService, ServeConfig, run_server

    try:
        plan = FaultPlan.parse(args.inject, seed=args.inject_seed) if args.inject else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.resume and not args.journal:
        print("error: --resume needs --journal PATH", file=sys.stderr)
        return EXIT_USAGE
    cache_dir = None if args.no_cache else (args.cache_dir or DEFAULT_CACHE_DIR)
    config = ServeConfig(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        cache_dir=cache_dir,
        memory_limit=args.memory_limit,
        fault_plan=plan,
        telemetry_path=args.telemetry,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        max_queue=args.max_queue,
        journal_path=args.journal,
        resume=args.resume,
    )
    # An ambient recorder so /stats surfaces the obs counters
    # (serve_submissions, cache hits, jobs_interrupted, ...).
    with obs.observing(obs.Recorder()):
        service = CheckService(config)
        return run_server(service, host=args.host, port=args.port)


def _parse_age(text: str) -> float:
    """``"45"``/``"30m"``/``"12h"``/``"7d"`` → seconds."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    scale = units.get(text[-1:].lower())
    if scale is not None:
        return float(text[:-1]) * scale
    return float(text)


def cmd_cache(args) -> int:
    """The `cache` subcommand: inspect and maintain the result cache.

    ``stats`` prints the store's shape (entries, size, verdict tallies,
    load-time corruption counters); ``prune --older-than AGE`` drops
    entries older than AGE (``30m``/``12h``/``7d`` or plain seconds) and
    compacts the JSONL file atomically — pruning with a huge AGE is a
    pure compaction pass.
    """
    import json as _json

    from repro.campaign import DEFAULT_CACHE_DIR, ResultCache

    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    if args.cache_command == "stats":
        stats = cache.stats()
        if args.json:
            print(_json.dumps(stats, indent=2))
            return EXIT_SAFE
        print(f"cache: {stats['path']}")
        print(f"entries: {stats['entries']}  ({stats['file_bytes']} bytes on disk)")
        for verdict, n in sorted(stats["verdicts"].items()):
            print(f"  {verdict}: {n}")
        if stats["corrupt_lines"] or stats["stale_lines"]:
            print(f"skipped at load: {stats['corrupt_lines']} corrupt, "
                  f"{stats['stale_lines']} stale lines (prune compacts them away)")
        return EXIT_SAFE
    # prune
    try:
        age_s = _parse_age(args.older_than)
    except (ValueError, IndexError):
        print(f"error: bad --older-than {args.older_than!r} "
              f"(use seconds or 30m/12h/7d)", file=sys.stderr)
        return EXIT_USAGE
    kept, dropped = cache.prune(age_s)
    print(f"pruned {dropped} entries older than {args.older_than}; kept {kept}")
    return EXIT_SAFE


def cmd_journal(args) -> int:
    """The `journal` subcommand: inspect the write-ahead job journal.

    ``stats`` prints the recovery shape a resume would see (admitted /
    done / cancelled / abandoned / incomplete tallies); ``replay`` also
    lists the incomplete jobs — exactly the set ``campaign --resume``
    would re-run.  Neither runs any checking.
    """
    import json as _json
    import os

    from repro.campaign.journal import replay as journal_replay

    if not os.path.exists(args.path):
        print(f"error: no journal at {args.path}", file=sys.stderr)
        return EXIT_USAGE
    plan = journal_replay(args.path)
    if args.json:
        doc = plan.summary_doc()
        doc["path"] = args.path
        if args.journal_command == "replay":
            doc["jobs"] = [
                {"job": j.job_id, "driver": j.driver, "prop": j.prop,
                 "key": plan.keys.get(j.job_id),
                 "tenant": plan.tenants.get(j.job_id)}
                for j in plan.jobs
            ]
        print(_json.dumps(doc, indent=2))
        return EXIT_SAFE
    print(f"journal: {args.path}")
    print(plan.summary())
    if args.journal_command == "replay":
        for j in plan.jobs:
            tenant = plan.tenants.get(j.job_id)
            suffix = f"  [{tenant}]" if tenant else ""
            print(f"  {j.job_id}  ({j.driver}, {j.prop}){suffix}")
    return EXIT_SAFE


def cmd_sequentialize(args) -> int:
    """The `sequentialize` subcommand: print the transformed program."""
    prog = _load(args.file)
    kiss = _kiss(args)
    if args.target:
        out = kiss.sequentialize_for_race(prog, _parse_target(args.target))
    else:
        out = kiss.sequentialize(prog)
    print(pretty_program(out))
    return EXIT_SAFE


def cmd_interleavings(args) -> int:
    """The `interleavings` subcommand: the full-interleaving baseline checker."""
    prog = _load(args.file)
    result = check_concurrent(prog, max_states=args.max_states, context_bound=args.context_bound)
    print(f"verdict: {result.status}")
    if result.is_error:
        print(result.format_trace())
        return EXIT_ERROR
    if result.exhausted:
        return EXIT_BOUND
    print(f"[{result.stats.states} states explored]")
    return EXIT_SAFE


_WITNESS_EXIT = {"certified": EXIT_SAFE, "refuted": EXIT_ERROR, "unsupported": EXIT_BOUND}


def cmd_witness(args) -> int:
    """The `witness check` subcommand: kiss-witness/1 certificates
    (docs/WITNESSES.md), three modes.

    ``--doc CERT.json`` validates one serialized certificate with the
    standalone validator (no checker code runs).  ``FILE.kp`` checks the
    program, emits a certificate for a safe verdict, and validates it
    (``--out`` persists the certificate).  With neither, the *trust
    sweep* runs: every safe verdict across the driver corpus (explicit
    backend) and the pinned fuzz corpus (both backends) must come with a
    certificate the independent validator certifies.

    Exit status: 0 = certified (sweep: all certified), 1 = refuted or an
    error verdict, 2 = unsupported / no witness emitted, 3 = usage.
    """
    import json

    from repro.witness.validate import validate_witness_doc

    if args.doc:
        try:
            with open(args.doc) as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        report = validate_witness_doc(doc)
        print(json.dumps(report.to_dict(), indent=2) if args.json else report)
        return _WITNESS_EXIT[report.status]

    if args.file:
        prog = _load(args.file)
        kiss = Kiss(max_ts=args.max_ts, max_states=args.max_states,
                    backend=args.backend, strategy=args.strategy,
                    rounds=args.rounds, witness=True)
        r = kiss.check_assertions(prog)
        if not r.is_safe:
            print(f"verdict: {r.summary()} — witnesses certify safe verdicts only")
            return EXIT_ERROR if r.is_error else EXIT_BOUND
        if r.witness is None:
            print("verdict: safe, but no witness could be emitted "
                  "(canonical re-run not safe within budget)")
            return EXIT_BOUND
        if args.out:
            from repro.ioutil import atomic_write_json

            atomic_write_json(args.out, r.witness)
            print(f"wrote {args.out}")
        report = validate_witness_doc(r.witness)
        print(f"witness: {r.witness['kind']} "
              f"(sha256 {r.witness['program_sha256'][:12]}…)")
        print(json.dumps(report.to_dict(), indent=2) if args.json else report)
        return _WITNESS_EXIT[report.status]

    return _witness_sweep(args)


def _witness_sweep(args) -> int:
    """The no-argument ``witness check`` mode: certify every safe
    verdict the corpora produce.  Driver corpus runs through the
    campaign engine with certificate emission on (explicit backend —
    driver programs use pointers, outside the cegar fragment); the
    pinned fuzz corpus is checked under both backends."""
    import json
    import os

    from repro.campaign import CampaignConfig, CampaignScheduler, default_jobs
    from repro.campaign.corpus import corpus_jobs
    from repro.drivers import DRIVER_SPECS, spec_by_name
    from repro.lang import parse
    from repro.witness.validate import validate_witness_doc

    try:
        specs = (
            [spec_by_name(n.strip()) for n in args.drivers.split(",")]
            if args.drivers
            else DRIVER_SPECS
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    failures = []
    checked = certified = skipped = 0

    def examine(label, verdict, witness):
        nonlocal checked, certified, skipped
        if verdict != "safe":
            skipped += 1
            return
        checked += 1
        if witness is None:
            failures.append(f"{label}: safe verdict without a certificate")
            return
        report = validate_witness_doc(witness)
        if report.status == "certified":
            certified += 1
        else:
            failures.append(f"{label}: {report}")

    jobs = corpus_jobs(specs, witness=True, max_states=args.max_states)
    config = CampaignConfig(jobs=args.jobs if args.jobs is not None else default_jobs())
    for r in CampaignScheduler(config).run(jobs):
        examine(r.job_id, r.verdict, r.witness)
    driver_line = f"driver corpus: {checked} safe verdicts over {len(jobs)} race checks"

    corpus_dir = args.corpus or os.path.join("tests", "fuzz_corpus")
    manifest_path = os.path.join(corpus_dir, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)
        for entry in manifest["programs"]:
            with open(os.path.join(corpus_dir, entry["file"])) as f:
                prog = parse(f.read())
            for backend in ("explicit", "cegar"):
                r = Kiss(max_ts=entry["max_ts"], backend=backend,
                         witness=True).check_assertions(prog)
                examine(f"{entry['file']}[{backend}]", r.verdict, r.witness)
    else:
        print(f"note: no fuzz corpus at {corpus_dir}; sweeping the driver corpus only")

    print(driver_line)
    print(f"witness sweep: {checked} safe verdicts, {certified} certified, "
          f"{skipped} non-safe skipped, {len(failures)} failures")
    for f in failures:
        print(f"FAIL {f}")
    return EXIT_SAFE if not failures else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for shell-completion tooling)."""
    from repro import package_version

    p = argparse.ArgumentParser(prog="repro", description=__doc__.split("\n")[0])
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {package_version()}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, race=False):
        sp.add_argument("file", help="source file in the parallel language")
        sp.add_argument("--max-ts", type=int, default=0, help="ts bound (default 0)")
        sp.add_argument("--max-states", type=int, default=500_000, help="state budget")
        sp.add_argument("--backend", choices=("explicit", "cegar"), default="explicit",
                        help="sequential backend (cegar = SLAM-lite, scalar fragment)")
        sp.add_argument("--witness", action="store_true",
                        help="emit a kiss-witness/1 safety certificate on a safe verdict")
        sp.add_argument("--witness-out", metavar="PATH",
                        help="write the certificate to PATH (implies --witness)")
        sp.add_argument("--por", action="store_true",
                        help="shared-access partial-order reduction: drop schedule "
                             "points at statements touching no shared global")
        if race:
            sp.add_argument("--no-alias", action="store_true",
                            help="disable alias-analysis check pruning")

    sp = sub.add_parser("check", help="check assertions (Figure 4)")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser(
        "lazy",
        help="check assertions through the lazy pc-guarded K-round sequentialization",
    )
    common(sp)
    sp.add_argument("--rounds", type=int, default=2,
                    help="round budget K (default 2; K=1 is purely sequential)")
    sp.set_defaults(func=cmd_lazy, strategy="lazy")

    sp = sub.add_parser("race", help="check for races (Figure 5)")
    common(sp, race=True)
    sp.add_argument("--target", help="global name or Struct.field")
    sp.add_argument("--all-fields", metavar="STRUCT", help="check every field of STRUCT")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for --all-fields (default 1)")
    sp.add_argument("--timeout", type=float, default=None,
                    help="per-field wall-clock bound in seconds for --all-fields")
    sp.set_defaults(func=cmd_race)

    sp = sub.add_parser(
        "campaign",
        help="parallel, cached, fault-tolerant checking runs over the driver corpus",
    )
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: CPU count)")
    sp.add_argument("--timeout", type=float, default=None,
                    help="per-job wall-clock bound in seconds")
    sp.add_argument("--retries", type=int, default=1,
                    help="extra attempts for timed-out/crashed jobs (default 1)")
    sp.add_argument("--drivers", metavar="NAMES",
                    help="comma-separated Table 1 driver names (default: all 18)")
    sp.add_argument("--list-drivers", action="store_true", help="list corpus drivers and exit")
    sp.add_argument("--refined", action="store_true",
                    help="use the refined harness (the Table 2 configuration)")
    sp.add_argument("--max-states", type=int, default=300_000, help="state budget per job")
    sp.add_argument("--loc-scale", type=int, default=0,
                    help="filler-code scale for generated drivers (default 0 = none)")
    sp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="result-cache directory (default .kiss-cache)")
    sp.add_argument("--no-cache", action="store_true", help="disable the result cache")
    sp.add_argument("--telemetry", metavar="PATH",
                    help="write the JSONL telemetry event stream to PATH")
    sp.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                    help="campaign-wide wall-clock budget: past it, stop submitting, "
                         "drain in-flight jobs, mark the remainder resource-bound")
    sp.add_argument("--memory-limit", type=int, default=None, metavar="MB",
                    help="per-worker RLIMIT_AS soft ceiling; an over-budget job "
                         "degrades to resource-bound instead of killing the pool")
    sp.add_argument("--summary-json", metavar="PATH",
                    help="write the kiss-campaign/1 summary document to PATH "
                         "(atomic write; schema-valid even when interrupted)")
    sp.add_argument("--witness", action="store_true",
                    help="emit kiss-witness/1 certificates for safe verdicts "
                         "(attached to results; cache keys are unchanged)")
    sp.add_argument("--witness-dir", metavar="DIR",
                    help="persist each certificate to DIR as an atomic JSON "
                         "artifact (implies --witness)")
    sp.add_argument("--inject", action="append", metavar="SPEC", default=None,
                    help="fault-injection rule point:kind[:key=value,...] for chaos "
                         "runs, e.g. mid_check:crash:hits=1+3 (repeatable; see "
                         "docs/ROBUSTNESS.md)")
    sp.add_argument("--inject-seed", type=int, default=0,
                    help="seed for probabilistic (p=) fault rules (default 0)")
    sp.add_argument("--journal", metavar="PATH", default=None,
                    help="write-ahead job journal (kiss-journal/1 JSONL): every "
                         "job's admitted/started/terminal lifecycle, crash-safe")
    sp.add_argument("--resume", action="store_true",
                    help="replay --journal first and re-run the jobs a crashed "
                         "run left incomplete (settled work answers from cache)")
    sp.add_argument("--swarm", metavar="FILE.kp", default=None,
                    help="swarm mode: tile FILE's lazy schedule space into "
                         "--tiles jobs instead of sweeping the driver corpus")
    sp.add_argument("--tiles", type=int, default=8,
                    help="tile count for --swarm (default 8)")
    sp.add_argument("--swarm-rounds", type=int, default=3,
                    help="lazy round budget K for --swarm (default 3)")
    sp.add_argument("--swarm-seed", type=int, default=0,
                    help="tiling shuffle seed for --swarm (default 0)")
    sp.add_argument("--por", action="store_true",
                    help="shared-access partial-order reduction inside each tile")
    sp.add_argument("--first-error", action="store_true",
                    help="for --swarm: cancel sibling tiles the moment any tile "
                         "finds an error (the aggregate verdict is unchanged)")
    sp.set_defaults(func=cmd_campaign)

    sp = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random programs, both checkers, divergence = bug",
    )
    sp.add_argument("--count", type=int, default=100, help="programs to generate (default 100)")
    sp.add_argument("--seed", type=int, default=0, help="first generator seed (default 0)")
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: CPU count)")
    sp.add_argument("--timeout", type=float, default=None,
                    help="per-program wall-clock bound in seconds")
    sp.add_argument("--retries", type=int, default=1,
                    help="extra attempts for timed-out/crashed jobs (default 1)")
    sp.add_argument("--max-states", type=int, default=50_000,
                    help="state budget per checker side (default 50000)")
    sp.add_argument("--max-workers", type=int, default=2,
                    help="max forked threads per program (default 2)")
    sp.add_argument("--max-stmts", type=int, default=4,
                    help="max statements per generated region (default 4)")
    sp.add_argument("--max-depth", type=int, default=2,
                    help="max if/while nesting depth (default 2)")
    sp.add_argument("--race", action="store_true",
                    help="also run the race pipeline on the distinguished location "
                         "with trace replay (false-race detection; KISS strategy only)")
    sp.add_argument("--strategy", choices=STRATEGIES, default="kiss",
                    help="sequentialization under test: the Figure 4 pipeline "
                         "against balanced interleavings, or the pc-guarded "
                         "K-round transform 'lazy' against all "
                         "interleavings (default kiss)")
    sp.add_argument("--rounds", type=int, default=2,
                    help="round budget K for --strategy lazy (default 2)")
    sp.add_argument("--por", action="store_true",
                    help="shared-access partial-order reduction on the "
                         "sequential side (any strategy)")
    sp.add_argument("--witness", action="store_true",
                    help="third cross-check: every safe agreement must emit a "
                         "certificate the independent validator certifies "
                         "(a refuted one is an 'uncertified' divergence)")
    sp.add_argument("--no-shrink", action="store_true",
                    help="report divergences without delta-debugging them")
    sp.add_argument("--save", metavar="DIR",
                    help="write minimized diverging programs to DIR as .kp files")
    sp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="campaign result-cache directory (default: no cache)")
    sp.add_argument("--telemetry", metavar="PATH",
                    help="write the JSONL telemetry event stream to PATH")
    sp.set_defaults(func=cmd_fuzz)

    sp = sub.add_parser(
        "profile", help="one observed checking run with a per-phase timing breakdown"
    )
    common(sp, race=True)
    sp.add_argument("--target", help="race target (global or Struct.field); default: assertions")
    sp.add_argument("--json", action="store_true",
                    help="print the kiss-profile/1 JSON document instead of tables")
    sp.add_argument("--output", metavar="PATH",
                    help="also write the kiss-profile/1 JSON document to PATH")
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser(
        "serve", help="checking-as-a-service: HTTP JSON API over the campaign engine"
    )
    sp.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    sp.add_argument("--port", type=int, default=8731,
                    help="TCP port (default 8731; 0 = OS-assigned, see the ready line)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes (default 1 = in-process; note --timeout "
                         "needs --jobs >= 2)")
    sp.add_argument("--timeout", type=float, default=None,
                    help="per-job wall-clock bound in seconds (pool mode only)")
    sp.add_argument("--retries", type=int, default=1,
                    help="extra attempts for timed-out/crashed jobs (default 1)")
    sp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="result-cache directory (default .kiss-cache)")
    sp.add_argument("--no-cache", action="store_true", help="disable the result cache")
    sp.add_argument("--memory-limit", type=int, default=None, metavar="MB",
                    help="per-worker RLIMIT_AS soft ceiling")
    sp.add_argument("--telemetry", metavar="PATH",
                    help="write the JSONL telemetry event stream to PATH")
    sp.add_argument("--quota-rate", type=float, default=20.0,
                    help="sustained submissions/second allowed per tenant (default 20)")
    sp.add_argument("--quota-burst", type=int, default=40,
                    help="per-tenant burst allowance (default 40)")
    sp.add_argument("--max-queue", type=int, default=256,
                    help="admitted-but-unfinished jobs before 429 backpressure (default 256)")
    sp.add_argument("--inject", action="append", metavar="SPEC", default=None,
                    help="fault-injection rule point:kind[:key=value,...] — the chaos "
                         "plan applies to served traffic (docs/ROBUSTNESS.md)")
    sp.add_argument("--inject-seed", type=int, default=0,
                    help="seed for probabilistic (p=) fault rules (default 0)")
    sp.add_argument("--journal", metavar="PATH", default=None,
                    help="write-ahead job journal for served jobs (kiss-journal/1)")
    sp.add_argument("--resume", action="store_true",
                    help="on startup, replay --journal: answer settled work from "
                         "cache, re-enqueue the jobs a crash left incomplete")
    sp.set_defaults(func=cmd_serve)

    sp = sub.add_parser("cache", help="inspect and maintain the result cache")
    cache_sub = sp.add_subparsers(dest="cache_command", required=True)
    csp = cache_sub.add_parser("stats", help="print the store's shape")
    csp.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="result-cache directory (default .kiss-cache)")
    csp.add_argument("--json", action="store_true", help="machine-readable output")
    csp.set_defaults(func=cmd_cache)
    csp = cache_sub.add_parser(
        "prune", help="drop entries older than AGE and compact the store"
    )
    csp.add_argument("--older-than", required=True, metavar="AGE",
                     help="age threshold: seconds, or 30m / 12h / 7d")
    csp.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="result-cache directory (default .kiss-cache)")
    csp.set_defaults(func=cmd_cache)

    sp = sub.add_parser("journal", help="inspect the write-ahead job journal")
    journal_sub = sp.add_subparsers(dest="journal_command", required=True)
    jsp = journal_sub.add_parser("stats", help="print the recovery shape")
    jsp.add_argument("path", help="kiss-journal/1 JSONL file")
    jsp.add_argument("--json", action="store_true", help="machine-readable output")
    jsp.set_defaults(func=cmd_journal)
    jsp = journal_sub.add_parser(
        "replay", help="list the incomplete jobs a --resume would re-run"
    )
    jsp.add_argument("path", help="kiss-journal/1 JSONL file")
    jsp.add_argument("--json", action="store_true", help="machine-readable output")
    jsp.set_defaults(func=cmd_journal)

    sp = sub.add_parser(
        "witness", help="emit and independently validate kiss-witness/1 certificates"
    )
    wsub = sp.add_subparsers(dest="witness_command", required=True)
    wsp = wsub.add_parser(
        "check", help="validate a certificate, certify a program, or sweep the corpora"
    )
    wsp.add_argument("file", nargs="?",
                     help="program to check and certify (omit to sweep the corpora)")
    wsp.add_argument("--doc", metavar="PATH",
                     help="validate an existing kiss-witness/1 JSON document instead")
    wsp.add_argument("--backend", choices=("explicit", "cegar"), default="explicit",
                     help="backend for FILE mode (default explicit)")
    wsp.add_argument("--strategy", choices=STRATEGIES, default="kiss",
                     help="sequentialization for FILE mode (default kiss)")
    wsp.add_argument("--rounds", type=int, default=2,
                     help="round budget K for --strategy lazy (default 2)")
    wsp.add_argument("--max-ts", type=int, default=0, help="ts bound (default 0)")
    wsp.add_argument("--max-states", type=int, default=500_000, help="state budget")
    wsp.add_argument("--out", metavar="PATH",
                     help="write the emitted certificate to PATH (atomic)")
    wsp.add_argument("--jobs", type=int, default=None,
                     help="worker processes for the corpus sweep (default: CPU count)")
    wsp.add_argument("--drivers", metavar="NAMES",
                     help="comma-separated driver subset for the corpus sweep")
    wsp.add_argument("--corpus", metavar="DIR", default=None,
                     help="pinned fuzz corpus directory (default tests/fuzz_corpus)")
    wsp.add_argument("--json", action="store_true",
                     help="print the validation report as JSON")
    wsp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("sequentialize", help="print the transformed sequential program")
    common(sp, race=True)
    sp.add_argument("--target", help="also apply race instrumentation for this target")
    sp.set_defaults(func=cmd_sequentialize)

    sp = sub.add_parser("interleavings", help="baseline: explore all interleavings")
    sp.add_argument("file")
    sp.add_argument("--max-states", type=int, default=500_000)
    sp.add_argument("--context-bound", type=int, default=None)
    sp.set_defaults(func=cmd_interleavings)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LexError, ParseError, KissTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
