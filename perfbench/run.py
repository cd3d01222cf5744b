"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``table1-cold``, ``fuzz-lazy-certified``, ``serve-mixed``.

``--trace 0`` measures the workload as a user runs it and prints every
end-to-end metric.  ``--trace 1`` first runs the same inputs untraced,
then again with every layer's public entry points wrapped
(``layers.py``), and prints every per-layer metric, including the
tracing overhead.  Every verdict is checked against a known answer that
does not come from the checker under test; the last stdout line is the
JSON result, and the exit code is 1 when a verdict is wrong.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys

import batch
import fuzzbatch
import layers
import servemix
import table1
from common import (ROOT, SETUP_REPEATS, HostSpeed, cleanup, failed, peak_child_rss_mb,
                    require_sources, time_setup, workdir)

WORKLOADS = ("table1-cold", "fuzz-lazy-certified", "serve-mixed")


def layer_metrics(doc: dict) -> dict:
    """Per-layer values from merged spans (``layers.collect``): ``_s``
    metrics are inclusive span seconds summed over the run."""
    spans, counts, jobs = doc["layers"], doc["counts"], doc["jobs"]

    def total(layer):
        return spans.get(layer, [0, 0.0, 0.0])[1]

    def calls(layer):
        return spans.get(layer, [0, 0.0, 0.0])[0]

    check_s = total("seqcheck.check")
    gets = calls("campaign.cache_get")
    submit, start, record = jobs["submit"], jobs["start"], jobs["record"]
    return {
        "lang.parse_s": total("lang.parse"),
        "lang.parse_calls": calls("lang.parse"),
        "lang.lower_s": total("lang.lower"),
        "drivers.generate_s": total("drivers.generate"),
        "analysis.alias_s": total("analysis.alias"),
        "analysis.shared_access_s": total("analysis.shared_access"),
        "core.transform_s": total("core.transform"),
        "core.race_checks_emitted": counts.get("core.race_checks_emitted", 0),
        "core.race_checks_pruned": counts.get("core.race_checks_pruned", 0),
        "lazy.transform_s": total("lazy.transform"),
        "cfg.build_s": total("cfg.build"),
        "seqcheck.check_s": check_s,
        "seqcheck.check_calls": calls("seqcheck.check"),
        "seqcheck.freeze_s": total("seqcheck.freeze"),
        "seqcheck.freeze_calls": calls("seqcheck.freeze"),
        "seqcheck.clone_s": total("seqcheck.clone"),
        "seqcheck.clone_calls": calls("seqcheck.clone"),
        "seqcheck.execute_s": spans.get("seqcheck.check", [0, 0.0, 0.0])[2],
        "seqcheck.states": counts.get("seqcheck.states", 0),
        "seqcheck.transitions": counts.get("seqcheck.transitions", 0),
        "seqcheck.states_per_s": counts.get("seqcheck.states", 0) / check_s if check_s else 0.0,
        "concheck.check_s": total("concheck.check"),
        "concheck.replay_s": total("concheck.replay"),
        "witness.emit_s": total("witness.emit"),
        "witness.emit_calls": calls("witness.emit"),
        "witness.validate_s": total("witness.validate"),
        "witness.bytes": counts.get("witness.bytes", 0),
        "fuzz.gen_s": total("fuzz.gen"),
        "fuzz.oracle_s": total("fuzz.oracle"),
        "campaign.cache_get_s": total("campaign.cache_get"),
        "campaign.cache_get_calls": gets,
        "campaign.cache_hit_ratio": counts.get("campaign.cache_hits", 0) / gets if gets else 0.0,
        "campaign.cache_put_s": total("campaign.cache_put"),
        "campaign.journal_append_s": total("campaign.journal_append"),
        "campaign.journal_appends": calls("campaign.journal_append"),
        "campaign.queue_wait_s": sum(start[j] - submit[j] for j in start if j in submit),
        "campaign.dispatch_s": sum(r["t"] - submit[j] - r["wall_s"]
                                   for j, r in record.items() if j in submit),
        "campaign.retries": counts.get("campaign.retries", 0),
        "campaign.failed": counts.get("campaign.failed", 0),
        "campaign.swarm_plan_s": total("campaign.swarm_plan"),
        "campaign.swarm_aggregate_s": total("campaign.swarm_aggregate"),
        "campaign.swarm_tiles_run": counts.get("campaign.swarm_tiles_run", 0),
        "campaign.swarm_tiles_cancelled": counts.get("campaign.swarm_tiles_cancelled", 0),
        "serve.admit_s": total("serve.admit"),
        "serve.swarm_admit_s": total("serve.swarm_admit"),
    }


def print_split(doc: dict) -> None:
    """Human-readable self-time split, largest first."""
    print("layer self time (s), total (s), calls:")
    for layer, (n, tot, self_s) in sorted(doc["layers"].items(), key=lambda kv: -kv[1][2]):
        print(f"  {layer:28s} {self_s:10.4f} {tot:10.4f} {n:10d}")


# -- batch workloads ---------------------------------------------------------------------

def run_batch(name: str, seed: int, seconds: float, trace: bool, host: HostSpeed):
    mod = {"table1-cold": table1, "fuzz-lazy-certified": fuzzbatch}[name]
    jobs = mod.build_jobs(seed, seconds)
    with host.window("timed pass"):
        results, t0, t1, recorded = batch.run_jobs(
            jobs, workdir("cache") if mod.USES_CACHE else None)
    passes = [results]
    if trace:
        span_dir = workdir("spans")
        layers.install(span_dir)
        jobs = mod.build_jobs(seed, seconds)
        with host.window("traced pass"):
            traced, traced_t0, traced_t1, _ = batch.run_jobs(
                jobs, workdir("cache-traced") if mod.USES_CACHE else None)
        passes.append(traced)
        doc = layers.collect(span_dir)
        print_split(doc)
        metrics = layer_metrics(doc)
        metrics.update({
            "hit_latency_p50_s": 0.0, "miss_latency_p50_s": 0.0, "swarm_latency_p50_s": 0.0,
            "serve.http_s": 0.0, "serve.engine_wait_s": 0.0, "serve.rejected": 0,
            "bench.generator_lag_s": 0.0,
            "bench.trace_overhead": (host.reference_seconds(traced_t0, traced_t1)
                                     / host.reference_seconds(t0, t1)),
        })
    else:
        peak_mb = peak_child_rss_mb()
        with host.window("set-up"):
            setup_s, samples = time_setup([os.path.join("perfbench", "probe.py"), name,
                                           str(seed), str(seconds)])
        print("setup samples (s, unscaled): " + ", ".join(f"{x:.4f}" for x in samples))
        metrics = batch.end_to_end(results, t0, t1, recorded,
                                   setup_s * host.scale("set-up"), peak_mb, host)
    all_results = [r for p in passes for r in p]
    wrong = sum(mod.wrong_verdicts(p) for p in passes)
    oracles = {"verdicts_checked": len(all_results)}
    if mod is fuzzbatch:
        oracles["certificates_validated"] = sum(fuzzbatch.certified(p) for p in passes)
        oracles["inconclusive"] = sum(1 for r in all_results if r.verdict == "resource-bound")
    nfailed = sum(1 for r in all_results if failed(r))
    return metrics, len(all_results), nfailed, wrong, oracles


# -- serve -------------------------------------------------------------------------------

def run_serve(seed: int, seconds: float, trace: bool, host: HostSpeed):
    schedule = servemix.build_schedule(seed, seconds)
    if not trace:
        with host.window("timed pass"):
            records, _ = servemix.run_pass(schedule, workdir("serve"))
        peak_mb = peak_child_rss_mb()
        with host.window("set-up"):
            setup_s, samples = servemix.time_setup(SETUP_REPEATS)
        print("setup samples (s, unscaled): " + ", ".join(f"{x:.4f}" for x in samples))
        metrics = servemix.end_to_end(records, setup_s * host.scale("set-up"), peak_mb,
                                      host.scale("timed pass"))
        passes = [records]
    else:
        with host.window("timed pass"):
            records, cpu = servemix.run_pass(schedule, workdir("serve"))
        span_dir = workdir("spans")
        with host.window("traced pass"):
            traced, traced_cpu = servemix.run_pass(schedule, workdir("serve-traced"), span_dir)
        doc = layers.merge(layers.read_dir(span_dir))
        print_split(doc)
        metrics = layer_metrics(doc)
        admit = metrics["serve.admit_s"] + metrics["serve.swarm_admit_s"]
        metrics.update(servemix.client_layers(traced, admit))
        # the request-kind split is end-to-end latency: take it untraced
        untraced = servemix.client_layers(records, 0.0)
        for kind in ("hit", "miss", "swarm"):
            metrics[f"{kind}_latency_p50_s"] = untraced[f"{kind}_latency_p50_s"]
        # CPU seconds, each pass's at the host speed it ran at
        metrics["bench.trace_overhead"] = (traced_cpu * host.scale("traced pass")
                                           / (cpu * host.scale("timed pass")))
        passes = [records, traced]
    all_records = [r for p in passes for r in p]
    oracles = {"verdicts_checked": sum(1 for r in all_records if servemix.ok(r)),
               "by_kind": dict(collections.Counter(r["kind"] for r in all_records))}
    return (metrics, len(all_records), servemix.failures(all_records),
            servemix.wrong_verdicts(all_records), oracles)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    require_sources()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    trace = bool(args.trace)
    # the campaign runtime's cancellation tokens go to the temp directory:
    # keep them, like every other file, inside the checkout
    os.environ["TMPDIR"] = workdir("tmp")
    host = HostSpeed()
    try:
        if args.workload == "serve-mixed":
            values, attempted, nfailed, wrong, oracles = run_serve(
                args.seed, args.seconds, trace, host)
        else:
            values, attempted, nfailed, wrong, oracles = run_batch(
                args.workload, args.seed, args.seconds, trace, host)
    finally:
        host.stop()
        cleanup()
    host.report()
    values["bench.failed_share"] = nfailed / attempted
    values["bench.wrong_verdicts"] = wrong
    print("oracles: " + json.dumps(oracles, sort_keys=True))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = wrong == 0 and oracles["verdicts_checked"] > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": nfailed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
