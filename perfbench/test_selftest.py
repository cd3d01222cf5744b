"""Minimum-size self-test of the benchmark.

Runs every workload untraced and traced at the smallest size and checks
that the output names match ``BENCHMARK.json``, that every oracle ran,
that the traced runs saw a span for every layer (except those listed in
``CANNOT_SEE``), that the host's speed was sampled, that a long
``table1-cold`` run checks no field twice, and that the exact counts
repeat for one seed.

    python3 -m pytest -q perfbench/test_selftest.py
"""

import functools
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer metrics each workload's traced run must read above 0.
SEEN = {
    "table1-cold": {
        "lang.parse_s", "lang.lower_s", "drivers.generate_s", "analysis.alias_s",
        "core.transform_s", "cfg.build_s", "seqcheck.check_s", "seqcheck.freeze_s",
        "seqcheck.clone_s", "seqcheck.execute_s", "campaign.cache_get_s",
        "campaign.cache_put_s", "campaign.queue_wait_s", "campaign.dispatch_s",
    },
    "fuzz-lazy-certified": {
        "lang.parse_s", "lang.lower_s", "lazy.transform_s", "cfg.build_s",
        "seqcheck.check_s", "seqcheck.freeze_s", "seqcheck.clone_s", "concheck.check_s",
        "witness.emit_s", "witness.validate_s", "fuzz.gen_s", "fuzz.oracle_s",
        "campaign.queue_wait_s", "campaign.dispatch_s",
    },
    "serve-mixed": {
        "lang.parse_s", "core.transform_s", "lazy.transform_s", "cfg.build_s",
        "seqcheck.check_s", "concheck.replay_s", "campaign.cache_get_s",
        "campaign.cache_put_s", "campaign.journal_append_s", "campaign.queue_wait_s",
        "campaign.dispatch_s", "campaign.swarm_plan_s", "campaign.swarm_aggregate_s",
        "serve.admit_s", "serve.swarm_admit_s", "serve.http_s", "serve.engine_wait_s",
        "hit_latency_p50_s", "miss_latency_p50_s", "swarm_latency_p50_s",
    },
}

#: layer timings no workload can show, and why.
CANNOT_SEE = {
    "analysis.shared_access_s": "runs only under partial-order reduction, which no workload enables",
}

#: counts that must repeat exactly for one seed and size.
EXACT = {
    "table1-cold": ["seqcheck.states", "seqcheck.transitions", "seqcheck.freeze_calls",
                    "seqcheck.clone_calls", "core.race_checks_emitted",
                    "core.race_checks_pruned"],
    "fuzz-lazy-certified": ["seqcheck.states", "seqcheck.transitions",
                            "seqcheck.freeze_calls", "witness.emit_calls"],
    "serve-mixed": ["seqcheck.states", "seqcheck.transitions", "campaign.swarm_tiles_run",
                    "core.race_checks_emitted"],
}


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = 7):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    oracles = next(json.loads(line.split(":", 1)[1]) for line in lines
                   if line.startswith("oracles:"))
    assert any(line.startswith("host speed during timed pass:") for line in lines)
    return json.loads(lines[-1]), oracles


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_matches_benchmark_json(workload, trace):
    result, oracles = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    assert oracles["verdicts_checked"] == result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_oracle_ran(workload):
    _, oracles = run(workload, 0)
    if workload == "fuzz-lazy-certified":
        assert oracles["certificates_validated"] > 0
    if workload == "serve-mixed":
        assert set(oracles["by_kind"]) == {"fresh", "repeat", "race", "swarm"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_sees_its_layers(workload):
    result, _ = run(workload, 1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(k for k in SEEN[workload] if not values[k] > 0) == []
    assert values["bench.trace_overhead"] > 0


def test_every_layer_is_seen_somewhere():
    timed = {m["name"] for m in SPEC["per_layer"]
             if m["unit"] == "s" and not m["name"].startswith("bench.")}
    seen = set().union(*SEEN.values())
    assert sorted(timed - seen - set(CANNOT_SEE)) == []


def test_table1_checks_each_field_once():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import table1

    ids = [job.job_id for job in table1.build_jobs(7, 100)]
    assert len(ids) == len(set(ids)) == len(table1.expected_verdicts())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    first, _ = run(workload, 1)
    again, _ = run.__wrapped__(workload, 1)  # a fresh run, past the cache
    for name in EXACT[workload]:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name
        assert first["metrics"][name]["value"] > 0, name
