"""Tests for the high-level Kiss facade."""

import pytest

from repro.core.checker import Kiss, KissResult
from repro.core.race import RaceTarget
from repro.lang import parse, parse_core

BUGGY = """
bool flag;
void worker() { flag = true; }
void main() { async worker(); assert(!flag); }
"""


def test_accepts_surface_programs():
    # check_* lowers surface programs automatically
    r = Kiss().check_assertions(parse("void main() { if (true) { assert(true); } }"))
    assert r.is_safe


def test_accepts_core_programs():
    r = Kiss().check_assertions(parse_core(BUGGY))
    assert r.is_error


def test_result_flags_consistent():
    r = Kiss().check_assertions(parse_core(BUGGY))
    assert r.is_error and not r.is_safe and not r.exhausted


def test_safe_result_flags():
    r = Kiss().check_assertions(parse_core("void main() { }"))
    assert r.is_safe and not r.is_error


def test_resource_bound_result():
    r = Kiss(max_states=3).check_assertions(parse_core(BUGGY))
    assert r.exhausted
    assert r.verdict == "resource-bound"


def test_every_error_is_mapped_and_replayed():
    r = Kiss().check_assertions(parse_core(BUGGY))
    assert r.concurrent_trace is not None
    assert r.trace_validated is True


def test_a_failed_replay_keeps_the_error_verdict(monkeypatch):
    from repro.concheck import replay
    from repro.concheck.replay import ReplayResult

    monkeypatch.setattr(replay, "replay_trace", lambda *a, **k: ReplayResult(False, "bug"))
    r = Kiss().check_assertions(parse_core(BUGGY))
    assert r.verdict == "error" and r.trace_validated is False
    assert r.concurrent_trace is not None


def test_a_replay_that_raises_keeps_the_error_verdict(monkeypatch):
    from repro.concheck import replay

    def broken(*args, **kwargs):
        raise RecursionError("bug")

    monkeypatch.setattr(replay, "replay_trace", broken)
    r = Kiss().check_assertions(parse_core(BUGGY))
    assert r.verdict == "error" and r.trace_validated is False
    assert r.concurrent_trace is not None


def test_an_error_thousands_of_steps_deep_replays():
    """The replay search is iterative: an execution far longer than
    Python's recursion limit still replays."""
    src = ("int i; void main() { iter { assume(i < 600); i = i + 1; } "
           "assume(i >= 600); assert(false); }")
    r = Kiss().check_assertions(parse(src))
    assert len(r.backend_result.trace) > 5000
    assert r.verdict == "error" and r.trace_validated is True


def test_sequentialize_returns_inspectable_program():
    out = Kiss(max_ts=2).sequentialize(parse_core(BUGGY))
    assert out.entry == "__kiss_check"
    assert "__kiss_schedule" in out.functions


def test_sequentialize_for_race_adds_checks():
    out = Kiss().sequentialize_for_race(parse_core(BUGGY), RaceTarget.global_var("flag"))
    assert "__kiss_check_r" in out.functions


def test_check_races_on_struct_covers_every_field():
    src = """
    struct EXT { int a; int b; bool c; }
    void main() { EXT *e; e = malloc(EXT); e->a = 1; }
    """
    results = Kiss().check_races_on_struct(parse_core(src), "EXT")
    assert set(results) == {"a", "b", "c"}
    assert all(isinstance(r, KissResult) for r in results.values())


def test_error_kind_distinguishes_races_from_assertions():
    race = Kiss().check_race(
        parse_core("int g; void w() { g = 1; } void main() { async w(); g = 2; }"),
        RaceTarget.global_var("g"),
    )
    assert race.error_kind == "race" and race.is_race
    assertion = Kiss().check_assertions(parse_core(BUGGY))
    assert assertion.error_kind == "assertion" and not assertion.is_race


def test_memory_error_kind_surfaces():
    r = Kiss().check_assertions(parse_core("void main() { int *p; p = null; *p = 1; }"))
    assert r.is_error
    assert r.error_kind == "null-deref"


def test_summary_mentions_target():
    r = Kiss().check_race(
        parse_core("int g; void w() { g = 1; } void main() { async w(); g = 2; }"),
        RaceTarget.global_var("g"),
    )
    assert "g" in r.summary()


def test_race_target_describe():
    assert RaceTarget.global_var("g").describe() == "g"
    assert RaceTarget.field_of("S", "f").describe() == "S.f"
    assert RaceTarget.field_of("S", "f", instance=2).describe() == "S[2].f"


def test_race_target_second_instance():
    # the race is on the SECOND allocated extension; targeting instance 0
    # must be clean, instance 1 must race
    src = """
    struct S { int a; }
    void w(S *p) { p->a = 1; }
    void main() {
      S *first; S *second;
      first = malloc(S);
      second = malloc(S);
      async w(second);
      second->a = 2;
    }
    """
    r0 = Kiss().check_race(parse_core(src), RaceTarget.field_of("S", "a", instance=0))
    assert r0.is_safe
    r1 = Kiss().check_race(parse_core(src), RaceTarget.field_of("S", "a", instance=1))
    assert r1.is_race


def test_checks_emitted_reported_for_race_runs():
    r = Kiss().check_race(
        parse_core("int g; void w() { g = 1; } void main() { async w(); g = 2; }"),
        RaceTarget.global_var("g"),
    )
    assert r.checks_emitted > 0


# -- the CEGAR backend: KISS-on-SLAM, the paper's actual architecture ------------


def test_an_unmappable_trace_keeps_the_error_verdict(monkeypatch):
    from repro.core import checker
    from repro.core.tracemap import TraceMapError

    def unmappable(*args):
        raise TraceMapError("bug")

    monkeypatch.setattr(checker, "map_trace", unmappable)
    r = Kiss().check_assertions(parse_core(BUGGY))
    assert r.verdict == "error" and r.trace_validated is False
    assert r.concurrent_trace is None


def test_cegar_backend_finds_concurrency_bug():
    """The full pipeline: Figure 4 sequentialization checked by predicate
    abstraction + Bebop + refinement, on a scalar concurrent program."""
    r = Kiss(max_ts=0, backend="cegar").check_assertions(parse_core(BUGGY))
    assert r.is_error


def test_cegar_errors_carry_no_trace_and_no_replay_verdict():
    r = Kiss(max_ts=0, backend="cegar").check_assertions(parse_core(BUGGY))
    assert r.is_error and r.concurrent_trace is None and r.trace_validated is None


def test_cegar_backend_agrees_with_explicit_on_safe_program():
    src = """
    int phase;
    void worker() { assume(phase == 1); phase = 2; }
    void main() { async worker(); phase = 1; assume(phase == 2); assert(phase == 2); }
    """
    explicit = Kiss(max_ts=1).check_assertions(parse_core(src))
    cegar = Kiss(max_ts=1, backend="cegar").check_assertions(parse_core(src))
    assert explicit.is_safe
    assert cegar.is_safe or cegar.exhausted  # divergence allowed, wrong verdict not


def test_cegar_backend_parked_thread_bug():
    src = """
    int phase;
    void worker() { assume(phase == 1); phase = 2; }
    void main() { async worker(); phase = 1; assume(phase == 2); assert(false); }
    """
    r = Kiss(max_ts=1, backend="cegar", cegar_rounds=10).check_assertions(parse_core(src))
    assert r.is_error


def test_cegar_backend_reports_unsupported_fragment_as_bound():
    src = "struct S { int a; } void main() { S *p; p = malloc(S); }"
    r = Kiss(backend="cegar").check_assertions(parse_core(src))
    assert r.exhausted
    assert "unsupported" in r.backend_result.message


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        Kiss(backend="z3")


# -- the §2 usage pattern: iterative deepening over the ts bound ------------------


def test_sweep_ts_stops_at_first_error():
    from repro.core.checker import sweep_ts

    src = """
    int phase;
    void worker() { assume(phase == 1); phase = 2; }
    void main() { async worker(); phase = 1; assume(phase == 2); assert(false); }
    """
    results = sweep_ts(parse_core(src), max_bound=3)
    assert [r.verdict for r in results] == ["safe", "error"]


def test_sweep_ts_exhausts_bounds_when_safe():
    from repro.core.checker import sweep_ts

    results = sweep_ts(parse_core("void main() { assert(true); }"), max_bound=2)
    assert len(results) == 3
    assert all(r.is_safe for r in results)


def test_sweep_ts_skips_identical_transforms():
    from repro import obs
    from repro.core.checker import sweep_ts

    # no async: every ts bound sequentializes to the identical program,
    # so only bound 0 should actually reach a backend
    src = "int x; void main() { x = 1; assert(x == 1); }"
    with obs.observing(obs.Recorder()) as rec:
        results = sweep_ts(parse_core(src), max_bound=3)
        counters = rec.metrics()["counters"]
    assert counters["bound_sweep_skips"] == 3
    assert len(results) == 4
    assert all(r.is_safe for r in results)
    # skipped results are copies of the computed one, not aliases
    assert results[1] is not results[0]
    assert results[1].verdict == results[0].verdict


def test_sweep_ts_lazy_strategy_reports_budget():
    from repro.core.checker import sweep_ts

    src = """
    int x;
    void w() { assert(x < 2); }
    void main() { async w(); x = 2; }
    """
    results = sweep_ts(parse_core(src), max_bound=1, strategy="lazy", rounds=2)
    assert results[-1].is_error
    assert all(r.strategy == "lazy" and r.rounds == 2 for r in results)


def test_sweep_ts_continues_when_asked():
    from repro.core.checker import sweep_ts

    src = """
    bool f;
    void worker() { f = true; }
    void main() { async worker(); assert(!f); }
    """
    results = sweep_ts(parse_core(src), max_bound=2, stop_on_error=False)
    assert len(results) == 3
    assert all(r.is_error for r in results)


def test_top_level_lazy_exports():
    import repro

    assert repro.Kiss is Kiss
    from repro.core.race import RaceTarget as RT

    assert repro.RaceTarget is RT
    with pytest.raises(AttributeError):
        repro.not_a_thing
