"""Tests for the differential oracle (repro.fuzz.oracle): agreement on
generated batches, correct classification of both divergence
directions under deliberately injected transformation bugs, and the
inconclusive path."""

import pytest

from repro.core.transform import KissTransformer
from repro.fuzz import (
    INCOMPLETE,
    UNSOUND,
    ProgramGenerator,
    differential_check,
    differential_check_source,
)
from repro.lang.ast import Assert, Assume, Block, BoolLit
from repro.lazy import LazyTransformer


class NeverParks(KissTransformer):
    """Injected coverage bug: every ``async`` is inlined synchronously,
    so the sequential program can never delay a forked thread past the
    spawn point — balanced executions where the worker runs later are
    lost (an :data:`INCOMPLETE` divergence)."""

    def _lower_async(self, fctx, s):
        fam = self._family_for(fctx, s)
        return self._inline_call(fctx, s, fam)


class NoPcGuard(LazyTransformer):
    """Injected unsoundness in the lazy pipeline: the step functions'
    leading ``assume`` on the saved pc flag is dropped, so any node of
    any instance may run at any time — even before its thread is
    spawned — and report executions no schedule can produce."""

    def _make_step(self, inst):
        decl = super()._make_step(inst)
        for choice in decl.body.stmts:
            for branch in choice.branches:
                assert isinstance(branch.stmts[0], Assume)
                branch.stmts.pop(0)
        return decl


class PhantomError(KissTransformer):
    """Injected unsoundness: an ``assert(false)`` branch is offered
    before every statement, so the sequential program goes wrong even
    when no concurrent execution does (an :data:`UNSOUND` divergence)."""

    def access_check_branches(self, fctx, stmt, out_pre):
        return [Block([Assert(BoolLit(False))])]


def test_oracle_agrees_on_generated_batch(fuzz_seed):
    gen = ProgramGenerator()
    for seed in range(fuzz_seed, fuzz_seed + 25):
        gp = gen.generate(seed)
        v = differential_check(gp.program, max_ts=gp.n_forks)
        assert v.conclusive, f"seed {seed} inconclusive: {v.describe()}"
        assert not v.diverged, f"seed {seed} diverged: {v.describe()}\n{gp.source}"


@pytest.mark.slow
def test_oracle_agrees_on_large_batch(fuzz_seed):
    gen = ProgramGenerator()
    for seed in range(fuzz_seed, fuzz_seed + 150):
        gp = gen.generate(seed)
        v = differential_check(gp.program, max_ts=gp.n_forks)
        assert not v.diverged, f"seed {seed} diverged: {v.describe()}\n{gp.source}"


def test_oracle_agreement_includes_error_programs(fuzz_seed):
    """The batch must exercise both agreement kinds — safe/safe and
    error/error — or the oracle is vacuous."""
    gen = ProgramGenerator()
    verdicts = set()
    for seed in range(fuzz_seed, fuzz_seed + 40):
        gp = gen.generate(seed)
        v = differential_check(gp.program, max_ts=gp.n_forks)
        verdicts.add((v.concurrent, v.sequential))
    assert ("safe", "safe") in verdicts
    assert ("error", "error") in verdicts


def test_known_delayed_worker_error():
    """The canonical Theorem 1 witness: the worker's assertion only
    fails when the worker runs *after* main's write — a balanced
    execution that parking (max_ts >= 1) must simulate."""
    src = """
        int shared = 0;
        void w0() { assert(shared != 1); }
        void main() { async w0(); shared = 1; }
    """
    v = differential_check_source(src, max_ts=1)
    assert v.concurrent == "error" and v.sequential == "error"
    assert not v.diverged


def test_injected_coverage_bug_is_caught(fuzz_seed):
    gen = ProgramGenerator()
    factory = lambda ts: NeverParks(max_ts=ts)
    found = None
    for seed in range(fuzz_seed, fuzz_seed + 60):
        gp = gen.generate(seed)
        v = differential_check(gp.program, max_ts=gp.n_forks, transformer_factory=factory)
        if v.diverged:
            found = (seed, v)
            break
    assert found is not None, (
        f"no divergence in seeds {fuzz_seed}..{fuzz_seed + 59} under NeverParks"
    )
    assert found[1].divergence == INCOMPLETE, found[1].describe()


def test_injected_unsoundness_is_caught(fuzz_seed):
    gen = ProgramGenerator()
    factory = lambda ts: PhantomError(max_ts=ts)
    for seed in range(fuzz_seed, fuzz_seed + 20):
        gp = gen.generate(seed)
        v = differential_check(gp.program, max_ts=gp.n_forks, transformer_factory=factory)
        if v.concurrent == "safe":
            assert v.diverged and v.divergence == UNSOUND, (
                f"seed {seed}: {v.describe()}"
            )
            return
    pytest.fail("no concurrently-safe program drawn in 20 seeds")


def test_race_mode_replays_reported_races(fuzz_seed):
    gen = ProgramGenerator()
    race_seen = False
    for seed in range(fuzz_seed, fuzz_seed + 12):
        gp = gen.generate(seed)
        v = differential_check(
            gp.program, max_ts=gp.n_forks, race_global=gp.config.race_global
        )
        assert not v.diverged, f"seed {seed}: {v.describe()}"
        if v.race_verdict is not None:
            race_seen = race_seen or v.race_verdict == "error"
    assert race_seen, "no race ever reported on the distinguished location"


# -- lazy mode ---------------------------------------------------------------------

THREE_SWITCH = """
    int x; int y;
    void w() { assume(x == 1); y = 1; assume(x == 2); y = 2; }
    void main() {
      async w();
      x = 1; assume(y == 1);
      x = 2; assume(y == 2);
      assert(false);
    }
"""

#: w can only observe x == 1: the store of 3 is dead before the spawn.
DEAD_STORE = """
    int x;
    void w() { assert(x != 3); }
    void main() { x = 3; x = 1; async w(); }
"""


def test_lazy_mode_records_coverage_gap_not_divergence():
    """A concurrent error outside the K=2 budget is the lazy
    transform's *expected* incompleteness, not an oracle finding."""
    v = differential_check_source(THREE_SWITCH, max_ts=1, strategy="lazy", rounds=2)
    assert v.concurrent == "error" and v.sequential == "safe"
    assert not v.diverged
    assert v.coverage_gap
    assert v.describe().startswith("coverage-gap:")


def test_lazy_mode_gap_closes_at_k3():
    v = differential_check_source(THREE_SWITCH, max_ts=1, strategy="lazy", rounds=3)
    assert v.concurrent == "error" and v.sequential == "error"
    assert not v.diverged and not v.coverage_gap


def test_lazy_mode_catches_injected_unsoundness():
    factory = lambda ts: NoPcGuard(rounds=2, max_ts=ts)
    from repro.lang import parse

    assert not differential_check(parse(DEAD_STORE), max_ts=1, strategy="lazy").diverged
    v = differential_check(
        parse(DEAD_STORE), max_ts=1, strategy="lazy", rounds=2,
        transformer_factory=factory,
    )
    assert v.concurrent == "safe"
    assert v.diverged and v.divergence == UNSOUND, v.describe()


def test_lazy_mode_agrees_on_generated_batch(fuzz_seed):
    gen = ProgramGenerator()
    for seed in range(fuzz_seed, fuzz_seed + 10):
        gp = gen.generate(seed)
        v = differential_check(gp.program, max_ts=gp.n_forks, strategy="lazy", rounds=2)
        if not v.conclusive:
            continue  # full interleavings are pricier than balanced ones
        assert not v.diverged, f"seed {seed} diverged: {v.describe()}\n{gp.source}"


def test_incomplete_divergence_probed_with_rounds(fuzz_seed):
    """KISS-mode INCOMPLETE findings carry the lazy K=3 triage verdict:
    the NeverParks mutant loses exactly the park-the-worker executions,
    which three rounds recover."""
    gen = ProgramGenerator()
    factory = lambda ts: NeverParks(max_ts=ts)
    for seed in range(fuzz_seed, fuzz_seed + 60):
        gp = gen.generate(seed)
        v = differential_check(gp.program, max_ts=gp.n_forks, transformer_factory=factory)
        if v.diverged:
            assert v.divergence == INCOMPLETE
            assert v.closed_by_rounds is True, v.describe()
            assert "closed by rounds K=3: yes" in v.describe()
            return
    pytest.fail(f"no divergence in seeds {fuzz_seed}..{fuzz_seed + 59} under NeverParks")


def test_lazy_mode_rejects_race_global():
    with pytest.raises(ValueError):
        differential_check_source(
            DEAD_STORE, max_ts=1, strategy="lazy", race_global="x"
        )


def test_tiny_budget_is_inconclusive_not_divergent():
    src = """
        int shared = 0;
        void w0() { shared = shared + 1; assert(shared != 2); }
        void main() { async w0(); shared = shared + 1; }
    """
    v = differential_check_source(src, max_ts=1, max_states=5)
    assert not v.conclusive
    assert not v.diverged
    assert "resource-bound" in (v.concurrent, v.sequential)
