"""Shared-access POR parity: pruning schedule points at statements that
touch no shared global never changes a decisive verdict — for any
strategy, on the driver corpus and on generated fuzz programs — and the
``por_schedule_points_pruned`` counter proves the reduction actually
fires on thread-local traffic."""

import pytest

from repro import obs
from repro.core.checker import Kiss
from repro.core.race import RaceTarget
from repro.drivers.corpus import DRIVER_SPECS
from repro.drivers.generator import EXTENSION, generate_source
from repro.drivers.spec import FieldKind
from repro.fuzz.gen import ProgramGenerator
from repro.lang import parse
from repro.schemas import STRATEGIES

#: (strategy, rounds) pairs exercising every sequentialization.
ALL_STRATEGIES = (("kiss", 2), ("lazy", 2))


def assert_por_parity(make_kiss, check, what):
    """POR only *removes* schedule points, so under one state budget it
    can only help: a decisive (safe/error) verdict must be identical,
    and the only tolerated asymmetry is POR-off exhausting the budget
    where POR-on completes."""
    off = check(make_kiss(por=False))
    on = check(make_kiss(por=True))
    if off.verdict == "resource-bound":
        assert on.verdict in ("resource-bound", "safe", "error"), what
    else:
        assert on.verdict == off.verdict, (
            f"{what}: por flipped {off.verdict!r} -> {on.verdict!r}"
        )
    return off, on


# -- thread-local traffic is actually pruned ---------------------------------------

#: locals and a single-threaded global (``h`` is only ever touched by
#: ``main``): both POR flavors have something to prune — kiss and lazy
#: skip schedule points at thread-invisible statements.
LOCAL_HEAVY = """
int g;
int h;
void w() {
  int a; int b;
  a = 1;
  b = a + 1;
  a = b * 2;
  g = a;
}
void main() {
  int c;
  h = 3;
  c = h + h;
  h = c * 2;
  async w();
  g = c;
  assert(g > 0);
}
"""


@pytest.mark.parametrize("strategy,rounds", ALL_STRATEGIES)
def test_thread_local_traffic_is_pruned(strategy, rounds):
    prog = parse(LOCAL_HEAVY)
    with obs.observing(obs.Recorder()) as rec:
        r = Kiss(max_ts=1, strategy=strategy, rounds=rounds,
                 por=True).check_assertions(prog)
        pruned = rec.metrics()["counters"].get("por_schedule_points_pruned", 0)
    assert r.verdict == "safe", r.summary()
    assert pruned > 0, f"{strategy}: local-only statements must be pruned"
    with obs.observing(obs.Recorder()) as rec:
        Kiss(max_ts=1, strategy=strategy, rounds=rounds,
             por=False).check_assertions(prog)
        assert "por_schedule_points_pruned" not in rec.metrics()["counters"]


def test_every_strategy_is_covered():
    assert {s for s, _ in ALL_STRATEGIES} == set(STRATEGIES)


# -- parity over the driver corpus -------------------------------------------------


def driver_parity_cases():
    """Every driver, one field per outcome kind it has: clean, real
    race, each spurious-race flavor, and unresolved."""
    cases = []
    for spec in DRIVER_SPECS:
        seen = set()
        for f in spec.fields:
            if f.kind in seen:
                continue
            seen.add(f.kind)
            cases.append(pytest.param(spec, f, id=f"{spec.name}/{f.name}"))
    return cases


@pytest.mark.slow
@pytest.mark.parametrize("spec,fld", driver_parity_cases())
def test_driver_corpus_por_parity(spec, fld):
    budget = 200 if fld.kind is FieldKind.UNRESOLVED else 300_000
    prog = parse(generate_source(spec, loc_scale=0))
    target = RaceTarget.field_of(EXTENSION, fld.name)

    def check(kiss):
        return kiss.check_race(prog, target)

    off, _ = assert_por_parity(
        lambda por: Kiss(max_ts=0, max_states=budget, por=por),
        check, f"{spec.name}/{fld.name}")
    if fld.kind is FieldKind.CLEAN:
        assert off.verdict == "safe"


# -- parity over 50 seed-0 fuzz programs, all strategies ---------------------------


@pytest.mark.slow
@pytest.mark.parametrize("strategy,rounds", ALL_STRATEGIES)
def test_fuzz_programs_por_parity(strategy, rounds):
    for g in ProgramGenerator().generate_batch(50, seed=0):
        assert_por_parity(
            lambda por: Kiss(max_ts=g.n_forks, max_states=20_000, strategy=strategy,
                             rounds=rounds, por=por),
            lambda kiss: kiss.check_assertions(g.program),
            f"seed {g.seed} [{strategy}]")


def test_por_prunes_on_some_fuzz_programs():
    """The generator emits enough thread-local statements that POR must
    fire somewhere in the first 50 seeds — a regression guard against
    the analysis silently classifying everything as shared."""
    total = 0
    for g in ProgramGenerator().generate_batch(50, seed=0):
        with obs.observing(obs.Recorder()) as rec:
            Kiss(max_ts=g.n_forks, max_states=20_000,
                 por=True).check_assertions(g.program)
            total += rec.metrics()["counters"].get("por_schedule_points_pruned", 0)
    assert total > 0
