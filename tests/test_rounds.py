"""What the round bound K buys in the K-round sequentialization
(``strategy="lazy"``): K=1 is run-to-completion, K=2 misses the
three-switch handshake on both backends, K=3 finds it with a trace that
replays concurrently, and the bound is validated."""

from pathlib import Path

import pytest

from repro.core.checker import Kiss
from repro.lang import parse
from repro.lazy import LazyTransformer

CORPUS = Path(__file__).parent / "fuzz_corpus"
THREE_SWITCH = (CORPUS / "three-switch.kp").read_text()
INCREMENT_CHAIN = (CORPUS / "increment-chain.kp").read_text()


def _rounds(k, **kw):
    return Kiss(max_ts=1, strategy="lazy", rounds=k, **kw)


def test_k1_finds_no_preemption_bugs():
    # both handshakes need preemption; one round runs each instance to
    # completion in spawn order, which blocks on the first assume
    for source in (THREE_SWITCH, INCREMENT_CHAIN):
        for backend in ("explicit", "cegar"):
            r = _rounds(1, backend=backend).check_assertions(parse(source))
            assert r.verdict == "safe", r.summary()
            assert r.rounds == 1


def test_three_switch_safe_at_k2():
    for backend in ("explicit", "cegar"):
        r = _rounds(2, backend=backend).check_assertions(parse(THREE_SWITCH))
        assert r.verdict == "safe", r.summary()
        assert r.rounds == 2


def test_three_switch_found_at_k3_with_replaying_trace():
    r = _rounds(3).check_assertions(parse(THREE_SWITCH))
    assert r.verdict == "error", r.summary()
    assert r.trace_validated is True, "mapped counterexample must replay concurrently"
    tids = [step.tid for step in r.concurrent_trace.steps]
    assert len(set(tids)) == 2, r.concurrent_trace.format()
    # two rounds of two threads allow 3 switches, and K=2 is safe, so the
    # witness must switch more often than that
    switches = sum(a != b for a, b in zip(tids, tids[1:]))
    assert switches > 3, r.concurrent_trace.format()


def test_rounds_validation():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            LazyTransformer(rounds=bad)
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            Kiss(strategy="lazy", rounds=bad)
    with pytest.raises(ValueError, match="unknown strategy"):
        Kiss(strategy="rounds", rounds=2)
    with pytest.raises(ValueError, match="unknown strategy"):
        Kiss(strategy="nonsense")


def test_race_checking_is_kiss_only():
    from repro.core.race import RaceTarget

    prog = parse("int g; void main() { g = 1; }")
    for k in (1, 3):
        with pytest.raises(ValueError, match="KISS-only"):
            _rounds(k).check_race(prog, RaceTarget.global_var("g"))
    assert Kiss(max_ts=1).check_race(prog, RaceTarget.global_var("g")).verdict == "safe"
