"""Pretty-printer tests: output must re-parse to an equivalent program."""

import pytest

from repro.lang import parse, parse_core
from repro.lang.parser import parse_expr
from repro.lang.pretty import pretty_expr, pretty_program


# -- expressions --------------------------------------------------------------


@pytest.mark.parametrize(
    "src",
    [
        "1 + 2 * 3",
        "(1 + 2) * 3",
        "a && b || c",
        "a || b && c",
        "!(a && b)",
        "-x + 1",
        "*p + 1",
        "&x",
        "a->b->c",
        "x == y + 1",
        "a < b && b <= c",
        "x != null",
        "nondet",
        "a - b - c",
        "a - (b - c)",
    ],
)
def test_expr_roundtrip(src):
    e1 = parse_expr(src)
    printed = pretty_expr(e1)
    e2 = parse_expr(printed)
    assert e1 == e2, f"{src!r} -> {printed!r}"


def test_pretty_expr_minimal_parens():
    assert pretty_expr(parse_expr("1 + 2 * 3")) == "1 + 2 * 3"
    assert pretty_expr(parse_expr("(1 + 2) * 3")) == "(1 + 2) * 3"


# -- programs ------------------------------------------------------------------


PROGRAMS = [
    "int g; void main() { g = 1; }",
    "struct S { int a; bool b; } void main() { S *p; p = malloc(S); p->a = 1; }",
    "void main() { if (true) { skip; } else { skip; } }",
    "int g; void main() { while (g < 3) { g = g + 1; } }",
    "int g; void main() { choice { g = 1; } or { g = 2; } }",
    "int g; void main() { iter { g = g + 1; } }",
    "int g; void main() { atomic { g = g + 1; } assert(g == 1); assume(g == 1); }",
    "void w(int x) { } void main() { async w(3); w(4); }",
    "int f(int x) { return x + 1; } void main() { int y; y = f(1); }",
    "int g = 5; bool b = true; void main() { }",
    "void main() { int *p; int x; p = &x; *p = 1; x = *p; }",
]


def _structure(prog):
    return {
        "structs": {n: dict(s.fields) for n, s in prog.structs.items()},
        "globals": {n: str(g.type) for n, g in prog.globals.items()},
        "functions": sorted(prog.functions),
    }


@pytest.mark.parametrize("src", PROGRAMS)
def test_program_roundtrip_structure(src):
    p1 = parse(src)
    printed = pretty_program(p1)
    p2 = parse(printed)
    assert _structure(p1) == _structure(p2), printed


@pytest.mark.parametrize("src", PROGRAMS)
def test_core_program_roundtrip(src):
    """Core programs (with hoisted locals) must also re-parse."""
    p1 = parse_core(src)
    printed = pretty_program(p1)
    p2 = parse(printed)
    assert _structure(p1) == _structure(p2), printed
    # the reparsed program's locals must cover the originals
    for fname, f in p1.functions.items():
        assert set(p2.functions[fname].locals) >= set(f.locals)


def test_roundtrip_preserves_semantics():
    """Print → reparse → check must agree with checking the original."""
    from repro.seqcheck.explicit import check_sequential
    from repro.lang.lower import lower_program

    src = """
    int g;
    void main() {
      g = 3;
      while (g > 0) { g = g - 1; }
      assert(g == 0);
    }
    """
    p1 = parse_core(src)
    r1 = check_sequential(p1)
    p2 = lower_program(parse(pretty_program(p1)))
    r2 = check_sequential(p2)
    assert r1.status == r2.status


def test_transformed_program_prints():
    """Figure 4 output must be printable (used by the CLI and examples)."""
    from repro.core.transform import kiss_transform

    prog = parse_core(
        "bool f; void w() { f = true; } void main() { async w(); assert(!f); }"
    )
    out = kiss_transform(prog, max_ts=1)
    text = pretty_program(out)
    assert "__kiss_schedule" in text
    reparsed = parse(text)
    assert "__kiss_check" in reparsed.functions


def test_roundtrip_random_programs_preserve_verdicts():
    """Print → reparse → re-check random concurrent programs: verdicts
    must survive the round trip."""
    from hypothesis import given, settings, strategies as st
    from repro.core.checker import Kiss
    from repro.lang.lower import lower_program

    stmt = st.tuples(
        st.integers(0, 3), st.sampled_from(["g0", "g1"]), st.integers(0, 2)
    ).map(
        lambda t: {
            0: f"{t[1]} = {t[2]};",
            1: f"{t[1]} = {t[1]} + 1;",
            2: f"assume({t[1]} == {t[2]});",
            3: f"assert({t[1]} != {t[2]});",
        }[t[0]]
    )

    @settings(max_examples=20, deadline=None)
    @given(st.lists(stmt, min_size=1, max_size=3), st.lists(stmt, min_size=1, max_size=3))
    def prop(worker, main):
        src = (
            "int g0; int g1;\n"
            "void worker() { " + " ".join(worker) + " }\n"
            "void main() { async worker(); " + " ".join(main) + " }"
        )
        p1 = parse_core(src)
        r1 = Kiss(max_ts=1).check_assertions(p1)
        p2 = lower_program(parse(pretty_program(p1)))
        r2 = Kiss(max_ts=1).check_assertions(p2)
        assert r1.verdict == r2.verdict, src

    prop()
