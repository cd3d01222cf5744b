"""Tests for the command-line interface."""

import pytest

from repro.cli import EXIT_BOUND, EXIT_ERROR, EXIT_SAFE, EXIT_USAGE, main

SAFE_SRC = "void main() { assert(true); }"
BUGGY_SRC = """
bool flag;
void worker() { flag = true; }
void main() { async worker(); assert(!flag); }
"""
RACY_SRC = """
struct EXT { int a; int b; }
int g;
void worker(EXT *e) { e->a = 1; g = 1; }
void main() {
  EXT *e;
  e = malloc(EXT);
  async worker(e);
  e->a = 2;
}
"""


@pytest.fixture
def src_file(tmp_path):
    def write(src):
        p = tmp_path / "prog.kp"
        p.write_text(src)
        return str(p)

    return write


def test_check_safe(src_file, capsys):
    assert main(["check", src_file(SAFE_SRC)]) == EXIT_SAFE
    assert "safe" in capsys.readouterr().out


def test_check_error_prints_trace(src_file, capsys):
    assert main(["check", src_file(BUGGY_SRC)]) == EXIT_ERROR
    out = capsys.readouterr().out
    assert "error" in out
    assert "t0" in out  # trace lines


def test_check_with_validation(src_file, capsys):
    """Every error is replayed: no flag asks for it."""
    assert main(["check", src_file(BUGGY_SRC)]) == EXIT_ERROR
    assert "replayed against concurrent semantics: ok" in capsys.readouterr().out


def test_check_resource_bound(src_file):
    assert main(["check", src_file(BUGGY_SRC), "--max-states", "5"]) == EXIT_BOUND


def test_race_on_field(src_file, capsys):
    assert main(["race", src_file(RACY_SRC), "--target", "EXT.a"]) == EXIT_ERROR
    assert "race" in capsys.readouterr().out


def test_race_on_global(src_file):
    src = """
    int g;
    void worker() { g = 2; }
    void main() { async worker(); g = 1; }
    """
    assert main(["race", src_file(src), "--target", "g"]) == EXIT_ERROR


def test_race_no_race(src_file):
    assert main(["race", src_file(RACY_SRC), "--target", "EXT.b"]) == EXIT_SAFE


def test_race_all_fields(src_file, capsys):
    assert main(["race", src_file(RACY_SRC), "--all-fields", "EXT"]) == EXIT_ERROR
    out = capsys.readouterr().out
    assert "EXT.a" in out and "EXT.b" in out


def test_race_requires_target(src_file):
    assert main(["race", src_file(RACY_SRC)]) == EXIT_USAGE


def test_sequentialize_prints_program(src_file, capsys):
    assert main(["sequentialize", src_file(BUGGY_SRC), "--max-ts", "1"]) == EXIT_SAFE
    out = capsys.readouterr().out
    assert "__kiss_raise" in out
    assert "__kiss_schedule" in out


def test_interleavings_baseline(src_file, capsys):
    assert main(["interleavings", src_file(BUGGY_SRC)]) == EXIT_ERROR


def test_interleavings_context_bound(src_file):
    src = """
    bool flag; int g;
    void worker() { if (flag) { g = 1; } }
    void main() { async worker(); flag = true; flag = false; assume(g == 1); assert(false); }
    """
    assert main(["interleavings", src_file(src), "--context-bound", "1"]) == EXIT_SAFE
    assert main(["interleavings", src_file(src)]) == EXIT_ERROR


def test_missing_file():
    assert main(["check", "/nonexistent/x.kp"]) == EXIT_USAGE


def test_parse_error(src_file):
    assert main(["check", src_file("void main() { x = ; }")]) == EXIT_USAGE


def test_type_error(src_file):
    assert main(["check", src_file("int g; void main() { g = true; }")]) == EXIT_USAGE


def test_check_with_cegar_backend(src_file, capsys):
    src = "int g; void main() { g = 2; assert(g == 1); }"
    assert main(["check", src_file(src), "--backend", "cegar"]) == EXIT_ERROR


def test_cegar_backend_safe_program(src_file):
    src = "int g; void main() { g = 1; assert(g == 1); }"
    assert main(["check", src_file(src), "--backend", "cegar"]) == EXIT_SAFE


def test_benign_annotation_through_cli(src_file):
    src = """
    int g;
    void worker() { g = 2; }
    void main() { async worker(); benign { g = 1; } }
    """
    assert main(["race", src_file(src), "--target", "g"]) == EXIT_SAFE


# -- the campaign subcommand --------------------------------------------------------


def test_race_all_fields_parallel_with_timeout(src_file, capsys):
    assert main(["race", src_file(RACY_SRC), "--all-fields", "EXT",
                 "--jobs", "2", "--timeout", "60"]) == EXIT_ERROR
    out = capsys.readouterr().out
    assert "EXT.a: race" in out
    assert "EXT.b:" in out


def test_campaign_over_corpus_subset(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["campaign", "--drivers", "tracedrv,imca", "--jobs", "2",
            "--cache-dir", cache, "--telemetry", str(tmp_path / "events.jsonl")]
    assert main(args) == EXIT_ERROR  # imca has one real race
    out = capsys.readouterr().out
    assert "Campaign summary" in out
    assert "imca" in out and "tracedrv" in out
    assert "cache: skipped 0/8" in out
    # cache-warm re-run skips every job
    assert main(args) == EXIT_ERROR
    assert "cache: skipped 8/8 jobs (100%)" in capsys.readouterr().out


def test_campaign_safe_driver_exits_zero(tmp_path):
    assert main(["campaign", "--drivers", "tracedrv", "--no-cache"]) == EXIT_SAFE


def test_campaign_unknown_driver(capsys):
    assert main(["campaign", "--drivers", "nosuchdrv", "--no-cache"]) == EXIT_USAGE


def test_campaign_list_drivers(capsys):
    assert main(["campaign", "--list-drivers"]) == EXIT_SAFE
    out = capsys.readouterr().out
    assert "fdc" in out and "tracedrv" in out
