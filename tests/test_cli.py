"""CLI commands, formats, determinism and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matroidc.cli import _get_source, build_parser, main
from matroidc.complexes import ComplexSpec
from matroidc.enumerate import enumerate_all, parse_mtrd, write_mtrd


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dims_csv(capsys):
    code, out, _ = run(capsys, "dims", "--spec", "all", "--max-n", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,r,dim"
    assert "6,3,2" in lines and "2,1,1" in lines and "5,2,0" in lines


def test_dims_deterministic(capsys):
    a = run(capsys, "dims", "--spec", "binary", "--max-n", "5")
    b = run(capsys, "dims", "--spec", "binary", "--max-n", "5")
    assert a == b


def test_dims_json(capsys):
    code, out, _ = run(capsys, "dims", "--format", "json", "--max-n", "2")
    assert code == 0
    rows = json.loads(out)
    assert {"n": 2, "r": 1, "dim": 1} in rows


def test_dims_unknown_tag(capsys):
    code, _, err = run(capsys, "dims", "--spec", "regulr", "--max-n", "3")
    assert code == 2 and "unknown property tags" in err


def test_homology_simple(capsys):
    code, out, _ = run(
        capsys, "homology", "--spec", "simple", "--kind", "del", "--max-n", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "spec,kind,n,r,dim,rank_out,rank_in,betti,certified"
    betti = [int(line.split(",")[7]) for line in lines[1:]]
    assert betti == [1, 1, 0, 0, 0, 0]


def test_binary_census_serves_the_regular_complex(capsys, tmp_path):
    # regular classes are binary, so a census declared binary holds them all
    p = tmp_path / "binary.mtrd"
    reps = [m for n in range(6) for m in enumerate_all(n) if m.is_binary()]
    write_mtrd(str(p), reps, coverage=range(6), tags=["binary"])
    argv = ("homology", "--spec", "regular", "--kind", "del", "--max-n", "4")
    code, out, err = run(capsys, *argv, "--source", str(p))
    assert code == 0, err
    assert (code, out) == run(capsys, *argv)[:2]


@pytest.mark.parametrize("spec, tags", [
    ("simple,connected", {"simple"}),
    ("loopless,connected", {"loopless"}),
    ("regular,simple,loopless", {"simple", "loopless"}),
    ("binary", set()),
    ("all", set()),
])
def test_in_process_source_is_restricted_by_the_spec(spec, tags):
    args = build_parser().parse_args(["dims", "--spec", spec])
    assert _get_source(args, ComplexSpec.parse(args.spec)).tags() == tags


def test_restricted_source_names_its_tags_past_its_degrees(capsys):
    code, _, err = run(capsys, "dims", "--spec", "simple,connected", "--max-n", "8")
    assert code == 2
    assert "EnumeratorSource(max_n=7, tags=['simple']) does not cover degree 8" in err


def test_homology_exact_flag(capsys):
    a = run(capsys, "homology", "--spec", "all", "--kind", "con", "--max-n", "4")
    b = run(
        capsys, "homology", "--spec", "all", "--kind", "con", "--max-n", "4", "--exact"
    )
    ba = [line.split(",")[7] for line in a[1].splitlines()[1:]]
    bb = [line.split(",")[7] for line in b[1].splitlines()[1:]]
    assert ba == bb
    assert all(line.endswith("exact") for line in b[1].splitlines()[1:])


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "square", "--format", "json"),
    ("dims", "--exact"),
    ("verify", "--suite", "square", "--primes", "5"),
    ("export-matrix", "--n", "2", "--format", "mm"),
    ("homology", "--primes", "3"),
])
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    # verify prints plain text, and only homology ranks matrices
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_homology_max_n_with_bidegree_is_a_usage_error(capsys):
    # a bidegree answers one row and would ignore the degree range
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--kind", "del", "--bidegree", "6,3", "--max-n", "2"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_homology_coverage_exit(capsys, tmp_path):
    p = tmp_path / "tiny.mtrd"
    p.write_text("MTRD 1\n1 0 1 0\n1 1 1 1\n")
    code, _, err = run(
        capsys, "homology", "--source", str(p), "--kind", "del", "--max-n", "5"
    )
    assert code == 2 and "source" in err


def test_verify_suites(capsys):
    for suite, max_n in (
        ("square", "4"),
        ("anticommute", "4"),
        ("hopf", "4"),
        ("homotopy", "3"),
        ("duality", "4"),
        ("freealg", "4"),
    ):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
        assert code == 0, (suite, out)
        assert out and all(line.startswith("PASS") for line in out.splitlines())


def test_verify_rejects_spec_for_whole_algebra_suites(capsys):
    for suite in ("hopf", "homotopy", "freealg"):
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--spec", "simple", "--max-n", "3"
        )
        assert code == 2 and out == ""
        assert "invalid request" in err and f"--suite {suite}" in err
    code, _, _ = run(capsys, "verify", "--suite", "hopf", "--spec", "all", "--max-n", "3")
    assert code == 0


def test_duality_suite_names_the_stable_tags(capsys):
    # the command line cannot pass a dual spec, so the message names the
    # tags the suite accepts
    code, out, err = run(
        capsys, "verify", "--suite", "duality", "--spec", "simple,connected", "--max-n", "3"
    )
    assert (code, out) == (2, "")
    assert err == (
        "invalid request: spec 'simple+connected' is not duality stable; "
        "duality-stable specs take only the tags binary, regular, ternary\n"
    )


def test_enumerate_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "m4.mtrd"
    code, _, _ = run(capsys, "enumerate", "--n", "4", "--out", str(out_path))
    assert code == 0
    src = parse_mtrd(str(out_path))
    assert len(src.representatives(4)) == 17


@pytest.mark.parametrize("argv", [
    ("dims", "--spec", "simple", "--max-n", "3", "--out"),
    ("enumerate", "--n", "3", "--out"),
])
def test_unwritable_out_is_a_source_error(argv, tmp_path, capsys):
    missing = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, str(missing))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {missing}: No such file or directory\n"
    code, _, err = run(capsys, *argv, str(tmp_path))
    assert code == 2 and err == f"error: cannot write {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("argv, exit_code", [
    (("dims", "--spec", "simple", "--max-n", "4"), 0),
    (("homology", "--spec", "simple", "--kind", "del", "--max-n", "4"), 0),
    (("verify", "--suite", "square", "--max-n", "4"), 0),
    (("export-matrix", "--kind", "del", "--n", "2"), 0),
    # a repeated record: exit 2, and the report is still written
    (("ingest-check", "--source", "{census}"), 2),
])
def test_out_holds_the_bytes_stdout_would(argv, exit_code, tmp_path, capsys):
    census = tmp_path / "dup.mtrd"
    census.write_text("MTRD 1\n1 1 1 1\n1 1 1 1\n")
    argv = [a.format(census=census) for a in argv]
    code, printed, err = run(capsys, *argv)
    assert code == exit_code and printed
    out_path = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(out_path)) == (exit_code, "", err)
    assert out_path.read_bytes() == printed.encode()


@pytest.mark.parametrize("n", ["-1", "8"])
def test_enumerate_degree_outside_the_builtin_range(n, tmp_path, capsys):
    code, _, err = run(capsys, "enumerate", "--n", n, "--out", str(tmp_path / "x.mtrd"))
    assert code == 2
    assert err == f"source error: built-in enumeration covers n in 0..7, not n={n}\n"
    assert not (tmp_path / "x.mtrd").exists()


@pytest.mark.parametrize("argv", [
    ("dims", "--max-n", "-2"),
    ("homology", "--kind", "del", "--max-n", "-1"),
    ("verify", "--suite", "hopf", "--max-n", "-1"),
    ("verify", "--suite", "square", "--max-n", "-1"),
    ("export-matrix", "--kind", "del", "--n", "-1"),
])
def test_negative_degree_is_a_request_error(argv, capsys):
    # a negative degree names no classes; it must not pass as an empty check
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"a degree is >= 0, not {argv[-1]}" in out.err


def test_export_matrix(capsys):
    code, out, _ = run(capsys, "export-matrix", "--kind", "del", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
    assert lines[1] == "1 2 1"


def test_export_matrix_empty(capsys):
    code, out, _ = run(capsys, "export-matrix", "--kind", "del", "--n", "4")
    assert code == 0
    assert out.splitlines()[1] == "0 0 0"


def test_ingest_check(tmp_path, capsys):
    p = tmp_path / "db.mtrd"
    p.write_text("MTRD 1\n# property: simple\n1 1 1 1\n4 2 6 3 5 6 9 10 12\n")
    code, out, _ = run(capsys, "ingest-check", "--source", str(p))
    assert code == 0
    assert "degree 1: 1 classes" in out and "degree 4: 1 classes" in out
    assert "property tags: simple" in out


def test_ingest_check_coverage_accumulates(tmp_path, capsys):
    # a second coverage line adds to the first instead of replacing it
    p = tmp_path / "cov.mtrd"
    p.write_text("MTRD 1\n# coverage: 0 1\n# coverage: 2\n1 1 1 1\n")
    code, out, _ = run(capsys, "ingest-check", "--source", str(p))
    assert code == 0
    assert "degrees=0,1,2" in out
    for line in ("degree 0: 0 classes", "degree 1: 1 classes", "degree 2: 0 classes"):
        assert line in out


def test_ingest_check_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.mtrd"
    p.write_text("not a census\n")
    code, _, err = run(capsys, "ingest-check", "--source", str(p))
    assert code == 3 and "parse error" in err
    p.write_text("MTRD 1\n2 1\n")
    code, out, err = run(capsys, "ingest-check", "--source", str(p))
    assert (code, out) == (3, "")
    assert err == "parse error: record needs at least n, r and a count (line 2)\n"


def test_ingest_check_reports_duplicates(tmp_path, capsys):
    p = tmp_path / "dup.mtrd"
    p.write_text("MTRD 1\n1 1 1 1\n1 1 1 1\n")
    code, out, err = run(capsys, "ingest-check", "--source", str(p))
    assert code == 2 and "repeat an earlier class" in err
    assert "degree 1: 1 classes" in out
    assert "duplicate: line 3 repeats the class of line 2: Key(n=1,r=1,+,[1])" in out
    # other commands keep collapsing duplicates
    code, out, _ = run(capsys, "dims", "--source", str(p), "--max-n", "1")
    assert code == 2  # degree 0 is not covered, nothing about duplicates
    p.write_text("MTRD 1\n1 0 1 0\n0 0 1 0\n1 0 1 0\n")
    code, out, _ = run(capsys, "dims", "--source", str(p), "--max-n", "1")
    assert code == 0 and out == "n,r,dim\n0,0,1\n1,0,1\n1,1,0\n"


def test_malformed_directive_exits_as_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.mtrd"
    p.write_text("MTRD 1\n# coverage: x\n1 1 1 1\n")
    for argv in (
        ("ingest-check", "--source", str(p)),
        ("dims", "--source", str(p), "--max-n", "1"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "(line 2)" in err


def test_f2db_record_error_names_its_line(tmp_path, capsys):
    p = tmp_path / "wide.f2db"
    p.write_text("# coverage: 17\n" + "1" * 17 + "\n")
    code, out, err = run(capsys, "ingest-check", "--source", str(p))
    assert code == 3 and out == ""
    assert "too many columns (17) for the mask width (line 2)" in err


def test_coverage_beyond_the_element_limit_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "wide.mtrd"
    for token in ("0-40", "17", "0-3000000"):
        p.write_text(f"MTRD 1\n# coverage: {token}\n1 1 1 1\n")
        code, out, err = run(capsys, "ingest-check", "--source", str(p))
        assert code == 3 and out == ""
        assert f"coverage token '{token}' exceeds the 16-element limit (line 2)" in err
    # the limit itself is accepted, and ingest-check reports it
    p.write_text("MTRD 1\n# coverage: 0-16\n1 1 1 1\n")
    code, out, _ = run(capsys, "ingest-check", "--source", str(p))
    assert code == 0 and "degree 16: 0 classes" in out


def test_bidegree_query(capsys):
    code, out, _ = run(
        capsys,
        "homology",
        "--spec", "regular,simple,connected",
        "--kind", "del",
        "--bidegree", "6,3",
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert (row[2], row[3], row[7]) == ("6", "3", "1")


@pytest.mark.parametrize("degrees, argv", [
    (range(5, 8), ("--spec", "regular,simple,connected", "--kind", "del", "--bidegree", "6,3")),
    (range(6, 8), ("--kind", "del", "--bidegree", "7,3")),
    (range(1, 4), ("--kind", "con", "--bidegree", "2,1")),
])
def test_bidegree_needs_only_the_degrees_around_it(degrees, argv, tmp_path, capsys):
    # a census of degrees n-1..n+1 answers (n, r) as the enumerator does; a
    # census without n+1 gives the same upper_bound row
    p = tmp_path / "band.mtrd"
    write_mtrd(str(p), [m for n in degrees for m in enumerate_all(n)], coverage=degrees)
    expect = run(capsys, "homology", *argv)
    assert expect[0] == 0
    assert run(capsys, "homology", "--source", str(p), *argv) == expect


def test_unreadable_census_is_a_parse_error(tmp_path, capsys):
    code, out, err = run(capsys, "dims", "--source", str(tmp_path))
    assert code == 3 and out == ""
    assert err == f"parse error: cannot read source file {tmp_path}: Is a directory\n"
    p = tmp_path / "bin.mtrd"
    p.write_bytes(b"MTRD 1\n1 1 1 1\n1 0 1 \xff\n")
    code, out, err = run(capsys, "ingest-check", "--source", str(p))
    assert code == 3 and out == ""
    assert err == f"parse error: {p} is not UTF-8 text (line 3)\n"


def test_bidegree_malformed(capsys):
    code, _, err = run(
        capsys, "homology", "--kind", "del", "--bidegree", "6;3"
    )
    assert code == 2 and "bidegree" in err
    # (3,6) has n and r swapped; neither it nor (6,-1) has a row
    for n, r in ((3, 6), (6, -1)):
        code, out, err = run(capsys, "homology", "--kind", "del", "--bidegree", f"{n},{r}")
        assert (code, out) == (2, "")
        assert err == f"invalid request: bidegree ({n},{r}) needs 0 <= r <= n\n"


@pytest.mark.parametrize("name, text", [
    ("stray.mtrd", "MTRD 1\n# coverage: 1\n1 1 1 1\n2 1 2 1 2\n"),
    ("stray.f2db", "# coverage: 1\n1\n\n11\n"),
], ids=["mtrd", "f2db"])
def test_record_outside_the_declared_coverage_is_a_parse_error(name, text, tmp_path, capsys):
    # the degree-2 record on line 4 is neither dropped nor counted
    p = tmp_path / name
    p.write_text(text)
    code, out, err = run(capsys, "ingest-check", "--source", str(p))
    assert (code, out) == (3, "")
    assert err == "parse error: record on degree 2 outside the declared coverage (line 4)\n"


@pytest.mark.parametrize("name, text, tag", [
    # U(2,4) is not binary
    ("tagged.mtrd", "MTRD 1\n# property: binary\n1 1 1 1\n4 2 6 3 5 6 9 10 12\n", "binary"),
    # two coloops are not connected
    ("tagged.f2db", "# property: connected\n1\n\n10\n01\n", "connected"),
], ids=["mtrd", "f2db"])
def test_record_failing_a_declared_tag_is_a_parse_error(name, text, tag, tmp_path, capsys):
    # the record on line 4 is neither dropped nor counted
    p = tmp_path / name
    p.write_text(text)
    code, out, err = run(capsys, "ingest-check", "--source", str(p))
    assert (code, out) == (3, "")
    assert err == f"parse error: record fails the declared property '{tag}' (line 4)\n"


def test_homology_from_census_file(tmp_path, capsys):
    # a census written by the engine feeds back in and reproduces the
    # enumerator's homology
    from matroidc.enumerate import enumerate_all

    reps = [m for n in range(0, 6) for m in enumerate_all(n)]
    p = tmp_path / "full5.mtrd"
    code, _, _ = run(capsys, "enumerate", "--n", "5", "--out", str(tmp_path / "x.mtrd"))
    assert code == 0
    from matroidc.enumerate import write_mtrd

    write_mtrd(str(p), reps, coverage=range(0, 6))
    a = run(capsys, "homology", "--kind", "del", "--max-n", "4", "--source", str(p))
    b = run(capsys, "homology", "--kind", "del", "--max-n", "4")
    assert a == b and a[0] == 0


def test_verify_failure_exit_code(capsys, monkeypatch):
    import matroidc.cli as cli
    from matroidc.complexes import Report

    def failing(max_n, source):
        rep = Report([])
        rep.record(False, "free-supercommutative dim", "n=1 expected=9 got=2")
        return rep

    monkeypatch.setattr(cli.hopf, "connected_dim_check", failing)
    code, out, _ = run(capsys, "verify", "--suite", "freealg", "--max-n", "1")
    assert code == 1
    assert out.startswith("FAIL ")


def test_dims_coverage_exit(capsys, tmp_path):
    p = tmp_path / "tiny.mtrd"
    p.write_text("MTRD 1\n1 0 1 0\n")
    code, _, err = run(capsys, "dims", "--source", str(p), "--max-n", "3")
    assert code == 2 and "source" in err


def test_tracer_hooks_resolve(tmp_path):
    # bench/tracer.py wraps named entry points of every layer; a rename that
    # drops one would silently lose a per-layer metric.
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "t.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "tracer.py"), str(out), "dims", "--max-n", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["missing"] == []
