"""End-to-end CLI checks: exit codes, record shapes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import parafock
from parafock import algebra, cli, symfunc, verma
from parafock.cli import main

# the child imports the same package as the test process
SRC = str(Path(parafock.__file__).resolve().parent.parent)


def run_cli(*argv):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "parafock.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout, proc.stderr


def records(stdout):
    return [json.loads(line) for line in stdout.strip().splitlines()]


def test_verify_algebra_ok():
    code, out, _ = run_cli("verify-algebra", "--m", "1", "--n", "1")
    assert code == 0
    recs = records(out)
    assert recs[0]["meta"] == "verify-algebra"
    by_check = {r.get("check"): r for r in recs[1:]}
    assert by_check["triple_relations"]["failures"] == 0
    assert by_check["structure_constants"]["dimension"] == 12


def test_usage_error_exit_2():
    code, _, err = run_cli("verify-algebra", "--m", "0", "--n", "0")
    assert code == 2
    assert "m + n" in err
    code, _, _ = run_cli("char", "--m", "1", "--n", "1", "--p", "1",
                         "--degree", "99")
    assert code == 2
    code, _, _ = run_cli("gram", "--m", "1", "--n", "1", "--p", "0",
                         "--levels", "2")
    assert code == 2


def test_char_level_totals_and_formula():
    code, out, _ = run_cli("char", "--m", "1", "--n", "1", "--p", "1",
                           "--degree", "4")
    assert code == 0
    recs = records(out)
    totals = {}
    for r in recs:
        if r.get("series") == "irreducible":
            totals[r["level"]] = totals.get(r["level"], 0) + r["multiplicity"]
    assert [totals.get(l, 0) for l in range(5)] == [1, 2, 2, 2, 2]
    checks = {r["check"]: r for r in recs if "check" in r}
    assert checks["character_formula"]["ok"]
    assert checks["weight_series_expansion"]["ok"]


def test_char_degree_zero_vacuum_only():
    code, out, _ = run_cli("char", "--m", "1", "--n", "1", "--p", "2",
                           "--degree", "0")
    assert code == 0
    recs = [r for r in records(out) if "series" in r]
    assert len(recs) == 2  # one vacuum line per series
    assert all(r["level"] == 0 and r["multiplicity"] == 1 for r in recs)
    assert recs[0]["weight_vector"] == [-2, 2]


def test_char_p2_levels():
    code, out, _ = run_cli("char", "--m", "1", "--n", "1", "--p", "2",
                           "--degree", "2")
    recs = records(out)
    totals = {}
    for r in recs:
        if r.get("series") == "irreducible":
            totals[r["level"]] = totals.get(r["level"], 0) + r["multiplicity"]
    assert [totals.get(l, 0) for l in range(3)] == [1, 2, 4]


def test_verify_id2_auto_and_forced():
    code, out, _ = run_cli("verify-id2", "--m", "1", "--n", "1",
                           "--p", "2,3", "--levels", "3")
    assert code == 0
    final = records(out)[-1]
    assert final["check"] == "variant_selection" and final["ok"]
    assert final["selected"] == "mult:cancel:boson"

    code, out, _ = run_cli("verify-id2", "--m", "1", "--n", "1",
                           "--p", "2,3", "--levels", "3",
                           "--variant", "argsum:cancel:boson")
    assert code == 1

    code, _, _ = run_cli("verify-id2", "--m", "1", "--n", "1", "--p", "2",
                         "--levels", "3")
    assert code == 2  # selection needs two p samples

    code, _, _ = run_cli("verify-id2", "--m", "1", "--n", "0",
                         "--p", "2,3", "--levels", "3")
    assert code == 2  # recurrence needs a bosonic slot


@pytest.mark.parametrize("domains", ["-1,1", "1,1;1,0", "1,-2"])
def test_verify_id2_out_of_range_domain_is_usage_error(domains):
    code, out, err = run_cli("verify-id2", "--m", "1", "--n", "1",
                             f"--domains={domains}", "--p", "2,3",
                             "--levels", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("domain_args", [
    ("--m", "0", "--n", "0"), ("--m", "-1", "--n", "5"), ("--m", "2"), ()])
def test_verify_id2_domains_make_m_and_n_optional(domain_args):
    """With --domains, --m/--n are neither required nor range-checked, and
    the output equals that of --m 1 --n 1."""
    tail = ("--domains", "1,1;2,1", "--p", "2,3", "--levels", "2")
    want = run_cli("verify-id2", "--m", "1", "--n", "1", *tail)
    assert want[0] == 0 and want[1]
    assert run_cli("verify-id2", *domain_args, *tail) == want


@pytest.mark.parametrize("domain_args", [("--m", "1"), ("--n", "1"), ()])
def test_verify_id2_without_domains_needs_m_and_n(domain_args):
    code, out, err = run_cli("verify-id2", *domain_args, "--p", "2,3",
                             "--levels", "2")
    assert code == 2 and out == ""
    assert err == "error: verify-id2 needs --m and --n, or --domains\n"


def test_verify_id2_empty_domains_is_a_usage_error():
    code, out, err = run_cli("verify-id2", "--m", "1", "--n", "1",
                             "--domains", "", "--p", "2,3", "--levels", "2")
    assert code == 2 and out == ""
    assert err == "error: --domains expects 'm,n;m,n;...'\n"


@pytest.mark.parametrize("domains", ["1,1;1,1", "1,1;2,1;1,1"])
@pytest.mark.parametrize("variant", ["auto", "mult:cancel:boson"])
def test_verify_id2_repeated_domains_are_a_usage_error(domains, variant):
    code, out, err = run_cli("verify-id2", "--m", "1", "--n", "1",
                             "--domains", domains, "--p", "2,3",
                             "--levels", "2", "--variant", variant)
    assert code == 2 and out == ""
    assert err == "error: --domains values must be distinct\n"


@pytest.mark.parametrize("orders", ["2,2", "1,2,1"])
@pytest.mark.parametrize("variant", ["auto", "mult:cancel:boson"])
def test_verify_id2_repeated_orders_are_a_usage_error(orders, variant):
    code, out, err = run_cli("verify-id2", "--m", "1", "--n", "1",
                             "--p", orders, "--levels", "2",
                             "--variant", variant)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_gk_table_record_shape():
    code, out, _ = run_cli("gk-table", "--m", "1", "--n", "1", "--p", "2",
                           "--levels", "2")
    assert code == 0
    recs = [r for r in records(out) if "top_row" in r]
    assert all(set(r) == {"top_row", "k", "p", "sign",
                          "radicand_num", "radicand_den"} for r in recs)
    vac = next(r for r in recs if r["top_row"] == [0, 0] and r["k"] == 1)
    assert (vac["sign"], vac["radicand_num"], vac["radicand_den"]) == (1, 2, 1)


def test_gram_verdicts():
    code, out, _ = run_cli("gram", "--m", "1", "--n", "1", "--p", "1",
                           "--levels", "2")
    assert code == 0
    recs = records(out)
    blocks = [r for r in recs if "block_size" in r]
    assert all(r["match"] and r["psd"] for r in blocks)
    radical = next(r for r in blocks if r["block_size"] > r["rank"])
    assert radical["level"] == 2
    checks = {r["check"]: r for r in recs if "check" in r}
    assert checks["diagonal_action"]["ok"]
    assert checks["radical_cut"]["ok"]


def test_matelems_exact_fractions():
    code, out, _ = run_cli("matelems", "--m", "1", "--n", "1", "--p", "2",
                           "--levels", "1")
    assert code == 0
    recs = records(out)
    norm = next(r for r in recs if "norm_sq_num" in r)
    assert norm["norm_sq_den"] >= 1
    diag = next(r for r in recs if "diagonal_values" in r)
    assert all(isinstance(v, list) and len(v) == 2
               for v in diag["diagonal_values"])


def test_dims_and_pattern_validation(tmp_path):
    code, out, _ = run_cli("dims", "--m", "1", "--n", "1", "--levels", "2",
                           "--patterns")
    assert code == 0
    recs = records(out)
    assert all(r["match"] for r in recs if "match" in r)
    pats = [r["pattern"] for r in recs if "pattern" in r]
    assert [[0, 0], [0]] in pats

    fixture = tmp_path / "patterns.jsonl"
    fixture.write_text('[[1,1],[1]]\n[[0,1],[0]]\n')
    code, out, _ = run_cli("dims", "--m", "1", "--n", "1", "--levels", "0",
                           "--validate", str(fixture))
    assert code == 1  # second pattern is invalid
    recs = [r for r in records(out) if "valid" in r]
    assert recs[0]["valid"] and not recs[1]["valid"]
    assert "top_row" in recs[1]["failures"]


@pytest.mark.parametrize("p,tops", [
    (None, [[0, 0], [1, 0], [1, 1], [2, 0]]),
    (2, [[0, 0], [1, 0], [1, 1], [2, 0]]),
    (1, [[0, 0], [1, 0], [1, 1]]),
    (0, [[0, 0]]),
])
def test_dims_p_caps_the_top_row_width(p, tops, capsys):
    argv = ["dims", "--m", "1", "--n", "1", "--levels", "2"]
    assert main(argv + (["--p", str(p)] if p is not None else [])) == 0
    assert [r["top_row"] for r in records(capsys.readouterr().out)[1:]] \
        == tops


@pytest.mark.parametrize("argv", [
    ["dims", "--m", "1", "--n", "1", "--p", "-1", "--levels", "2"],
    ["verify-algebra", "--m", "1", "--n", "1", "--p", "-3"],
])
def test_negative_order_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: p must be >= 0\n"


def test_determinism_byte_identical():
    args = ("gram", "--m", "1", "--n", "1", "--p", "2", "--levels", "2")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_csv_projection():
    code, out, _ = run_cli("gk-table", "--m", "1", "--n", "1", "--p", "1",
                           "--levels", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("meta,")
    assert len(lines) > 2


def test_out_file(tmp_path):
    target = tmp_path / "out.jsonl"
    code, out, _ = run_cli("verify-algebra", "--m", "1", "--n", "1",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().count("\n") >= 3


@pytest.mark.parametrize("option", ["--out", "--dump"])
def test_unwritable_output_path_is_usage_error(tmp_path, option):
    target = tmp_path / "missing" / "out.jsonl"
    code, out, err = run_cli("verify-algebra", "--m", "1", "--n", "1",
                             option, str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_validate_malformed_line_is_usage_error(tmp_path):
    fixture = tmp_path / "patterns.jsonl"
    fixture.write_text('[[1,1],[1]]\n[[0,1],[0]\n')
    code, out, err = run_cli("dims", "--m", "1", "--n", "1",
                             "--validate", str(fixture))
    assert code == 2 and out == ""
    assert err.startswith("error:") and ":2:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfe[[1,0],[0]]\n", id="not-utf8"),
    pytest.param(b"[" * 100_000 + b"\n", id="nested-past-the-recursion-limit"),
])
def test_unreadable_validate_file_is_usage_error(tmp_path, content):
    fixture = tmp_path / "patterns.jsonl"
    fixture.write_bytes(content)
    code, out, err = run_cli("dims", "--m", "1", "--n", "1",
                             "--validate", str(fixture))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_several_orders_are_a_returned_usage_error(capsys):
    for command in ("char", "gk-table", "gram", "matelems"):
        assert main([command, "--m", "1", "--n", "1", "--p", "1,2"]) == 2
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command,m,n", [
    pytest.param("gram", 1, 1, id="gram"),
    pytest.param("matelems", 1, 1, id="matelems"),
    pytest.param("gram", 2, 2, id="gram-2-2"),
    pytest.param("matelems", 2, 2, id="matelems-2-2"),
])
def test_gram_builds_each_block_once(command, m, n, monkeypatch, capsys):
    """One walk of the blocks serves the command and all its checks: it
    builds the block of each orbit representative (each parity class
    non-increasing) exactly once and no other."""
    from parafock import verma

    real_block = verma.gram_block_for_content
    real_walk = verma.gram_records_up_to
    built = []
    walks = []

    def counting_block(m, n, p, content, *args, **kwargs):
        built.append(tuple(content))
        return real_block(m, n, p, content, *args, **kwargs)

    def counting_walk(*args, **kwargs):
        walks.append(args)
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(verma, "gram_block_for_content", counting_block)
    monkeypatch.setattr(verma, "gram_records_up_to", counting_walk)
    assert main([command, "--m", str(m), "--n", str(n), "--p", "2",
                 "--levels", "3"]) == 0
    capsys.readouterr()
    assert walks == [(m, n, 2, 3)]
    expected = [c for lv in range(4) for c in verma.level_contents(m, n, lv)
                if all(a >= b for a, b in zip(c[:m], c[1:m]))
                and all(a >= b for a, b in zip(c[m:], c[m + 1:]))]
    assert sorted(built) == sorted(expected)


def test_dump_basis(tmp_path):
    target = tmp_path / "basis.jsonl"
    code, _, _ = run_cli("verify-algebra", "--m", "1", "--n", "1",
                         "--dump", str(target))
    assert code == 0
    lines = [json.loads(l) for l in target.read_text().splitlines()]
    assert len(lines) == 12
    assert all({"label", "records"} <= set(l) for l in lines)


def test_dump_basis_matches_golden_file(tmp_path):
    """Every entry's numerator and denominator, as the whole --dump file."""
    golden = Path(__file__).parent / "fixtures" / "verify_algebra_m2_n2_dump.jsonl"
    target = tmp_path / "basis.jsonl"
    code, _, _ = run_cli("verify-algebra", "--m", "2", "--n", "2",
                         "--dump", str(target))
    assert code == 0
    assert target.read_text() == golden.read_text()


@pytest.mark.parametrize("m,n,dump", [
    (3, 3, False),
    # one sector each: no odd generator pair, then no even one
    (4, 0, False),
    (0, 4, False),
    # the same stdout with --dump, and the dump file besides
    (1, 3, True),
], ids=["m3_n3", "m4_n0", "m0_n4", "m1_n3_dump"])
def test_verify_algebra_matches_golden_file(m, n, dump, tmp_path):
    fixtures = Path(__file__).parent / "fixtures"
    stem = f"verify_algebra_m{m}_n{n}"
    argv = ["verify-algebra", "--m", str(m), "--n", str(n)]
    target = tmp_path / "basis.jsonl"
    if dump:
        argv += ["--dump", str(target)]
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out == (fixtures / f"{stem}.jsonl").read_text()
    if dump:
        assert target.read_text() \
            == (fixtures / f"{stem}_dump.jsonl").read_text()


def test_verify_algebra_size_cap(monkeypatch, capsys):
    """m + n past the cap is a usage error raised before any bracket; the
    cap itself reaches the algebra."""
    cap = cli.MAX_ALGEBRA_RANK

    class Reached(Exception):
        pass

    def reached(m, n):
        raise Reached((m, n))

    monkeypatch.setattr(algebra, "verify_relations", reached)
    monkeypatch.setattr(algebra, "structure_constants", reached)
    for m, n in [(cap + 1, 0), (0, cap + 1), (cap, 1), (cap + 10, 0)]:
        assert main(["verify-algebra", "--m", str(m), "--n", str(n)]) == 2
        assert capsys.readouterr() == (
            "", f"error: verify-algebra needs m + n <= {cap}\n")
    for m, n in [(cap, 0), (0, cap), (cap - 1, 1)]:
        with pytest.raises(Reached, match=re.escape(str((m, n)))):
            main(["verify-algebra", "--m", str(m), "--n", str(n)])


def test_gram_and_matelems_size_cap(monkeypatch, capsys):
    """m + n past the cap is a usage error raised before the oracle or the
    character is reached; the cap itself reaches them."""
    cap = cli.MAX_ORACLE_RANK

    class Reached(Exception):
        pass

    def reached(m, n, *rest):
        raise Reached((m, n))

    monkeypatch.setattr(symfunc, "irreducible_character", reached)
    monkeypatch.setattr(verma, "get_engine", reached)
    monkeypatch.setattr(verma, "gram_records_up_to", reached)
    for command in ("gram", "matelems"):
        for m, n in [(cap + 1, 0), (0, cap + 1), (cap // 2, cap // 2 + 1)]:
            argv = [command, "--m", str(m), "--n", str(n), "--levels", "1"]
            assert main(argv) == 2
            assert capsys.readouterr() == (
                "", f"error: {command} needs m + n <= {cap}\n")
        for m, n in [(cap, 0), (0, cap), (cap // 2, cap // 2)]:
            with pytest.raises(Reached, match=re.escape(str((m, n)))):
                main([command, "--m", str(m), "--n", str(n), "--levels", "1"])


def test_char_size_cap(monkeypatch, capsys):
    """A series past the cap on C(m + n + degree, degree) is a usage error
    raised before the characters are reached; the cap itself reaches them."""
    cap = cli.MAX_CHAR_CONTENTS

    class Reached(Exception):
        pass

    def reached(m, n, *rest):
        raise Reached((m, n))

    monkeypatch.setattr(symfunc, "character_formula_report", reached)
    # C(72, 12) is about 1.5e13, C(21, 12) = 293,930, C(20, 12) = 125,970
    for m, n, degree in [(30, 30, 12), (5, 4, 12), (0, 9, 12)]:
        argv = ["char", "--m", str(m), "--n", str(n), "--degree", str(degree)]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: char needs C(m + n + degree, degree) <= {cap}\n")
    for m, n, degree in [(0, 8, 12), (8, 0, 12), (3, 2, 10)]:
        with pytest.raises(Reached, match=re.escape(str((m, n)))):
            main(["char", "--m", str(m), "--n", str(n),
                  "--degree", str(degree)])


def test_main_callable_directly():
    assert main(["verify-algebra", "--m", "0", "--n", "1"]) == 0


def test_char_matches_golden_file():
    import pathlib

    golden = pathlib.Path(__file__).parent / "fixtures" / "char_m1_n1_p2_d3.jsonl"
    code, out, _ = run_cli("char", "--m", "1", "--n", "1", "--p", "2",
                           "--degree", "3")
    assert code == 0
    assert out == golden.read_text()


def test_char_deep_branching_matches_golden_file():
    """Three x letters, so the branching rule recurses two letters deep."""
    golden = Path(__file__).parent / "fixtures" / "char_m3_n2_p2_d6.jsonl"
    code, out, _ = run_cli("char", "--m", "3", "--n", "2", "--p", "2",
                           "--degree", "6")
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("fixture,argv", [
    # odd p: alternating signs of both parities
    ("char_m2_n1_p3_d9.jsonl",
     ("--m", "2", "--n", "1", "--p", "3", "--degree", "9")),
    # no x letters: every x-side skew shape is empty
    ("char_m0_n3_p1_d8.jsonl",
     ("--m", "0", "--n", "3", "--p", "1", "--degree", "8")),
    # four x letters: S_4 orbits of exponent vectors with repeated entries
    ("char_m4_n1_p3_d5.jsonl",
     ("--m", "4", "--n", "1", "--p", "3", "--degree", "5")),
    # no y letters: every weight carries only the -p half of the vacuum shift
    ("char_m3_n0_p2_d7.jsonl",
     ("--m", "3", "--n", "0", "--p", "2", "--degree", "7")),
])
def test_char_edge_orders_match_golden_files(fixture, argv):
    golden = Path(__file__).parent / "fixtures" / fixture
    code, out, _ = run_cli("char", *argv)
    assert code == 0
    assert out == golden.read_text()


def test_dims_matches_golden_file():
    """dims reads super_schur: four x letters spread each decreasing
    exponent vector over its S_4 orbit."""
    golden = Path(__file__).parent / "fixtures" / "dims_m4_n1_l6.jsonl"
    code, out, _ = run_cli("dims", "--m", "4", "--n", "1", "--levels", "6")
    assert code == 0
    assert out == golden.read_text()


def test_char_builds_each_series_once(monkeypatch, capsys):
    """char reads the irreducible character and the Verma product off
    character_formula_report instead of building them a second time; the
    Verma character's Schur sum is the irreducible character at p = degree,
    built once more."""
    from parafock import symfunc

    calls = {}

    def counted(name):
        fn = getattr(symfunc, name)

        def wrapper(*args, **kwargs):
            key = (name,) + args
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(symfunc, name, wrapper)

    counted("irreducible_character")
    counted("weight_series_product")
    assert main(["char", "--m", "2", "--n", "1", "--p", "2",
                 "--degree", "4"]) == 0
    capsys.readouterr()
    assert calls == {("irreducible_character", 2, 1, 2, 4): 1,
                     ("weight_series_product", 2, 1, 4): 1,
                     ("irreducible_character", 2, 1, 4, 4): 1}


def test_verify_id2_matches_golden_file():
    golden = Path(__file__).parent / "fixtures" / "id2_m1_n1_d11_21_p123_l4.jsonl"
    code, out, _ = run_cli("verify-id2", "--m", "1", "--n", "1",
                           "--domains", "1,1;2,1", "--p", "1,2,3",
                           "--levels", "4")
    assert code == 0
    assert out == golden.read_text()


def test_verify_id2_four_domain_selection_matches_golden_file():
    """Auto mode over the two-row domains, where the two tail readings share
    their sweeps on (1,1) and (1,2)."""
    golden = (Path(__file__).parent / "fixtures"
              / "id2_m1_n1_d11_21_12_22_p123_l6.jsonl")
    code, out, _ = run_cli("verify-id2", "--m", "1", "--n", "1",
                           "--domains", "1,1;2,1;1,2;2,2", "--p", "1,2,3",
                           "--levels", "6")
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("domains,variant", [
    pytest.param("1,1;2,1;2,2", "mult:cancel:printed", id="mult:cancel:printed"),
    pytest.param("1,1;2,1;2,2", "argsum:strict:boson", id="argsum:strict:boson"),
    # fails on every domain, so its residual samples pin the fermion-lowering
    # (3,1) and pure-boson (0,3) coefficients of reduced._top_terms
    pytest.param("1,2;3,1;2,2;0,3", "argsum:cancel:boson",
                 id="argsum:cancel:boson"),
])
def test_verify_id2_failing_variant_matches_golden_file(domains, variant):
    """Sample failure residuals and uncancelled-zero counts, as whole stdout."""
    name = ("id2_m1_n1_d" + domains.replace(",", "").replace(";", "_")
            + "_p123_l5_" + variant.replace(":", "_"))
    golden = Path(__file__).parent / "fixtures" / f"{name}.jsonl"
    code, out, _ = run_cli("verify-id2", "--m", "1", "--n", "1",
                           "--domains", domains, "--p", "1,2,3",
                           "--levels", "5", "--variant", variant)
    assert code == 1
    assert out == golden.read_text()


def test_gk_table_negative_squares_match_golden_file():
    """Uncapped top rows wider than p give negative squares, each an error
    record."""
    golden = (Path(__file__).parent / "fixtures"
              / "gk_table_m2_n2_p3_l5_nocap.jsonl")
    code, out, _ = run_cli("gk-table", "--m", "2", "--n", "2", "--p", "3",
                           "--levels", "5", "--no-cap")
    assert code == 1
    assert out == golden.read_text()
    assert "negative squared matrix element" in out


def test_gk_table_uncancelled_zeros_match_golden_file():
    """The strict zero policy leaves zero denominator factors, each an
    error record."""
    golden = (Path(__file__).parent / "fixtures"
              / "gk_table_m1_n2_p2_l4_mult_strict_boson.jsonl")
    code, out, _ = run_cli("gk-table", "--m", "1", "--n", "2", "--p", "2",
                           "--levels", "4", "--variant", "mult:strict:boson")
    assert code == 1
    assert out == golden.read_text()
    assert "zero denominator factor survives pairing" in out


@pytest.mark.parametrize("fixture,argv", [
    ("gram_m2_n2_p1_l4.jsonl",
     ("gram", "--m", "2", "--n", "2", "--p", "1", "--levels", "4")),
    ("matelems_m2_n1_p2_l3.jsonl",
     ("matelems", "--m", "2", "--n", "1", "--p", "2", "--levels", "3")),
    ("gram_m2_n2_p3_l4.jsonl",
     ("gram", "--m", "2", "--n", "2", "--p", "3", "--levels", "4")),
    ("matelems_m2_n2_p2_l4.jsonl",
     ("matelems", "--m", "2", "--n", "2", "--p", "2", "--levels", "4")),
    ("gram_m3_n3_p2_l4.jsonl",
     ("gram", "--m", "3", "--n", "3", "--p", "2", "--levels", "4")),
    ("matelems_m1_n2_p3_l5.jsonl",
     ("matelems", "--m", "1", "--n", "2", "--p", "3", "--levels", "5")),
    # orbits of up to six contents, whose records the orbit walk inherits
    ("gram_m2_n2_p1_l6.jsonl",
     ("gram", "--m", "2", "--n", "2", "--p", "1", "--levels", "6")),
    ("gram_m1_n3_p2_l5.jsonl",
     ("gram", "--m", "1", "--n", "3", "--p", "2", "--levels", "5")),
    ("gram_m3_n1_p3_l5.jsonl",
     ("gram", "--m", "3", "--n", "1", "--p", "3", "--levels", "5")),
    # Gram polynomials of degree up to 5 in p
    ("gram_m3_n3_p2_l5.jsonl",
     ("gram", "--m", "3", "--n", "3", "--p", "2", "--levels", "5")),
    ("matelems_m2_n2_p3_l5.jsonl",
     ("matelems", "--m", "2", "--n", "2", "--p", "3", "--levels", "5")),
    # norms of non-representative contents, no boson index (n = 0), and
    # large radicals at p = 1
    ("matelems_m3_n1_p2_l5.jsonl",
     ("matelems", "--m", "3", "--n", "1", "--p", "2", "--levels", "5")),
    ("matelems_m3_n0_p2_l5.jsonl",
     ("matelems", "--m", "3", "--n", "0", "--p", "2", "--levels", "5")),
    ("matelems_m0_n3_p1_l5.jsonl",
     ("matelems", "--m", "0", "--n", "3", "--p", "1", "--levels", "5")),
    # the two halves of the vacuum shift alone: -p only, then +p only
    ("gram_m3_n0_p2_l5.jsonl",
     ("gram", "--m", "3", "--n", "0", "--p", "2", "--levels", "5")),
    ("gram_m0_n3_p1_l5.jsonl",
     ("gram", "--m", "0", "--n", "3", "--p", "1", "--levels", "5")),
])
def test_gram_oracle_matches_golden_file(fixture, argv):
    """Ranks with radicals (p = 1, 3) and diagonal values, as whole stdout;
    the records pin the block order and the monomial order within a block."""
    golden = Path(__file__).parent / "fixtures" / fixture
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert out == golden.read_text()


def test_gram_many_pair_slots():
    """m + n = 45 gives 990 bracket factor slots; the PBW basis recurses
    only over the slots that hold a factor, so no slot count overflows the
    stack."""
    code, out, err = run_cli("gram", "--m", "23", "--n", "22", "--p", "1",
                             "--levels", "1")
    assert code == 0 and err == ""
    assert len(records(out)) == 49


def test_gram_at_sixty_pairs_keeps_its_output():
    """(60, 60) packs a monomial into 7,260 byte slots; the records of
    level 1 are pinned by the sha256 of stdout."""
    code, out, err = run_cli("gram", "--m", "60", "--n", "60", "--p", "1",
                             "--levels", "1")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "18d536c8498b953be1bbe67a2d907bca8497ba80d1b98849476f49fa1c9decb5")


def test_gram_levels_zero_vacuum_only():
    code, out, _ = run_cli("gram", "--m", "1", "--n", "1", "--p", "2",
                           "--levels", "0")
    assert code == 0
    blocks = [r for r in records(out) if "block_size" in r]
    assert len(blocks) == 1 and blocks[0]["weight"] == [-2, 2]


def test_verify_algebra_m2n2():
    code, out, _ = run_cli("verify-algebra", "--m", "2", "--n", "2")
    assert code == 0
    recs = {r.get("check"): r for r in records(out)}
    assert recs["structure_constants"]["dimension"] == 40


# per command: bounded size options (drawn options may override them) and
# the command's own flags; every command also takes COMMON
COMMANDS = {
    "verify-algebra": ((), ()),
    "char": (("--degree", "3"), ("--degree",)),
    "dims": (("--levels", "2"), ("--levels", "--patterns")),
    "verify-id2": (("--levels", "2"), ("--levels", "--variant", "--domains")),
    "gk-table": (("--levels", "2"), ("--levels", "--variant", "--no-cap")),
    "gram": (("--levels", "2"), ("--levels",)),
    "matelems": (("--levels", "2"), ("--levels",)),
}
COMMON = ("--m", "--n", "--p", "--format", "--bogus")
VALUES = {
    "--m": ("-1", "0", "1", "2", "x", ""),
    "--n": ("-1", "0", "1", "2", "x", ""),
    "--p": ("-1", "0", "1", "3", "1,2", "2,2", "1,x", ""),
    "--levels": ("-1", "0", "1", "2", "13", "x"),
    "--degree": ("-1", "0", "1", "3", "13", "x"),
    "--variant": ("auto", "mult:cancel:boson", "mult:cancel:printed",
                  "mult:strict:boson", "add:cancel:boson", ""),
    "--domains": ("1,1", "1,1;2,1", "0,1", "1,0", "1,2,3", "x", ""),
    "--format": ("json", "csv", "xml"),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    bounded, flags = COMMANDS[command]
    argv = [command, "--m", str(draw(st.integers(0, 2))),
            "--n", str(draw(st.integers(0, 2))), *bounded]
    for flag in draw(st.lists(st.sampled_from(COMMON + flags), max_size=4)):
        argv.append(flag)
        if flag in VALUES:
            argv.append(draw(st.sampled_from(VALUES[flag])))
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(argv=command_lines())
def test_exit_code_contract_holds_for_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert "error:" in err.getvalue(), argv
        assert out.getvalue() == "", argv


def test_one_parser_serves_many_calls(capsys, tmp_path):
    """main reuses one parser; a sequence of calls in one process prints
    what the same calls print as separate runs."""
    from parafock.cli import build_parser

    assert build_parser() is build_parser()
    target = tmp_path / "out.jsonl"
    gram = ("gram", "--m", "1", "--n", "1", "--p", "2", "--levels", "2")
    calls = [gram + ("--format", "csv"), gram,
             gram + ("--out", str(target)), gram,
             gram[:-1] + ("two",),
             ("dims", "--m", "1", "--n", "1", "--p", "-1"), gram]
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        written = target.read_text() if "--out" in argv else None
        assert (code, out, err) == run_cli(*argv), argv
        assert written is None or written == target.read_text()
    assert target.read_text() == run_cli(*gram)[1]
