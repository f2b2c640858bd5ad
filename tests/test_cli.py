"""CLI plumbing: output shapes, exit codes, fault injection."""

import argparse
import collections
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from skewdna import analysis as an
from skewdna import cli, dna, verify
from skewdna import codes as cd
from skewdna import skewpoly as sp
from skewdna.algebra import parse_element, r_token

from conftest import divisor_row_chunks, theta

EX3 = ["--n", "6", "--gen", "v(x^4+x^2+1)"]
EX1 = ["--n", "10", "--gen", "x^4+(v+w)*x^2+1"]


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, argv):
    rc, out, _ = run(capsys, argv + ["--format", "structured"])
    return rc, json.loads(out)


def test_table1_text(capsys):
    rc, out, _ = run(capsys, ["table1"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 17  # header + 16 rows
    assert any("w2+v" in ln and "CG" in ln for ln in lines)
    assert lines[1].startswith("0") and lines[1].endswith("AA")


def test_table1_structured(capsys):
    rc, doc = run_json(capsys, ["table1"])
    assert rc == 0
    assert len(doc["rows"]) == 16
    row = doc["rows"][7]
    assert row == {"index": 7, "element": "w2+v", "gray": ["w", "w2"], "dna": "CG"}


def test_divisors_listing(capsys):
    rc, out, _ = run(capsys, ["divisors", "--n", "2", "--degree", "1"])
    assert rc == 0
    assert out.startswith("3 right divisors")
    assert "[1, 1]  (unit)  palindromic, theta-palindromic" in out


def test_divisors_include_reference_polynomials(capsys):
    rc, doc = run_json(capsys, ["divisors", "--n", "10", "--degree", "4"])
    assert rc == 0
    coeffs = [d["coeffs"] for d in doc["divisors"]]
    assert ["1", "0", "w+v", "0", "1"] in coeffs
    hit = next(d for d in doc["divisors"] if d["coeffs"] == ["1", "0", "w+v", "0", "1"])
    assert hit["palindromic"] and not hit["theta_palindromic"]

    rc, doc = run_json(capsys, ["divisors", "--n", "12", "--degree", "3"])
    assert rc == 0
    hit = next(d for d in doc["divisors"] if d["coeffs"] == ["1", "w+v", "w2+v", "1"])
    assert hit["theta_palindromic"] and not hit["palindromic"]


def test_divisors_balanced_case_is_fast(capsys):
    # t = n - t = 5 was 16^5 scalar right divisions; the bit-sliced search
    # makes 16 chunks of 2^16 lanes
    start = time.perf_counter()
    rc, doc = run_json(capsys, ["divisors", "--n", "10", "--degree", "5"])
    assert time.perf_counter() - start < 2.0
    assert rc == 0
    assert len(doc["divisors"]) == 873


def test_divisors_12_6_is_fast(capsys):
    # 16^6 candidates in 256 chunks; the scalar search took about 9 s
    start = time.perf_counter()
    rc, doc = run_json(capsys, ["divisors", "--n", "12", "--degree", "6"])
    assert time.perf_counter() - start < 2.0
    assert rc == 0
    assert len(doc["divisors"]) == 7735


def _divisors_in_subprocess(n, degree):
    """The number of divisors that a fresh process lists, and its peak
    resident memory in KiB."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    argv = [sys.executable, "-m", "skewdna", "divisors", "--n", str(n),
            "--degree", str(degree), "--format", "structured"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=src)) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return len(json.loads(out)["divisors"]), usage.ru_maxrss


def test_divisor_search_memory_does_not_grow_with_n():
    # the search keeps t + 1 remainder coefficients, not n + 1
    found, rss = _divisors_in_subprocess(2048, 4)
    assert found == 205
    assert rss <= _divisors_in_subprocess(12, 4)[1] + 10 * 1024


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "skewdna", "table1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 17


@pytest.mark.parametrize("argv,code", [
    (["table1"], 0),
    (["check"] + EX3 + ["--property", "complement", "--assert"], 1),
    (["dna"] + EX3 + ["--format", "structured"], 0),
])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # the reader is gone before the child writes: no traceback, and the
    # command's own exit code
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "skewdna"] + argv, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")


DNA_2_20 = ["dna", "--n", "10", "--gen", "x^5+1", "--cap", "1048576"]
DNA_2_12 = ["dna", "--n", "10", "--gen", "x^7 + w*x^6 + x^5 + x^2 + w*x + 1"]
DNA_FORMATS = ([], ["--fasta"], ["--format", "structured"])


def _dna_in_subprocess(argv, lines=None):
    """Wall seconds, exit code, stderr, peak resident memory in KiB and the
    bytes read of a fresh `dna` process; after `lines` lines the reader
    closes, else it reads everything in 64 KiB pieces and discards them."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    start, read = time.perf_counter(), 0
    with subprocess.Popen([sys.executable, "-m", "skewdna"] + argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src)) as proc:
        if lines is None:
            while piece := proc.stdout.read(1 << 16):
                read += len(piece)
        else:
            read = sum(len(proc.stdout.readline()) for _ in range(lines))
        proc.stdout.close()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, proc.returncode, err, usage.ru_maxrss, read


@pytest.mark.parametrize("form", DNA_FORMATS, ids=("text", "fasta", "structured"))
def test_dna_memory_does_not_grow_with_the_code(form):
    # the strings are written a chunk of 4,096 at a time, never held whole:
    # 2^20 words peaked at 104 MB when the output was one list
    _, rc, err, rss, read = _dna_in_subprocess(DNA_2_20 + form)
    assert (rc, err) == (0, b"")
    assert read >= 21 << 20  # 2^20 lines of 20 letters, or more with headers or quotes
    _, rc, _, small_rss, _ = _dna_in_subprocess(DNA_2_12 + form)
    assert rc == 0
    assert rss <= small_rss + 10 * 1024


@pytest.mark.parametrize("form", DNA_FORMATS, ids=("text", "fasta", "structured"))
def test_closed_reader_mid_stream_ends_the_run_early(form):
    # the reader leaves after the first line of 2^20 words: no traceback, exit
    # 0, and as dna writes while it computes, the run ends about as soon as a
    # 16-word one, well before writing every word would
    closed = min(_dna_in_subprocess(DNA_2_20 + form, lines=1) for _ in range(3))
    assert closed[1:3] == (0, b"") and closed[4] > 0
    start = min(_dna_in_subprocess(["dna"] + EX3 + form)[0] for _ in range(3))
    full = min(_dna_in_subprocess(DNA_2_20 + form)[0] for _ in range(3))
    assert closed[0] - start < (full - start) / 2


def test_divisors_budget_exit(capsys):
    # 16^10 candidates on either side of x^20 - 1 = h * g
    rc, _, err = run(capsys, ["divisors", "--n", "20", "--degree", "10"])
    assert rc == 3
    assert "budget" in err


@pytest.mark.parametrize("n,t,count", [(21, 10, 60), (15, 7, 75)])
def test_odd_length_unit_divisors_search_gf4(capsys, n, t, count):
    # 16^10 and 16^7 candidates over R, but at odd n every unit divisor
    # lies over GF(4), so the search tries 4^10 and 4^7
    rc, doc = run_json(capsys, ["divisors", "--n", str(n), "--degree", str(t)])
    assert rc == 0
    gens = [sp.normalize(parse_element(c) for c in d["coeffs"]) for d in doc["divisors"]]
    assert len(gens) == count
    assert all(len(g) == t + 1 and g[-1] == 1 and max(g) < 4 for g in gens)
    assert all(sp.right_divides(g, sp.x_pow_minus_one(n)) for g in gens)


def test_divisors_search_the_shorter_cofactor(capsys):
    # 16^9 divisor candidates, but only 16^3 cofactors of degree 3
    rc, doc = run_json(capsys, ["divisors", "--n", "12", "--degree", "9"])
    assert rc == 0
    gens = [sp.normalize(parse_element(c) for c in d["coeffs"]) for d in doc["divisors"]]
    assert gens and all(len(g) == 10 and g[-1] == 1 for g in gens)
    assert all(sp.right_divides(g, sp.x_pow_minus_one(12)) for g in gens)


def test_divisors_long_side_of_every_shape(capsys):
    # degree 28 of 30: 16^2 short-side candidates over R and 4^2 over
    # GF(4), where the GF(4) shapes once tried 4^28
    rc, doc = run_json(capsys, ["divisors", "--n", "30", "--degree", "28", "--leading", "any"])
    assert rc == 0
    shapes = [d["leading"] for d in doc["divisors"]]
    assert [shapes.count(s) for s in ("unit", "v", "v1")] == [108, 12, 12]
    xn1 = sp.x_pow_minus_one(30)
    for d, shape in zip(doc["divisors"], shapes):
        g = sp.normalize(parse_element(c) for c in d["coeffs"])
        g1 = g if shape == "unit" else tuple((c & 3) | (c >> 2) for c in g)  # strip v, v+1
        assert len(g) == 29 and sp.right_divides(g1, xn1)
        assert cd.classify_generator(30, g) == shape


def test_build_report(capsys):
    rc, doc = run_json(capsys, ["build"] + EX3)
    assert rc == 0
    assert doc["size"] == 16 and doc["log2_size"] == 4
    assert doc["leading_form"] == "v"
    assert doc["palindromic"] is True
    assert doc["predicted_reversible"] == "yes"
    assert doc["predicted_reverse_complement"] == "no"


@pytest.mark.parametrize("n, gen, form", [
    (10, "x^4+(v+w)*x^2+1", "unit"), (6, "v(x^4+x^2+1)", "v"),
    (6, "(1+v)(x^4+x^2+1)", "v1"), (4, "x + v", "other"),
])
def test_build_reports_the_leading_form(capsys, n, gen, form):
    rc, doc = run_json(capsys, ["build", "--n", str(n), "--gen", gen])
    assert rc == 0 and doc["leading_form"] == form


def test_build_prints_the_generator_reduced_mod_x_n_minus_1(capsys):
    # x^6 + x^4 + x^2 + 1 is palindromic, but at n = 3 it leaves the
    # remainder x^2 + x, which generates the code and carries the flags
    argv = ["build", "--n", "3", "--gen", "x^6+x^4+x^2+1"]
    rc, doc = run_json(capsys, argv)
    assert rc == 0
    assert doc["generator"] == ["0", "1", "1"]
    assert doc["polynomial"] == "x^2 + x"
    assert doc["palindromic"] is False
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert "generator:         [0, 1, 1] = x^2 + x" in out
    assert "palindromic:       no" in out


def test_check_dna_and_distance_print_the_generator_reduced_mod_x_n_minus_1(capsys):
    # x^4 is 1 modulo x^4 - 1, and x^2 + v is 1 + v modulo x^2 - 1
    argv = ["check", "--n", "4", "--gen", "x^4", "--property", "complement"]
    rc, doc = run_json(capsys, argv)
    assert (rc, doc["generator"], doc["holds"], doc["size"]) == (0, ["1"], True, 1 << 16)
    rc, out, _ = run(capsys, argv)
    assert (rc, out) == (0, "complement holds for <1> at length 4\n")
    for command in ("dna", "distance"):
        rc, doc = run_json(capsys, [command, "--n", "2", "--gen", "x^2+v"])
        assert (rc, doc["generator"], doc["size"]) == (0, ["1+v"], 16)


def test_build_large_code_without_materializing(capsys):
    rc, doc = run_json(capsys, ["build"] + EX1)
    assert rc == 0
    assert doc["log2_size"] == 24


def test_check_assert_exit_codes(capsys):
    rc, out, _ = run(capsys, ["check"] + EX3 + ["--property", "reversible", "--assert"])
    assert rc == 0 and "holds" in out
    rc, out, _ = run(capsys, ["check"] + EX3 + ["--property", "reverse-complement", "--assert"])
    assert rc == 1 and "fails" in out
    # without --assert a failed property still exits 0: it is a report
    rc, out, _ = run(capsys, ["check"] + EX3 + ["--property", "reverse-complement"])
    assert rc == 0 and "fails" in out


def test_coefficient_list_generator_matches_polynomial_text(capsys):
    as_list = ["--n", "10", "--gen", "[1, 0, w+v, 0, 1]"]
    for argv in (["build"], ["check", "--property", "reversible"]):
        rc_list, doc_list = run_json(capsys, argv + as_list)
        rc_text, doc_text = run_json(capsys, argv + EX1)
        assert rc_list == rc_text == 0
        assert doc_list == doc_text


def test_check_at_the_default_cap_decides_on_the_basis(capsys):
    # a v-shaped code of exactly 2^24 words: decided without enumerating it
    argv = ["check", "--n", "14", "--gen", "v*x^2+v", "--property", "reversible"]
    t0 = time.perf_counter()
    rc, doc = run_json(capsys, argv)
    assert time.perf_counter() - t0 < 5
    assert rc == 0
    assert doc["holds"] is True and doc["size"] == 1 << 24


def test_check_quasi_cyclic(capsys):
    rc, doc = run_json(capsys, ["check"] + EX3 + ["--property", "quasi-cyclic"])
    assert rc == 0
    assert doc["holds"] is True


def test_check_decides_every_property_at_any_size(capsys):
    # Expected verdicts, fixed independently of the decisions under test.
    # v(x^4+x^2+1) at n = 402 has 2^796 words: reversible (even n and degree,
    # palindromic generator), no all-ones word (every word is a v-multiple,
    # the code being v times a GF(4) code of 4^398 words), and quasi-cyclic
    # like every skew cyclic code.  EX1, the paper's unit-form example, holds
    # all four; a right remainder confirms its reversibility and all-ones word.
    ex1 = cd.code_from_generator(10, sp.parse_poly(EX1[3]))
    assert dna.reversible_by_remainder(ex1) and cd.remainder_membership(ex1, (1,) * 10)
    props = ("reversible", "complement", "reverse-complement", "quasi-cyclic")
    cases = ((["--n", "402", "--gen", "v*x^4+v*x^2+v"], 796, (True, False, False, True)),
             (EX1, 24, (True, True, True, True)))
    for argv, log2_size, verdicts in cases:
        for prop, holds in zip(props, verdicts):
            rc, doc = run_json(capsys, ["check"] + argv + ["--property", prop, "--assert"])
            assert rc == (0 if holds else 1)
            assert doc["holds"] is holds
            assert doc["size"] == 1 << log2_size
            assert "via" not in doc


def test_hostile_power_exits_2_at_once(capsys):
    t0 = time.perf_counter()
    rc, _, err = run(capsys, ["build", "--n", "6", "--gen", "x^100000000+1"])
    assert time.perf_counter() - t0 < 1
    assert rc == 2
    assert "limit" in err


def test_long_coefficient_list_exits_2_at_once(capsys):
    # 20,001 coefficients: degree 20,000, refused like x^20000 before any work
    gen = "[" + ", ".join(["1"] * 20001) + "]"
    t0 = time.perf_counter()
    rc, out, err = run(capsys, ["build", "--n", str(sp.MAX_PARSE_DEGREE), "--gen", gen])
    assert time.perf_counter() - t0 < 1
    assert (rc, out) == (2, "")
    assert err == f"skewdna: degree 20000 exceeds the parser's limit of {sp.MAX_PARSE_DEGREE}\n"


def test_hostile_length_exits_2_at_once(capsys):
    for argv in (["build", "--n", "100000", "--gen", "x+1"],
                 ["divisors", "--n", "100000000", "--degree", "1"]):
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert time.perf_counter() - t0 < 1
        assert exc.value.code == 2
        assert f"outside 1..{sp.MAX_PARSE_DEGREE}" in capsys.readouterr().err


def test_deep_nesting_exits_2_at_once(capsys):
    for depth in (250, 100_000):
        gen = "(" * depth + "x+1" + ")" * depth
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["check", "--n", "6", "--gen", gen, "--property", "reversible"])
        assert time.perf_counter() - t0 < 1
        assert (rc, out) == (2, "")
        assert f"nested deeper than {sp.MAX_PARSE_NESTING}" in err
        assert "Traceback" not in err


def test_every_admitted_size_prints(capsys):
    # the longest admitted length builds, decides and prints in bounded time
    n = sp.MAX_PARSE_DEGREE
    gen = ["--n", str(n), "--gen", "x+1"]
    t0 = time.perf_counter()
    rc, doc = run_json(capsys, ["build"] + gen)
    assert rc == 0 and doc["log2_size"] == 4 * (n - 1) == 8188
    rc, doc = run_json(capsys, ["check"] + gen + ["--property", "reverse-complement"])
    assert rc == 0 and doc["size"] == 1 << 8188
    assert time.perf_counter() - t0 < 10
    # the largest code at that length holds all 16^n words; its size must
    # print in both formats (text prints str(size))
    size = 1 << (4 * n)
    cli._emit(argparse.Namespace(format="structured"), {"size": size}, [str(size)])
    assert json.loads(capsys.readouterr().out)["size"] == size
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["build", "--n", str(n + 1), "--gen", "x+1"])
    assert exc.value.code == 2


def test_quasi_cyclic_at_the_longest_length(capsys):
    argv = ["check", "--n", str(sp.MAX_PARSE_DEGREE), "--gen", "x+1",
            "--property", "quasi-cyclic"]
    t0 = time.perf_counter()
    rc, doc = run_json(capsys, argv)
    assert time.perf_counter() - t0 < 10
    assert rc == 0 and doc["holds"] is True


def test_cap_only_where_it_is_read(capsys):
    for argv, cap in ((["build"] + EX3, "3"),
                      (["check"] + EX3 + ["--property", "complement"], "15")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--cap", cap])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --cap {cap}" in capsys.readouterr().err
    # the two that walk every word read it: the 16-word code fits a cap of
    # 16, not of 15
    for argv in (["dna"] + EX3, ["distance"] + EX3):
        assert run(capsys, argv + ["--cap", "16"])[0] == 0
        assert run(capsys, argv + ["--cap", "15"])[0] == 3


@pytest.mark.parametrize("argv", (["divisors", "--n", "4", "--degree", "2"],
                                  ["dna"] + EX3, ["distance"] + EX3),
                         ids=("divisors", "dna", "distance"))
def test_negative_cap_exits_2(capsys, argv):
    # a cap below 0 is bad input, not a refusal; a cap of 0 refuses
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--cap", "-1"])
    assert exc.value.code == 2
    assert "cap -1 is below 0" in capsys.readouterr().err
    rc, _, err = run(capsys, argv + ["--cap", "0"])
    assert rc == 3 and err.startswith("skewdna: ")


def test_build_predictions_can_disagree_with_check(capsys):
    # build follows the paper's rules, refuted ones included; check decides
    gen = ["--n", "3", "--gen", "v*x^2+v*x+v"]
    rc, doc = run_json(capsys, ["build"] + gen)
    assert rc == 0
    assert doc["leading_form"] == "v" and doc["size"] == 16
    assert doc["predicted_reversible"] == "no"
    assert doc["predicted_reverse_complement"] == "no"
    for prop in ("reversible", "reverse-complement"):
        rc, doc = run_json(capsys, ["check"] + gen + ["--property", prop, "--assert"])
        assert rc == 0 and doc["holds"] is True


def test_parse_error_exit(capsys):
    rc, _, err = run(capsys, ["check", "--n", "6", "--gen", "v(x^4+", "--property", "reversible"])
    assert rc == 2
    assert "skewdna:" in err


def test_parse_error_names_the_token_found(capsys):
    for gen, message in (("x++1", "expected a term, found '+'"), ("x^٣", "bad exponent '٣'"),
                         ("x^" + "0" * 4400 + "1", "exponent of 4401 digits is too long")):
        rc, out, err = run(capsys, ["build", "--n", "6", "--gen", gen])
        assert (rc, out) == (2, "")
        assert message in err and "set_int_max_str_digits" not in err


def test_cap_exit(capsys):
    rc, _, err = run(capsys, ["dna"] + EX1 + ["--cap", "65536"])
    assert rc == 3
    assert "cap" in err


def test_dna_output_matches_reference(capsys, reference_dna_strings):
    rc, out, _ = run(capsys, ["dna"] + EX3)
    assert rc == 0
    assert out.strip().splitlines() == sorted(reference_dna_strings)


def test_dna_fasta(capsys):
    rc, out, _ = run(capsys, ["dna"] + EX3 + ["--fasta"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 32
    assert lines[0] == ">w0" and lines[2] == ">w1"
    assert lines[1] == "AAAAAAAAAAAA"


@pytest.mark.parametrize("gen", (EX3, ["--n", "3", "--gen", "x+1"], [
    "--n", "10", "--gen", "x^6 + v*x^5 + (w+v)*x^4 + v*x^3 + (w+v)*x^2 + 1"]),
    ids=("16", "256", "65536"))
def test_dna_output_is_byte_identical_to_json_dumps_and_print(capsys, gen):
    # the oracle: json.dumps of the document with its strings listed by
    # encode_codeset, and one print per line of text
    _, doc, _ = cli._cmd_dna(cli.build_parser().parse_args(["dna"] + gen))
    strings = dna.encode_codeset(cd.materialize(cd.code_from_generator(
        int(gen[1]), sp.parse_poly(gen[3]))))
    assert doc["size"] == len(strings) == 1 << {"6": 4, "3": 8, "10": 16}[gen[1]]
    doc["strings"] = strings
    rc, out, _ = run(capsys, ["dna"] + gen + ["--format", "structured"])
    assert (rc, out) == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for fasta in ([], ["--fasta"]):
        for i, line in enumerate(strings):
            if fasta:
                print(f">w{i}")
            print(line)
        printed = capsys.readouterr().out
        assert printed.count("\n") == len(strings) * (2 if fasta else 1)
        assert run(capsys, ["dna"] + gen + fasta) == (0, printed, "")


# characters json.dumps escapes, lone surrogates among them, for the writer oracle
ESCAPED = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "\ud800", "\udfff",
           "\U0001f600"]
JSON_STRINGS = st.text() | st.lists(st.sampled_from(
    ESCAPED + ["A", "CG", "w2*v", " ", "~"])).map("".join)
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(-(1 << 200), 1 << 200) | st.floats()
                | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300]))
JSON_VALUES = st.recursive(
    JSON_SCALARS | JSON_STRINGS,
    lambda kids: st.lists(kids, max_size=6) | st.lists(JSON_STRINGS, max_size=6)
    | st.dictionaries(JSON_STRINGS, kids, max_size=5),
    max_leaves=30)


JSON_DOCS = st.dictionaries(JSON_STRINGS, JSON_VALUES, max_size=6)


def _streamed(value):
    """value's JSON, as _emit writes a top-level value, yielded a line at a time"""
    text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
    yield from text.splitlines(keepends=True)


@given(JSON_DOCS, st.sampled_from((None, 0, 0.5, 1)))
@example({}, None)
@example({"a": [], "b": {}, "c": [[], {}]}, None)
@example({"a": [], "b": {}, "c": [[], {}]}, 0.5)
@example({"scalars": [True, 1, False, 0, None, 1.0, -0.0, "1"]}, None)
@example({c: [["ACGT", c + "T"] for c in ESCAPED] for c in ESCAPED}, 1)  # escaped keys too
@example({"size": 8194, "strings": ["AC", "GT"] * 4097}, 1)
@example({"nan": float("nan"), "inf": [float("inf"), float("-inf")], "int": 1 << 200}, 0)
def test_json_writer_matches_json_dumps(doc, stream_at):
    # the document with one value, the one at the first, middle or last
    # sorted key, handed to _emit as a stream of its JSON instead
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if doc and stream_at is not None:
        keys = sorted(doc)
        key = keys[int(stream_at * (len(keys) - 1))]
        doc = {**doc, key: _streamed(doc[key])}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit(argparse.Namespace(format="structured"), doc, [])
    assert out.getvalue() == expected


def _stubbed_run_all(seed=0):
    return [verify.CheckResult("alpha", True, "fine", [], 0.01),
            verify.CheckResult("beta", False, "broke", ["case 1", 'a "quoted" σ ≠ θ(σ)'], 0.5)]


DIVISORS = {  # an empty list, 7,735 rows (two chunks), the quotient side, v and v1 at odd n
    "divisors-unit": ["divisors", "--n", "10", "--degree", "4"],
    "divisors-any": ["divisors", "--n", "12", "--degree", "3", "--leading", "any"],
    "divisors-empty": ["divisors", "--n", "7", "--degree", "2"],
    "divisors-7735-rows": ["divisors", "--n", "12", "--degree", "6"],
    "divisors-quotients-any": ["divisors", "--n", "12", "--degree", "9", "--leading", "any"],
    "divisors-v-odd-n": ["divisors", "--n", "9", "--degree", "3", "--leading", "v"],
    "divisors-v1-odd-n": ["divisors", "--n", "9", "--degree", "3", "--leading", "v1"],
}


def _divisor_rows(argv):
    """The rows divisors writes for argv, as dicts, from the search and the predicates."""
    args = cli.build_parser().parse_args(argv)
    shapes = ("unit", "v", "v1") if args.leading == "any" else (args.leading,)
    return [{"coeffs": [r_token(c) for c in g], "leading": shape,
             "palindromic": sp.is_palindromic(g), "theta_palindromic": sp.is_theta_palindromic(g)}
            for shape in shapes for g in cd.enumerate_right_divisors(args.n, args.degree, shape)]


@pytest.mark.parametrize("argv", (
    ["table1"],
    ["build"] + EX3,
    ["build"] + EX1,
    ["check"] + EX3 + ["--property", "reversible"],
    ["check"] + EX3 + ["--property", "reverse-complement", "--assert"],
    ["distance"] + EX3,
    ["distance"] + EX3 + ["--metric", "hamming"],
    ["verify-paper"],
    *DIVISORS.values(),
), ids=("table1", "build-16-words", "build-2^24-words", "check-holds", "check-assert-fails",
        "distance-lee", "distance-hamming", "verify-paper-stubbed", *DIVISORS))
def test_structured_output_is_byte_identical_to_json_dumps(capsys, monkeypatch, argv):
    # divisors streams its list; the oracle lists the rows as dicts
    monkeypatch.setattr(verify, "run_all", _stubbed_run_all)
    argv = argv + ["--format", "structured"]
    args = cli.build_parser().parse_args(argv)
    code, doc, _ = args.run(args)
    if argv[0] == "divisors":
        doc["divisors"] = _divisor_rows(argv)
    assert run(capsys, argv) == (code, json.dumps(doc, indent=2, sort_keys=True) + "\n", "")


@pytest.mark.parametrize("argv", DIVISORS.values(), ids=DIVISORS)
def test_divisors_text_is_one_print_per_row(capsys, argv):
    rows = _divisor_rows(argv)
    print(f"{len(rows)} right divisors of x^{argv[2]} - 1, degree {argv[4]}, "
          f"leading {argv[6] if len(argv) > 5 else 'unit'}")
    for row in rows:
        flags = [name.replace("_", "-") for name in ("palindromic", "theta_palindromic")
                 if row[name]]
        print(f"[{', '.join(row['coeffs'])}]  ({row['leading']})  {', '.join(flags) or '-'}")
    printed = capsys.readouterr().out
    assert printed.count("\n") == len(rows) + 1
    assert run(capsys, argv) == (0, printed, "")


def test_divisors_decide_the_flags_a_block_at_a_time(capsys, monkeypatch):
    # a work guard: 7,735 rows are two blocks of the column builder in each
    # format, and no row calls a palindrome predicate
    calls, rows = collections.Counter(), cli._divisor_rows

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    def counted_blocks(*args):
        for block in rows(*args):
            calls["blocks"] += 1
            yield block

    for name in ("is_palindromic", "is_theta_palindromic"):
        monkeypatch.setattr(sp, name, counted(name, getattr(sp, name)))
    monkeypatch.setattr(cli, "_divisor_rows", counted_blocks)
    for form in ("text", "structured"):
        calls.clear()
        assert run(capsys, ["divisors", "--n", "12", "--degree", "6", "--format", form])[0] == 0
        assert calls == {"blocks": 2}, form


@st.composite
def _equal_width_rows(draw):
    """Rows of one width over all 16 elements, not only divisors: each one
    arbitrary, palindromic, theta-palindromic or both, with equal odds."""
    w = draw(st.integers(2, 12))
    m = draw(st.sampled_from((1, 4096, 4097)) | st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(m):
        kind = rng.randrange(4)  # 1 palindromic, 2 theta-palindromic, 3 both
        g = [rng.randrange(4 if kind == 3 else 16) for _ in range(w)]  # theta fixes GF(4)
        if kind == 2 and w % 2:
            g[w // 2] &= 3
        for j in range(w // 2 if kind else 0):
            g[w - 1 - j] = theta(g[j]) if kind == 2 else g[j]
        rows.append(tuple(g))
    return rows


@given(_equal_width_rows(), st.sampled_from((cd.FORM_UNIT, cd.FORM_V, cd.FORM_V1)),
       st.booleans())
@example([(1, 4, 1)], cd.FORM_UNIT, False)  # palindromic only
@example([(4, 2, 5)], cd.FORM_V, True)  # theta-palindromic only
@example([(1, 2, 1)], cd.FORM_V1, False)  # both
@example([(1, 2, 3)], cd.FORM_UNIT, True)  # neither
@example([(1, 4, 1), (4, 2, 5), (1, 2, 1), (1, 2, 3)], cd.FORM_V1, True)  # all four in one block
def test_divisor_blocks_match_the_row_formula(rows, shape, structured):
    tables, glue = (cli._JSON_ROWS, "," + cli._ROW) if structured else (cli._TEXT_ROWS, "\n")
    found = [(shape, rows)]
    assert (list(cli._divisor_rows(found, tables, glue))
            == divisor_row_chunks(found, structured, cli._LINES_PER_WRITE))


def test_one_parser_serves_every_call_in_a_process(capsys):
    # each call answers as through a fresh build_parser(), whatever came before
    def call(argv):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
        out = capsys.readouterr()
        return rc, out.out, out.err

    calls = [
        ["dna"] + EX3 + ["--fasta"], ["dna"] + EX3,
        ["check"] + EX3 + ["--property", "reverse-complement", "--assert"],
        ["check"] + EX3 + ["--property", "reverse-complement"],
        ["divisors", "--n", "10", "--degree", "4", "--leading", "any"],
        ["divisors", "--n", "10", "--degree", "4"],
        ["build", "--n", "6", "--format", "structured"], ["build"] + EX3,
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert [rc for rc, _, _ in fresh] == [0, 0, 1, 0, 0, 0, 2, 0]
    cli._parser.cache_clear()
    assert [call(argv) for argv in calls] == fresh
    assert cli._parser.cache_info().misses == 1


def test_empty_text_prints_nothing(capsys):
    cli._emit(argparse.Namespace(format="text"), {}, [])
    assert capsys.readouterr().out == ""


def test_distance_of_the_sixteen_million_word_code(capsys):
    # 2^24 words, at the default cap; walking every word took about 10 s
    for metric in ("lee", "hamming"):
        t0 = time.perf_counter()
        rc, doc = run_json(capsys, ["distance"] + EX1 + ["--metric", metric])
        assert time.perf_counter() - t0 < 1
        assert rc == 0
        assert doc["min_distance"] == 3 and doc["size"] == 16777216


def test_distance_of_the_whole_space_stops_at_weight_1(capsys):
    # all 16^12 words: vC has 2^24, and the walk meets weight 1 at step 359
    t0 = time.perf_counter()
    rc, doc = run_json(capsys, ["distance", "--n", "12", "--gen", "x^4+(v+w)*x^2+1",
                                "--cap", "281474976710656"])
    assert time.perf_counter() - t0 < 1
    assert (rc, doc["min_distance"], doc["size"]) == (0, 1, 1 << 48)


def test_distance_output(capsys):
    rc, doc = run_json(capsys, ["distance"] + EX3)
    assert rc == 0
    assert doc["metric"] == "lee" and doc["min_distance"] == 3
    rc, doc = run_json(capsys, ["distance"] + EX3 + ["--metric", "hamming"])
    assert rc == 0
    assert doc["min_distance"] == 3


def test_distance_refuses_an_unknown_metric(capsys):
    # argparse is the only check on the metric: the library takes none
    with pytest.raises(SystemExit) as exc:
        cli.main(["distance"] + EX3 + ["--metric", "euclidean"])
    assert exc.value.code == 2
    assert "invalid choice: 'euclidean'" in capsys.readouterr().err


def test_verify_command_formatting(capsys, monkeypatch):
    # stub the suite: one passing, one failing check
    def fake_run_all(seed=0):
        return [
            verify.CheckResult("alpha", True, "fine", [], 0.01),
            verify.CheckResult("beta", False, "broke", ["case 1"], 0.02),
        ]

    monkeypatch.setattr(verify, "run_all", fake_run_all)
    rc, out, _ = run(capsys, ["verify-paper"])
    assert rc == 1
    assert "ok" in out and "FAIL" in out
    assert "failing checks: beta" in out
    assert "case 1" in out
    assert "1 of 2 checks passed" in out


def test_verify_command_structured(capsys, monkeypatch):
    seeds = []
    monkeypatch.setattr(verify, "run_all", lambda seed=0: seeds.append(seed) or [
        verify.CheckResult("alpha", True, "fine", [], 0.01)])
    rc, doc = run_json(capsys, ["verify-paper"])
    assert rc == 0
    assert doc["all_passed"] is True
    assert doc["results"][0]["name"] == "alpha"
    # without --seed the suite runs, and reports, its default seed
    assert doc["seed"] == seeds[-1] == verify.DEFAULT_SEED == 20902
    rc, doc = run_json(capsys, ["verify-paper", "--seed", "7"])
    assert doc["seed"] == seeds[-1] == 7


def test_verify_structured_seconds_are_unrounded(capsys):
    # rounded to milliseconds, the table checks would read 0.0
    rc, doc = run_json(capsys, ["verify-paper"])
    assert rc == 1 and len(doc["results"]) == 12
    assert all(r["seconds"] > 0 for r in doc["results"]), doc["results"]


def test_fault_injection_is_caught_and_named(capsys, monkeypatch):
    # corrupt one entry of the element-to-block table; the table check must
    # fail by name, end to end through the CLI
    bad = list(dna._BLOCK_OF_R)
    bad[4], bad[5] = bad[5], bad[4]
    monkeypatch.setattr(dna, "_BLOCK_OF_R", tuple(bad))
    monkeypatch.setattr(verify, "ALL_CHECKS", (verify.check_element_dna_table,))
    rc, out, _ = run(capsys, ["verify-paper"])
    assert rc == 1
    assert "failing checks: element-dna-table" in out
    assert "element 4" in out


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def exhaust(codeset, sep):
        raise MemoryError

    monkeypatch.setattr(dna, "encoded_chunks", exhaust)
    rc, out, err = run(capsys, ["dna"] + EX3)
    assert rc == 3
    assert out == ""
    assert err == "skewdna: out of memory; a lower --cap refuses at once\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
