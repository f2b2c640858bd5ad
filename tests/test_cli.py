"""CLI plumbing: output shapes, exit codes, fault injection."""

import argparse
import json
import os
import subprocess
import sys
import time

import pytest

from skewdna import analysis as an
from skewdna import cli, dna, verify
from skewdna import codes as cd
from skewdna import skewpoly as sp
from skewdna.algebra import parse_element

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


def test_distance_of_the_sixteen_million_word_code(capsys):
    # 2^24 words, at the default cap; walking every word took about 10 s
    for metric in ("lee", "hamming"):
        t0 = time.perf_counter()
        rc, doc = run_json(capsys, ["distance"] + EX1 + ["--metric", metric])
        assert time.perf_counter() - t0 < 1
        assert rc == 0
        assert doc["min_distance"] == 3 and doc["size"] == 16777216


def test_distance_output(capsys):
    rc, doc = run_json(capsys, ["distance"] + EX3)
    assert rc == 0
    assert doc["metric"] == "lee" and doc["min_distance"] == 3
    rc, doc = run_json(capsys, ["distance"] + EX3 + ["--metric", "hamming"])
    assert rc == 0
    assert doc["min_distance"] == 3


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
    monkeypatch.setattr(verify, "run_all",
                        lambda seed=0: [verify.CheckResult("alpha", True, "fine", [], 0.01)])
    rc, doc = run_json(capsys, ["verify-paper"])
    assert rc == 0
    assert doc["all_passed"] is True
    assert doc["results"][0]["name"] == "alpha"


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
    def exhaust(codeset):
        raise MemoryError

    monkeypatch.setattr(dna, "encode_codeset", exhaust)
    rc, out, err = run(capsys, ["dna"] + EX3)
    assert rc == 3
    assert out == ""
    assert err == "skewdna: out of memory; a lower --cap refuses at once\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
