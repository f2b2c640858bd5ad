"""Code construction: span engine, membership, enumeration, serialization."""

import random

import pytest

from skewdna import codes as cd
from skewdna import skewpoly as sp
from skewdna.algebra import theta

EX3 = sp.parse_poly("v(x^4+x^2+1)")


@pytest.mark.parametrize("n,gens", [
    (2, [(1, 1)]),
    (2, [(6, 1)]),
    (3, [(1, 1)]),
    (3, [(4, 4)]),                 # v(x+1): reduces to more than its shifts
    (4, [sp.parse_poly("v(x+1)^3")]),
    (6, [EX3]),
    (3, [(4, 4), (1, 1, 1)]),      # two generators
])
def test_span_engine_matches_naive_closure(n, gens, naive_closure):
    code = cd.code_from_generators(n, gens)
    assert cd.materialize(code).words == naive_closure(n, gens)


@pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (6, 4), (6, 5)])
def test_unit_generator_code_size_law(n, t):
    # a unit-monic right divisor of degree t spans 16^(n-t) words
    for g in cd.enumerate_right_divisors(n, t)[:2]:
        assert cd.materialize(cd.code_from_generator(n, g)).size == 16 ** (n - t)


def test_skew_shift_definition():
    w = (1, 4, 3)
    assert cd.skew_shift(w) == (theta(3), theta(1), theta(4))


def test_codes_are_closed_under_skew_shift(sixteen_word_code):
    for w in sixteen_word_code.words:
        assert cd.skew_shift(w) in sixteen_word_code.words


def test_odd_length_codes_are_closed_under_plain_shift():
    for t in (1, 2):
        for g in cd.enumerate_right_divisors(3, t):
            cs = cd.materialize(cd.code_from_generator(3, g))
            for w in cs.words:
                assert (w[-1],) + w[:-1] in cs.words


def test_membership_matches_remainder_exhaustively():
    # every length-3 word, against both membership paths
    words = [(a, b, c) for a in range(16) for b in range(16) for c in range(16)]
    for t in (1, 2):
        for g in cd.enumerate_right_divisors(3, t):
            code = cd.code_from_generator(3, g)
            cs = cd.materialize(code)
            for w in words:
                assert cd.membership(cs, w) == cd.remainder_membership(code, w)


def test_membership_matches_remainder_sampled():
    rng = random.Random(7)
    g = cd.enumerate_right_divisors(6, 3)[0]
    code = cd.code_from_generator(6, g)
    cs = cd.materialize(code)
    for _ in range(10_000):
        w = tuple(rng.randrange(16) for _ in range(6))
        assert cd.membership(cs, w) == cd.remainder_membership(code, w)
    for w in list(cs.words)[:500]:
        assert cd.remainder_membership(code, w)


def test_code_sizes_are_powers_of_two(sixteen_word_code):
    assert sixteen_word_code.size == 16
    assert len(cd.code_basis(sixteen_word_code.code)) == 4


def test_dimension_without_materializing():
    g = sp.parse_poly("x^4 + (v+w)*x^2 + 1")
    assert len(cd.code_basis(cd.code_from_generator(10, g))) == 24  # 16^6 words


def test_enumerate_counts_are_frozen():
    assert [len(cd.enumerate_right_divisors(6, t)) for t in range(1, 6)] == [9, 54, 93, 54, 9]
    assert len(cd.enumerate_right_divisors(4, 2)) == 13
    assert len(cd.enumerate_right_divisors(5, 3)) == 2
    assert len(cd.enumerate_right_divisors(5, 4)) == 1
    assert [len(cd.enumerate_right_divisors(6, t, leading=cd.FORM_V)) for t in range(1, 6)] \
        == [3, 6, 7, 6, 3]
    assert len(cd.enumerate_right_divisors(6, 4, leading=cd.FORM_V1)) == 6


def test_enumerate_smallest_case_exactly():
    assert cd.enumerate_right_divisors(2, 1) == [(1, 1), (6, 1), (7, 1)]


def test_enumerate_is_sorted_and_deterministic():
    for shape in (cd.FORM_UNIT, cd.FORM_V):
        out = cd.enumerate_right_divisors(6, 2, leading=shape)
        assert out == sorted(out)
        assert out == cd.enumerate_right_divisors(6, 2, leading=shape)


def test_enumerate_includes_reference_divisors():
    assert (1, 0, 6, 0, 1) in cd.enumerate_right_divisors(10, 4)
    assert (1, 6, 7, 1) in cd.enumerate_right_divisors(12, 3)
    assert tuple(EX3) in cd.enumerate_right_divisors(6, 4, leading=cd.FORM_V)


def test_enumerate_budget():
    with pytest.raises(cd.SizeCapExceeded):
        cd.enumerate_right_divisors(12, 9)
    with pytest.raises(cd.SizeCapExceeded):
        cd.enumerate_right_divisors(6, 2, budget=10)


def test_classify_generator_forms():
    assert cd.classify_generator(2, (1, 1)) == cd.FORM_UNIT
    assert cd.classify_generator(3, (4, 4)) == cd.FORM_V
    assert cd.classify_generator(3, (5, 5)) == cd.FORM_V1
    assert cd.classify_generator(4, (4, 1)) == cd.FORM_OTHER  # x + v: unit lead, no division
    with pytest.raises(ValueError):
        cd.classify_generator(3, ())


def test_generator_reduced_modulo_length():
    # x^n - 1 reduces to zero, which generates nothing
    with pytest.raises(ValueError):
        cd.code_from_generator(2, sp.x_pow_minus_one(2))


def test_minimal_degree_scan_small():
    scan = cd.minimal_degree_scan(cd.materialize(cd.code_from_generator(2, (1, 1))))
    assert scan.exists
    assert scan.degree == 1
    assert len(scan.words) == 6
    assert set(scan.forms) == {cd.FORM_V, cd.FORM_V1}
    assert scan.all_factor


def test_minimal_degree_scan_sixteen_words(sixteen_word_code):
    scan = cd.minimal_degree_scan(sixteen_word_code)
    assert scan.exists
    assert scan.degree == 4
    assert set(scan.forms) == {cd.FORM_V}
    assert scan.all_factor


def _word_walk_codes():
    """Every single-generator code of at most 2^16 words at n = 1..6 in all
    three shapes (degree 0 included, so n = 1 has codes), then seeded random
    two-generator codes of at most 2^12 words at n = 2..4."""
    constants = {cd.FORM_UNIT: (1,), cd.FORM_V: (4,), cd.FORM_V1: (5,)}
    for n in range(1, 7):
        for t in range(n):
            for shape in (cd.FORM_UNIT, cd.FORM_V, cd.FORM_V1):
                gens = cd.enumerate_right_divisors(n, t, leading=shape) if t else [constants[shape]]
                for g in gens:
                    yield cd.code_from_generator(n, g), 1 << 16
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randrange(2, 5)
        gens = [sp.normalize(rng.randrange(16) for _ in range(n)) for _ in range(2)]
        if all(gens):
            yield cd.code_from_generators(n, gens), 1 << 12


@pytest.fixture(scope="module")
def word_walks(word_walk_oracles):
    """(code, naive minimal-degree report, naive plain-shift closure); each
    code's words are walked once, on a CodeSet that is then dropped."""
    naive_scan, naive_cyclic = word_walk_oracles
    walks = []
    for code, limit in _word_walk_codes():
        cs = cd.materialize(code)
        if cs.size <= limit:
            walks.append((code, naive_scan(cs), naive_cyclic(cs)))
    return walks


def test_minimal_degree_scan_agrees_with_word_walk(word_walks):
    assert len(word_walks) == 375  # 340 single-generator, 35 random two-generator
    bad = [code for code, report, _ in word_walks
           if cd.minimal_degree_scan(cd.materialize(code)) != report]
    assert bad == []


def test_plain_cyclic_decision_agrees_with_set_definition(word_walks):
    verdicts = [(code.n, cd.is_plain_cyclic(cd.materialize(code)), closed)
                for code, _, closed in word_walks if code.n >= 2]
    assert [v for v in verdicts if v[1] != v[2]] == []
    # odd lengths are always closed; even lengths give the negative control
    assert all(closed for n, _, closed in verdicts if n % 2)
    assert {closed for n, _, closed in verdicts if n % 2 == 0} == {True, False}


def test_plain_cyclic_decision_reads_every_generator(word_walk_oracles):
    # at n = 4 each first generator alone gives a plain-cyclic code; the
    # second generator's rotation is what leaves these 256-word codes
    _, naive_cyclic = word_walk_oracles
    for gens in ([(4, 4, 4, 4), (5, 5)], [(1, 1, 1, 1), (4, 4)]):
        assert cd.is_plain_cyclic(cd.materialize(cd.code_from_generators(4, gens[:1])))
        cs = cd.materialize(cd.code_from_generators(4, gens))
        assert cs.size == 256
        assert cd.is_plain_cyclic(cs) is naive_cyclic(cs) is False


def test_minimal_degree_scan_of_the_zero_code():
    zero = cd.CodeSet(cd.code_from_generator(2, (1, 1)), ())
    assert cd.minimal_degree_scan(zero) == cd.MinimalDegreeReport(False, None, (), (), None)


def test_code_dict_round_trip():
    code = cd.code_from_generator(6, EX3)
    doc = cd.code_to_dict(code)
    assert doc["n"] == 6
    assert doc["classification"] == ["v"]
    assert cd.code_from_dict(doc) == code


def test_code_dict_rejects_wrong_classification():
    doc = cd.code_to_dict(cd.code_from_generator(6, EX3))
    doc["classification"] = ["unit"]
    with pytest.raises(ValueError):
        cd.code_from_dict(doc)


def test_word_lines_round_trip(sixteen_word_code):
    lines = cd.export_words(sixteen_word_code)
    assert len(lines) == 16
    assert lines == cd.export_words(sixteen_word_code)  # stable order
    assert {cd.parse_word_line(line) for line in lines} == sixteen_word_code.words
