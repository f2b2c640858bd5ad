"""Code construction: span engine, membership, enumeration, serialization."""

import hashlib
import itertools
import random

import pytest

from skewdna import codes as cd
from skewdna import skewpoly as sp
from skewdna.algebra import is_unit, theta

EX3 = sp.parse_poly("v(x^4+x^2+1)")


@pytest.mark.parametrize("n,gens", [
    (2, [(1, 1)]),
    (2, [(6, 1)]),
    (3, [(1, 1)]),
    (3, [(4, 4)]),                 # v(x+1): reduces to more than its shifts
    (4, [sp.parse_poly("v(x+1)^3")]),
    (6, [EX3]),
    (3, [(4, 4), (1, 1, 1)]),      # two generators
    (1, [(1,)]),                   # n = 1: the rotation wraps onto itself
    (1, [(4,)]),                   # v: the shift's theta alone reaches 1 + v
    (1, [(10,)]),                  # w(1 + v)
    (5, [sp.parse_poly("x^3 + w*x^2 + w*x + 1")]),  # (x+1)(x^2+w2*x+1), 256 words
])
def test_span_engine_matches_naive_closure(n, gens, naive_closure, codeset_words):
    code = cd.code_from_generators(n, gens)
    assert codeset_words(cd.materialize(code)) == naive_closure(n, gens)


# unit generators of the cli-large benchmark pools, far beyond the naive
# closure's reach
@pytest.mark.parametrize("n,text", [
    (400, "x^4 + (w+v)*x^2 + 1"),
    (400, "x^4 + v*x^3 + (w+v)*x^2 + v*x + 1"),
    (408, "x^3 + (w2+v)*x^2 + (w+v)*x + 1"),
    (408, "x^3 + x^2 + x + 1"),
])
def test_span_engine_at_large_lengths(n, text):
    # g is a unit-form right divisor of x^n - 1, so <g> holds 16^(n - t)
    # words, exactly those right-divisible by g; 4(n - t) independent
    # vectors (distinct pivots), each right-divisible by g, span all of it
    g = sp.parse_poly(text)
    code = cd.code_from_generator(n, g)
    assert code.forms == (cd.FORM_UNIT,)
    basis = cd.code_basis(code)
    assert len(basis) == 4 * (n - (len(g) - 1))
    assert len({b.bit_length() for b in basis}) == len(basis)
    assert all(sp.right_divides(g, cd.word_to_poly(cd.unpack(b, n))) for b in basis)


@pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (6, 4), (6, 5)])
def test_unit_generator_code_size_law(n, t):
    # a unit-monic right divisor of degree t spans 16^(n-t) words
    for g in cd.enumerate_right_divisors(n, t)[:2]:
        assert cd.materialize(cd.code_from_generator(n, g)).size == 16 ** (n - t)


def test_skew_shift_definition():
    w = (1, 4, 3)
    assert cd.skew_shift(w) == (theta(3), theta(1), theta(4))


def test_codes_are_closed_under_skew_shift(sixteen_word_code, codeset_words):
    words = codeset_words(sixteen_word_code)
    for w in words:
        assert cd.skew_shift(w) in words


def test_odd_length_codes_are_closed_under_plain_shift(codeset_words):
    for t in (1, 2):
        for g in cd.enumerate_right_divisors(3, t):
            words = codeset_words(cd.materialize(cd.code_from_generator(3, g)))
            for w in words:
                assert (w[-1],) + w[:-1] in words


def test_membership_matches_remainder_exhaustively():
    # every length-3 word, against both membership paths
    words = [(a, b, c) for a in range(16) for b in range(16) for c in range(16)]
    for t in (1, 2):
        for g in cd.enumerate_right_divisors(3, t):
            code = cd.code_from_generator(3, g)
            cs = cd.materialize(code)
            for w in words:
                assert cd.membership(cs, w) == cd.remainder_membership(code, w)


def test_membership_matches_remainder_sampled(codeset_words):
    rng = random.Random(7)
    g = cd.enumerate_right_divisors(6, 3)[0]
    code = cd.code_from_generator(6, g)
    cs = cd.materialize(code)
    for _ in range(10_000):
        w = tuple(rng.randrange(16) for _ in range(6))
        assert cd.membership(cs, w) == cd.remainder_membership(code, w)
    for w in list(codeset_words(cs))[:500]:
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


def _brute_force_divisors(n, t):
    """Every monic degree-t g with a unit constant term that right-divides
    x^n - 1, all 9 * 16^(t-1) candidates tried."""
    xn1 = sp.x_pow_minus_one(n)
    return sorted(low + (1,) for low in itertools.product(range(16), repeat=t)
                  if is_unit(low[0]) and sp.right_divides(low + (1,), xn1))


def _brute_force_gf4_divisors(n, t):
    """Every monic degree-t g1 over GF(4) with a nonzero constant term that
    divides x^n - 1 in GF(4)[x], all 3 * 4^(t-1) candidates tried."""
    xn1 = sp.x_pow_minus_one(n)
    return [low + (1,) for low in itertools.product(range(4), repeat=t)
            if low[0] and sp.right_divides(low + (1,), xn1)]


def test_cofactor_search_matches_brute_force():
    # every (n, t) that takes the degree-t divisors as quotients by the
    # degree-(n - t) ones (t > n - t) with n <= 8 and t <= 4, and the
    # 16^5-candidate case (6, 5)
    for n, t in ((3, 2), (4, 3), (5, 3), (5, 4), (6, 4), (7, 4), (6, 5)):
        assert cd.enumerate_right_divisors(n, t) == _brute_force_divisors(n, t), (n, t)


def test_balanced_search_matches_brute_force():
    # n = 2t: the search meets in the middle coefficient of g
    for n, t in ((4, 2), (6, 3), (8, 4)):
        assert cd.enumerate_right_divisors(n, t) == _brute_force_divisors(n, t), (n, t)


def test_gf4_shapes_match_brute_force():
    # v * g1 and (v+1) * g1 for every g1 the GF(4) brute force finds
    for n in range(2, 9):
        for t in range(1, n):
            g1s = _brute_force_gf4_divisors(n, t)
            assert cd.enumerate_right_divisors(n, t, cd.FORM_V) \
                == sorted(tuple(c << 2 for c in g1) for g1 in g1s), (n, t)
            assert cd.enumerate_right_divisors(n, t, cd.FORM_V1) \
                == sorted(tuple(c | c << 2 for c in g1) for g1 in g1s), (n, t)


def test_odd_length_divisors_lie_over_gf4():
    # at odd n every monic divisor over R is theta-fixed, so over GF(4):
    # the unit list is the v list with the factor v stripped
    for n in (3, 5, 7, 9):
        for t in range(1, n):
            unit = cd.enumerate_right_divisors(n, t)
            assert all(c < 4 for g in unit for c in g), (n, t)
            v = cd.enumerate_right_divisors(n, t, cd.FORM_V)
            assert unit == [tuple(c >> 2 for c in g) for g in v], (n, t)


def test_divisor_inventory_is_frozen():
    # every shape at n = 2..8, 706 divisors, hashed before the three
    # search loops became one
    inventory = [(n, t, s, cd.enumerate_right_divisors(n, t, s))
                 for n in range(2, 9) for t in range(1, n) for s in ("unit", "v", "v1")]
    assert sum(len(found) for *_, found in inventory) == 706
    assert hashlib.sha256(repr(inventory).encode()).hexdigest() \
        == "8629c3ba4a9cf3180deda05dd21d9e645eef7c0d3df8164410ea3be51e97f9b9"


def test_balanced_search_is_frozen_at_10_5():
    # count and hash computed by the 16^5-candidate direct search
    found = cd.enumerate_right_divisors(10, 5)
    assert len(found) == 873
    assert hashlib.sha256(repr(found).encode()).hexdigest() \
        == "8db57a3b35f9345348fbf0e0567e2c374aef577022a40dc444e1f6dd4fea212f"


def test_enumerate_budget():
    # the budget counts the shorter side: 16^10 at (20, 10), 16^3 at (12, 9),
    # and 4^1 for the GF(4) shapes at (12, 11)
    with pytest.raises(cd.SizeCapExceeded):
        cd.enumerate_right_divisors(20, 10)
    with pytest.raises(cd.SizeCapExceeded):
        cd.enumerate_right_divisors(12, 9, budget=16 ** 3 - 1)
    assert cd.enumerate_right_divisors(12, 9, budget=16 ** 3)
    with pytest.raises(cd.SizeCapExceeded):
        cd.enumerate_right_divisors(6, 2, budget=10)
    assert len(cd.enumerate_right_divisors(12, 11, cd.FORM_V, budget=4)) == 3
    with pytest.raises(cd.SizeCapExceeded):
        cd.enumerate_right_divisors(12, 11, cd.FORM_V, budget=3)


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


@pytest.fixture(scope="module")
def word_walks(word_walk_oracles, word_walk_codes):
    """(code, naive minimal-degree report, naive plain-shift closure); each
    code's words are walked once, on a CodeSet that is then dropped."""
    naive_scan, naive_cyclic = word_walk_oracles
    walks = []
    for code, limit in word_walk_codes:
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
