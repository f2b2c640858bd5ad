"""DNA layer: encoding, the two closure properties, rule-based classification.

The element-to-2-base table is transcribed here by hand so the encoder is
checked against an independent copy, not against itself.
"""

import collections
import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewdna import analysis as an
from skewdna import codes as cd
from skewdna import dna
from skewdna import skewpoly as sp
from skewdna.algebra import UNITS

from conftest import (complement_word, dna_complement, dna_reverse, dna_reverse_complement,
                      encode_word, theta_reverse)

# element index -> 2-base block, hand-transcribed
BLOCKS = ("AA", "TT", "CC", "GG", "TA", "AT", "GC", "CG",
          "CA", "GT", "AC", "TG", "GA", "CT", "TC", "AG")


def test_encode_element_table():
    for x, block in enumerate(BLOCKS):
        assert dna.encode_element(x) == block


def test_encode_decode_round_trip():
    # decoded block by block through the table above
    def decode(s):
        return tuple(BLOCKS.index(s[i:i + 2]) for i in range(0, len(s), 2))

    for n in (1, 2):
        for word in itertools.product(range(16), repeat=n):
            assert decode(encode_word(word)) == word
    rng = random.Random(3)
    for _ in range(500):
        word = tuple(rng.randrange(16) for _ in range(rng.randint(1, 8)))
        assert decode(encode_word(word)) == word


def test_string_operations():
    assert encode_word((4, 0)) == "TAAA"
    assert dna_reverse("TAAA") == "AAAT"
    assert dna_complement("TAAA") == "ATTT"
    assert dna_reverse_complement("TAAA") == "TTTA"
    assert dna_complement("CG") == "GC"


def test_reversal_pulls_back_to_theta_reverse():
    # reversing the DNA string corresponds to theta plus reversal upstairs
    rng = random.Random(5)
    words = list(itertools.product(range(16), repeat=2))
    words += [tuple(rng.randrange(16) for _ in range(6)) for _ in range(2000)]
    for word in words:
        reversed_dna = dna_reverse(encode_word(word))
        n = len(word)
        assert encode_word(theta_reverse(word)) == reversed_dna
        assert encode_word(cd.unpack(dna.theta_reverse(n)(cd.pack(word)), n)) == reversed_dna


def test_complement_pulls_back_to_plus_one():
    rng = random.Random(6)
    for _ in range(2000):
        word = tuple(rng.randrange(16) for _ in range(5))
        assert encode_word(complement_word(word)) == dna_complement(encode_word(word))
        assert complement_word(word) == tuple(c ^ 1 for c in word)


def test_theta_reverse_is_an_involution():
    rng = random.Random(7)
    for n in (5, 6):  # odd n exercises the padding entry
        reverse = dna.theta_reverse(n)
        for _ in range(500):
            word = tuple(rng.randrange(16) for _ in range(n))
            assert theta_reverse(theta_reverse(word)) == word
            assert reverse(reverse(cd.pack(word))) == cd.pack(word)


def test_packed_theta_reverse_complement_matches_word_maps():
    # exhaustive for n <= 2, sampled up to n = 9; odd n exercises the
    # padding entry
    rng = random.Random(23)
    for n in range(1, 10):
        reverse, rc = dna.theta_reverse(n), dna.theta_reverse_complement(n)
        words = (itertools.product(range(16), repeat=n) if n <= 2 else
                 (tuple(rng.randrange(16) for _ in range(n)) for _ in range(2000)))
        for w in words:
            assert reverse(cd.pack(w)) == cd.pack(theta_reverse(w))
            assert rc(cd.pack(w)) == cd.pack(complement_word(theta_reverse(w)))


def test_encode_codeset_matches_reference(sixteen_word_code, reference_dna_strings):
    assert dna.encode_codeset(sixteen_word_code) == sorted(reference_dna_strings)


def test_rank_table_is_linear_and_orders_blocks_as_strings():
    rank = dna._RANK_OF_R
    for x, y in itertools.product(range(16), repeat=2):
        assert rank[x ^ y] == rank[x] ^ rank[y]
        assert (rank[x] < rank[y]) == (dna.encode_element(x) < dna.encode_element(y))


def _random_small_codes(rng, per_length):
    """Seeded codes of one to three generators at each n = 1..8, of at most
    2^12 words: each generator a random left multiple of a random right
    divisor of x^n - 1 of degree at least n - 3, or a nonzero constant at
    n = 1."""
    right_divisors = functools.cache(cd.enumerate_right_divisors)
    for n in range(1, 9):
        found = 0
        while found < per_length:
            gens = []
            for _ in range(rng.randrange(1, 4)):
                if n == 1:
                    gens.append((rng.randrange(1, 16),))
                    continue
                t = rng.randrange(max(1, n - 3), n)
                divisors = right_divisors(n, t, rng.choice((cd.FORM_UNIT, cd.FORM_V, cd.FORM_V1)))
                if divisors:
                    h = sp.normalize(rng.randrange(16) for _ in range(n - t))
                    gens.append(sp.mul(h, rng.choice(divisors)))
            if gens and all(gens):
                cs = cd.materialize(cd.code_from_generators(n, gens))
                if cs.size <= 1 << 12:
                    found += 1
                    yield cs


def test_encode_codeset_matches_sorted_encoded_words(word_walk_codes, sixteen_word_code,
                                                     monkeypatch):
    # chunks of 1, 2, 8 and the default 2^12 words: 0 and 1 make the
    # high-row loop run on every code, and a code of at most 2^chunk words
    # fits one chunk.  The inventory's codes of 2^16 words would take the
    # oracle about 12 s; one stands for them.
    default = dna._CHUNK_ROWS
    inventory = [cs for code, _ in word_walk_codes
                 if (cs := cd.materialize(code)).size <= 1 << 12]
    large = cd.materialize(cd.code_from_generator(
        10, sp.parse_poly("x^6 + v*x^5 + (w+v)*x^4 + v*x^3 + (w+v)*x^2 + 1")))
    assert large.size == 1 << 16
    codesets = [*inventory, *_random_small_codes(random.Random(37), 6), sixteen_word_code, large]
    assert {cs.n % 2 for cs in codesets} == {0, 1}
    for cs in codesets:
        expected = sorted(map(encode_word, (cd.unpack(p, cs.n) for p in cs.walk())))
        for rows in ((0, 1, 3, default) if cs.size <= 1 << 12 else (3, default)):
            monkeypatch.setattr(dna, "_CHUNK_ROWS", rows)
            assert dna.encode_codeset(cs) == expected, (cs.code, rows)


def test_sixteen_word_code_is_reversible_not_complement(sixteen_word_code):
    assert dna.is_reversible(sixteen_word_code)
    assert not dna.is_reverse_complement_closed(sixteen_word_code)
    assert not dna.is_complement_closed(sixteen_word_code)


def test_x_plus_one_code_is_fully_closed():
    # {(c, c)}: contains the all-ones word, reversible, complement-closed
    cs = cd.materialize(cd.code_from_generator(2, (1, 1)))
    assert dna.is_reversible(cs)
    assert dna.is_complement_closed(cs)
    assert dna.is_reverse_complement_closed(cs)


def test_collapsing_v_generator_is_reversible_anyway():
    # <v(x+1)> at odd length contains (v+1)(x+1) via x^n * v(x+1), so it is
    # NOT the proper ideal its shape suggests and reversibility holds
    cs = cd.materialize(cd.code_from_generator(5, (4, 4)))
    assert cs.size == 65536
    assert dna.is_reversible(cs)


def test_plain_unit_code_not_reversible():
    cs = cd.materialize(cd.code_from_generator(3, (2, 1)))  # x + w
    assert not dna.is_reversible(cs)


def _oracle_sweep():
    """Every single-generator code at n = 2..5 and the v and v+1 codes at
    n = 6; then two-generator codes: <v*g1, (v+1)*g2> at n = 4, seeded
    random pairs at n = 3, and <v(x+1), x^2+x+1> at n = 3."""
    for n in (2, 3, 4, 5, 6):
        shapes = ("v", "v1") if n == 6 else ("unit", "v", "v1")
        for t in range(1, n):
            for shape in shapes:
                for g in cd.enumerate_right_divisors(n, t, leading=shape):
                    yield cd.code_from_generator(n, g)
    for t1, t2 in itertools.product(range(1, 4), repeat=2):
        for g1 in cd.enumerate_right_divisors(4, t1, leading=cd.FORM_V):
            for g2 in cd.enumerate_right_divisors(4, t2, leading=cd.FORM_V1):
                yield cd.code_from_generators(4, [g1, g2])
    rng = random.Random(17)
    for _ in range(40):
        gens = [sp.normalize(rng.randrange(16) for _ in range(3)) for _ in range(2)]
        if all(gens):
            yield cd.code_from_generators(3, gens)
    yield cd.code_from_generators(3, [(4, 4), (1, 1, 1)])


def test_basis_closure_decisions_agree_with_set_oracles(set_oracles):
    disagreements = []
    for code in _oracle_sweep():
        cs = cd.materialize(code)
        for decide, oracle in set_oracles:
            if decide(cs) != oracle(cs):
                disagreements.append((code, decide.__name__))
        n, gens = code
        if len(gens) == 1 and cd.classify_generator(n, gens[0]) == cd.FORM_UNIT:
            if dna.reversible_by_remainder(code) != dna.is_reversible(cs):
                disagreements.append((code, "reversible_by_remainder"))
    assert disagreements == []


def test_remainder_reversibility_agrees_with_the_basis_on_the_verify_inventory():
    # every unit-shape code that verify-paper sweeps (n = 2..6, each degree),
    # then the worked divisors of checks 3 and 4 at n = 10 and 12
    codes = [cd.code_from_generator(n, g) for n in range(2, 7) for t in range(1, n)
             for g in cd.enumerate_right_divisors(n, t, leading=cd.FORM_UNIT)]
    codes += [cd.code_from_generator(10, sp.parse_poly("x^4 + (v+w)*x^2 + 1")),
              cd.code_from_generator(12, sp.parse_poly("x^3 + (v+w2)*x^2 + (v+w)*x + 1"))]
    verdicts = [(dna.reversible_by_remainder(code), dna.is_reversible(cd.materialize(code)))
                for code in codes]
    assert [code for code, (a, b) in zip(codes, verdicts) if a != b] == []
    assert verdicts[-2:] == [(True, True)] * 2
    assert len(codes) == 255 and sum(a for a, _ in verdicts) == 49


# a length n <= 3 and 1 to 3 nonzero generators of degree below n
RANDOM_CODES = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(0, 15), min_size=n, max_size=n).map(sp.normalize)
             .filter(bool), min_size=1, max_size=3)))


@given(RANDOM_CODES)
def test_decisions_agree_with_set_oracles_on_random_codes(set_oracles, word_walk_oracles,
                                                          n_gens):
    cs = cd.materialize(cd.code_from_generators(*n_gens))
    for decide, oracle in set_oracles:
        assert decide(cs) == oracle(cs), decide.__name__
    assert cd.is_plain_cyclic(cs) == word_walk_oracles[1](cs)


def test_image_rotation_decision_agrees_with_set_oracle(image_rotation_oracle,
                                                        sixteen_word_code):
    checked = [cs for cs in map(cd.materialize, _oracle_sweep()) if cs.size <= 1 << 12]
    # sets that are not skew-shift closed, so their image is not rotation
    # closed: one unshifted word, and the shift-closed all-ones word
    # followed by an unshifted one
    ones, one = cd.pack((1,) * 6), cd.pack((1, 0, 0, 0, 0, 0))
    fakes = [cd.CodeSet(sixteen_word_code.code, cd.echelon(basis)) for basis in ((one,), (ones, one))]
    # the per-word identity always holds, so the oracle's first half is True
    closed = [an.image_closed_on_basis(cs.code, cs.basis) for cs in checked + fakes]
    disagreements = [cs.code for cs, c in zip(checked + fakes, closed)
                     if (True, c) != image_rotation_oracle(cs)]
    assert disagreements == []
    assert closed[-2:] == [False, False]


# classification: frozen outputs for the worked examples


def _classify(n, g):
    code = cd.code_from_generator(n, g)
    return dna.classify(code, cd.materialize(code).basis)


def test_classify_length10():
    info = _classify(10, sp.parse_poly("x^4+(v+w)*x^2+1"))
    assert info.form == "unit"
    assert info.palindromic
    assert info.predicted_reversible == "yes"
    assert info.predicted_reverse_complement == "yes"


def test_classify_length12():
    info = _classify(12, sp.parse_poly("x^3+(v+w2)*x^2+(v+w)*x+1"))
    assert info.form == "unit"
    assert info.theta_palindromic
    assert info.predicted_reversible == "yes"
    assert info.predicted_reverse_complement == "yes"


def test_classify_sixteen_word_code():
    info = _classify(6, sp.parse_poly("v(x^4+x^2+1)"))
    assert info.form == "v"
    assert info.palindromic
    assert info.predicted_reversible == "yes"
    assert info.predicted_reverse_complement == "no"


def test_classify_follows_the_stated_rule_even_where_it_is_wrong():
    # the odd-length impossibility rule says "no" here; brute force says the
    # code is in fact reversible (see test above).  classify() deliberately
    # reports the rule, and the verification suite reports the disagreement.
    info = _classify(5, (4, 4))
    assert info.form == "v"
    assert info.predicted_reversible == "no"
    assert info.predicted_reverse_complement == "no"


def test_classify_without_applicable_rule_is_unknown():
    for coeffs, rc in (((2, 1), "unknown"), ((3, 1), "unknown"),
                       ((2, 3, 1), "no"), ((3, 2, 1), "no")):
        info = _classify(3, coeffs)
        assert info.predicted_reversible == "unknown"
        assert info.predicted_reverse_complement == rc


def test_classify_is_frozen_on_every_small_divisor_code():
    # every unit, v and v1 divisor code at n = 2..8: the outcome counts and
    # a hash of every field that classify reports
    rows, outcomes = [], collections.Counter()
    for n in range(2, 9):
        for t in range(1, n):
            for shape in ("unit", "v", "v1"):
                for g in cd.enumerate_right_divisors(n, t, leading=shape):
                    info = _classify(n, g)
                    rev, rc = info.predicted_reversible, info.predicted_reverse_complement
                    rows.append((n, shape, g, info.form, info.palindromic,
                                 info.theta_palindromic, rev, rc))
                    outcomes[rev, rc] += 1
    assert outcomes == {("no", "no"): 546, ("yes", "no"): 89, ("yes", "yes"): 63,
                        ("unknown", "unknown"): 4, ("unknown", "no"): 4}
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "562f9a503d0088e4abcca13dabd76150b79a807f9e16429c2ed20108f25202c7")


def test_classify_is_frozen_on_every_unit_multiple_of_a_small_divisor():
    # u*g for every unit u and every unit divisor g at n = 2..8, the
    # generators build accepts beyond the monic ones: the outcome counts and
    # a hash of every field that classify reports
    rows, outcomes = [], collections.Counter()
    for n in range(2, 9):
        for t in range(1, n):
            for g in cd.enumerate_right_divisors(n, t):
                for u in UNITS:
                    info = _classify(n, sp.scale(u, g))
                    rows.append(tuple(info))
                    outcomes[info.predicted_reversible, info.predicted_reverse_complement] += 1
    assert outcomes == {("no", "no"): 4086, ("yes", "no"): 657, ("yes", "yes"): 567,
                        ("unknown", "unknown"): 36, ("unknown", "no"): 36}
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "30269b3dfe4aaf18deb6aeb946e2b710e7188949235ff49352ca51656dd16fe1")


def test_classify_rejects_multiple_generators():
    code = cd.code_from_generators(3, [(4, 4), (1, 1, 1)])
    with pytest.raises(ValueError):
        dna.classify(code, cd.materialize(code).basis)
