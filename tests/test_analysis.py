"""Distances, weight distributions, and the 2-quasi-cyclic image identity."""

import collections
import functools
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewdna import analysis as an
from skewdna import codes as cd
from skewdna import dna
from skewdna import skewpoly as sp
from skewdna.algebra import gray

from conftest import (LEE_WEIGHT, encode_word, gray_image, gray_inverse, hamming_distance,
                      hamming_weight, image_shift_commutes, lee_distance, lee_weight,
                      rotate_right2, swap_adjacent_pairs)


def test_lee_weight_table():
    assert LEE_WEIGHT[0] == 0
    assert LEE_WEIGHT[4] == 1   # v -> (1, 0)
    assert LEE_WEIGHT[1] == 2   # 1 -> (1, 1)
    for x in range(16):
        p, q = gray(x)
        assert LEE_WEIGHT[x] == (p != 0) + (q != 0)
        assert 0 <= LEE_WEIGHT[x] <= 2


def test_weights_and_distances():
    assert hamming_weight((0, 4, 0, 1)) == 2
    assert lee_weight((0, 4, 0, 1)) == 3
    assert hamming_distance((1, 2), (1, 3)) == 1
    assert lee_distance((0, 0), (4, 1)) == 3
    with pytest.raises(ValueError):
        hamming_distance((1,), (1, 2))
    with pytest.raises(ValueError):
        lee_distance((1,), (1, 2))


def test_distance_is_translation_invariant():
    rng = random.Random(11)
    for _ in range(500):
        u, w, t = (tuple(rng.randrange(16) for _ in range(4)) for _ in range(3))
        shifted = tuple(a ^ b for a, b in zip(u, t)), tuple(a ^ b for a, b in zip(w, t))
        assert lee_distance(*shifted) == lee_distance(u, w)
        assert hamming_distance(*shifted) == hamming_distance(u, w)


@pytest.mark.parametrize("metric,weight", [("hamming", hamming_weight),
                                           ("lee", lee_weight)])
def test_packed_weights_match_word_weights(metric, weight):
    # exhaustive for n <= 2, sampled up to n = 9
    rng = random.Random(31)
    for n in range(1, 10):
        fold = an.packed_weight_fold(n, metric)
        words = (itertools.product(range(16), repeat=n) if n <= 2 else
                 (tuple(rng.randrange(16) for _ in range(n)) for _ in range(2000)))
        for w in words:
            assert fold(cd.pack(w)).bit_count() == weight(w)


def test_word_walks_cache_no_words(codeset_words):
    cs = cd.materialize(cd.code_from_generator(8, sp.parse_poly("x^4 + 1")))
    assert cs.size == 1 << 16
    lee = an.min_distance(cs, "lee")
    strings = dna.encode_codeset(cs)
    # the walks kept no words: a CodeSet has no attribute dict to keep them in
    assert not hasattr(cs, "__dict__")
    assert cs._fields == ("code", "basis") and len(cs) == 2
    # the walks against the tuple words
    words = codeset_words(cs)
    assert lee == min(lee_weight(w) for w in words if any(w))
    assert strings == sorted(map(encode_word, words))


def test_min_distance_equals_pairwise_minimum(codeset_words):
    cs = cd.materialize(cd.code_from_generator(2, (6, 1)))
    words = codeset_words(cs)
    for metric, dist in (("hamming", hamming_distance), ("lee", lee_distance)):
        direct = min(dist(u, w) for u in words for w in words if u != w)
        assert an.min_distance(cs, metric) == direct


def test_min_distance_of_sixteen_word_code(sixteen_word_code):
    assert an.min_distance(sixteen_word_code, "lee") == 3
    assert an.min_distance(sixteen_word_code, "hamming") == 3


def _random_codes(rng, count):
    """Seeded codes of one to three generators at n = 2..8, each a left
    multiple of a random right divisor of x^n - 1, of at most 2^18 words."""
    right_divisors = functools.cache(cd.enumerate_right_divisors)
    while count:
        n = rng.randrange(2, 9)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            t = rng.randrange(1, n)
            divisors = right_divisors(n, t, rng.choice((cd.FORM_UNIT, cd.FORM_V, cd.FORM_V1)))
            if divisors:
                h = sp.normalize(rng.randrange(16) for _ in range(n - t))
                gens.append(sp.mul(h, rng.choice(divisors)))
        if gens and all(gens):
            cs = cd.materialize(cd.code_from_generators(n, gens))
            if cs.size <= 1 << 18:
                count -= 1
                yield cs


def test_min_distance_equals_full_walk(word_walk_codes, min_distance_oracle, monkeypatch):
    # the skew shift maps vC onto (1+v)C, weight for weight, so each
    # component has half of the code's dimension: every call must walk one
    # basis of k/2 vectors
    walked, walk = [], cd.CodeSet.walk
    monkeypatch.setattr(cd.CodeSet, "walk", lambda cs: walked.append(len(cs.basis)) or walk(cs))

    def split(cs, metric):
        walked.clear()
        return an.min_distance(cs, metric), walked == [len(cs.basis) // 2]

    inventory = [cs for code, limit in word_walk_codes
                 if (cs := cd.materialize(code)).size <= limit]
    assert len(inventory) == 375
    codesets = inventory + list(_random_codes(random.Random(41), 60))
    found = [(cs.code, split(cs, "lee"), split(cs, "hamming"),
              min_distance_oracle(cs, "lee"), min_distance_oracle(cs, "hamming"))
             for cs in codesets]
    assert [f for f in found if (f[1], f[2]) != ((f[3], True), (f[4], True))] == []
    assert [f for f in found if f[3] != f[4]] == []  # Lee min == Hamming min
    assert {f[3] for f in found} >= {1, 2, 3, 4}


def test_min_distance_walks_a_set_that_is_not_a_code(sixteen_word_code):
    # {0, 1 at entry 0} is not closed under v: its components {0, v} and
    # {0, 1+v} lie outside it, so a split would give 1 where its words give
    # 2; such a set is refused rather than walked
    fake = cd.CodeSet(sixteen_word_code.code, cd.echelon([cd.pack((1, 0, 0, 0, 0, 0))]))
    for metric in ("lee", "hamming"):
        with pytest.raises(ValueError, match="not closed under v"):
            an.min_distance(fake, metric)
    with pytest.raises(ValueError, match="not closed under v"):
        an.gray_image_report(fake)


def test_min_distance_refuses_a_set_closed_under_v_but_not_the_shift(sixteen_word_code):
    # {0, v at entry 0} is closed under v, but its skew shift 1+v at entry 1
    # lies outside it: the shift does not carry its vC = {0, v} onto its
    # (1+v)C = {0}, so walking vC alone would answer for a set that is no
    # code.  It is refused, as a set not closed under v is
    fake = cd.CodeSet(sixteen_word_code.code, cd.echelon([cd.pack((4, 0, 0, 0, 0, 0))]))
    for metric in ("lee", "hamming"):
        with pytest.raises(ValueError, match="not closed under v and the skew shift"):
            an.min_distance(fake, metric)


def test_min_distance_rejects_unknown_metric_and_zero_code(sixteen_word_code):
    with pytest.raises(ValueError):
        an.min_distance(sixteen_word_code, "euclidean")
    zero_only = cd.CodeSet(sixteen_word_code.code, {})
    with pytest.raises(ValueError):
        an.min_distance(zero_only, "lee")
    with pytest.raises(ValueError, match="zero code"):
        an.gray_image_report(zero_only)


def test_weight_distribution_against_dna_strings(sixteen_word_code, reference_dna_strings):
    # Lee weight = number of non-A characters in the encoded string, so the
    # hand-transcribed table is an independent oracle for the distribution
    expected = collections.Counter(sum(ch != "A" for ch in s) for s in reference_dna_strings)
    fold = an.packed_weight_fold(sixteen_word_code.n, "lee")
    walked = collections.Counter(fold(p).bit_count() for p in sixteen_word_code.walk())
    assert walked == expected == {0: 1, 3: 6, 6: 9}


def test_gray_image_is_additive():
    image = an.packed_gray_image(1)
    for x in range(16):
        for y in range(16):
            gx, gy = gray_image((x,)), gray_image((y,))
            assert gray_image((x ^ y,)) == tuple(a ^ b for a, b in zip(gx, gy))
            assert image(x ^ y) == image(x) ^ image(y)


def test_gray_image_layout():
    # coordinate pairs are interleaved in order
    word = (4, 1)
    assert gray_image(word) == gray(4) + gray(1) == (1, 0, 1, 1)
    # packed, two bits per coordinate from the lowest
    assert an.packed_gray_image(2)(cd.pack(word)) == 0b01_01_00_01


def test_rotate_and_pair_swap():
    assert rotate_right2((1, 2, 3, 0)) == (3, 0, 1, 2)
    assert swap_adjacent_pairs((1, 2, 3, 0)) == (2, 1, 0, 3)
    with pytest.raises(ValueError):
        swap_adjacent_pairs((1, 2, 3))


def test_image_permutation_masks_match_tuple_maps():
    # the packed sigma is both the tuple skew shift and the Gray-image
    # permutation gray^-1 o swap-pairs o rotate-right-2 o gray, and the
    # packed Gray image, its weight fold and the per-word identity match
    # their tuple oracles: exhaustive for n <= 2, sampled up to n = 9
    rng = random.Random(37)
    for n in range(1, 10):
        shift, image = cd.packed_skew_shift(n), an.packed_gray_image(n)
        fold, defect = an.image_weight_fold(n), an.image_shift_defect(n)
        words = (itertools.product(range(16), repeat=n) if n <= 2 else
                 (tuple(rng.randrange(16) for _ in range(n)) for _ in range(500)))
        for w in words:
            p, img = cd.pack(w), gray_image(w)
            permuted = swap_adjacent_pairs(rotate_right2(img))
            permuted = tuple(gray_inverse(permuted[i : i + 2]) for i in range(0, 2 * n, 2))
            assert shift(p) == cd.pack(cd.skew_shift(w)) == cd.pack(permuted)
            assert tuple(image(p) >> 2 * j & 3 for j in range(2 * n)) == img
            assert fold(image(p)).bit_count() == hamming_weight(img)
            assert (not defect(p)) == image_shift_commutes(w)


def test_lane_forms_match_the_per_word_maps(monkeypatch):
    # k words side by side, word i in bits 4n*i up (lane i): each lane form
    # maps every lane as the one-lane map maps its word, and nothing leaks
    # out of a lane; every word's last entry is nonzero, so a rotation that
    # let it through would spill into the next lane.  The identity defect is
    # zero everywhere, so it is also taken with the plain rotation in place
    # of the skew shift, where most lanes are defective.
    rng = random.Random(53)

    def defect_without_theta(n, lanes):
        with monkeypatch.context() as m:
            m.setattr(an, "packed_skew_shift", cd.packed_rotation)
            return an.image_shift_defect(n, lanes)

    def maps(n, lanes):
        m = n * lanes  # the entry-local maps take the chunk's entry count
        gray_fold = an.image_weight_fold(m)
        return (cd.packed_rotation(n, lanes), cd.packed_skew_shift(n, lanes),
                an.image_shift_defect(n, lanes), defect_without_theta(n, lanes),
                an.packed_weight_fold(m, "lee"), an.packed_weight_fold(m, "hamming"),
                lambda p, image=an.packed_gray_image(m): gray_fold(image(p)))

    for n in range(1, 10):
        width = 4 * n
        per_word = maps(n, 1)
        for lanes in (1, 2, 7, 4096):
            words = [rng.getrandbits(width - 4) | rng.randrange(1, 16) << width - 4
                     for _ in range(lanes)]
            p = sum(w << width * i for i, w in enumerate(words))
            for lane_form, word_map in zip(maps(n, lanes), per_word):
                got = lane_form(p)
                assert got >> width * lanes == 0, (n, lanes)
                assert [got >> width * i & (1 << width) - 1 for i in range(lanes)] == \
                    list(map(word_map, words)), (n, lanes)


def test_image_shift_identity_exhaustive_short():
    for n in (1, 2):
        defect = an.image_shift_defect(n)
        assert not any(map(defect, range(16 ** n)))  # every packed word of length n


def test_image_shift_identity_sampled():
    rng = random.Random(13)
    for n in (3, 4, 5, 6):
        defect = an.image_shift_defect(n)
        for _ in range(2000):
            assert not defect(rng.getrandbits(4 * n))


WORD_PAIRS = st.integers(1, 8).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.integers(0, 15)] * n)] * 2))


@given(WORD_PAIRS)
def test_gray_map_is_an_isometry(pair):
    u, w = pair
    d = lee_distance(u, w)
    assert d == hamming_distance(gray_image(u), gray_image(w))
    n, (pu, pw) = len(u), map(cd.pack, pair)
    image = an.packed_gray_image(n)
    lee, fold = an.packed_weight_fold(n, "lee"), an.image_weight_fold(n)
    assert lee(pu ^ pw).bit_count() == fold(image(pu) ^ image(pw)).bit_count() == d


def test_gray_image_report(sixteen_word_code):
    report = an.gray_image_report(sixteen_word_code)
    assert report.identity_holds
    assert report.image_closed
    assert report.lee_min == 3
    assert report.gray_hamming_min == 3
    assert report.distance_preserved


def test_gray_image_report_negative_control(sixteen_word_code, codeset_words):
    # a set that is not skew-shift closed: its image cannot be rotation
    # closed, and not being closed under v either, it is no code to report on
    basis = (cd.pack((1, 0, 0, 0, 0, 0)),)
    fake = cd.CodeSet(sixteen_word_code.code, cd.echelon(basis))
    assert codeset_words(fake) == {(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)}
    assert not an.image_shift_defect(6)(basis[0])  # per-word, always true
    assert not an.image_closed_on_basis(fake.code, fake.basis)
    with pytest.raises(ValueError, match="not closed under v"):
        an.gray_image_report(fake)
