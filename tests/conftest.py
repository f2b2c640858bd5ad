"""Shared fixtures: deliberately naive oracles and reference data.

The closure oracle rebuilds a code as a literal work-queue fixpoint (skew
shift, all 16 scalar multiples, pairwise sums) over packed words.  It is
quadratic and slow on purpose; the packed span engine is validated against
it, never the other way around.  The set oracles decide the DNA closure
properties and the Gray-image rotation by their definitions, word by word
over the enumerated code; the package decides them on the code's basis or
generators and is validated against these, as are the plain-shift decision
and the minimal-degree scan, which read the basis, and the minimum distance,
which walks the two components vC and (1+v)C; their oracles walk every
word.

The tuple word maps (the skew shift's Gray-image form, weights and
distances, theta-reverse and complement) define each map entry by entry on
tuples of ring elements.  The package runs only their packed forms, and the
tests pin those to these.
"""

import random
from itertools import islice

import pytest

from skewdna import analysis as an
from skewdna import codes as cd
from skewdna import dna
from skewdna import skewpoly as sp
from skewdna.algebra import gray, is_unit, r_mul, theta

# transcribed by hand: the sixteen DNA strings of the length-6 code
# generated by v(x^4 + x^2 + 1)
REFERENCE_DNA_STRINGS = (
    "AAAAAAAAAAAA", "TAATTAATTAAT", "CAACCAACCAAC", "GAAGGAAGGAAG",
    "TAAATAAATAAA", "AAATAAATAAAT", "CAAACAAACAAA", "AAACAAACAAAC",
    "GAAAGAAAGAAA", "AAAGAAAGAAAG", "CAATCAATCAAT", "TAACTAACTAAC",
    "GAATGAATGAAT", "TAAGTAAGTAAG", "GAACGAACGAAC", "CAAGCAAGCAAG",
)


# ---------------------------------------------------------------------------
# tuple word maps


def poly_to_word(f, n):
    """The word of a polynomial of degree below n, padded with zeros."""
    if len(f) > n:
        raise ValueError(f"degree {len(f) - 1} polynomial does not fit length {n}")
    return tuple(f) + (0,) * (n - len(f))


# Lee weight of a ring element = number of nonzero Gray coordinates.
LEE_WEIGHT = tuple((1 if gray(x)[0] else 0) + (1 if gray(x)[1] else 0) for x in range(16))


def hamming_weight(word):
    return sum(1 for c in word if c)


def lee_weight(word):
    return sum(LEE_WEIGHT[c] for c in word)


def hamming_distance(u, w):
    if len(u) != len(w):
        raise ValueError("length mismatch")
    return sum(1 for a, b in zip(u, w) if a != b)


def lee_distance(u, w):
    if len(u) != len(w):
        raise ValueError("length mismatch")
    return sum(LEE_WEIGHT[a ^ b] for a, b in zip(u, w))


def gray_image(word):
    """GF(4) word of length 2n: entries a + b*v contribute (a+b, a)."""
    out = []
    for c in word:
        p, q = gray(c)
        out.append(p)
        out.append(q)
    return tuple(out)


def rotate_right2(img):
    return img[-2:] + img[:-2]


def swap_adjacent_pairs(img):
    if len(img) % 2:
        raise ValueError("image length must be even")
    out = list(img)
    out[::2], out[1::2] = img[1::2], img[::2]
    return tuple(out)


def image_shift_commutes(word):
    """Per-word identity: swap-pairs of rotate-right-2 of the image is the
    image of the skew shift."""
    return swap_adjacent_pairs(rotate_right2(gray_image(word))) == gray_image(cd.skew_shift(word))


def theta_reverse(word):
    """Ring image of DNA string reversal: theta entrywise, order reversed."""
    return tuple(theta(c) for c in reversed(word))


def complement_word(word):
    """Ring image of Watson-Crick complementation: add the all-ones word."""
    return tuple(c ^ 1 for c in word)


# ---------------------------------------------------------------------------
# code oracles


def naive_closure_impl(n, gens, cap=5000):
    """Words packed 4 bits per entry into ints, as in codes.pack, and kept
    in an int set; the result is unpacked to a set of tuples."""

    def entries(p):
        return [(p >> (4 * i)) & 15 for i in range(n)]

    def packed(values):
        return sum(c << (4 * i) for i, c in enumerate(values))

    start = [cd.pack(poly_to_word(g, n)) for g in gens]
    words = {0, *start}
    queue = list(start)
    while queue:
        c = queue.pop()
        e = entries(c)
        new = [packed(theta(x) for x in e[-1:] + e[:-1])]
        new += [packed(r_mul(lam, x) for x in e) for lam in range(16)]
        new += [c ^ other for other in list(words)]
        for wd in new:
            if wd not in words:
                words.add(wd)
                queue.append(wd)
                if len(words) > cap:
                    raise RuntimeError("naive closure grew past the cap")
    return frozenset(cd.unpack(p, n) for p in words)


def tuple_words(codeset):
    """Every codeword as a tuple of ring elements, walked from the basis."""
    return frozenset(cd.unpack(p, codeset.n) for p in codeset.walk())


def set_is_reversible(codeset):
    words = tuple_words(codeset)
    return all(theta_reverse(w) in words for w in words)


def set_is_complement_closed(codeset):
    words = tuple_words(codeset)
    return all(complement_word(w) in words for w in words)


def set_is_reverse_complement_closed(codeset):
    words = tuple_words(codeset)
    return all(complement_word(theta_reverse(w)) in words for w in words)


def packed_words(codeset):
    """Every codeword as a packed int (4 bits per entry, as in codes.pack),
    walked in the Gray-code order of CodeSet.walk into an int set."""
    words, cur = {0}, 0
    for i in range(1, codeset.size):
        cur ^= codeset.basis[(i & -i).bit_length() - 1]
        words.add(cur)
    return words


def packed_is_reverse_complement_closed(codeset):
    """Closure under the packed map dna.theta_reverse_complement by its
    definition: every word is walked into an int set and each one's image
    looked up there.  verify-paper's check 9 decides it on the basis."""
    words, rc = packed_words(codeset), dna.theta_reverse_complement(codeset.n)
    return all(rc(p) in words for p in words)


def set_is_plain_cyclic(codeset):
    """Every word's plain rotation (last entry first, no theta) is a word."""
    words, top = packed_words(codeset), 4 * (codeset.n - 1)
    return all((p & ((1 << top) - 1)) << 4 | p >> top in words for p in words)


def set_image_rotation(codeset):
    """(identity_holds, image_closed) of analysis.GrayImageReport by their
    definitions: the per-word identity on every codeword, and the image set
    fixed by swap-pairs o rotate-right-2."""
    words = tuple_words(codeset)
    images = {gray_image(w) for w in words}
    identity = all(image_shift_commutes(w) for w in words)
    closed = all(swap_adjacent_pairs(rotate_right2(img)) in images for img in images)
    return identity, closed


def naive_minimal_degree_scan(codeset):
    """minimal_degree_scan by its definition: every codeword is walked, its
    degree and leading coefficient read off its highest nonzero entry."""
    best = None
    found = []
    for p in packed_words(codeset) - {0}:
        d = (p.bit_length() - 1) // 4
        if is_unit((p >> (4 * d)) & 15):
            continue
        if best is None or d < best:
            best, found = d, [p]
        elif d == best:
            found.append(p)
    if best is None:
        return cd.MinimalDegreeReport(False, None, (), (), None)
    found = sorted(sp.normalize(cd.unpack(p, codeset.n)) for p in found)
    forms = tuple(cd._nonunit_factor_form(f) for f in found)
    return cd.MinimalDegreeReport(
        True, best, tuple(found), forms, all(fm is not None for fm in forms)
    )


def naive_min_distance(codeset, metric):
    """min_distance by its definition: the least weight of every nonzero
    word, each one walked."""
    weigh = an.packed_weigher(codeset.n, metric)
    best = min(map(weigh, islice(codeset.walk(), 1, None)), default=None)
    if best is None:
        raise ValueError("zero code has no minimum distance")
    return best


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


@pytest.fixture(scope="session")
def codeset_words():
    return tuple_words


@pytest.fixture
def naive_closure():
    return naive_closure_impl


@pytest.fixture(scope="session")
def set_oracles():
    """(decision under test, set oracle) for each closure property."""
    return (
        (dna.is_reversible, set_is_reversible),
        (dna.is_complement_closed, set_is_complement_closed),
        (dna.is_reverse_complement_closed, set_is_reverse_complement_closed),
    )


@pytest.fixture(scope="session")
def packed_rc_oracle():
    return packed_is_reverse_complement_closed


@pytest.fixture
def min_distance_oracle():
    return naive_min_distance


@pytest.fixture
def image_rotation_oracle():
    return set_image_rotation


@pytest.fixture(scope="session")
def word_walk_oracles():
    """(minimal-degree scan, plain-shift closure), each walking every word."""
    return naive_minimal_degree_scan, set_is_plain_cyclic


@pytest.fixture(scope="session")
def word_walk_codes():
    """(code, size limit) for the word-walk inventory; the codes at or under
    their limit are the 375 that the walk oracles are compared on."""
    return list(_word_walk_codes())


@pytest.fixture
def reference_dna_strings():
    return REFERENCE_DNA_STRINGS


@pytest.fixture(scope="session")
def sixteen_word_code():
    """The length-6 code <v(x^4 + x^2 + 1)>, materialized."""
    return cd.materialize(cd.code_from_generator(6, sp.parse_poly("v(x^4+x^2+1)")))
