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
"""

import random
from itertools import islice

import pytest

from skewdna import analysis as an
from skewdna import codes as cd
from skewdna import dna
from skewdna import skewpoly as sp
from skewdna.algebra import is_unit, r_mul, theta

# transcribed by hand: the sixteen DNA strings of the length-6 code
# generated by v(x^4 + x^2 + 1)
REFERENCE_DNA_STRINGS = (
    "AAAAAAAAAAAA", "TAATTAATTAAT", "CAACCAACCAAC", "GAAGGAAGGAAG",
    "TAAATAAATAAA", "AAATAAATAAAT", "CAAACAAACAAA", "AAACAAACAAAC",
    "GAAAGAAAGAAA", "AAAGAAAGAAAG", "CAATCAATCAAT", "TAACTAACTAAC",
    "GAATGAATGAAT", "TAAGTAAGTAAG", "GAACGAACGAAC", "CAAGCAAGCAAG",
)


def naive_closure_impl(n, gens, cap=5000):
    """Words packed 4 bits per entry into ints, as in codes.pack, and kept
    in an int set; the result is unpacked to a set of tuples."""

    def entries(p):
        return [(p >> (4 * i)) & 15 for i in range(n)]

    def packed(values):
        return sum(c << (4 * i) for i, c in enumerate(values))

    start = [cd.pack(cd.poly_to_word(g, n)) for g in gens]
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
    return all(dna.theta_reverse(w) in words for w in words)


def set_is_complement_closed(codeset):
    words = tuple_words(codeset)
    return all(dna.complement_word(w) in words for w in words)


def set_is_reverse_complement_closed(codeset):
    words = tuple_words(codeset)
    return all(dna.complement_word(dna.theta_reverse(w)) in words for w in words)


def packed_words(codeset):
    """Every codeword as a packed int (4 bits per entry, as in codes.pack),
    walked in the Gray-code order of CodeSet.walk into an int set."""
    words, cur = {0}, 0
    for i in range(1, codeset.size):
        cur ^= codeset.basis[(i & -i).bit_length() - 1]
        words.add(cur)
    return words


def set_is_plain_cyclic(codeset):
    """Every word's plain rotation (last entry first, no theta) is a word."""
    words, top = packed_words(codeset), 4 * (codeset.n - 1)
    return all((p & ((1 << top) - 1)) << 4 | p >> top in words for p in words)


def set_image_rotation(codeset):
    """(identity_holds, image_closed) of analysis.GrayImageReport by their
    definitions: the per-word identity on every codeword, and the image set
    fixed by swap-pairs o rotate-right-2."""
    words = tuple_words(codeset)
    images = {an.gray_image(w) for w in words}
    identity = all(an.image_shift_commutes(w) for w in words)
    closed = all(an.swap_adjacent_pairs(an.rotate_right2(img)) in images for img in images)
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
    found = sorted(cd.word_to_poly(cd.unpack(p, codeset.n)) for p in found)
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
