"""Shared fixtures: deliberately naive oracles and reference data.

The closure oracle rebuilds a code as a literal work-queue fixpoint (skew
shift, all 16 scalar multiples, pairwise sums) over packed words.  It is
quadratic and slow on purpose; the packed span engine is validated against
it, never the other way around.  The set oracles decide the DNA closure
properties and the Gray-image rotation by their definitions, word by word
over the enumerated code; the package decides them on the code's basis or
generators and is validated against these, as are the plain-shift decision
and the minimal-degree scan, which read the basis; their oracles walk every
word.
"""

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


def set_is_reversible(codeset):
    words = codeset.words
    return all(dna.theta_reverse(w) in words for w in words)


def set_is_complement_closed(codeset):
    words = codeset.words
    return all(dna.complement_word(w) in words for w in words)


def set_is_reverse_complement_closed(codeset):
    words = codeset.words
    return all(dna.complement_word(dna.theta_reverse(w)) in words for w in words)


def set_is_plain_cyclic(codeset):
    words = codeset.words
    return all((w[-1],) + w[:-1] in words for w in words)


def set_image_rotation(codeset):
    """(identity_holds, image_closed) of analysis.GrayImageReport by their
    definitions: the per-word identity on every codeword, and the image set
    fixed by swap-pairs o rotate-right-2."""
    words = codeset.words
    images = {an.gray_image(w) for w in words}
    identity = all(an.image_shift_commutes(w) for w in words)
    closed = all(an.swap_adjacent_pairs(an.rotate_right2(img)) in images for img in images)
    return identity, closed


def naive_minimal_degree_scan(codeset):
    """minimal_degree_scan by its definition: every codeword is walked."""
    best = None
    found = []
    for w in codeset.words:
        f = cd.word_to_poly(w)
        if not f or is_unit(f[-1]):
            continue
        d = len(f) - 1
        if best is None or d < best:
            best, found = d, [f]
        elif d == best:
            found.append(f)
    if best is None:
        return cd.MinimalDegreeReport(False, None, (), (), None)
    found.sort()
    forms = tuple(cd._nonunit_factor_form(f) for f in found)
    return cd.MinimalDegreeReport(
        True, best, tuple(found), forms, all(fm is not None for fm in forms)
    )


@pytest.fixture
def naive_closure():
    return naive_closure_impl


@pytest.fixture
def set_oracles():
    """(decision under test, set oracle) for each closure property."""
    return (
        (dna.is_reversible, set_is_reversible),
        (dna.is_complement_closed, set_is_complement_closed),
        (dna.is_reverse_complement_closed, set_is_reverse_complement_closed),
    )


@pytest.fixture
def image_rotation_oracle():
    return set_image_rotation


@pytest.fixture(scope="session")
def word_walk_oracles():
    """(minimal-degree scan, plain-shift closure), each walking every word."""
    return naive_minimal_degree_scan, set_is_plain_cyclic


@pytest.fixture
def reference_dna_strings():
    return REFERENCE_DNA_STRINGS


@pytest.fixture(scope="session")
def sixteen_word_code():
    """The length-6 code <v(x^4 + x^2 + 1)>, materialized."""
    return cd.materialize(cd.code_from_generator(6, sp.parse_poly("v(x^4+x^2+1)")))
