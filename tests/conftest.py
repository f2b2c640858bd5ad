"""Shared fixtures: deliberately naive oracles and reference data.

The closure oracle rebuilds a code as a literal work-queue fixpoint (skew
shift, all 16 scalar multiples, pairwise sums) over packed words.  It is
quadratic and slow on purpose; the packed span engine is validated against
it, never the other way around.  The three-rule span oracle applies the
skew shift, w and v to every new basis vector; the engine, which applies
the shift alone to the orbits of four scalar multiples, is compared with
it, also at lengths the closure oracle cannot reach.  The queue oracle is
the engine's loop with every shift sent round its queue; the engine walks
each shift chain in place and must return the very same list.  The set oracles
decide the DNA closure properties and the Gray-image rotation by their
definitions, word by word over the enumerated code; the package decides
them on the code's basis or generators and is validated against these, as
are the plain-shift decision and the minimal-degree scan, which read the
basis, and the minimum distance, which walks the component vC alone; their
oracles walk every word.  The distance oracle weighs words in both metrics
with its own weights: the packed Hamming fold, which the package no longer
has, and a byte table built from LEE_WEIGHT.

The ring oracles theta, gray_inverse and LEE_WEIGHT follow the paper's
formulas on an element's parts, not the package's tables, which the tests
pin to them.
The tuple word maps (the skew shift's Gray-image form, weights and
distances, theta-reverse and complement, and membership of a tuple word)
define each map entry by entry on tuples of ring elements.  The package
runs only their packed forms, and the tests pin those to these.  The DNA
string maps (a tuple word's string, and the string reverse and Watson-Crick
complement) are the string-level definitions that the packed theta-reverse
and complement pull back.

The divisors row oracle builds each listed row one at a time from the
palindrome predicates, as the CLI did before it decided the flags a column
at a time; the CLI's block builder is compared with it on arbitrary rows.
"""

import json
import random
from itertools import islice

import pytest
from hypothesis import settings

from skewdna import codes as cd
from skewdna import dna
from skewdna import skewpoly as sp
from skewdna.algebra import from_parts, gray, is_unit, parts, r_mul, r_token

# every hypothesis test draws the same examples on every run, so a failure
# reproduces; each test keeps its example count
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# transcribed by hand: the sixteen DNA strings of the length-6 code
# generated by v(x^4 + x^2 + 1)
REFERENCE_DNA_STRINGS = (
    "AAAAAAAAAAAA", "TAATTAATTAAT", "CAACCAACCAAC", "GAAGGAAGGAAG",
    "TAAATAAATAAA", "AAATAAATAAAT", "CAAACAAACAAA", "AAACAAACAAAC",
    "GAAAGAAAGAAA", "AAAGAAAGAAAG", "CAATCAATCAAT", "TAACTAACTAAC",
    "GAATGAATGAAT", "TAAGTAAGTAAG", "GAACGAACGAAC", "CAAGCAAGCAAG",
)


# ---------------------------------------------------------------------------
# ring oracles


def theta(x):
    """The automorphism theta(a + b*v) = (a + b) + b*v."""
    a, b = parts(x)
    return from_parts(a ^ b, b)


def gray_inverse(pair):
    """The element a + b*v whose Gray pair (a + b, a) is pair."""
    p, q = pair
    return from_parts(q, p ^ q)


# ---------------------------------------------------------------------------
# tuple word maps


def membership(codeset, word):
    """Whether the tuple word lies in the code: its packed word in the span."""
    if len(word) != codeset.n:
        raise ValueError("word length does not match the code length")
    return cd.spans(codeset.basis, [cd.pack(word)])


def poly_to_word(f, n):
    """The word of a polynomial of degree below n, padded with zeros."""
    if len(f) > n:
        raise ValueError(f"degree {len(f) - 1} polynomial does not fit length {n}")
    return tuple(f) + (0,) * (n - len(f))


# Lee weight of a ring element a + b*v = number of nonzero parts of its
# Gray pair (a + b, a)
LEE_WEIGHT = tuple((a ^ b != 0) + (a != 0) for a, b in map(parts, range(16)))
# the Lee weight of a packed byte, two entries: bytes.translate then sum
LEE_BYTE_WEIGHTS = bytes(LEE_WEIGHT[x & 15] + LEE_WEIGHT[x >> 4] for x in range(256))


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


def packed_hamming_fold(n):
    """Hamming weight fold on packed words of length n: each entry's four
    bits OR-folded onto its lowest, so a word's weight is the fold's
    bit_count.  Entry-local: built for n*k entries, it folds k words at
    once."""
    ones = int("1" * n, 16)

    def fold(p):
        p |= p >> 2
        return (p | p >> 1) & ones

    return fold


def packed_lee_weight(n):
    """Lee weight of packed words of length n, entry by entry from
    LEE_WEIGHT: each byte's two entries through LEE_BYTE_WEIGHTS."""
    size = (n + 1) // 2
    return lambda p: sum(p.to_bytes(size, "little").translate(LEE_BYTE_WEIGHTS))


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
# DNA string maps


_WCC = str.maketrans("ATCG", "TAGC")


def encode_word(word):
    """The DNA string of a tuple word, one 2-base block per entry."""
    return "".join(map(dna.encode_element, word))


def dna_reverse(s):
    return s[::-1]


def dna_complement(s):
    return s.translate(_WCC)


def dna_reverse_complement(s):
    return s[::-1].translate(_WCC)


def randrange_word(rng, n):
    """A word drawn entry by entry with rng.randrange(16): the stream that
    verify._packed_draws draws in bulk."""
    return tuple(rng.randrange(16) for _ in range(n))


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


def three_rule_span_basis(n, generator_words):
    """GF(2) basis of the generated code by a fixpoint that applies all three
    closure rules to every new basis vector: the skew shift, w and v.  A span
    closed under w and v is closed under every scalar, their sums and
    products giving all of R."""
    m5, shift, times_v = 5 * int("1" * n, 16), cd.packed_skew_shift(n), cd.packed_times_v(n)
    pivots = {}
    queue = list(generator_words)
    while queue:
        vec = cd._reduce(queue.pop(), pivots)
        if vec:
            pivots[vec.bit_length() - 1] = vec
            queue += (shift(vec), (vec >> 1) & m5 | ((vec ^ vec >> 1) & m5) << 1, times_v(vec))
    return list(pivots.values())


def queue_span_basis(n, generator_words):
    """The span engine's closure with every shift sent round its queue: each
    new basis vector queues its skew shift, and the next pop reduces it.
    codes.span_basis walks each shift chain in place instead and must give
    the same vectors in the same order."""
    m5, shift, times_v = 5 * int("1" * n, 16), cd.packed_skew_shift(n), cd.packed_times_v(n)
    queue = []
    for g in generator_words:
        for p in (g, times_v(g)):  # each with w times it
            queue += (p, (p >> 1) & m5 | ((p ^ p >> 1) & m5) << 1)
    pivots = {}
    while queue:
        vec = cd._reduce(queue.pop(), pivots)
        if vec:
            pivots[vec.bit_length() - 1] = vec
            queue.append(shift(vec))
    return list(pivots.values())


def code_basis(code):
    """The span engine's vectors for code, in the order it found them."""
    return tuple(cd.span_basis(code.n, code.generator_words()).values())


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
    words, cur, basis = {0}, 0, tuple(codeset.basis.values())
    for i in range(1, codeset.size):
        cur ^= basis[(i & -i).bit_length() - 1]
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


def naive_min_distance(codeset):
    """min_distance by its definition, (Lee, Hamming): the least weight of
    every nonzero word in each metric, the words walked once."""
    words = list(islice(codeset.walk(), 1, None))
    if not words:
        raise ValueError("zero code has no minimum distance")
    fold = packed_hamming_fold(codeset.n)
    return min(map(packed_lee_weight(codeset.n), words)), min(fold(p).bit_count() for p in words)


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
def three_rule_span():
    return three_rule_span_basis


@pytest.fixture(scope="session")
def queue_span():
    return queue_span_basis


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


# ---------------------------------------------------------------------------
# divisors rows

DIVISOR_TAGS = ("-", "theta-palindromic", "palindromic", "palindromic, theta-palindromic")
_KEY, _ROW = "\n" + " " * 6, "\n" + " " * 4  # the indents of a row's keys and of a row


def divisor_row_chunks(found, structured, per_chunk):
    """The rows divisors writes for found, (shape, divisors) pairs, up to
    per_chunk joined by glue at a time, built row by row: head, g's tokens
    joined by sep, and the tail that 2 * palindromic + theta-palindromic of
    g picks, each flag decided by its predicate."""
    if structured:
        head, sep, glue = "{" + _KEY + '"coeffs": [' + _KEY + "  ", "," + _KEY + "  ", "," + _ROW
        tokens = [json.dumps(r_token(c)) for c in range(16)].__getitem__
        tails = {shape: [f'{_KEY}],{_KEY}"leading": {json.dumps(shape)},{_KEY}"palindromic": '
                         f'{pal},{_KEY}"theta_palindromic": {tpal}{_ROW}}}'
                         for pal in ("false", "true") for tpal in ("false", "true")]
                 for shape in (cd.FORM_UNIT, cd.FORM_V, cd.FORM_V1)}
    else:
        head, sep, glue, tokens = "[", ", ", "\n", r_token
        tails = {shape: [f"]  ({shape})  {tag}" for tag in DIVISOR_TAGS]
                 for shape in (cd.FORM_UNIT, cd.FORM_V, cd.FORM_V1)}
    chunks = []
    for shape, gs in found:
        ends = tails[shape]
        for i in range(0, len(gs), per_chunk):
            chunks.append(glue.join([head + sep.join(map(tokens, g))
                                     + ends[sp.is_palindromic(g) << 1 | sp.is_theta_palindromic(g)]
                                     for g in gs[i:i + per_chunk]]))
    return chunks
