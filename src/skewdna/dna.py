"""DNA alphabet layer: encoding, reversal, complementation, classification.

Each GF(4) value names one nucleotide (0 A, 1 T, w C, w2 G) and each ring
element therefore names two, via its GF(4) coordinate pair: the element
a + b*v encodes the block (a+b, a).  A length-n word over the ring encodes a
DNA string of length 2n.  Watson-Crick complementation A<->T, C<->G is
addition of 1 on GF(4) values and on ring elements alike.

Reversing the encoded DNA string also swaps the two bases inside each block,
and swapping the coordinate pair of x is exactly the pair of theta(x).  So
string reversal pulls back to the ring as "apply theta entrywise, then
reverse the word" (theta_reverse below), and string reverse-complement
additionally adds the all-ones word.  The closure checks work on packed
ring words through this translation; the tests pin it to the string level.

A base's rank in the order A < C < G < T is GF(2)-linear in its GF(4)
value, so the sorted order of the DNA strings is the integer order of a
GF(2)-linear image of the packed words; encode_codeset makes the strings in
that order from a basis of the image, a chunk of words at a time, and sorts
nothing.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from . import skewpoly as sp
from .algebra import _THETA, UNITS, gray, r_inv, r_mul
from .codes import (
    FORM_OTHER,
    FORM_UNIT,
    FORM_V,
    FORM_V1,
    CodeSet,
    SkewCyclicCode,
    classify_generator,
    echelon,
    remainder_membership,
    spans,
    unpack,
)

BASE_OF_GF4 = "ATCG"  # index by GF(4) value: 0 A, 1 T, w C, w2 G

_BLOCK_OF_R = tuple(
    BASE_OF_GF4[gray(x)[0]] + BASE_OF_GF4[gray(x)[1]] for x in range(16)
)
# each element's block as two hex digits, the bases' ranks in A < C < G < T
_RANK_OF_R = tuple(int(block.translate(str.maketrans("ACGT", "0123")), 16)
                   for block in _BLOCK_OF_R)
_CHUNK_ROWS = 12  # encode_codeset formats 2^12 words at a time
_LETTERS = str.maketrans("01234567", 'ACGT",\n ')  # rank digits, then separators
_SEP_DIGITS = str.maketrans('",\n ', "4567")


def encode_element(x: int) -> str:
    return _BLOCK_OF_R[x]


def theta_reverse(n: int):
    """Ring image of DNA string reversal on packed words of length n
    (codes.pack): theta entrywise as a mask, then the entry order reversed
    by reversing the bytes and swapping the two nibbles of each, which for
    odd n leaves the empty padding entry at the bottom to shift out."""
    m3, nbytes, pad = 3 * int("1" * n, 16), (n + 1) // 2, 4 * (n % 2)
    lo = int("0f" * nbytes, 16)

    def reverse(p: int) -> int:
        p ^= (p >> 2) & m3
        p = int.from_bytes(p.to_bytes(nbytes, "little"), "big")
        return ((p & lo) << 4 | (p >> 4) & lo) >> pad

    return reverse


def theta_reverse_complement(n: int):
    """theta_reverse plus the all-ones word: the ring image of DNA reverse-complement."""
    reverse, ones = theta_reverse(n), int("1" * n, 16)
    return lambda p: reverse(p) ^ ones


def _rank_rows(codeset: CodeSet) -> list[int]:
    """The rank images of the code's words, in reduced echelon form with
    ascending pivots: one row per basis dimension, lowest pivot first."""
    n = codeset.n
    pivots = echelon(int("".join(f"{_RANK_OF_R[c]:02x}" for c in unpack(p, n)), 16)
                     for p in codeset.basis.values())
    rows: list[int] = []
    for bit in range(8 * n):
        if row := pivots.get(bit):
            for lower in rows:  # clear every lower pivot
                if row >> lower.bit_length() - 1 & 1:
                    row ^= lower
            rows.append(row)
    return rows


def encoded_chunks(codeset: CodeSet, sep: str) -> Iterator[str]:
    """The sorted DNA strings of all codewords joined by sep, in chunks of
    2^_CHUNK_ROWS strings with sep between chunks as within them; sep is
    made of '"', ',', newline and space.  The call makes the rank rows and
    a chunk's lanes, and iterating makes each chunk's text, so the text is
    never held whole.

    The words of a chunk are lanes of one integer, a word's 2n rank digits
    followed by sep's digits (4 to 7 for '"', ',', newline and space), lane
    0 on top; the last lane's sep is shifted out.  The lanes of the low rows
    are built by doubling: lane j holds the XOR of the rows at the set bits
    of j.  Each combination of the high rows, in counting order, is XORed
    into every lane at once, and the chunk becomes text by one format and
    one translate.
    """
    tail = 4 * len(sep)
    rows = _rank_rows(codeset)
    # one lane: the zero word and sep; ones holds bit 0 of every lane
    chunk, ones, bits = int(sep.translate(_SEP_DIGITS), 16), 1, 8 * codeset.n + tail
    for row in rows[:_CHUNK_ROWS]:
        chunk, ones = chunk << bits | (chunk ^ row * ones << tail), ones << bits | ones
        bits *= 2
    chunk >>= tail  # the words sit at bit 0 of each lane now, like the sums
    spec = f"0{bits // 4 - len(sep)}x"
    sums = [0]
    for row in rows[_CHUNK_ROWS:]:
        sums += [s ^ row for s in sums]
    return (format(chunk ^ s * ones, spec).translate(_LETTERS) for s in sums)


def encode_codeset(codeset: CodeSet) -> list[str]:
    """Sorted DNA strings of all codewords, made in sorted order, not sorted.

    A block's rank in the order A < C < G < T is GF(2)-linear in its
    element's 4 bits (each GF(4) part x0 + x1*w gives a base with high rank
    bit x0 and low rank bit x0 + x1).  So the word whose entry i has block
    b0 b1 has the rank image with hex digits rank(b0) rank(b1) at entry i,
    entry 0 first: a GF(2)-linear map, under which the strings' order is the
    images' integer order.  Let r_0, ..., r_(k-1) be the images of the code
    in reduced echelon form with ascending pivots, so no row but r_t has a
    bit at r_t's pivot, its top bit.  Word j, the XOR of the rows at the set
    bits of j, then increases with j: if t is the highest bit where j < j'
    differ, the two words differ by r_t and rows below it, so they agree
    above r_t's pivot, and only word j' has that bit.  encoded_chunks makes
    the words in that order, a chunk at a time; this splits its chunks.
    """
    return [s for chunk in encoded_chunks(codeset, ",") for s in chunk.split(",")]


# ---------------------------------------------------------------------------
# closure checks
#
# Every code is a GF(2)-subspace spanned by its basis: it contains c + 1 for
# every c exactly when it contains 1 = 0 + 1, and c -> theta_reverse(c) + 1
# maps it into itself exactly when it contains 1 and is reversible.  So each
# decision is one span test of a few words, at any size; the tests keep set
# oracles.  The *_on_basis forms need only the code's pivot table (span_basis).


def _theta_reversed_generators(code: SkewCyclicCode):
    return map(theta_reverse(code.n), code.generator_words())


def reversible_on_basis(code: SkewCyclicCode, basis) -> bool:
    """Closure under theta_reverse, tested on the generators g_i.

    With sigma the skew shift, theta_reverse(sigma(c)) = sigma^-1(theta_reverse(c))
    and theta_reverse(lam * c) = theta(lam) * theta_reverse(c).  So theta_reverse
    maps each codeword, a sum of terms lam * sigma^j(g_i), to the sum of
    theta(lam) * sigma^-j(theta_reverse(g_i)), a codeword whenever each
    theta_reverse(g_i) is, as sigma^-1 is a power of sigma (Boucher,
    Geiselmann and Ulmer, "Skew-cyclic codes", AAECC 2007).
    """
    return spans(basis, _theta_reversed_generators(code))


def complement_on_basis(code: SkewCyclicCode, basis) -> bool:
    return spans(basis, [int("1" * code.n, 16)])


def reverse_complement_on_basis(code: SkewCyclicCode, basis) -> bool:
    return spans(basis, [int("1" * code.n, 16), *_theta_reversed_generators(code)])


def is_reversible(codeset: CodeSet) -> bool:
    return reversible_on_basis(codeset.code, codeset.basis)


def is_complement_closed(codeset: CodeSet) -> bool:
    return complement_on_basis(codeset.code, codeset.basis)


def is_reverse_complement_closed(codeset: CodeSet) -> bool:
    return reverse_complement_on_basis(codeset.code, codeset.basis)


def reversible_by_remainder(code: SkewCyclicCode) -> bool:
    """is_reversible for a single unit-form generator g, by one right
    remainder instead of the basis: <g> contains theta_reverse(g) exactly
    when g right-divides it.  Kept as an independent cross-check."""
    g = code.generator_words()[0]
    return remainder_membership(code, unpack(theta_reverse(code.n)(g), code.n))


# ---------------------------------------------------------------------------
# the paper's rules

# (g_0, g_t) -> a unit u with u*g_0 = theta(u)*theta(g_t), see predict
_MULTIPLIER = {(g0, _THETA[r_mul(r_mul(u, g0), r_inv(_THETA[u]))]): u
               for u in UNITS for g0 in UNITS}


def predict(n: int, form: str, g: sp.Poly) -> tuple[str, str]:
    """The paper's rules for <g> at length n, g of degree t and FORM_* shape
    form: (reversible, complement), each "yes", "no" or "unknown" (no rule
    applies).  classify prints them; verify's checks 6 to 9 sweep them.

    - unit form: reversible is "yes" when g is palindromic if n and t are
      both even, and otherwise when some unit multiple u*g is
      theta-palindromic; else "no" at even n, and "unknown" at odd n, where
      the rule is sufficient only.  Complement is "unknown".
    - v and v1 forms, the two refuted rules as the paper states them:
      reversible is "yes" for a palindromic g at even n and even t, else
      "no"; complement is "no".  <v*x^2 + v*x + v> at n = 3 refutes both.
    - any other form: "unknown" twice.

    At odd n the paper adds "or g palindromic", which is implied: a
    unit-form g is u*g1, g1 monic over GF(4) (codes.enumerate_right_divisors),
    and theta fixes GF(4).  One u decides the search: as R is commutative,
    u*g is theta-palindromic iff u*g_i = theta(u)*theta(g_(t-i)) for all i.
    g_0 is a unit (h_0*g_0 = 1 for h*g = x^n - 1; were it not, no u would
    fit), so i = 0 asks phi(u) = u*theta(u)^-1 to be theta(g_t)*g_0^-1.
    phi is a homomorphism on the units with kernel GF(4)*, the units theta
    fixes, so the u of one value differ by a c = theta(c), which scales both
    sides of every equation alike: _MULTIPLIER's u for (g_0, g_t) decides.
    """
    both_even = n % 2 == 0 and len(g) % 2 == 1  # n and t = len(g) - 1
    if form == FORM_UNIT:
        u = _MULTIPLIER.get((g[0], g[-1]))
        holds = (sp.is_palindromic(g) if both_even else
                 u is not None and sp.is_theta_palindromic(sp.scale(u, g)))
        return "yes" if holds else "no" if n % 2 == 0 else "unknown", "unknown"
    if form in (FORM_V, FORM_V1):
        return "yes" if both_even and sp.is_palindromic(g) else "no", "no"
    return "unknown", "unknown"


class DnaClassification(namedtuple("DnaClassification", (
        "n generator form palindromic theta_palindromic"
        " predicted_reversible predicted_reverse_complement"))):
    """A code's length, generator (an sp.Poly), the generator's FORM_* shape,
    whether it is palindromic and theta-palindromic, and classify's two
    predictions, "yes", "no" or "unknown", refuted rules too (see predict)."""

    __slots__ = ()


def classify(code: SkewCyclicCode, basis) -> DnaClassification:
    """predict's answers for a single-generator code at its generator's form.
    Reverse-complement closure needs the all-ones word (the image of 0), and
    with that word in C it is reversibility: theta_reverse plus the word maps
    C into C iff theta_reverse does.  So it is "unknown" for other forms, and
    "no" where complement is "no" or basis (codes.span_basis, read for unit
    forms only) misses the all-ones word; else it is as reversible."""
    if len(code.generators) != 1:
        raise ValueError("classification covers single-generator codes")
    n, g = code.n, code.generators[0]
    form = classify_generator(n, g)
    rev, complement = predict(n, form, g)
    rc = ("unknown" if form == FORM_OTHER else
          "no" if complement == "no" or not complement_on_basis(code, basis) else rev)
    return DnaClassification(n, g, form, sp.is_palindromic(g), sp.is_theta_palindromic(g),
                             rev, rc)
