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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import skewpoly as sp
from .algebra import gray, is_unit
from .codes import (
    FORM_UNIT,
    FORM_V,
    FORM_V1,
    CodeSet,
    SkewCyclicCode,
    Word,
    remainder_membership,
    spans,
    unpack,
)

BASE_OF_GF4 = "ATCG"  # index by GF(4) value: 0 A, 1 T, w C, w2 G

_BLOCK_OF_R = tuple(
    BASE_OF_GF4[gray(x)[0]] + BASE_OF_GF4[gray(x)[1]] for x in range(16)
)
# the four bases of a byte of a packed word: its low entry, then its high one
_BLOCKS_OF_BYTE = tuple(_BLOCK_OF_R[b & 15] + _BLOCK_OF_R[b >> 4] for b in range(256))

_WCC = str.maketrans("ATCG", "TAGC")


def encode_element(x: int) -> str:
    return _BLOCK_OF_R[x]


def encode_word(word: Word) -> str:
    return "".join(_BLOCK_OF_R[c] for c in word)


def dna_reverse(s: str) -> str:
    return s[::-1]


def dna_complement(s: str) -> str:
    return s.translate(_WCC)


def dna_reverse_complement(s: str) -> str:
    return s[::-1].translate(_WCC)


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


def encode_codeset(codeset: CodeSet) -> list[str]:
    """Sorted DNA strings of all codewords, walked as packed words, whose
    little-endian bytes hold two entries each (odd n pads one, cut off)."""
    nbytes, length = (codeset.n + 1) // 2, 2 * codeset.n
    blocks = _BLOCKS_OF_BYTE.__getitem__
    return sorted("".join(map(blocks, p.to_bytes(nbytes, "little")))[:length]
                  for p in codeset.walk())


# ---------------------------------------------------------------------------
# closure checks
#
# Every code is a GF(2)-subspace spanned by its basis: it contains c + 1 for
# every c exactly when it contains 1 = 0 + 1, and c -> theta_reverse(c) + 1
# maps it into itself exactly when it contains 1 and is reversible.  So each
# decision is one span test of a few words, at any size; the tests keep set
# oracles.  The *_on_basis forms need no CodeSet, only the code's basis.


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
# rule-based classification


@dataclass(frozen=True)
class DnaClassification:
    """What the structural rules predict for a single-generator code.

    predicted_* fields are "yes", "no" or "unknown"; "unknown" means no rule
    with matching hypotheses applies.  The predictions follow the paper's
    rules from the generator's shape alone (plus, for unit forms, whether
    the code's basis spans the all-ones word), including the two rules the
    verification sweeps refute: that v- and (v+1)-shaped generators give no
    reversible code at odd length or odd degree, and no complement-closed
    code at all.  So a prediction can be wrong: <v*x^2 + v*x + v> at n = 3
    is predicted "no" twice, yet is reversible and reverse-complement
    closed, as the *_on_basis decisions (the check command) find exactly.
    """

    n: int
    generator: sp.Poly
    form: str
    palindromic: bool
    theta_palindromic: bool
    predicted_reversible: str
    predicted_reverse_complement: str


def theta_palindromic_generator_exists(g: sp.Poly) -> bool:
    """Whether some unit left multiple of g is theta-palindromic.

    For a monic right divisor with odd degree this reduces to the single
    candidate a0 * g where a0 is the constant coefficient, but checking all
    unit multiples keeps the test shape-independent.
    """
    return any(sp.is_theta_palindromic(sp.scale(u, g)) for u in range(1, 16) if is_unit(u))


def palindromic_generator_exists(g: sp.Poly) -> bool:
    return any(sp.is_palindromic(sp.scale(u, g)) for u in range(1, 16) if is_unit(u))


def classify(code: SkewCyclicCode, basis) -> DnaClassification:
    """The rules' predictions for code.  basis is its GF(2) basis
    (codes.code_basis); only the unit-form rules read it, for the all-ones
    word."""
    if len(code.generators) != 1:
        raise ValueError("classification covers single-generator codes")
    n, g, form = code.n, code.generators[0], code.forms[0]
    t = len(g) - 1
    pal = sp.is_palindromic(g)
    tpal = sp.is_theta_palindromic(g)
    rev = "unknown"
    rc = "unknown"

    if form == FORM_UNIT:
        all_ones = complement_on_basis(code, basis)
        if n % 2 == 0:
            if t % 2 == 0:
                rev = "yes" if pal else "no"
            else:
                rev = "yes" if theta_palindromic_generator_exists(g) else "no"
            rc = "yes" if (rev == "yes" and all_ones) else "no"
        else:
            # odd length: palindromic or theta-palindromic generators are
            # sufficient; no necessary criterion is applied.
            if palindromic_generator_exists(g) or theta_palindromic_generator_exists(g):
                rev = "yes"
            if not all_ones:
                rc = "no"  # complement closure forces the all-ones word
            elif rev == "yes":
                rc = "yes"
    elif form in (FORM_V, FORM_V1):
        if n % 2 == 0 and t % 2 == 0:
            rev = "yes" if pal else "no"
        else:
            # the impossibility rule for odd n or odd degree, stated for
            # generators of this shape; see DnaClassification's caveat
            rev = "no"
        rc = "no"

    return DnaClassification(
        n=n,
        generator=g,
        form=form,
        palindromic=pal,
        theta_palindromic=tpal,
        predicted_reversible=rev,
        predicted_reverse_complement=rc,
    )
