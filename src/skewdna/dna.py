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
additionally adds the all-ones word.  The closure checks work on ring words
through this translation; encode/decode round-trip tests pin it to the
string level.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import skewpoly as sp
from .algebra import _THETA as _TH, gray, is_unit, r_inv
from .codes import (
    FORM_UNIT,
    FORM_V,
    FORM_V1,
    CodeSet,
    SkewCyclicCode,
    Word,
    in_span,
    pack,
    poly_to_word,
    remainder_membership,
    unpack,
)

BASE_OF_GF4 = "ATCG"  # index by GF(4) value: 0 A, 1 T, w C, w2 G
GF4_OF_BASE = {b: i for i, b in enumerate(BASE_OF_GF4)}

_BLOCK_OF_R = tuple(
    BASE_OF_GF4[gray(x)[0]] + BASE_OF_GF4[gray(x)[1]] for x in range(16)
)
_R_OF_BLOCK = {block: x for x, block in enumerate(_BLOCK_OF_R)}

_WCC = str.maketrans("ATCG", "TAGC")


def encode_element(x: int) -> str:
    return _BLOCK_OF_R[x]


def encode_word(word: Word) -> str:
    return "".join(_BLOCK_OF_R[c] for c in word)


def decode_dna(s: str) -> Word:
    if len(s) % 2:
        raise ValueError("DNA string length must be even")
    try:
        return tuple(_R_OF_BLOCK[s[i : i + 2]] for i in range(0, len(s), 2))
    except KeyError:
        bad = set(s) - set("ATCG")
        raise ValueError(f"not a DNA string over ATCG: {bad or s!r}") from None


def dna_reverse(s: str) -> str:
    return s[::-1]


def dna_complement(s: str) -> str:
    return s.translate(_WCC)


def dna_reverse_complement(s: str) -> str:
    return s[::-1].translate(_WCC)


def theta_reverse(word: Word) -> Word:
    """Ring image of DNA string reversal: theta entrywise, order reversed."""
    return tuple(_TH[c] for c in reversed(word))


def complement_word(word: Word) -> Word:
    """Ring image of Watson-Crick complementation: add the all-ones word."""
    return tuple(c ^ 1 for c in word)


def encode_codeset(codeset: CodeSet) -> list[str]:
    """Sorted DNA strings of all codewords."""
    return sorted(encode_word(w) for w in codeset.words)


# ---------------------------------------------------------------------------
# closure checks
#
# Every code is a GF(2)-subspace, and theta_reverse and adding the all-ones
# word are the two maps to test it against.  theta_reverse is GF(2)-linear,
# so it maps the code into itself exactly when it maps each basis vector
# into the span.  A subspace contains c + 1 for every c exactly when it
# contains 1 = 0 + 1.  Reverse-complement closure, c -> theta_reverse(c) + 1,
# follows: applied to 0 it demands the all-ones word, and then subtracting
# that word leaves reversibility.  So all three decisions run on the basis
# of the CodeSet and never enumerate its words; set-based definitions stay
# in the tests as oracles.


def is_reversible(codeset: CodeSet) -> bool:
    n, basis = codeset.n, codeset.basis
    return all(in_span(pack(theta_reverse(unpack(b, n))), basis) for b in basis)


def is_complement_closed(codeset: CodeSet) -> bool:
    return in_span(pack((1,) * codeset.n), codeset.basis)


def is_reverse_complement_closed(codeset: CodeSet) -> bool:
    return is_complement_closed(codeset) and is_reversible(codeset)


def reversible_by_remainder(code: SkewCyclicCode) -> bool:
    """Reversibility for a single unit-form generator g, without a basis.

    With sigma the skew shift, theta_reverse(sigma(c)) equals
    sigma^-1(theta_reverse(c)), and theta_reverse(lam * c) equals
    theta(lam) * theta_reverse(c).  The code <g> is the set of sums of
    lam_j * sigma^j(g), so theta_reverse(<g>) is the set of sums of
    theta(lam_j) * sigma^-j(theta_reverse(g)): the code generated by
    theta_reverse(g), as sigma has finite order.  Both codes have the same
    size, so <g> is reversible exactly when it contains theta_reverse(g),
    which one right remainder decides.
    """
    g = poly_to_word(code.generators[0], code.n)
    return remainder_membership(code, theta_reverse(g))


# ---------------------------------------------------------------------------
# rule-based classification


@dataclass(frozen=True)
class DnaClassification:
    """What the structural rules predict for a single-generator code.

    predicted_* fields are "yes", "no" or "unknown"; "unknown" means no rule
    with matching hypotheses applies.  The predictions follow the paper's
    rules from the generator's shape alone (plus cheap remainder membership
    for the all-ones word), including the two rules the verification sweeps
    refute: that v- and (v+1)-shaped generators give no reversible code at
    odd length or odd degree, and no complement-closed code at all.  So a
    prediction can be wrong: <v*x^2 + v*x + v> at n = 3 is predicted "no"
    twice, yet is reversible and reverse-complement closed.
    is_reversible, is_complement_closed and is_reverse_complement_closed
    (the check command) decide each property exactly.
    """

    n: int
    generator: sp.Poly
    form: str
    n_parity: str
    degree_parity: str
    palindromic: bool
    theta_palindromic: bool
    predicted_reversible: str
    predicted_reverse_complement: str


def _monic_scaled(g: sp.Poly) -> sp.Poly:
    lead = g[-1]
    return g if lead == 1 else sp.scale(r_inv(lead), g)


def theta_palindromic_generator_exists(g: sp.Poly) -> bool:
    """Whether some unit left multiple of g is theta-palindromic.

    For a monic right divisor with odd degree this reduces to the single
    candidate a0 * g where a0 is the constant coefficient, but checking all
    unit multiples keeps the test shape-independent.
    """
    return any(sp.is_theta_palindromic(sp.scale(u, g)) for u in range(1, 16) if is_unit(u))


def palindromic_generator_exists(g: sp.Poly) -> bool:
    return any(sp.is_palindromic(sp.scale(u, g)) for u in range(1, 16) if is_unit(u))


def classify(code: SkewCyclicCode) -> DnaClassification:
    if len(code.generators) != 1:
        raise ValueError("classification covers single-generator codes")
    n, g, form = code.n, code.generators[0], code.forms[0]
    t = len(g) - 1
    pal = sp.is_palindromic(g)
    tpal = sp.is_theta_palindromic(g)
    rev = "unknown"
    rc = "unknown"

    if form == FORM_UNIT:
        if n % 2 == 0:
            if t % 2 == 0:
                rev = "yes" if pal else "no"
            else:
                rev = "yes" if theta_palindromic_generator_exists(_monic_scaled(g)) else "no"
            all_ones = remainder_membership(code, (1,) * n)
            rc = "yes" if (rev == "yes" and all_ones) else "no"
        else:
            # odd length: palindromic or theta-palindromic generators are
            # sufficient; no necessary criterion is applied.
            if pal or tpal or palindromic_generator_exists(g) or theta_palindromic_generator_exists(g):
                rev = "yes"
            all_ones = remainder_membership(code, (1,) * n)
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
        n_parity="even" if n % 2 == 0 else "odd",
        degree_parity="even" if t % 2 == 0 else "odd",
        palindromic=pal,
        theta_palindromic=tpal,
        predicted_reversible=rev,
        predicted_reverse_complement=rc,
    )
