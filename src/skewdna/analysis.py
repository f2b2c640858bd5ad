"""Weights, distances, and the shape of Gray images.

Lee weight counts the nonzero GF(4) coordinates of each entry (0 for zero,
1 for the six nonzero zero divisors, 2 for the nine units), so the Lee
weight of a word equals the Hamming weight of its Gray image over GF(4);
Hamming weight counts nonzero ring entries.  Both induce distances through
XOR differences, and every code produced by this package is an
F2-subspace, so minimum distance is minimum nonzero weight.  Every map here
acts on packed words (codes.pack) with a few masks, and a weight is one
popcount.  min_distance walks only a code's component vC, whose nonzero
entries are the multiples of v and weigh 1 in both metrics, so one count
is every code's Lee and Hamming minimum; the skew shift carries vC onto
the other component (1+v)C, weight for weight.

The Gray image of a skew cyclic code is not cyclic, but it is one fixed
permutation away from a 2-quasi-cyclic code: rotating the image of c right
by two places and then swapping each adjacent pair of coordinates gives the
image of the skew shift of c.  That identity is coordinate algebra, proved
per word; gray_image_report decides it, and image_closed_on_basis the
image's closure under the permutation, on a code's basis.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice

# skew_shift is read nowhere here: perfbench's tracer pins this binding
from .codes import (CodeSet, SkewCyclicCode, echelon, packed_rotation, packed_skew_shift,
                    packed_times_v, skew_shift, spans)


def packed_lee_fold(n: int):
    """Lee weight fold on packed words of length n (codes.pack): each
    entry's weight as bits 0 and 2 of its nibble, so a word's weight is the
    fold's bit_count.  Entry-local: built for n*k entries, it folds k words
    at once.  It counts the nonzero GF(4) parts of the Gray pair (a + b, a)
    of each entry a | b << 2: z = p ^ (a << 2) holds a in bits 0-1 and a + b
    in bits 2-3, and each part folds onto its low bit."""
    ones = int("1" * n, 16)  # bit 0 of every entry
    m3, m5 = 3 * ones, 5 * ones

    def fold(p: int) -> int:
        z = p ^ (p & m3) << 2
        return (z | z >> 1) & m5

    return fold


def min_distance(codeset: CodeSet) -> int:
    """Minimum distance of an F2-additive code, Lee and Hamming alike:
    least nonzero-word weight, read off the component vC alone, 2^(k/2)
    words for 2^k.

    For c = a + b*v, v*c = (a + b)*v and (1+v)*c = a + a*v.  A code is
    closed under scalars, so both components lie in C, c = v*c + (1+v)*c,
    and C = vC + (1+v)C.  Each nonzero entry of a component word has Lee
    weight 1, so there Lee and Hamming agree, and for c != 0,
    Lee(c) >= Ham(c) >= max(Ham(v*c), Ham((1+v)*c)).  So in both metrics the
    minimum is the least weight of a nonzero component word.  The skew shift
    sigma keeps both weights (theta swaps an entry's Gray pair) and
    sigma(v*c) = (1+v)*sigma(c), so sigma maps vC onto (1+v)C, and vC holds
    the minimum, with half of C's dimension.  An entry of vC is (a + b)*v,
    in bits 2-3 of its nibble, so a word's weight is the count of entries
    with either bit set.  That needs a set closed under v and sigma; a basis
    that is not is no code, and it is refused.  The walk stops at its first
    word of weight 1, as no nonzero word weighs less.
    """
    n, basis = codeset.n, codeset.basis
    images = [*map(packed_times_v(n), basis.values())]
    if not spans(basis, [*images, *map(packed_skew_shift(n), basis.values())]):
        raise ValueError("the basis is not closed under v and the skew shift, so it spans no code")
    component = CodeSet(codeset.code, echelon(images))
    if not component.basis:
        raise ValueError("zero code has no minimum distance")
    v_bits = 4 * int("1" * n, 16)  # bit 2 of every entry
    best = n  # a word of vC weighs at most 1 per entry
    for p in islice(component.walk(), 1, None):
        if (weight := ((p | p >> 1) & v_bits).bit_count()) < best:
            best = weight
            if weight == 1:
                break
    return best


# ---------------------------------------------------------------------------
# Gray images and the quasi-cyclic permutation identity


def packed_gray_image(n: int):
    """The Gray image of packed words of length n, a GF(4) word of length 2n
    at two bits per coordinate: entry a | b << 2 gives a + b, a in its nibble.
    Entry-local, as the weight folds are."""
    m3 = 3 * int("1" * n, 16)
    return lambda p: (p ^ p >> 2) & m3 | (p & m3) << 2


def image_weight_fold(n: int):
    """Hamming weight fold of packed Gray images of length 2n: each
    coordinate's two bits OR-folded onto its lowest, bits 0 and 2 of the
    entry's nibble; the weight is its bit_count."""
    m5 = 5 * int("1" * n, 16)
    return lambda img: (img | img >> 1) & m5


def image_shift_defect(n: int, lanes: int = 1):
    """The per-word identity on packed words of length n, lane by lane as in
    codes.packed_rotation: swap-pairs of rotate-right-2 of the Gray image
    XOR the image of packed_skew_shift, zero in exactly the lanes where the
    identity holds."""
    image, m3 = packed_gray_image(n * lanes), 3 * int("1" * (n * lanes), 16)
    shift, rotate = packed_skew_shift(n, lanes), packed_rotation(n, lanes)

    def defect(p: int) -> int:
        img = rotate(image(p))
        return ((img & m3) << 2 | (img >> 2) & m3) ^ image(shift(p))

    return defect


class GrayImageReport(namedtuple("GrayImageReport", (
        "n size identity_holds image_closed lee_min gray_hamming_min"))):
    """The Gray image of a code of length n and size words.  identity_holds:
    image_shift_defect is 0 on every codeword; image_closed: the image set
    is fixed by swap-pairs o rotate2; lee_min and gray_hamming_min: the
    code's least Lee weight and its image's least Hamming weight."""

    __slots__ = ()


def image_closed_on_basis(code: SkewCyclicCode, basis) -> bool:
    """image_closed of GrayImageReport.  gray^-1 o swap-pairs o
    rotate-right-2 o gray is the skew shift: the rotation moves each entry's
    Gray pair (a + b, a) up one entry, and swapping the pair and inverting
    the Gray map gives (a + b) + b*v, theta of the entry.  Both maps are
    GF(2)-linear, so the image is closed exactly when the span holds each
    basis vector's packed_skew_shift.

    span_basis closes every code under the skew shift, so this answers true
    on every basis it builds, and check --property quasi-cyclic holds for
    every code.  It stays as the test of that closure, which fails on the
    bases built by hand without it in the tests' negative controls."""
    return spans(basis, map(packed_skew_shift(code.n), basis.values()))


def gray_image_report(codeset: CodeSet) -> GrayImageReport:
    """Check the quasi-cyclic equivalence and Lee/Hamming agreement at once;
    gray_hamming_min weighs the Gray image of every word."""
    image, fold = packed_gray_image(codeset.n), image_weight_fold(codeset.n)
    lee_min = min_distance(codeset)  # first: it refuses the zero code and non-codes
    # the identity is GF(2)-linear on both sides, so the basis decides it
    identity = not any(map(image_shift_defect(codeset.n), codeset.basis.values()))
    return GrayImageReport(
        n=codeset.n,
        size=codeset.size,
        identity_holds=identity,
        image_closed=image_closed_on_basis(codeset.code, codeset.basis),
        lee_min=lee_min,
        gray_hamming_min=min(fold(image(p)).bit_count() for p in islice(codeset.walk(), 1, None)),
    )
