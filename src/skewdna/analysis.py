"""Weights, distances, and the shape of Gray images.

Two metrics live here.  Hamming weight counts nonzero ring entries.  Lee
weight counts nonzero GF(4) coordinates of each entry (0 for zero, 1 for the
six nonzero zero divisors, 2 for the nine units), so the Lee weight of a word
equals the Hamming weight of its Gray image over GF(4).  Both induce
distances through XOR differences, and every code produced by this package
is an F2-subspace, so minimum distance is minimum nonzero weight.  Every
map here acts on packed words (codes.pack) with a few masks and one
popcount.  min_distance walks only a code's components vC and (1+v)C, where
Lee and Hamming weight agree, so every code's Lee and Hamming minima are
equal.

The Gray image of a skew cyclic code is not cyclic, but it is one fixed
permutation away from a 2-quasi-cyclic code: rotating the image of c right
by two places and then swapping each adjacent pair of coordinates gives the
image of the skew shift of c.  That identity is coordinate algebra, proved
per word; gray_image_report decides it, and image_closed_on_basis the
image's closure under the permutation, on a code's basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

# skew_shift is read nowhere here: perfbench's tracer pins this binding
from .codes import (CodeSet, SkewCyclicCode, echelon, packed_rotation, packed_skew_shift,
                    skew_shift, spans)


def packed_weigher(n: int, metric: str):
    """Weight function on packed words of length n (codes.pack).

    Hamming weight is one popcount of each entry's four bits OR-folded onto
    its lowest.  Lee weight counts the nonzero GF(4) parts of the Gray pair
    (a + b, a) of each entry a | b << 2: z = p ^ (a << 2) holds a in bits
    0-1 and a + b in bits 2-3, and each part folds onto its low bit.
    """
    ones = int("1" * n, 16)  # bit 0 of every entry
    if metric == "hamming":
        def weigh(p: int) -> int:
            p |= p >> 2
            return ((p | p >> 1) & ones).bit_count()
    elif metric == "lee":
        m3, m5 = 3 * ones, 5 * ones

        def weigh(p: int) -> int:
            z = p ^ (p & m3) << 2
            return ((z | z >> 1) & m5).bit_count()
    else:
        raise ValueError(f"unknown metric {metric!r}; use 'hamming' or 'lee'")
    return weigh


def min_distance(codeset: CodeSet, metric: str = "hamming") -> int:
    """Minimum distance of an F2-additive code: least nonzero-word weight,
    read off the components vC and (1+v)C, 2^k1 + 2^k2 words for 2^k.

    For c = a + b*v, v*c = (a + b)*v and (1+v)*c = a + a*v.  A code is
    closed under scalars, so both components lie in C, c = v*c + (1+v)*c,
    and C = vC + (1+v)C with k1 + k2 = k.  Each nonzero entry of a component
    word has Lee weight 1, so there Lee and Hamming agree, and for c != 0,
    Lee(c) >= Ham(c) >= max(Ham(v*c), Ham((1+v)*c)).  So in both metrics the
    minimum is the least weight of a nonzero component word.  A set whose
    component dimensions do not add up to k is not closed under v, so it is
    no code, and it is refused.
    """
    weigh, m3 = packed_weigher(codeset.n, metric), 3 * int("1" * codeset.n, 16)
    parts = [tuple(echelon(map(image, codeset.basis)))
             for image in (lambda p: ((p ^ p >> 2) & m3) << 2, lambda p: p & m3 | (p & m3) << 2)]
    if sum(map(len, parts)) != len(codeset.basis):
        raise ValueError("the basis is not closed under v, so it spans no code")
    best = min((weigh(p) for basis in parts
                for p in islice(CodeSet(codeset.code, basis).walk(), 1, None)), default=None)
    if best is None:
        raise ValueError("zero code has no minimum distance")
    return best


# ---------------------------------------------------------------------------
# Gray images and the quasi-cyclic permutation identity


def packed_gray_image(n: int):
    """The Gray image of packed words of length n, a GF(4) word of length 2n
    at two bits per coordinate: entry a | b << 2 gives a + b, a in its nibble."""
    m3 = 3 * int("1" * n, 16)
    return lambda p: (p ^ p >> 2) & m3 | (p & m3) << 2


def image_weigher(n: int):
    """Hamming weight of packed Gray images of length 2n: each coordinate's
    two bits OR-folded onto its lowest, then one popcount."""
    m5 = 5 * int("1" * n, 16)
    return lambda img: ((img | img >> 1) & m5).bit_count()


def image_shift_commutes(n: int):
    """The per-word identity on packed words of length n: swap-pairs of
    rotate-right-2 of the Gray image equals the image of packed_skew_shift."""
    image, shift, rotate = packed_gray_image(n), packed_skew_shift(n), packed_rotation(n)
    m3 = 3 * int("1" * n, 16)

    def commutes(p: int) -> bool:
        img = rotate(image(p))
        return ((img & m3) << 2 | (img >> 2) & m3) == image(shift(p))

    return commutes


@dataclass(frozen=True)
class GrayImageReport:
    n: int
    size: int
    identity_holds: bool        # image_shift_commutes on every codeword
    image_closed: bool          # image set fixed by swap-pairs o rotate2
    lee_min: int
    gray_hamming_min: int

    @property
    def distance_preserved(self) -> bool:
        return self.lee_min == self.gray_hamming_min


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
    return spans(basis, map(packed_skew_shift(code.n), basis))


def gray_image_report(codeset: CodeSet) -> GrayImageReport:
    """Check the quasi-cyclic equivalence and Lee/Hamming agreement at once;
    gray_hamming_min weighs the Gray image of every word."""
    image, weigh = packed_gray_image(codeset.n), image_weigher(codeset.n)
    lee_min = min_distance(codeset, "lee")  # first: it refuses the zero code and non-codes
    # the identity is GF(2)-linear on both sides, so the basis decides it
    identity = all(map(image_shift_commutes(codeset.n), codeset.basis))
    return GrayImageReport(
        n=codeset.n,
        size=codeset.size,
        identity_holds=identity,
        image_closed=image_closed_on_basis(codeset.code, codeset.basis),
        lee_min=lee_min,
        gray_hamming_min=min(weigh(image(p)) for p in islice(codeset.walk(), 1, None)),
    )
