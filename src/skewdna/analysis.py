"""Weights, distances, and the shape of Gray images.

Two metrics live here.  Hamming weight counts nonzero ring entries.  Lee
weight counts nonzero GF(4) coordinates of each entry (0 for zero, 1 for the
six nonzero zero divisors, 2 for the nine units), so the Lee weight of a word
equals the Hamming weight of its Gray image over GF(4).  Both induce
distances through XOR differences, and every code produced by this package
is an F2-subspace, so minimum distance is minimum nonzero weight.  The
word-level functions take tuples; the code-level ones walk packed words
(CodeSet.walk) and weigh each with a few masks and one popcount.
min_distance walks only a code's components vC and (1+v)C, where Lee and
Hamming weight agree, so every code's Lee and Hamming minima are equal.

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

from .algebra import gray
from .codes import CodeSet, SkewCyclicCode, Word, _pivots, _reduce, skew_shift, unpack

Gf4Word = tuple[int, ...]

# Lee weight of a ring element = number of nonzero Gray coordinates.
LEE_WEIGHT = tuple((1 if gray(x)[0] else 0) + (1 if gray(x)[1] else 0) for x in range(16))


def hamming_weight(word: Word) -> int:
    return sum(1 for c in word if c)


def lee_weight(word: Word) -> int:
    return sum(LEE_WEIGHT[c] for c in word)


def hamming_distance(u: Word, w: Word) -> int:
    if len(u) != len(w):
        raise ValueError("length mismatch")
    return sum(1 for a, b in zip(u, w) if a != b)


def lee_distance(u: Word, w: Word) -> int:
    if len(u) != len(w):
        raise ValueError("length mismatch")
    return sum(LEE_WEIGHT[a ^ b] for a, b in zip(u, w))


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
    parts = []
    for image in (lambda p: ((p ^ p >> 2) & m3) << 2, lambda p: p & m3 | (p & m3) << 2):
        pivots: dict[int, int] = {}
        for vec in map(image, codeset.basis):
            if vec := _reduce(vec, pivots):
                pivots[vec.bit_length() - 1] = vec
        parts.append(tuple(pivots.values()))
    if sum(map(len, parts)) != len(codeset.basis):
        raise ValueError("the basis is not closed under v, so it spans no code")
    best = min((weigh(p) for basis in parts
                for p in islice(CodeSet(codeset.code, basis).walk(), 1, None)), default=None)
    if best is None:
        raise ValueError("zero code has no minimum distance")
    return best


# ---------------------------------------------------------------------------
# Gray images and the quasi-cyclic permutation identity


def gray_image(word: Word) -> Gf4Word:
    """GF(4) word of length 2n: entries a + b*v contribute (a+b, a)."""
    out = []
    for c in word:
        p, q = gray(c)
        out.append(p)
        out.append(q)
    return tuple(out)


def rotate_right2(img: Gf4Word) -> Gf4Word:
    return img[-2:] + img[:-2]


def swap_adjacent_pairs(img: Gf4Word) -> Gf4Word:
    if len(img) % 2:
        raise ValueError("image length must be even")
    out = list(img)
    out[::2], out[1::2] = img[1::2], img[::2]
    return tuple(out)


def image_shift_commutes(word: Word) -> bool:
    """Per-word identity: swap-pairs of rotate-right-2 of the image is the
    image of the skew shift."""
    return swap_adjacent_pairs(rotate_right2(gray_image(word))) == gray_image(skew_shift(word))


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


def image_permutation(n: int):
    """gray^-1 o swap-pairs o rotate-right-2 o gray on packed words of
    length n, as masks.  The rotation moves each entry's Gray pair
    (a + b, a) up one entry, and swapping the pair and inverting the Gray
    map gives the element (a + b) + b*v, which is theta of the entry: theta
    entrywise, then a one-entry rotation."""
    m3, top = 3 * int("1" * n, 16), 4 * (n - 1)
    low = (1 << top) - 1  # every entry but the last

    def permute(p: int) -> int:
        p ^= (p >> 2) & m3
        return (p & low) << 4 | p >> top

    return permute


def image_closed_on_basis(code: SkewCyclicCode, basis) -> bool:
    """image_closed of GrayImageReport: the Gray map and the permutation are
    GF(2)-linear, so the image is closed exactly when each basis vector's
    image_permutation lies in the span."""
    permute, pivots = image_permutation(code.n), _pivots(basis)
    return not any(_reduce(permute(b), pivots) for b in basis)


def gray_image_report(codeset: CodeSet) -> GrayImageReport:
    """Check the quasi-cyclic equivalence and Lee/Hamming agreement at once.

    gray_hamming_min weighs the packed Gray image, two bits per GF(4)
    coordinate: the pair (a + b, a) of entry a | b << 2 lands in bits 0-1
    and 2-3 of its nibble."""
    ones = int("1" * codeset.n, 16)
    m3, m5 = 3 * ones, 5 * ones

    def image_weight(p: int) -> int:
        img = (p ^ p >> 2) & m3 | (p & m3) << 2
        return ((img | img >> 1) & m5).bit_count()

    lee_min = min_distance(codeset, "lee")  # first: it refuses the zero code and non-codes
    # the identity is GF(2)-linear on both sides, so the basis decides it
    identity = all(image_shift_commutes(unpack(b, codeset.n)) for b in codeset.basis)
    return GrayImageReport(
        n=codeset.n,
        size=codeset.size,
        identity_holds=identity,
        image_closed=image_closed_on_basis(codeset.code, codeset.basis),
        lee_min=lee_min,
        gray_hamming_min=min(map(image_weight, islice(codeset.walk(), 1, None))),
    )
