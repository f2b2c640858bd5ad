"""Weights, distances, and the shape of Gray images.

Two metrics live here.  Hamming weight counts nonzero ring entries.  Lee
weight counts nonzero GF(4) coordinates of each entry (0 for zero, 1 for the
six nonzero zero divisors, 2 for the nine units), so the Lee weight of a word
equals the Hamming weight of its Gray image over GF(4).  Both induce
distances through XOR differences, and every code produced by this package
is an F2-subspace, so minimum distance is minimum nonzero weight.

The Gray image of a skew cyclic code is not cyclic, but it is one fixed
permutation away from a 2-quasi-cyclic code: rotating the image of c right
by two places and then swapping each adjacent pair of coordinates gives the
image of the skew shift of c.  That identity is coordinate algebra, proved
per word; gray_image_report decides it, and image_closed_on_basis the
image's closure under the permutation, on a code's basis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import gray, gray_inverse
from .codes import CodeSet, SkewCyclicCode, Word, in_span, pack, skew_shift, unpack

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


def _weigher(metric: str):
    try:
        return {"hamming": hamming_weight, "lee": lee_weight}[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}; use 'hamming' or 'lee'") from None


def min_distance(codeset: CodeSet, metric: str = "hamming") -> int:
    """Minimum distance of an F2-additive code: least nonzero-word weight."""
    weigh = _weigher(metric)
    best = min((weigh(w) for w in codeset.words if any(w)), default=None)
    if best is None:
        raise ValueError("zero code has no minimum distance")
    return best


def weight_distribution(codeset: CodeSet, metric: str = "hamming") -> dict[int, int]:
    weigh = _weigher(metric)
    return dict(sorted(Counter(weigh(w) for w in codeset.words).items()))


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


def image_closed_on_basis(code: SkewCyclicCode, basis) -> bool:
    """image_closed of GrayImageReport: the Gray map and the permutation are
    GF(2)-linear, so the image is closed exactly when each basis vector's
    gray^-1(swap-pairs(rotate-right-2(gray(b)))) lies in the span."""
    def permuted(b: int) -> int:
        img = swap_adjacent_pairs(rotate_right2(gray_image(unpack(b, code.n))))
        return pack(tuple(gray_inverse(img[i : i + 2]) for i in range(0, len(img), 2)))

    return all(in_span(permuted(b), basis) for b in basis)


def gray_image_report(codeset: CodeSet) -> GrayImageReport:
    """Check the quasi-cyclic equivalence and Lee/Hamming agreement at once."""
    # the identity is GF(2)-linear on both sides, so the basis decides it
    identity = all(image_shift_commutes(unpack(b, codeset.n)) for b in codeset.basis)
    gmin = min(hamming_weight(gray_image(w)) for w in codeset.words if any(w))
    return GrayImageReport(
        n=codeset.n,
        size=codeset.size,
        identity_holds=identity,
        image_closed=image_closed_on_basis(codeset.code, codeset.basis),
        lee_min=min_distance(codeset, "lee"),
        gray_hamming_min=gmin,
    )
