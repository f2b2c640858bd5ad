"""Skew cyclic codes of length n over R = GF(4) + v*GF(4).

A code is a left submodule of R[x; theta] / <x^n - 1> that is closed under
the skew shift

    sigma(a_0, ..., a_(n-1)) = (theta(a_(n-1)), theta(a_0), ..., theta(a_(n-2))),

which at the polynomial level is left multiplication by x.  Codewords are
packed words: entry i, a ring element a | b << 2, fills bits 4i..4i+3 of one
integer, and is the coefficient of x^i.  Every word map acts on packed
words; tuples of entries remain at the polynomial boundary (pack, unpack)
and in the few functions kept as test oracles or tracer pins.

The code generated by some words is the smallest set containing them that
is closed under addition, left scalar multiplication by all 16 ring
elements, and the skew shift.  Addition is GF(2)-linear, and both other
rules are additive, so the code is a GF(2)-subspace of the 4n-bit word
space.  span_basis computes a basis of it (at most 4n vectors, each with its
own pivot, or top bit); code_basis returns it, and a CodeSet holds it with
the code.  Size, membership and every property decision are read off the
basis, for every code shape and size; a caller that needs the words walks
them (CodeSet.walk), in memory proportional to the basis.  A literal
hash-set work queue computes the same closure and is kept as a test oracle;
it is quadratic in the code size and unusable beyond a few thousand words.

Generators are classified by shape:

    "unit"   unit leading coefficient and right-divides x^n - 1
    "v"      v * g1 with g1 over GF(4) dividing x^n - 1 in GF(4)[x]
    "v1"     (v+1) * g1, same condition on g1
    "other"  anything else

For a single "unit" generator g, a word lies in <g> exactly when g
right-divides its polynomial; remainder_membership answers that way and is
kept as an independent cross-check of the basis.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from . import skewpoly as sp
from .algebra import V, V1, _THETA as _TH, gray, is_unit

Word = tuple[int, ...]

DEFAULT_CAP = 1 << 24

FORM_UNIT = "unit"
FORM_V = "v"
FORM_V1 = "v1"
FORM_OTHER = "other"


class SizeCapExceeded(RuntimeError):
    """A search or a walk over every word would exceed the requested cap."""


def skew_shift(word: Word) -> Word:
    """Cyclic shift with theta on every entry, on tuples; a pin of perfbench's tracer."""
    return (_TH[word[-1]],) + tuple(_TH[c] for c in word[:-1])


# ---------------------------------------------------------------------------
# packed words and GF(2) linear algebra


def pack(word: Word) -> int:
    p = 0
    for i, c in enumerate(word):
        p |= c << (4 * i)
    return p


def unpack(p: int, n: int) -> Word:
    return tuple((p >> (4 * i)) & 15 for i in range(n))


def packed_rotation(n: int):
    """The plain cyclic shift rho (no theta) on packed words of length n: each
    entry up by one, the last to the bottom; on a Gray image, rotate-right-2."""
    top = 4 * (n - 1)
    low = (1 << top) - 1  # every entry but the last
    return lambda p: (p & low) << 4 | p >> top


def packed_skew_shift(n: int):
    """skew_shift on packed words of length n: theta on every entry
    a | b << 2 at once (a -> a + b), then packed_rotation."""
    m3, rotate = 3 * int("1" * n, 16), packed_rotation(n)
    return lambda p: rotate(p ^ (p >> 2) & m3)


def _reduce(vec: int, pivots: dict[int, int]) -> int:
    """Clear vec's top bit while it is a pivot: 0 exactly when vec is in the span."""
    while vec and (b := pivots.get(vec.bit_length() - 1)):
        vec ^= b
    return vec


def spans(basis, vectors) -> bool:
    """Whether every vector lies in the span of basis (one pivot per vector),
    tested against one table of the basis indexed by pivot bit."""
    pivots = {b.bit_length() - 1: b for b in basis}
    return not any(_reduce(vec, pivots) for vec in vectors)


def echelon(vectors) -> list[int]:
    """A basis of the span of vectors, one pivot per basis vector."""
    pivots: dict[int, int] = {}
    for vec in vectors:
        if vec := _reduce(vec, pivots):
            pivots[vec.bit_length() - 1] = vec
    return list(pivots.values())


def span_basis(n: int, generator_words) -> list[int]:
    """GF(2) basis of the generated skew cyclic code, one pivot per vector.

    Fixpoint over basis vectors only: the three closure rules are additive,
    so once every basis vector's image under the skew shift and under the
    scalars lies in the span, the whole span is closed.  The scalars w and
    v suffice: a span closed under both is closed under their sums and
    products, which give every element of R.  Each map acts on all n
    entries a | b << 2 of a packed word at once: the skew shift is
    packed_skew_shift, w sends each GF(4) part x0 + x1*w to
    x1 + (x0 + x1)*w, and v sends a + b*v to (a + b)*v.
    """
    ones = int("1" * n, 16)
    m3, m5, shift = 3 * ones, 5 * ones, packed_skew_shift(n)
    pivots: dict[int, int] = {}
    queue = list(generator_words)
    while queue:
        vec = _reduce(queue.pop(), pivots)
        if not vec:
            continue
        pivots[vec.bit_length() - 1] = vec
        queue += (shift(vec),
                  (vec >> 1) & m5 | ((vec ^ vec >> 1) & m5) << 1,
                  ((vec ^ vec >> 2) & m3) << 2)
    return list(pivots.values())


# ---------------------------------------------------------------------------
# codes


_V_MULTIPLES = frozenset((0, 4, 8, 12))       # v * GF(4)
_V1_MULTIPLES = frozenset((0, 5, 10, 15))     # (v+1) * GF(4)


def _nonunit_factor_form(f: sp.Poly) -> str | None:
    if all(c in _V_MULTIPLES for c in f):
        return FORM_V
    if all(c in _V1_MULTIPLES for c in f):
        return FORM_V1
    return None


def classify_generator(n: int, g: sp.Poly) -> str:
    if not g:
        raise ValueError("the zero polynomial generates nothing")
    xn1 = sp.x_pow_minus_one(n)
    if is_unit(g[-1]):
        return FORM_UNIT if sp.right_divides(g, xn1) else FORM_OTHER
    form = _nonunit_factor_form(g)
    g1 = tuple((c & 3) | (c >> 2) for c in g)  # strip the factor v or v + 1
    return form if form and sp.right_divides(g1, xn1) else FORM_OTHER


@dataclass(frozen=True)
class SkewCyclicCode:
    """Handle for a skew cyclic code given by generators (not materialized)."""

    n: int
    generators: tuple[sp.Poly, ...]
    forms: tuple[str, ...]

    def generator_words(self) -> tuple[int, ...]:
        return tuple(map(pack, self.generators))


def code_from_generators(n: int, gens) -> SkewCyclicCode:
    if n < 1:
        raise ValueError("need length n >= 1")
    xn1 = sp.x_pow_minus_one(n)
    reduced = []
    for g in gens:
        g = sp.normalize(g)
        if len(g) > n:
            g = sp.right_divmod(g, xn1)[1]
        if not g:
            raise ValueError("zero generator after reduction mod x^n - 1")
        reduced.append(g)
    if not reduced:
        raise ValueError("a code needs at least one generator")
    gens_t = tuple(reduced)
    return SkewCyclicCode(n, gens_t, tuple(classify_generator(n, g) for g in gens_t))


def code_from_generator(n: int, g: sp.Poly) -> SkewCyclicCode:
    return code_from_generators(n, [g])


@dataclass(frozen=True)
class CodeSet:
    """A code with its GF(2) basis of packed words, as span_basis gives it."""

    code: SkewCyclicCode
    basis: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def size(self) -> int:
        return 1 << len(self.basis)

    def walk(self) -> Iterator[int]:
        """Every codeword as a packed word, in Gray-code order from 0: step i
        adds the basis vector indexed by the lowest set bit of i, so each
        word is visited once, nonzero after the first, in O(basis) memory."""
        basis, cur = self.basis, 0
        yield 0
        for i in range(1, self.size):
            cur ^= basis[(i & -i).bit_length() - 1]
            yield cur


def code_basis(code: SkewCyclicCode) -> tuple[int, ...]:
    """The code's GF(2) basis; its length is log2 of the size."""
    return tuple(span_basis(code.n, code.generator_words()))


def materialize(code: SkewCyclicCode) -> CodeSet:
    """The code with its basis, for callers that may walk its words."""
    return CodeSet(code, code_basis(code))


def membership(codeset: CodeSet, word: Word) -> bool:
    if len(word) != codeset.n:
        raise ValueError("word length does not match the code length")
    return spans(codeset.basis, [pack(word)])


def is_plain_cyclic(codeset: CodeSet) -> bool:
    """Closure under the plain cyclic shift rho (no theta), tested on the
    generators, whose words the basis must span.  rho commutes with the skew
    shift and with the scalars, so it maps each sum of terms
    lam * sigma^j(g_i) to the sum of lam * sigma^j(rho(g_i)): the code is
    closed exactly when it contains each rho(g_i)."""
    return spans(codeset.basis, map(packed_rotation(codeset.n), codeset.code.generator_words()))


def remainder_membership(code: SkewCyclicCode, word: Word) -> bool:
    """Membership for a single unit-form generator: remainder == 0."""
    if len(code.generators) != 1 or code.forms[0] != FORM_UNIT:
        raise ValueError("remainder membership needs a single unit-form generator")
    if len(word) != code.n:
        raise ValueError("word length does not match the code length")
    return sp.right_divides(code.generators[0], sp.normalize(word))


# ---------------------------------------------------------------------------
# right divisor enumeration

_LANE_BITS = 16  # a chunk of the divisor search tries at most 2^16 candidates


def _gf4_lanes(x0: int, x1: int, y0: int, y1: int) -> tuple[int, int]:
    """Lanewise GF(4) product of x0 + x1*w and y0 + y1*w, w^2 = w + 1."""
    a, b = x0 & y0, x1 & y1
    return a ^ b, ((x0 ^ x1) & (y0 ^ y1)) ^ a


def _exact_lanes(n: int, g: list[tuple[int, ...]], ones: int) -> int:
    """The lanes in which the monic g = g_0 + ... + g_(t-1) x^(t-1) + x^t,
    each g_j given as the planes (p0, p1, q0, q1) of its Gray pair,
    right-divides x^n - 1 (n - t >= t >= 1); ones holds every lane."""
    t = len(g)
    g_theta = [(q0, q1, p0, p1) for p0, p1, q0, q1 in g]
    zero, one = (0, 0, 0, 0), (ones, 0, ones, 0)  # Gray pairs (0, 0) and (1, 1)
    win = [zero] * t + [one]  # r_s .. r_(s+t), here of x^n - 1 at s = n - t
    for s in range(n - t, -1, -1):
        c0, c1, c2, c3 = win[t]  # the quotient digit, as theta^s(1) = 1 leads g
        for j, (y0, y1, y2, y3) in enumerate(g_theta if s % 2 else g):
            p0, p1 = _gf4_lanes(c0, c1, y0, y1)
            q0, q1 = _gf4_lanes(c2, c3, y2, y3)
            r0, r1, r2, r3 = win[j]
            win[j] = (r0 ^ p0, r1 ^ p1, r2 ^ q0, r3 ^ q1)
        if s:
            win = [one if s == 1 else zero] + win[:t]
    miss = 0
    for r0, r1, r2, r3 in win[:t]:
        miss |= r0 | r1 | r2 | r3
    return ones ^ miss


def _monic_divisors(n: int, t: int, q: int) -> list[sp.Poly]:
    """The monic degree-t right divisors of x^n - 1 over R (q = 16) or over
    GF(4) (q = 4); enumerate_right_divisors has the argument."""
    xn1 = sp.x_pow_minus_one(n)
    if t > n - t:
        return [sp.right_divmod(xn1, h)[0] for h in _monic_divisors(n, n - t, q)]
    bits = q.bit_length() - 1  # of a coefficient: a | b << 2 over R, a over GF(4)
    k = min(t, _LANE_BITS // bits)  # g_0 .. g_(k-1) vary across the lanes
    width = 1 << bits * k
    ones = (1 << width) - 1

    def lane_bit(i: int) -> int:  # the lanes whose index has bit i set
        plane, period = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while period < width:
            plane, period = plane | plane << period, 2 * period
        return plane

    consts = [tuple(ones if bit else 0 for bit in (p & 1, p & 2, r & 1, r & 2))
              for p, r in map(gray, range(q))]  # the planes of each constant
    low = []
    for j in range(k):  # g_j = a + b*v is digit j of the lane index
        a0, a1 = lane_bit(bits * j), lane_bit(bits * j + 1)
        b0, b1 = (lane_bit(bits * j + 2), lane_bit(bits * j + 3)) if q == 16 else (0, 0)
        low.append((a0 ^ b0, a1 ^ b1, a0, a1))  # gray(a + b*v) = (a + b, a)
    found = []
    for high in itertools.product(range(q), repeat=t - k):
        hits = bin(_exact_lanes(n, low + [consts[c] for c in high], ones))[:1:-1]
        lane = hits.find("1")
        while lane >= 0:
            found.append(tuple(lane >> bits * j & q - 1 for j in range(k)) + high + (1,))
            lane = hits.find("1", lane + 1)
    return found


_LEADS = {FORM_UNIT: 1, FORM_V: V, FORM_V1: V1}


def enumerate_right_divisors(
    n: int, t: int, leading: str = FORM_UNIT, budget: int = DEFAULT_CAP
) -> list[sp.Poly]:
    """All degree-t right divisors of x^n - 1 of the requested shape, sorted.

    "unit" lists monic divisors over R (every unit-leading divisor is a left
    unit multiple of exactly one of them, generating the same code).  "v" and
    "v1" list v * g1 resp. (v+1) * g1 for monic g1 over GF(4) dividing
    x^n - 1 in GF(4)[x]; on GF(4), v * c = c << 2 and (v+1) * c = c | c << 2.

    The search lists the shorter side of x^n - 1 = h * g and takes the
    longer one as quotients.  A monic right divisor g has x^n - 1 = h * g for
    exactly one h, monic of degree n - t, and the degree-t divisors are
    exactly the right quotients of x^n - 1 by the degree-(n - t) ones:

    - even n: x^n - 1 is central (x^2 commutes with R, theta being an
      involution).  Let x^n - 1 = f * h with h monic.  Then
      h * (x^n - 1) = (x^n - 1) * h reads h * f * h = f * h * h, so
      (h * f - f * h) * h = 0, and since h is monic, h * f = f * h.  So f
      is a monic right divisor, and h is recovered from it as a right
      quotient (Boucher and Ulmer, "Coding with skew polynomial rings",
      J. Symb. Comput. 2009);
    - odd n: sigma^n applies theta to every entry, so theta(g) - g is a
      word of <g> of degree below t, and every nonzero word of <g> is a
      left multiple of g.  That forces theta(g) = g, so every divisor is
      over GF(4), where the ring is commutative (Siap, Abualrub, Aydin and
      Seneviratne, "Skew cyclic codes of arbitrary length", 2011).

    So for t > n - t the search lists the divisors h of degree n - t and
    divides x^n - 1 by each.

    The shorter side divides x^n - 1 by all q^t monic g of degree t, with
    q = 16 for "unit" at even n and 4 otherwise, many at once.  Each candidate
    is a lane: the lanes of a chunk hold every combination of the lowest
    coefficients g_0..g_(k-1), at most 2^16 of them, and g_k..g_(t-1) are
    one constant per chunk.  A coefficient is 4 integers with one bit per
    lane, the bit planes of its Gray pair (algebra.gray).  In those
    coordinates R is GF(4) x GF(4), a product is two GF(4) products of a
    few ANDs and XORs, and theta swaps the two components.  g is monic, so
    each quotient digit c is the remainder's top coefficient, and one
    update r_(s+j) += c * theta^s(g_j) serves every lane.  Only the t + 1
    coefficients r_s..r_(s+t) that step s reads are kept, as x^n - 1 is
    sparse, so memory does not grow with n.  g divides exactly in the
    lanes whose low t remainder coefficients are all zero; a non-unit g_0
    never does, as h_0 * g_0 = 1.  The budget counts q^min(t, n - t), the
    candidates tried.
    """
    if not 1 <= t < n:
        raise ValueError("need 1 <= t < n")
    if leading not in _LEADS:
        raise ValueError(f"unknown divisor shape {leading!r}")
    q = 16 if leading == FORM_UNIT and n % 2 == 0 else 4
    candidates = q ** min(t, n - t)
    if candidates > budget:
        raise SizeCapExceeded(
            f"{candidates} candidates for degree-{t} divisors exceed the search budget {budget}"
        )
    return sorted(sp.scale(_LEADS[leading], g) for g in _monic_divisors(n, t, q))


# ---------------------------------------------------------------------------
# minimal degree scan

@dataclass(frozen=True)
class MinimalDegreeReport:
    """Minimal-degree codewords whose leading coefficient is not a unit.

    exists is False when every nonzero codeword has a unit leading
    coefficient.  When it is True, words holds all minimal-degree offenders
    and all_factor says whether each is v * g1 or (v+1) * g1 with g1 over
    GF(4) (forms records which, in the same order).
    """

    exists: bool
    degree: int | None
    words: tuple[sp.Poly, ...]
    forms: tuple[str | None, ...]
    all_factor: bool | None


def minimal_degree_scan(codeset: CodeSet) -> MinimalDegreeReport:
    """The minimal-degree words with a non-unit leading coefficient, read
    off the basis without enumerating the code.

    The basis pivots (top bits) are distinct, so a nonzero sum of basis
    vectors has the top bit of its highest pivot, and its degree is that
    pivot's entry.  Let d be the least pivot entry: no nonzero word has
    degree below d, and the words of degree d are exactly the nonzero sums
    of the basis vectors whose pivot lies in entry d, at most 4 of them.
    If such a word has a unit leading coefficient u, v times it is a word
    of degree d led by the nonzero non-unit v*u, so d is also the least
    degree of a word with a non-unit leading coefficient.  Only the zero
    code has none.
    """
    basis, n = codeset.basis, codeset.n
    if not basis:
        return MinimalDegreeReport(False, None, (), (), None)
    best = min(b.bit_length() - 1 for b in basis) // 4
    sums = [0]
    for b in basis:
        if (b.bit_length() - 1) // 4 == best:
            sums += [s ^ b for s in sums]
    found = sorted(f for f in (sp.normalize(unpack(s, n)) for s in sums[1:])
                   if not is_unit(f[-1]))
    forms = tuple(_nonunit_factor_form(f) for f in found)
    return MinimalDegreeReport(
        True, best, tuple(found), forms, all(fm is not None for fm in forms)
    )

