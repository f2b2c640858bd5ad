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
own pivot, or top bit) as the span of the skew-shift orbits of the
generators' multiples by 1, w, v and wv (theta^2 = id lets each orbit run
in two registers), and returns it as a pivot table, which a CodeSet carries
and spans reads: one per code.  Size, membership and every decision are
read off it, for every code shape and size; a caller that needs the words
walks them (CodeSet.walk), in memory proportional to the basis.  A literal
hash-set work queue computes the same closure and is kept as a test oracle;
it is quadratic in the code size and unusable beyond a few thousand words.

classify_generator sorts a generator by shape:

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
from collections import namedtuple
from collections.abc import Iterator

from . import skewpoly as sp
from .algebra import UNITS, V, V1, _THETA as _TH, gray, is_unit
from .skewpoly import _THETA_BYTES

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


def packed_rotation(n: int, lanes: int = 1):
    """The plain cyclic shift rho (no theta) on packed words of length n: each
    entry up by one, the last to the bottom; on a Gray image, rotate-right-2.
    On lanes words at once, word i in bits 4n*i up (lane i), each lane
    rotates alone: first keeps its last entry out of the next lane."""
    top, lane = 4 * (n - 1), int(("0" * (n - 1) + "1") * lanes, 16)  # bit 0 of each lane
    low, first = lane * ((1 << top) - 1), lane * 15  # all entries but the last; the first
    return lambda p: (p & low) << 4 | p >> top & first


def packed_skew_shift(n: int, lanes: int = 1):
    """skew_shift on packed words of length n, lane by lane as packed_rotation:
    theta on every entry a | b << 2 at once (a -> a + b), then the rotation."""
    m3, rotate = 3 * int("1" * (n * lanes), 16), packed_rotation(n, lanes)
    return lambda p: rotate(p ^ (p >> 2) & m3)


def packed_times_v(n: int):
    """The scalar map c -> v*c on packed words of length n: each entry
    a | b << 2, that is a + b*v, goes to (a + b)*v."""
    m3 = 3 * int("1" * n, 16)
    return lambda p: ((p ^ p >> 2) & m3) << 2


def _reduce(vec: int, pivots: dict[int, int]) -> int:
    """Clear vec's top bit while it is a pivot: 0 exactly when vec is in the span."""
    while vec and (b := pivots.get(vec.bit_length() - 1)):
        vec ^= b
    return vec


def spans(pivots: dict[int, int], vectors) -> bool:
    """Whether every vector lies in the span of a pivot table from span_basis
    or echelon (a CodeSet's basis), reduced against the table as it is."""
    return not any(_reduce(vec, pivots) for vec in vectors)


def echelon(vectors) -> dict[int, int]:
    """A basis of the span of vectors, as a pivot table (see span_basis)."""
    pivots: dict[int, int] = {}
    for vec in vectors:
        if vec := _reduce(vec, pivots):
            pivots[vec.bit_length() - 1] = vec
    return pivots


def span_basis(n: int, generator_words) -> dict[int, int]:
    """The generated code's GF(2) basis as a pivot table, pivot -> vector.

    Fixpoint over basis vectors under one rule, the skew shift sigma: the
    queue starts with g, w*g, v*g and wv*g for each generator g, and each
    new basis vector queues its shift.  sigma is additive, so once every
    basis vector's shift lies in the span, the span is closed under sigma;
    it is then the GF(2) span of the sigma-orbits of the four multiples.
    That span is closed under every scalar, so it is the code: {1, w, v, wv}
    is a GF(2) basis of R, and mu*sigma^j(x) = sigma^j(theta^j(mu)*x), so
    mu times an orbit word lam*sigma^j(g) is sigma^j of (theta^j(mu)*lam)*g,
    a sum of the four multiples.  On a packed word, w sends each GF(4) part
    x0 + x1*w to x1 + (x0 + x1)*w, v is packed_times_v, and sigma is theta
    on all entries a | b << 2 at once (a -> a + b), then packed_rotation.

    Each new basis vector walks its sigma-chain in place: theta sends
    a + b*v to (a + b) + b*v, keeping every entry's top bit, and below entry
    n - 1 sigma is theta and a 4-bit shift, so the shift of a vector with
    top bit b < 4n - 4 has top bit b + 4 and, with no pivot there, is the
    next basis vector, as the queue would pop and keep it.  Only the chain's
    last vector, which wraps or meets a pivot, queues its shift.  theta^2 = id
    entrywise, so the chain x, theta(x) << 4, x << 8, ... needs two registers.
    """
    ones = int("1" * n, 16)
    m3, m5, top = 3 * ones, 5 * ones, 4 * n - 4
    rotate, times_v = packed_rotation(n), packed_times_v(n)
    queue = []
    for g in generator_words:
        for p in (g, times_v(g)):  # each with w times it
            queue += (p, (p >> 1) & m5 | ((p ^ p >> 1) & m5) << 1)
    pivots: dict[int, int] = {}
    while queue:
        vec = _reduce(queue.pop(), pivots)
        if vec:
            b, other = vec.bit_length() - 1, vec ^ (vec >> 2) & m3  # other = theta(vec)
            pivots[b] = vec
            while b < top and b + 4 not in pivots:
                b += 4
                vec, other = other << 4, vec << 4
                pivots[b] = vec
            queue.append(rotate(other))  # sigma(vec)
    return pivots


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


class SkewCyclicCode(namedtuple("SkewCyclicCode", "n generators")):
    """Handle for a skew cyclic code given by generators (not materialized):
    the length n and the generators, a tuple of nonzero sp.Poly of degree
    below n.  classify_generator gives a generator's FORM_* shape."""

    __slots__ = ()

    def generator_words(self) -> tuple[int, ...]:
        return tuple(map(pack, self.generators))


def code_from_generators(n: int, gens) -> SkewCyclicCode:
    if n < 1:
        raise ValueError("need length n >= 1")
    reduced = []
    for g in gens:
        g = sp.normalize(g)
        if len(g) > n:
            g = sp.right_divmod(g, sp.x_pow_minus_one(n))[1]
        if not g:
            raise ValueError("zero generator after reduction mod x^n - 1")
        reduced.append(g)
    if not reduced:
        raise ValueError("a code needs at least one generator")
    return SkewCyclicCode(n, tuple(reduced))


def code_from_generator(n: int, g: sp.Poly) -> SkewCyclicCode:
    return code_from_generators(n, [g])


class CodeSet(namedtuple("CodeSet", "code basis")):
    """A code (a SkewCyclicCode) with its GF(2) basis, the pivot table that
    span_basis gives, a dict: the record does not hash."""

    __slots__ = ()

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
        basis, cur = tuple(self.basis.values()), 0
        yield 0
        for i in range(1, self.size):
            cur ^= basis[(i & -i).bit_length() - 1]
            yield cur


def materialize(code: SkewCyclicCode) -> CodeSet:
    """The code with its pivot table, for the deciders and the walks."""
    return CodeSet(code, span_basis(code.n, code.generator_words()))


def is_plain_cyclic(codeset: CodeSet) -> bool:
    """Closure under the plain cyclic shift rho (no theta), tested on the
    generators, whose words the basis must span.  rho commutes with the skew
    shift and with the scalars, so it maps each sum of terms
    lam * sigma^j(g_i) to the sum of lam * sigma^j(rho(g_i)): the code is
    closed exactly when it contains each rho(g_i)."""
    return spans(codeset.basis, map(packed_rotation(codeset.n), codeset.code.generator_words()))


def remainder_membership(code: SkewCyclicCode, word: Word) -> bool:
    """Membership for a single unit-form generator: remainder == 0."""
    if len(code.generators) != 1 or classify_generator(code.n, code.generators[0]) != FORM_UNIT:
        raise ValueError("remainder membership needs a single unit-form generator")
    if len(word) != code.n:
        raise ValueError("word length does not match the code length")
    return sp.right_divides(code.generators[0], sp.normalize(word))


# ---------------------------------------------------------------------------
# right divisor enumeration

_LANE_BITS = 16  # a chunk of the divisor search tries at most 2^16 candidates


def _exact_lanes(n: int, head: list[tuple[int, int]], low: list, ones: int) -> int:
    """The lanes in which the monic g = g_0 + ... + g_(t-1) x^(t-1) + x^t
    right-divides x^n - 1 (n - t >= t >= 1); ones holds every lane.  The
    head g_0..g_(h-1), the same in every lane, is given as Gray pairs (p, r),
    and each g_j of the rest, low, as the bit planes (p0, p1, r0, r1) of its
    pair.  A constant times c = c0 + c1*w is at most one XOR of c's planes:
    c*1 = (c0, c1), c*w = (c1, c0 + c1) and c*w2 = (c0 + c1, c0)."""
    h, t = len(head), len(head) + len(low)
    head_theta = [(r, p) for p, r in head]
    low = [(p0, p1, p0 ^ p1, r0, r1, r0 ^ r1) for p0, p1, r0, r1 in low]  # XOR planes once
    low_theta = [y[3:] + y[:3] for y in low]
    zero, one = (0, 0, 0, 0), (ones, 0, ones, 0)  # Gray pairs (0, 0) and (1, 1)
    win = [zero] * t + [one]  # r_s .. r_(s+t), here of x^n - 1 at s = n - t
    for s in range(n - t, -1, -1):
        c0, c1, c2, c3 = win[t]  # the quotient digit, as theta^s(1) = 1 leads g
        e, f = c0 ^ c1, c2 ^ c3
        by_p, by_r = ((0, 0), (c0, c1), (c1, e), (e, c0)), ((0, 0), (c2, c3), (c3, f), (f, c2))
        for j, (y, z) in enumerate(head_theta if s % 2 else head):
            (p0, p1), (q0, q1), (r0, r1, r2, r3) = by_p[y], by_r[z], win[j]
            win[j] = (r0 ^ p0, r1 ^ p1, r2 ^ q0, r3 ^ q1)
        for j, (y0, y1, y01, y2, y3, y23) in enumerate(low_theta if s % 2 else low, h):
            a, b = c0 & y0, c2 & y2  # two lanewise GF(4) products c * y
            r0, r1, r2, r3 = win[j]
            win[j] = (r0 ^ a ^ c1 & y1, r1 ^ a ^ e & y01, r2 ^ b ^ c3 & y3, r3 ^ b ^ f & y23)
        if s:
            win = [one if s == 1 else zero] + win[:t]
    miss = 0
    for r0, r1, r2, r3 in win[:t]:
        miss |= r0 | r1 | r2 | r3
    return ones ^ miss


def _monic_divisors(n: int, t: int, q: int) -> list[sp.Poly]:
    """The monic degree-t right divisors of x^n - 1 over R (q = 16) or over
    GF(4) (q = 4), sorted; enumerate_right_divisors has the argument."""
    xn1 = sp.x_pow_minus_one(n)
    if t > n - t:
        return sorted(sp.right_divmod(xn1, h)[0] for h in _monic_divisors(n, n - t, q))
    bits = q.bit_length() - 1  # of a coefficient: a | b << 2 over R, a over GF(4)
    k = min(t, _LANE_BITS // bits)  # g_(t-k) .. g_(t-1) vary across the lanes
    width = 1 << bits * k
    ones = (1 << width) - 1

    def lane_bit(i: int) -> int:  # the lanes whose index has bit i set
        plane, period = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while period < width:
            plane, period = plane | plane << period, 2 * period
        return plane

    low, digits = [], range(k - 1, -1, -1)  # of the lane index, the top one first
    for d in digits:  # g_(t-1-d) = a + b*v is digit d
        a0, a1 = lane_bit(bits * d), lane_bit(bits * d + 1)
        b0, b1 = (lane_bit(bits * d + 2), lane_bit(bits * d + 3)) if q == 16 else (0, 0)
        low.append((a0 ^ b0, a1 ^ b1, a0, a1))  # gray(a + b*v) = (a + b, a)
    heads = itertools.product([u for u in UNITS if u < q], *[range(q)] * (t - k - 1)) \
        if t > k else [()]  # g_0 is a unit: h_0 * g_0 = 1
    # each hit is written as its head's digits, its lane index in hex and the
    # leading 1, then read back as digits through table; a hex digit holds two
    # GF(4) digits, so an odd count of them is written as 4 * lane + 1
    odd = k % 2 if q == 4 else 0
    field = "{:0%dx}" % ((bits * k + 3) // 4) + ("" if odd else "\x01")
    table = {ord(f"{d:x}"): chr(d) if q == 16 else chr(d >> 2) + chr(d & 3) for d in range(16)}
    found, twins = [], {}
    for head in heads:
        key = bytes(head)
        twin = key.translate(_THETA_BYTES)
        if twin < key:  # a head past its theta twin: the twin's block through theta
            found += sorted(zip(*[iter(twins.pop(twin).translate(_THETA_BYTES))] * (t + 1)))
            continue
        hits = bin(_exact_lanes(n, [gray(c) for c in head], low, ones))[:1:-1]
        lanes, lane = [], hits.find("1")
        while lane >= 0:
            lanes.append(lane << 2 * odd | odd)
            lane = hits.find("1", lane + 1)
        block = ((key.decode("latin-1") + field) * len(lanes)).format(*lanes)
        block = block.translate(table).encode("latin-1")
        if twin > key:
            twins[key] = block
        found += zip(*[iter(block)] * (t + 1))
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
    divides x^n - 1 by each, and sorts the quotients.

    The shorter side divides x^n - 1 by the monic g of degree t, with
    q = 16 for "unit" at even n and 4 otherwise, many at once.  Each
    candidate is a lane: the lanes of a chunk hold every combination of the
    highest coefficients g_(t-k)..g_(t-1), at most 2^16 of them, g_(t-k) the
    top digit of the lane index, and the head g_0..g_(t-k-1) is one
    constant per chunk, the heads in lexicographic order.  So the divisors
    come out sorted, by head and then by lane.  A coefficient is 4 integers
    with one bit per lane, the bit planes of its Gray pair (algebra.gray).
    In those coordinates R is GF(4) x GF(4), a product is two GF(4)
    products of a few ANDs and XORs, and theta swaps the two components.  g
    is monic, so each quotient digit c is the remainder's top coefficient,
    and one update r_(s+j) += c * theta^s(g_j) serves every lane.  Only the
    t + 1 coefficients r_s..r_(s+t) that step s reads are kept, as x^n - 1
    is sparse, so memory does not grow with n.  g divides exactly in the
    lanes whose low t remainder coefficients are all zero; a non-unit g_0
    never does, as h_0 * g_0 = 1, so a head's g_0 is a unit.  Over R, theta
    on every coefficient is an automorphism of R[x; theta] (it commutes with
    theta) fixing x^n - 1, so a head H after its twin theta(H) is not
    searched: its divisors are theta of the twin's, sorted.  The budget
    counts q^min(t, n - t), an upper bound on the candidates tried.
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
    found = _monic_divisors(n, t, q)
    # v * c = c << 2 and (v+1) * c = 5c increase on GF(4): the order holds
    return found if leading == FORM_UNIT else [sp.scale(_LEADS[leading], g) for g in found]


# ---------------------------------------------------------------------------
# minimal degree scan

class MinimalDegreeReport(namedtuple("MinimalDegreeReport",
                                      "exists degree words forms all_factor")):
    """Minimal-degree codewords whose leading coefficient is not a unit.

    exists is False when every nonzero codeword has a unit leading
    coefficient, and degree and all_factor are then None.  When it is True,
    words holds all minimal-degree offenders (a tuple of sp.Poly) and
    all_factor says whether each is v * g1 or (v+1) * g1 with g1 over GF(4)
    (forms records which, in the same order, None for neither).
    """

    __slots__ = ()


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
    best = min(basis) // 4
    sums = [0]
    for pivot, b in basis.items():
        if pivot // 4 == best:
            sums += [s ^ b for s in sums]
    # every nonzero sum's top entry is entry best, its leading coefficient
    found = sorted(sp.normalize(unpack(s, n)) for s in sums[1:] if not is_unit(s >> 4 * best))
    forms = tuple(_nonunit_factor_form(f) for f in found)
    return MinimalDegreeReport(
        True, best, tuple(found), forms, all(fm is not None for fm in forms)
    )

