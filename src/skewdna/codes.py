"""Skew cyclic codes of length n over R = GF(4) + v*GF(4).

A code is a left submodule of R[x; theta] / <x^n - 1> that is closed under
the skew shift

    sigma(a_0, ..., a_(n-1)) = (theta(a_(n-1)), theta(a_0), ..., theta(a_(n-2))),

which at the polynomial level is left multiplication by x.  Codewords are
tuples of ring element indices, identified with polynomials of degree < n in
the usual way (index i <-> coefficient of x^i).

The code generated by some words is the smallest set containing them that
is closed under addition, left scalar multiplication by all 16 ring
elements, and the skew shift.  Addition is GF(2)-linear, and both other
rules are additive, so the code is a GF(2)-subspace of the 4n-bit word
space.  span_basis computes a basis of it (at most 4n vectors, each with its
own pivot, or top bit), with words packed 4 bits per entry into a single
integer; code_basis returns it, and a CodeSet holds it with the code.  Size,
membership and every property decision are read off the basis, for every
code shape and size; a caller that needs the words walks them as packed
integers (CodeSet.walk), in memory proportional to the basis.  A literal hash-set work queue computes
the same closure and is kept as a test oracle; it is quadratic in the code
size and unusable beyond a few thousand words.

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
from .algebra import UNITS, V, V1, _R_MUL as _MUL, _THETA as _TH, is_unit, r_inv

Word = tuple[int, ...]

DEFAULT_CAP = 1 << 24

FORM_UNIT = "unit"
FORM_V = "v"
FORM_V1 = "v1"
FORM_OTHER = "other"


class SizeCapExceeded(RuntimeError):
    """A search or a walk over every word would exceed the requested cap."""


def word_to_poly(word: Word) -> sp.Poly:
    return sp.normalize(word)


def poly_to_word(f: sp.Poly, n: int) -> Word:
    if len(f) > n:
        raise ValueError(f"degree {len(f) - 1} polynomial does not fit length {n}")
    return tuple(f) + (0,) * (n - len(f))


def skew_shift(word: Word) -> Word:
    """Cyclic shift with theta applied to every entry."""
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


def _reduce(vec: int, pivots: dict[int, int]) -> int:
    """Clear vec's top bit while it is a pivot: 0 exactly when vec is in the span."""
    while vec and (b := pivots.get(vec.bit_length() - 1)):
        vec ^= b
    return vec


def _pivots(basis) -> dict[int, int]:
    """The basis indexed by pivot bit, as _reduce reads it."""
    return {b.bit_length() - 1: b for b in basis}


def in_span(vec: int, basis) -> bool:
    return not _reduce(vec, _pivots(basis))


def span_basis(n: int, generator_words) -> list[int]:
    """GF(2) basis of the generated skew cyclic code, one pivot per vector.

    Fixpoint over basis vectors only: the three closure rules are additive,
    so once every basis vector's image under the skew shift and under the
    scalars lies in the span, the whole span is closed.  The scalars w and
    v suffice: a span closed under both is closed under their sums and
    products, which give every element of R.  Each map acts on all n
    entries a | b << 2 of a packed word at once: theta is a -> a + b, the
    skew shift is theta and then a rotation by one entry, w sends each
    GF(4) part x0 + x1*w to x1 + (x0 + x1)*w, and v sends a + b*v to
    (a + b)*v.
    """
    ones = int("1" * n, 16)
    m3, m5, top = 3 * ones, 5 * ones, 4 * (n - 1)
    low = (1 << top) - 1  # every entry but the last
    pivots: dict[int, int] = {}
    queue = [pack(w) for w in generator_words]
    while queue:
        vec = _reduce(queue.pop(), pivots)
        if not vec:
            continue
        pivots[vec.bit_length() - 1] = vec
        th = vec ^ ((vec >> 2) & m3)
        queue += ((th & low) << 4 | th >> top,
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

    def generator_words(self) -> tuple[Word, ...]:
        return tuple(poly_to_word(g, self.n) for g in self.generators)


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
    return in_span(pack(word), codeset.basis)


def is_plain_cyclic(codeset: CodeSet) -> bool:
    """Closure under the plain cyclic shift rho (no theta), tested on the
    generators, whose words the basis must span.  rho commutes with the skew
    shift and with the scalars, so it maps each sum of terms
    lam * sigma^j(g_i) to the sum of lam * sigma^j(rho(g_i)): the code is
    closed exactly when it contains each rho(g_i)."""
    words = codeset.code.generator_words()
    return all(in_span(pack(w[-1:] + w[:-1]), codeset.basis) for w in words)


def remainder_membership(code: SkewCyclicCode, word: Word) -> bool:
    """Membership for a single unit-form generator: remainder == 0."""
    if len(code.generators) != 1 or code.forms[0] != FORM_UNIT:
        raise ValueError("remainder membership needs a single unit-form generator")
    if len(word) != code.n:
        raise ValueError("word length does not match the code length")
    return sp.right_divides(code.generators[0], word_to_poly(word))


# ---------------------------------------------------------------------------
# right divisor enumeration


def _balanced_divisors(t: int, xn1: sp.Poly) -> list[sp.Poly]:
    """The monic degree-t right divisors of xn1 = x^(2t) - 1, t >= 2, met in
    the middle coefficient g_m; enumerate_right_divisors has the argument."""
    m = max(1, t // 2)

    def tw(i: int, c: int) -> int:  # theta^i(c)
        return _TH[c] if i % 2 else c

    preimages = {}  # u -> c -> every x with u * x + theta^t(x) = c
    for u in UNITS:
        lists = [[] for _ in range(16)]
        for x in range(16):
            lists[_MUL[u][x] ^ tw(t, x)].append(x)
        preimages[u] = lists
    highs = []  # (K_hi, (g_(m+1), ..., g_(t-1)))
    for high in itertools.product(range(16), repeat=t - 1 - m):
        g = (0,) * (m + 1) + high + (1,)
        h = [0] * t + [1]
        for k in range(t - 1, m - 1, -1):
            acc = 0
            for i in range(k + 1, t + (k > m)):  # at k = m, all but the i = t term
                acc ^= _MUL[h[i]][tw(i, g[t + k - i])]
            h[k] = acc
        highs.append((h[m], high))
    out = []
    for low in itertools.product(UNITS, *[range(16)] * (m - 1)):
        h = [r_inv(low[0])]
        for k in range(1, m + 1):
            acc = 0
            for i in range(1 if k == m else 0, k):  # at k = m, all but the i = 0 term
                acc ^= _MUL[h[i]][tw(i, low[k - i])]
            h.append(_MUL[r_inv(tw(k, low[0]))][acc])
        u = _MUL[r_inv(tw(m, low[0]))][h[0]]
        lists = preimages[u]
        for k_hi, high in highs:
            for gm in lists[h[m] ^ k_hi]:
                g = low + (gm,) + high + (1,)
                if not sp.right_divmod(xn1, g)[1]:
                    out.append(g)
    return out


def _monic_divisors(n: int, t: int, q: int) -> list[sp.Poly]:
    """The monic degree-t right divisors of x^n - 1 over R (q = 16) or over
    GF(4) (q = 4); enumerate_right_divisors has the argument."""
    xn1 = sp.x_pow_minus_one(n)
    if t > n - t:
        return [sp.right_divmod(xn1, h)[0] for h in _monic_divisors(n, n - t, q)]
    if q == 16 and t == n - t >= 2:
        return _balanced_divisors(t, xn1)
    # the constant term of a divisor of x^n - 1 is a unit
    units = UNITS if q == 16 else range(1, 4)
    return [g for low in itertools.product(units, *[range(q)] * (t - 1))
            if not sp.right_divmod(xn1, g := low + (1,))[1]]


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

    At n = 2t with t >= 2 over R both sides cost 16^t, and the search solves
    h * g = x^n - 1 from both ends instead.  The coefficients of
    h * g are P_k = sum over i + j = k of h_i * theta^i(g_j), with g and h
    monic of degree t, and P_0 = 1 while P_k = 0 for 0 < k < n:

    - bottom: h_0 = g_0^-1, and for 1 <= k < t, P_k = 0 gives
      h_k = theta^k(g_0)^-1 * sum_(i<k) h_i * theta^i(g_(k-i)),
      so h_k depends on g_0..g_k only;
    - top: for k = t-1 down to 0, P_(t+k) = 0 gives
      h_k = sum_(i=k+1..t) h_i * theta^i(g_(t+k-i)), whose i = t term is
      theta^t(g_k), so h_k depends on g_k..g_(t-1) only;
    - meet: at m = max(1, t // 2) both give h_m, each affine in g_m: the
      bottom as u * g_m + K_lo with the unit u = theta^m(g_0)^-1 * g_0^-1,
      the top as theta^t(g_m) + K_hi.  So g_m solves
      u * x + theta^t(x) = K_lo + K_hi, a GF(2)-linear map on the 16
      elements, whose preimage lists are built once per call for each u.

    The 9 * 16^(m-1) low halves g_0..g_(m-1) (with K_lo and u) and the
    16^(t-1-m) high halves g_(m+1)..g_(t-1) (with K_hi) are each listed
    once, and every pair is completed by each preimage g_m: 9 * 16^(t-2)
    pairs.  Every divisor's coefficients satisfy both formulas, so it is
    among the candidates, and each candidate is kept only when it passes
    the exact right-division test.  The budget counts q^min(t, n-t), with
    q = 16 for "unit" and 4 for "v" and "v1", an upper bound on the
    candidates tried.
    """
    if not 1 <= t < n:
        raise ValueError("need 1 <= t < n")
    if leading not in _LEADS:
        raise ValueError(f"unknown divisor shape {leading!r}")
    q = 16 if leading == FORM_UNIT else 4
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
    found = sorted(f for f in (word_to_poly(unpack(s, n)) for s in sums[1:])
                   if not is_unit(f[-1]))
    forms = tuple(_nonunit_factor_form(f) for f in found)
    return MinimalDegreeReport(
        True, best, tuple(found), forms, all(fm is not None for fm in forms)
    )

