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
space.  span_basis computes a row-echelon basis of it (at most 4n vectors),
with words packed 4 bits per entry into a single integer; code_basis
returns it, and a CodeSet holds it together with the code.  Size,
membership and every property decision are read off the basis, for every
code shape and size; the words themselves are enumerated from a CodeSet
only when a caller asks for them.  A literal hash-set work queue computes
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
from dataclasses import dataclass
from functools import cached_property

from . import skewpoly as sp
from .algebra import _R_MUL as _MUL, _THETA as _TH, is_unit, r_token

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


def word_line(word: Word) -> str:
    return ",".join(r_token(c) for c in word)


def parse_word_line(line: str) -> Word:
    from .algebra import parse_element

    return tuple(parse_element(p) for p in line.strip().split(","))


# ---------------------------------------------------------------------------
# packed words and GF(2) linear algebra


def pack(word: Word) -> int:
    p = 0
    for i, c in enumerate(word):
        p |= c << (4 * i)
    return p


def unpack(p: int, n: int) -> Word:
    return tuple((p >> (4 * i)) & 15 for i in range(n))


def _skew_shift_packed(p: int, n: int) -> int:
    out = _TH[(p >> (4 * (n - 1))) & 15]
    for i in range(n - 1):
        out |= _TH[(p >> (4 * i)) & 15] << (4 * (i + 1))
    return out


def _scale_packed(lam: int, p: int, n: int) -> int:
    row = _MUL[lam]
    out = 0
    for i in range(n):
        c = (p >> (4 * i)) & 15
        if c:
            out |= row[c] << (4 * i)
    return out


def _reduce(vec: int, basis: list[int]) -> int:
    for b in basis:
        if vec & (1 << (b.bit_length() - 1)):
            vec ^= b
    return vec


def in_span(vec: int, basis: list[int]) -> bool:
    return _reduce(vec, basis) == 0


def span_basis(n: int, generator_words) -> list[int]:
    """Row-echelon GF(2) basis of the generated skew cyclic code.

    Fixpoint over basis vectors only: the three closure rules are additive,
    so once every basis vector's image under the skew shift and under the
    scalars lies in the span, the whole span is closed.  Scalars w, v and
    w*v suffice because together with 1 they span R over GF(2).
    """
    basis: list[int] = []
    queue = [pack(w) for w in generator_words]
    while queue:
        vec = _reduce(queue.pop(), basis)
        if not vec:
            continue
        basis.append(vec)
        queue.append(_skew_shift_packed(vec, n))
        for lam in (2, 4, 8):  # w, v, w*v
            queue.append(_scale_packed(lam, vec, n))
    return basis


# ---------------------------------------------------------------------------
# codes


def classify_generator(n: int, g: sp.Poly) -> str:
    if not g:
        raise ValueError("the zero polynomial generates nothing")
    xn1 = sp.x_pow_minus_one(n)
    if is_unit(g[-1]):
        return FORM_UNIT if sp.right_divides(g, xn1) else FORM_OTHER
    if all(c & 3 == 0 for c in g):
        g1 = tuple(c >> 2 for c in g)  # strip the factor v
        if sp.right_divides(g1, xn1):
            return FORM_V
        return FORM_OTHER
    if all((c & 3) == (c >> 2) for c in g):
        g1 = tuple(c & 3 for c in g)  # strip the factor v + 1
        if sp.right_divides(g1, xn1):
            return FORM_V1
    return FORM_OTHER


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
    """A code with its row-echelon GF(2) basis of packed words."""

    code: SkewCyclicCode
    basis: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def size(self) -> int:
        return 1 << len(self.basis)

    @cached_property
    def words(self) -> frozenset[Word]:
        """Every codeword, enumerated in Gray-code order on first use."""
        n = self.n
        words = {(0,) * n}
        cur = 0
        for i in range(1, self.size):
            cur ^= self.basis[(i & -i).bit_length() - 1]
            words.add(unpack(cur, n))
        return frozenset(words)


def code_basis(code: SkewCyclicCode) -> tuple[int, ...]:
    """The code's row-echelon GF(2) basis; its length is log2 of the size."""
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


def export_words(codeset: CodeSet) -> list[str]:
    """One line per codeword, element tokens comma-separated, sorted."""
    return [word_line(w) for w in sorted(codeset.words)]


# ---------------------------------------------------------------------------
# right divisor enumeration


def _monic_gf4_divisors(n: int, t: int) -> list[sp.Poly]:
    xn1 = sp.x_pow_minus_one(n)
    found = []
    # theta fixes GF(4), so skew right division on GF(4) inputs is plain
    # commutative division in GF(4)[x].
    for lower in itertools.product(range(4), repeat=t):
        if lower[0] == 0:
            continue  # a divisor of x^n - 1 has nonzero constant term
        cand = lower + (1,)
        if sp.right_divides(cand, xn1):
            found.append(cand)
    return found


def enumerate_right_divisors(
    n: int, t: int, leading: str = FORM_UNIT, budget: int = DEFAULT_CAP
) -> list[sp.Poly]:
    """All degree-t right divisors of x^n - 1 of the requested shape, sorted.

    "unit" lists monic divisors over R (every unit-leading divisor is a left
    unit multiple of exactly one of them, generating the same code).  "v" and
    "v1" list v * g1 resp. (v+1) * g1 for monic g1 over GF(4) dividing
    x^n - 1 in GF(4)[x].
    """
    if not 1 <= t < n:
        raise ValueError("need 1 <= t < n")
    candidates = 16 ** t if leading == FORM_UNIT else 4 ** t
    if candidates > budget:
        raise SizeCapExceeded(
            f"{candidates} degree-{t} candidates exceed the search budget {budget}"
        )
    if leading == FORM_UNIT:
        xn1 = sp.x_pow_minus_one(n)
        out = []
        for lower in itertools.product(range(16), repeat=t):
            if not is_unit(lower[0]):
                continue  # constant term of a divisor of x^n - 1 is a unit
            cand = lower + (1,)
            if not sp.right_divmod(xn1, cand)[1]:
                out.append(cand)
        return sorted(out)
    if leading == FORM_V:
        return sorted(tuple(c << 2 for c in g1) for g1 in _monic_gf4_divisors(n, t))
    if leading == FORM_V1:
        return sorted(
            tuple(c | (c << 2) for c in g1) for g1 in _monic_gf4_divisors(n, t)
        )
    raise ValueError(f"unknown divisor shape {leading!r}")


# ---------------------------------------------------------------------------
# minimal degree scan

_V_MULTIPLES = frozenset((0, 4, 8, 12))       # v * GF(4)
_V1_MULTIPLES = frozenset((0, 5, 10, 15))     # (v+1) * GF(4)


def _nonunit_factor_form(f: sp.Poly) -> str | None:
    if all(c in _V_MULTIPLES for c in f):
        return FORM_V
    if all(c in _V1_MULTIPLES for c in f):
        return FORM_V1
    return None


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


# ---------------------------------------------------------------------------
# code description documents


def code_to_dict(code: SkewCyclicCode) -> dict:
    return {
        "n": code.n,
        "generators": [[r_token(c) for c in g] for g in code.generators],
        "classification": list(code.forms),
    }


def code_from_dict(doc: dict) -> SkewCyclicCode:
    from .algebra import parse_element

    n = doc["n"]
    gens = [sp.normalize(parse_element(tok) for tok in g) for g in doc["generators"]]
    code = code_from_generators(n, gens)
    stated = doc.get("classification")
    if stated is not None and list(code.forms) != list(stated):
        raise ValueError(
            f"stated classification {stated} does not match computed {list(code.forms)}"
        )
    return code
