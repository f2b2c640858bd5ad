"""One-shot verification suite.

Each check re-derives one published rule or reference value from scratch and
compares it against what this package computes.  Reference data (the
16-element correspondence table, the 16-string DNA code of length 12) is
frozen here as literals; structural rules are swept by brute force over every
single-generator code at desk-scale lengths, with no sampling except where a
check says so explicitly.

A check returns a CheckResult rather than raising, so the suite always runs
to completion and reports everything at once.  Two of the structural rules
are known to fail as literally stated: the non-unit impossibility rule
(check 8) and the no-complement rule (check 9).  Their checks report the
counterexamples they find, and their docstrings give the causes.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field

from . import analysis as an
from . import codes as cd
from . import dna
from . import skewpoly as sp
from .algebra import (ELEMENTS, UNITS, from_parts, gf4_inv, gf4_mul, gf4_token, gray,
                      parts, r_mul, r_token)

DEFAULT_SEED = 20902

# (element token, gray pair tokens, 2-base block), in element index order 0..15
CORRESPONDENCE_TABLE = (
    ("0", ("0", "0"), "AA"),
    ("1", ("1", "1"), "TT"),
    ("w", ("w", "w"), "CC"),
    ("w2", ("w2", "w2"), "GG"),
    ("v", ("1", "0"), "TA"),
    ("1+v", ("0", "1"), "AT"),
    ("w+v", ("w2", "w"), "GC"),
    ("w2+v", ("w", "w2"), "CG"),
    ("w*v", ("w", "0"), "CA"),
    ("1+w*v", ("w2", "1"), "GT"),
    ("w+w*v", ("0", "w"), "AC"),
    ("w2+w*v", ("1", "w2"), "TG"),
    ("w2*v", ("w2", "0"), "GA"),
    ("1+w2*v", ("w", "1"), "CT"),
    ("w+w2*v", ("1", "w"), "TC"),
    ("w2+w2*v", ("0", "w2"), "AG"),
)

# the full 16-word DNA code generated by v(x^4+x^2+1) at length 6
SIXTEEN_WORD_TABLE = frozenset((
    "AAAAAAAAAAAA", "TAATTAATTAAT", "CAACCAACCAAC", "GAAGGAAGGAAG",
    "TAAATAAATAAA", "AAATAAATAAAT", "CAAACAAACAAA", "AAACAAACAAAC",
    "GAAAGAAAGAAA", "AAAGAAAGAAAG", "CAATCAATCAAT", "TAACTAACTAAC",
    "GAATGAATGAAT", "TAAGTAAGTAAG", "GAACGAACGAAC", "CAAGCAAGCAAG",
))


@dataclass
class CheckResult:
    name: str
    passed: bool
    summary: str
    details: list[str] = field(default_factory=list)
    seconds: float = 0.0


def _timed(func):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = func(*args, **kwargs)
        result.seconds = time.perf_counter() - t0
        return result

    return wrapper


# ---------------------------------------------------------------------------
# sweep inventory
#
# Checks 6, 7, 8, 9 and 12 sweep every single-generator code of some shapes
# at small lengths, sharing (n, t, shape) divisor lists that run_all
# enumerates once.  A CodeSet holds only a basis, and every sweep decides
# on it, walking no words.  MATERIALIZE_LIMIT only fixes the frozen
# inventories of checks 9 and 12 (290 and 326 codes), the codes of at most
# that many words; it bounds no work.

MATERIALIZE_LIMIT = 1 << 16


@functools.cache
def _divisors(n: int, t: int, shape: str) -> tuple[sp.Poly, ...]:
    # resolved on cd at call time, so a wrapper put there sees each enumeration
    return tuple(cd.enumerate_right_divisors(n, t, leading=shape))


def _sweep(spots, shapes=("unit", "v", "v1"), limit=None):
    """(n, shape, g, codeset) for each divisor g of each (n, t) spot and
    shape, codes of more than limit words left out."""
    for n, t in spots:
        for shape in shapes:
            for g in _divisors(n, t, shape):
                cs = cd.materialize(cd.code_from_generator(n, g))
                if limit is None or cs.size <= limit:
                    yield n, shape, g, cs


def _g_desc(n: int, shape: str, g: sp.Poly) -> str:
    return f"n={n} {shape} generator {sp.coeff_list_str(g)}"


# ---------------------------------------------------------------------------
# the checks


@_timed
def check_element_dna_table() -> CheckResult:
    """All 16 rows of the element / Gray pair / 2-base correspondence."""
    bad = []
    for x in ELEMENTS:
        token, gray_tokens, block = CORRESPONDENCE_TABLE[x]
        p, q = gray(x)
        got = (r_token(x), (gf4_token(p), gf4_token(q)), dna.encode_element(x))
        if got != (token, gray_tokens, block):
            bad.append(f"element {x}: expected {token} {gray_tokens} {block}, got {got}")
    return CheckResult(
        name="element-dna-table",
        passed=not bad,
        summary=f"16-row correspondence table, {len(bad)} mismatches",
        details=bad,
    )


@_timed
def check_unit_inverse_formula() -> CheckResult:
    """lambda = a+bv a unit iff a != 0 and a+b != 0; inverse a^-1 + b^2*v."""
    bad = []
    expected_units = {x for x in ELEMENTS if parts(x)[0] and parts(x)[0] ^ parts(x)[1]}
    if expected_units != set(UNITS) or len(UNITS) != 9:
        bad.append(f"unit set mismatch: {sorted(UNITS)}")
    for lam in sorted(UNITS):
        a, b = parts(lam)
        formula = from_parts(gf4_inv(a), gf4_mul(b, b))
        if r_mul(formula, lam) != 1:
            bad.append(f"({r_token(formula)}) * ({r_token(lam)}) != 1")
    return CheckResult(
        name="unit-inverse-formula",
        passed=not bad,
        summary=f"9 units, closed-form inverse verified, {len(bad)} failures",
        details=bad,
    )


def _worked_divisor(name: str, n: int, text: str, kind: str, is_kind) -> CheckResult:
    g = sp.parse_poly(text)
    code = cd.code_from_generator(n, g)
    bad = []
    if not sp.right_divides(g, sp.x_pow_minus_one(n)):
        bad.append(f"does not right-divide x^{n} - 1")
    if not is_kind(g):
        bad.append(f"not {kind}")
    if code.forms != (cd.FORM_UNIT,):
        bad.append(f"unexpected form {code.forms}")
    # 16^(n-t) words: reversibility via the remainder membership path
    if not dna.reversible_by_remainder(code):
        bad.append("remainder-path reversibility check failed")
    summary = f"length-{n} {kind} generator: divisibility + reversibility"
    return CheckResult(name, not bad, summary, bad)


@_timed
def check_palindromic_divisor_length10() -> CheckResult:
    """x^4+(v+w)x^2+1 right-divides x^10-1, is palindromic, code reversible."""
    return _worked_divisor("palindromic-divisor-length-10", 10, "x^4 + (v+w)*x^2 + 1",
                           "palindromic", sp.is_palindromic)


@_timed
def check_theta_palindromic_divisor_length12() -> CheckResult:
    """x^3+(v+w2)x^2+(v+w)x+1 right-divides x^12-1 and is theta-palindromic."""
    return _worked_divisor("theta-palindromic-divisor-length-12", 12,
                           "x^3 + (v+w2)*x^2 + (v+w)*x + 1",
                           "theta-palindromic", sp.is_theta_palindromic)


@_timed
def check_sixteen_codeword_table() -> CheckResult:
    """<v(x^4+x^2+1)> at length 6: exactly the 16 reference DNA strings."""
    code = cd.code_from_generator(6, sp.parse_poly("v(x^4+x^2+1)"))
    cs = cd.materialize(code)
    bad = []
    if cs.size != 16:
        bad.append(f"expected 16 codewords, got {cs.size}")
    got = frozenset(dna.encode_codeset(cs))
    if got != SIXTEEN_WORD_TABLE:
        bad.append(f"missing: {sorted(SIXTEEN_WORD_TABLE - got)}")
        bad.append(f"extra: {sorted(got - SIXTEEN_WORD_TABLE)}")
    if not dna.is_reversible(cs):
        bad.append("not reversible")
    d = an.min_distance(cs, "lee")
    if d != 3:
        bad.append(f"min Lee distance {d}, expected 3")
    return CheckResult(
        name="sixteen-codeword-table",
        passed=not bad,
        summary="16-word length-6 code: DNA table, reversibility, distance 3",
        details=bad,
    )


@_timed
def check_even_length_even_degree_rule() -> CheckResult:
    """Even n, even degree, every shape: reversible iff generator palindromic."""
    bad = []
    total = 0
    for n, shape, g, cs in _sweep((n, t) for n in (2, 4, 6) for t in range(2, n, 2)):
        total += 1
        if dna.is_reversible(cs) != sp.is_palindromic(g):
            bad.append(_g_desc(n, shape, g))
    return CheckResult(
        name="even-length-even-degree-rule",
        passed=not bad,
        summary=f"{total} codes swept, {len(bad)} equivalence failures",
        details=bad,
    )


@_timed
def check_even_length_odd_degree_rule() -> CheckResult:
    """Even n, odd degree, unit-monic: reversible iff a0*g is theta-palindromic."""
    bad = []
    total = 0
    spots = [(n, t) for n in (4, 6) for t in range(1, n, 2)]
    for n, shape, g, cs in _sweep(spots, shapes=("unit",)):
        total += 1
        rev = dna.is_reversible(cs)
        if rev != sp.is_theta_palindromic(sp.scale(g[0], g)):
            bad.append(_g_desc(n, shape, g) + f": reversible={rev}")
    return CheckResult(
        name="even-length-odd-degree-rule",
        passed=not bad,
        summary=f"{total} codes swept, {len(bad)} equivalence failures",
        details=bad,
    )


@_timed
def check_odd_length_cyclic_and_impossibility() -> CheckResult:
    """Odd n: every code is plain-cyclic; non-unit shapes: the claimed
    impossibility of reversibility (odd n, or even n with odd degree).

    The cyclicity half holds.  The impossibility half is false as stated:
    reducing x^n * (v*g1) modulo x^n - 1 lands on (v+1)*g1 when n is odd, so
    the code contains g1 and can be reversible; similar cofactor accidents
    exist at even lengths.  Counterexamples are listed in the details.
    """
    odd = [(n, t) for n in (3, 5) for t in range(1, n)]
    bad_cyclic = []
    total_cyclic = 0
    for n, shape, g, cs in _sweep(odd):
        total_cyclic += 1
        if not cd.is_plain_cyclic(cs):
            bad_cyclic.append(_g_desc(n, shape, g))

    bad_rev = []
    total_rev = 0
    spots = odd + [(n, t) for n in (4, 6) for t in range(1, n, 2)]
    for n, shape, g, cs in _sweep(spots, shapes=("v", "v1")):
        total_rev += 1
        if dna.is_reversible(cs):
            bad_rev.append(_g_desc(n, shape, g) + f" is reversible ({cs.size} words)")

    details = [f"plain-shift closure: {total_cyclic} codes, {len(bad_cyclic)} failures"]
    details += bad_cyclic
    details.append(
        f"claimed-impossible reversibility: {total_rev} codes, {len(bad_rev)} reversible"
    )
    details += bad_rev
    return CheckResult(
        name="odd-length-cyclic-and-impossibility",
        passed=not bad_cyclic and not bad_rev,
        summary=(
            f"shift closure {total_cyclic} codes ok; "
            f"impossibility claim has {len(bad_rev)} counterexamples"
        ),
        details=details,
    )


def _rc_closed(cs: cd.CodeSet) -> bool:
    """rc(C) inside C, by the lemma in check_reverse_complement_rules."""
    rc = dna.theta_reverse_complement(cs.n)
    return cd.spans(cs.basis, map(rc, (0, *cs.basis)))


@_timed
def check_reverse_complement_rules() -> CheckResult:
    """On the even-length sweeps: reverse-complement closed iff (reversible
    and all-ones word present); and the claim that no v/v1-shape code is
    complement-closed.

    The equivalence holds by additivity, and the package's decision is built
    on it, so this check decides the closure another way and compares.  The
    packed map rc = dna.theta_reverse_complement is GF(2)-affine (theta is
    additive, reversal permutes entries, the complement adds the all-ones
    word): rc(a + b) = rc(a) + rc(b) + rc(0).  So for a subspace C with basis
    b_1..b_k, rc(C) lies in C iff rc(0) and each rc(b_i) do: by induction, a
    sum of m >= 1 basis vectors maps to the sum of their images plus
    (m - 1) * rc(0).  One span test of those k + 1 words decides what a
    walk of all 2^k words does; the walk is kept in the tests as the oracle.

    The no-complement claim fails.  Half of the counterexamples contain g1,
    as in check 8; the other half reach the all-ones word because x^j * v
    alternates between v * x^j and (1+v) * x^j: at n = 4 the sum of
    x^j * v(1+x) over j = 0..3 is the all-ones word.
    """
    bad_iff = []
    bad_comp = []
    total = 0
    spots = [(n, t) for n in (2, 4, 6) for t in range(1, n)]
    for n, shape, g, cs in _sweep(spots, limit=MATERIALIZE_LIMIT):
        total += 1
        ones = dna.is_complement_closed(cs)
        if _rc_closed(cs) != (dna.is_reversible(cs) and ones):
            bad_iff.append(_g_desc(n, shape, g))
        if shape != "unit" and ones:
            bad_comp.append(_g_desc(n, shape, g) + " is complement-closed")
    details = [f"{total} codes; equivalence failures: {len(bad_iff)}"]
    details += bad_iff
    details.append(f"complement-closed non-unit codes: {len(bad_comp)}")
    details += bad_comp
    return CheckResult(
        name="reverse-complement-rules",
        passed=not bad_iff and not bad_comp,
        summary=(
            f"rc-equivalence clean on {total} codes; "
            f"no-complement claim has {len(bad_comp)} counterexamples"
        ),
        details=details,
    )


@_timed
def check_image_rotation_identity(seed: int = DEFAULT_SEED) -> CheckResult:
    """swap-pairs(rotate-right-2(image)) = image(skew shift), all words,
    on the packed maps the package runs (analysis.image_shift_commutes).

    Exhaustive for n <= 2, seeded random sampling above.
    """
    rng = random.Random(seed)
    bad, total = [], 0
    for n in range(1, 7):
        commutes = an.image_shift_commutes(n)
        words = (itertools.product(ELEMENTS, repeat=n) if n <= 2 else
                 (tuple(rng.randrange(16) for _ in range(n)) for _ in range(10_000)))
        for word in words:
            total += 1
            if not commutes(cd.pack(word)):
                bad.append(str(word))
    return CheckResult(
        name="image-rotation-identity",
        passed=not bad,
        summary=f"{total} words checked, {len(bad)} identity failures",
        details=bad[:20],
    )


@_timed
def check_distance_preservation(seed: int = DEFAULT_SEED) -> CheckResult:
    """Lee distance equals Gray-image Hamming distance: the packed Lee weight
    of u - w against the Hamming weight of gray(u) - gray(w).

    Exhaustive on all 256 element pairs, then 10^4 random word pairs per
    length up to 6.
    """
    def gray_maps(n):
        return an.packed_weigher(n, "lee"), an.packed_gray_image(n), an.image_weigher(n)

    bad = []
    lee, image, weigh = gray_maps(1)
    for x in ELEMENTS:
        for y in ELEMENTS:
            dl, dh = lee(x ^ y), weigh(image(x) ^ image(y))
            if dl != dh:
                bad.append(f"elements {r_token(x)}, {r_token(y)}: {dl} != {dh}")
    rng = random.Random(seed)
    for n in range(1, 7):
        lee, image, weigh = gray_maps(n)
        for _ in range(10_000):
            u = tuple(rng.randrange(16) for _ in range(n))
            w = tuple(rng.randrange(16) for _ in range(n))
            pu, pw = cd.pack(u), cd.pack(w)
            if lee(pu ^ pw) != weigh(image(pu) ^ image(pw)):
                bad.append(f"words {u}, {w}")
    return CheckResult(
        name="distance-preservation",
        passed=not bad,
        summary=f"256 element pairs + 60000 word pairs, {len(bad)} failures",
        details=bad[:20],
    )


@_timed
def check_minimal_degree_forms() -> CheckResult:
    """Minimal-degree words with non-unit leading coefficient factor as
    v*g1 or (v+1)*g1 with g1 over GF(4), across the whole sweep inventory."""
    bad = []
    total = 0
    scanned = 0
    spots = [(n, t) for n in range(2, 7) for t in range(1, n)]
    for n, shape, g, cs in _sweep(spots, limit=MATERIALIZE_LIMIT):
        total += 1
        report = cd.minimal_degree_scan(cs)
        if report.exists:
            scanned += 1
            if not report.all_factor:
                bad.append(_g_desc(n, shape, g)
                           + f": degree {report.degree} offenders {report.forms}")
    return CheckResult(
        name="minimal-degree-forms",
        passed=not bad,
        summary=f"{scanned} of {total} codes had non-unit-leading words; {len(bad)} bad forms",
        details=bad,
    )


ALL_CHECKS = (
    check_element_dna_table,
    check_unit_inverse_formula,
    check_palindromic_divisor_length10,
    check_theta_palindromic_divisor_length12,
    check_sixteen_codeword_table,
    check_even_length_even_degree_rule,
    check_even_length_odd_degree_rule,
    check_odd_length_cyclic_and_impossibility,
    check_reverse_complement_rules,
    check_image_rotation_identity,
    check_distance_preservation,
    check_minimal_degree_forms,
)


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    _divisors.cache_clear()  # each run enumerates each divisor list once
    seeded = (check_image_rotation_identity, check_distance_preservation)
    return [check(seed=seed) if check in seeded else check() for check in ALL_CHECKS]
