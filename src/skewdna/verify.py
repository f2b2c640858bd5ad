"""One-shot verification suite.

Each check re-derives one published rule or reference value from scratch and
compares it against what this package computes.  Reference data (the
16-element correspondence table, the 16-string DNA code of length 12) is
frozen here as literals; structural rules, among them (checks 6 to 9) the
statement that build prints, dna.predict, are swept over the codes of every
unit, v and v1 right divisor of x^n - 1 at n <= 6 (335 codes), each decided
on its GF(2) basis, with no sampling except where a check says so.

A check returns a CheckResult rather than raising, so the suite always runs
to completion and reports everything at once; run_all times each check and
sets its seconds.  Two of the structural rules are known to fail as
literally stated: the non-unit impossibility rule (check 8) and the
no-complement rule (check 9).  Their checks report the counterexamples they
find, and their docstrings give the causes.
"""

from __future__ import annotations

import functools
import random
import time
from collections import namedtuple

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


class CheckResult(namedtuple("CheckResult", "name passed summary details seconds",
                             defaults=(0.0,))):
    """One check's outcome: its name, whether it passed, a one-line summary,
    a list of detail lines and the seconds it took, which run_all sets; a
    check called on its own leaves them 0.0.  details is a list, so the
    record is unhashable."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# sweep inventory
#
# Checks 6, 7, 8, 9 and 12 sweep every single-generator code of some shapes
# at small lengths, and their (n, t, shape) spots overlap: 989 visits reach
# 335 distinct codes.  _swept builds each spot's codes once per run, and
# run_all empties it before and after the checks.  A CodeSet holds only a
# basis, and every sweep decides on it, walking no words.  MATERIALIZE_LIMIT
# only fixes the frozen inventories of checks 9 and 12 (290 and 326 codes),
# the codes of at most that many words; it bounds no work.

MATERIALIZE_LIMIT = 1 << 16


@functools.cache
def _swept(n: int, t: int, shape: str) -> tuple[tuple[sp.Poly, cd.CodeSet], ...]:
    # resolved on cd at call time, so a wrapper put there sees each call
    return tuple((g, cd.materialize(cd.code_from_generator(n, g)))
                 for g in cd.enumerate_right_divisors(n, t, leading=shape))


def _sweep(spots, shapes=("unit", "v", "v1"), limit=None) -> list:
    """The list of (n, shape, g, codeset), for each divisor g of each (n, t)
    spot and shape in that order, codes of more than limit words left out.
    A check counts the codes it swept with len()."""
    return [(n, shape, g, cs) for n, t in spots for shape in shapes
            for g, cs in _swept(n, t, shape) if limit is None or cs.size <= limit]


def _g_desc(n: int, shape: str, g: sp.Poly) -> str:
    return f"n={n} {shape} generator {sp.coeff_list_str(g)}"


# ---------------------------------------------------------------------------
# the checks


def check_element_dna_table() -> CheckResult:
    """All 16 rows of the element / Gray pair / 2-base correspondence."""
    bad = []
    for x in ELEMENTS:
        token, gray_tokens, block = CORRESPONDENCE_TABLE[x]
        p, q = gray(x)
        got = (r_token(x), (gf4_token(p), gf4_token(q)), dna.encode_element(x))
        if got != (token, gray_tokens, block):
            bad.append(f"element {x}: expected {token} {gray_tokens} {block}, got {got}")
    return CheckResult("element-dna-table", not bad,
                       f"16-row correspondence table, {len(bad)} mismatches", bad)


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
    return CheckResult("unit-inverse-formula", not bad,
                       f"9 units, closed-form inverse verified, {len(bad)} failures", bad)


def _worked_divisor(name: str, n: int, text: str, kind: str, is_kind) -> CheckResult:
    """The paper's worked generator g (text) at length n: it is of kind, it
    right-divides x^n - 1 and its code is reversible.  g is monic, so its
    form is unit exactly when it right-divides x^n - 1, and one division
    decides both; reversibility is decided on the code's basis, as the
    check command decides it."""
    g = sp.parse_poly(text)
    code = cd.code_from_generator(n, g)
    bad = []
    form = cd.classify_generator(n, g)
    if form != cd.FORM_UNIT:
        bad.append(f"unexpected form {form}")
    if not is_kind(g):
        bad.append(f"not {kind}")
    if not dna.reversible_on_basis(code, cd.span_basis(n, code.generator_words())):
        bad.append("not reversible")
    summary = f"length-{n} {kind} generator: divisibility + reversibility"
    return CheckResult(name, not bad, summary, bad)


def check_palindromic_divisor_length10() -> CheckResult:
    """x^4+(v+w)x^2+1 right-divides x^10-1, is palindromic, code reversible."""
    return _worked_divisor("palindromic-divisor-length-10", 10, "x^4 + (v+w)*x^2 + 1",
                           "palindromic", sp.is_palindromic)


def check_theta_palindromic_divisor_length12() -> CheckResult:
    """x^3+(v+w2)x^2+(v+w)x+1 right-divides x^12-1 and is theta-palindromic."""
    return _worked_divisor("theta-palindromic-divisor-length-12", 12,
                           "x^3 + (v+w2)*x^2 + (v+w)*x + 1",
                           "theta-palindromic", sp.is_theta_palindromic)


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
    d = an.min_distance(cs)
    if d != 3:
        bad.append(f"min Lee distance {d}, expected 3")
    return CheckResult("sixteen-codeword-table", not bad,
                       "16-word length-6 code: DNA table, reversibility, distance 3", bad)


def check_even_length_even_degree_rule() -> CheckResult:
    """Even n, even degree, every shape: reversible iff dna.predict says "yes"."""
    swept = _sweep((n, t) for n in (2, 4, 6) for t in range(2, n, 2))
    bad = [_g_desc(n, shape, g) for n, shape, g, cs in swept
           if dna.is_reversible(cs) != (dna.predict(n, shape, g)[0] == "yes")]
    return CheckResult("even-length-even-degree-rule", not bad,
                       f"{len(swept)} codes swept, {len(bad)} equivalence failures", bad)


def check_even_length_odd_degree_rule() -> CheckResult:
    """Even n, odd degree, unit-monic: reversible iff dna.predict says "yes"."""
    swept = _sweep([(n, t) for n in (4, 6) for t in range(1, n, 2)], shapes=("unit",))
    bad = [_g_desc(n, shape, g) + f": reversible={rev}" for n, shape, g, cs in swept
           if (rev := dna.is_reversible(cs)) != (dna.predict(n, shape, g)[0] == "yes")]
    return CheckResult("even-length-odd-degree-rule", not bad,
                       f"{len(swept)} codes swept, {len(bad)} equivalence failures", bad)


def check_odd_length_cyclic_and_impossibility() -> CheckResult:
    """Odd n: every code is plain-cyclic; non-unit shapes: dna.predict's
    claimed impossibility of reversibility (odd n, or even n with odd degree).

    The cyclicity half holds.  The impossibility half is false as stated:
    reducing x^n * (v*g1) modulo x^n - 1 lands on (v+1)*g1 when n is odd, so
    the code contains g1 and can be reversible; similar cofactor accidents
    exist at even lengths.  Counterexamples are listed in the details.
    """
    odd = [(n, t) for n in (3, 5) for t in range(1, n)]
    cyclic = _sweep(odd)
    bad_cyclic = [_g_desc(n, shape, g) for n, shape, g, cs in cyclic
                  if not cd.is_plain_cyclic(cs)]
    nonunit = _sweep(odd + [(n, t) for n in (4, 6) for t in range(1, n, 2)],
                     shapes=("v", "v1"))
    bad_rev = [_g_desc(n, shape, g) + f" is reversible ({cs.size} words)"
               for n, shape, g, cs in nonunit
               if dna.predict(n, shape, g)[0] == "no" and dna.is_reversible(cs)]

    details = [f"plain-shift closure: {len(cyclic)} codes, {len(bad_cyclic)} failures",
               *bad_cyclic, f"claimed-impossible reversibility: {len(nonunit)} codes, "
               f"{len(bad_rev)} reversible", *bad_rev]
    return CheckResult("odd-length-cyclic-and-impossibility", not bad_cyclic and not bad_rev,
                       f"shift closure {len(cyclic)} codes ok; "
                       f"impossibility claim has {len(bad_rev)} counterexamples", details)


def _rc_closed(cs: cd.CodeSet) -> bool:
    """rc(C) inside C, by the lemma in check_reverse_complement_rules."""
    rc = dna.theta_reverse_complement(cs.n)
    return cd.spans(cs.basis, map(rc, (0, *cs.basis.values())))


def check_reverse_complement_rules() -> CheckResult:
    """On the even-length sweeps: reverse-complement closed iff (reversible
    and all-ones word present); and the claim that no v/v1-shape code is
    complement-closed, dna.predict's complement "no".

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
    swept = _sweep([(n, t) for n in (2, 4, 6) for t in range(1, n)], limit=MATERIALIZE_LIMIT)
    for n, shape, g, cs in swept:
        ones = dna.is_complement_closed(cs)
        if _rc_closed(cs) != (dna.is_reversible(cs) and ones):
            bad_iff.append(_g_desc(n, shape, g))
        if ones and dna.predict(n, shape, g)[1] == "no":
            bad_comp.append(_g_desc(n, shape, g) + " is complement-closed")
    details = [f"{len(swept)} codes; equivalence failures: {len(bad_iff)}", *bad_iff,
               f"complement-closed non-unit codes: {len(bad_comp)}", *bad_comp]
    return CheckResult("reverse-complement-rules", not bad_iff and not bad_comp,
                       f"rc-equivalence clean on {len(swept)} codes; "
                       f"no-complement claim has {len(bad_comp)} counterexamples", details)


_DRAW_DIGIT = bytes.maketrans(bytes(range(128)),
                              bytes(b"0123456789abcdef"[b >> 3] for b in range(128)))
_REJECTED = bytes(range(128, 256))
_LANES = 1000  # words per chunk of checks 10 and 11: their 10^4 draws are 10 chunks


def _failing_lanes(defect: int, p: int, width: int, lanes: int) -> list[int]:
    """The lanes of p, width bits each, where defect is nonzero, in order."""
    if not defect:
        return []
    mask = (1 << width) - 1
    return [p >> width * i & mask for i in range(lanes) if defect >> width * i & mask]


def _packed_draws(rng: random.Random, n: int, count: int):
    """The words pack(tuple(rng.randrange(16) for _ in range(n))), count of
    them in order, count a multiple of _LANES, from the same generator
    outputs drawn in bulk: _LANES words at a time, as an int holding word i
    of the chunk in lane i (bits 4n*i up).  So a caller builds its lane maps
    once per n, for _LANES lanes.

    Why it is exactly the randrange(16) stream: in CPython randrange(16) is
    getrandbits(5), the top 5 bits of one 32-bit Mersenne Twister output,
    drawn again while it is 16 or more.  getrandbits(32 * k) is k such
    outputs, the first in the lowest 32 bits, so the top byte of each, in
    order, decides one draw: rejected from 128 up, else the draw is byte >> 3.
    One translate turns a round's top bytes into the hex digits of its
    accepted draws, entry by entry and word by word; a chunk's digits,
    reversed and parsed once, are its int, entry 0 of word 0 in its lowest
    nibble, as codes.pack puts it.  A chunk asks for one output per draw it
    still misses, round after round until it misses none; one output gives
    at most one draw, so no output is drawn that the loop would not draw:
    the generator ends in the state the loop leaves it in.
    """
    for _ in range(count // _LANES):
        digits, missing = b"", n * _LANES
        while missing:
            got = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")[3::4]
            got = got.translate(_DRAW_DIGIT, _REJECTED)
            missing -= len(got)
            digits += got
        yield int(digits[::-1], 16)


def check_image_rotation_identity(seed: int = DEFAULT_SEED) -> CheckResult:
    """swap-pairs(rotate-right-2(image)) = image(skew shift), all words,
    on the packed maps the package runs (analysis.image_shift_defect).

    Exhaustive for n <= 2, then 10^4 seeded words per length up to 6: the
    words that rng.randrange(16) draws entry by entry.  _packed_draws reads
    them in bulk off the same generator outputs, keeping the same 5 bits of
    each and rejecting the same ones, and lane i of a chunk is its i-th
    word, so chunk after chunk the lanes are the same words in the same
    order.  One defect tests a chunk, each lane on its own; its nonzero
    lanes, in ascending order, are the failures.
    """
    rng = random.Random(seed)
    bad, total = [], 0
    for n in range(1, 7):
        # n <= 2: all 16^n words, in the order of itertools.product, as one chunk
        lanes = 16 ** n if n <= 2 else _LANES
        chunks = ([int("".join(f"{i:0{n}x}" for i in range(lanes))[::-1], 16)]
                  if n <= 2 else _packed_draws(rng, n, 10_000))
        defect = an.image_shift_defect(n, lanes)
        for p in chunks:
            total += lanes
            bad += (str(cd.unpack(w, n)) for w in _failing_lanes(defect(p), p, 4 * n, lanes))
    return CheckResult("image-rotation-identity", not bad,
                       f"{total} words checked, {len(bad)} identity failures", bad[:20])


def check_distance_preservation(seed: int = DEFAULT_SEED) -> CheckResult:
    """Lee distance equals Gray-image Hamming distance: the packed Lee weight
    of u - w against the Hamming weight of gray(u) - gray(w).

    Exhaustive on all 256 element pairs, then 10^4 seeded word pairs per
    length up to 6: u and w are consecutive words that rng.randrange(16)
    draws entry by entry.  Two consecutive draws of n entries are one draw
    of 2n entries, u in its low half and w in its high half, so the lanes
    of the 2n-entry draws of _packed_draws (see check 10) are the same pairs
    in the same order.  Both weights are summed and compared lane by lane.
    """
    def gray_maps(m):
        return an.packed_lee_fold(m), an.packed_gray_image(m), an.image_weight_fold(m)

    bad = []
    lee, image, fold = gray_maps(1)
    for x in ELEMENTS:
        for y in ELEMENTS:
            dl, dh = lee(x ^ y).bit_count(), fold(image(x) ^ image(y)).bit_count()
            if dl != dh:
                bad.append(f"elements {r_token(x)}, {r_token(y)}: {dl} != {dh}")
    rng = random.Random(seed)
    for n in range(1, 7):
        sums = int("1" * n, 16)
        lee, image, fold = gray_maps(2 * n * _LANES)
        low = int(("0" * n + "f" * n) * _LANES, 16)  # u's half of every lane
        # a one in each nibble of u's half; nibble n - 1 of every lane
        ones, select = low // 15, low ^ low >> 4 & low
        for p in _packed_draws(rng, 2 * n, 10_000):
            img = image(p)
            # per-entry weights, 0 to 2 (a fold's bits 0 and 2), times n
            # one-nibbles: nibble n - 1 of a lane is the lane's sum, at most
            # 2n = 12 < 16 for these n <= 6, so no carry leaves a nibble
            lee_sum, image_sum = (((f & ones) + (f >> 2 & ones)) * sums
                                  for f in (lee((p ^ p >> 4 * n) & low),
                                            fold((img ^ img >> 4 * n) & low)))
            defect = (lee_sum ^ image_sum) & select
            bad += (f"words {cd.unpack(w, n)}, {cd.unpack(w >> 4 * n, n)}"
                    for w in _failing_lanes(defect, p, 8 * n, _LANES))
    return CheckResult("distance-preservation", not bad,
                       f"256 element pairs + 60000 word pairs, {len(bad)} failures", bad[:20])


def check_minimal_degree_forms() -> CheckResult:
    """Minimal-degree words with non-unit leading coefficient factor as
    v*g1 or (v+1)*g1 with g1 over GF(4), across the whole sweep inventory."""
    swept = _sweep([(n, t) for n in range(2, 7) for t in range(1, n)], limit=MATERIALIZE_LIMIT)
    scanned = [(n, shape, g, report) for n, shape, g, cs in swept
               if (report := cd.minimal_degree_scan(cs)).exists]
    bad = [_g_desc(n, shape, g) + f": degree {report.degree} offenders {report.forms}"
           for n, shape, g, report in scanned if not report.all_factor]
    return CheckResult("minimal-degree-forms", not bad,
                       f"{len(scanned)} of {len(swept)} codes had non-unit-leading words; "
                       f"{len(bad)} bad forms", bad)


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
    """Every check in ALL_CHECKS, in order, each result with its seconds."""
    seeded = (check_image_rotation_identity, check_distance_preservation)
    _swept.cache_clear()  # each run builds each swept code once
    results = []
    try:
        for check in ALL_CHECKS:
            t0 = time.perf_counter()
            result = check(seed=seed) if check in seeded else check()
            results.append(result._replace(seconds=time.perf_counter() - t0))
        return results
    finally:
        _swept.cache_clear()
