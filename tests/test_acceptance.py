"""Acceptance criteria, one test per criterion.

Each test runs the corresponding verification check and prints a single
PASS/FAIL line.  Ten criteria assert that their check passed.  Two assert
impossibility rules that the sweeps genuinely refute: criterion 8's claim
that v and v+1 generators never give a reversible code at odd n or odd
degree, and criterion 9's claim that they never give a complement-closed
code.  Those tests assert the refutation instead, print a REFUTED line, and
confirm every counterexample the check lists against the word-by-word
oracles in conftest.py, recomputed independently of the check.
"""

import collections
import inspect
import itertools
import random
import time
import tracemalloc

import pytest

from skewdna import analysis as an
from skewdna import codes as cd
from skewdna import dna
from skewdna import skewpoly as sp
from skewdna import verify
from skewdna.algebra import parse_element, parts, r_inv, r_token

from conftest import complement_word, membership, poly_to_word, randrange_word

V = parse_element("v")
V1 = parse_element("1+v")


def _timed_call(number: int, check, budget_seconds: float, status):
    """check()'s result, printed on one line and held to the budget; a check
    called on its own leaves its seconds 0.0, so the call is timed here."""
    t0 = time.perf_counter()
    result = check()
    seconds = time.perf_counter() - t0
    print(f"criterion {number:2d} [{result.name}] {status[result.passed]} "
          f"({seconds:.2f}s) {result.summary}")
    assert seconds < budget_seconds, "over the runtime budget"
    return result


def _report(number: int, check, budget_seconds: float):
    result = _timed_call(number, check, budget_seconds, ("FAIL", "PASS"))
    assert result.passed, "\n".join([result.summary, *result.details])
    return result


def _report_refuted(number: int, check, budget_seconds: float):
    result = _timed_call(number, check, budget_seconds, ("REFUTED", "NOT REFUTED"))
    assert not result.passed, "the check no longer refutes its rule"
    return result


def _v_shape_codes(spots):
    """(n, shape, g, g1, codeset) for the v*g1 and (v+1)*g1 generators at
    each (n, t) spot, in the order the verify sweeps visit them.  g1 is the
    GF(4) factor: the v-part of every coefficient, for both shapes."""
    for n, t in spots:
        for shape in ("v", "v1"):
            for g in cd.enumerate_right_divisors(n, t, leading=shape):
                g1 = tuple(parts(c)[1] for c in g)
                yield n, shape, g, g1, cd.materialize(cd.code_from_generator(n, g))


def _desc(n, shape, g):
    return f"n={n} {shape} generator {sp.coeff_list_str(g)}"


def test_criterion_01_correspondence_table():
    _report(1, verify.check_element_dna_table, 1)


def test_criterion_02_unit_inverses():
    _report(2, verify.check_unit_inverse_formula, 1)


def test_criterion_03_length10_palindromic_code():
    _report(3, verify.check_palindromic_divisor_length10, 10)


def test_criterion_04_length12_theta_palindromic_divisor():
    _report(4, verify.check_theta_palindromic_divisor_length12, 10)


def test_criterion_05_sixteen_word_code_table():
    _report(5, verify.check_sixteen_codeword_table, 5)


def test_criterion_06_even_length_even_degree_equivalence():
    r = _report(6, verify.check_even_length_even_degree_rule, 120)
    assert "147 codes" in r.summary  # frozen sweep inventory


def test_criterion_07_even_length_odd_degree_equivalence():
    r = _report(7, verify.check_even_length_odd_degree_rule, 60)
    assert "117 codes" in r.summary


def test_criterion_08_odd_length_closure_and_impossibility(set_oracles):
    r = _report_refuted(8, verify.check_odd_length_cyclic_and_impossibility, 60)
    # the shift-closure half is sound and must stay clean
    assert r.details[0] == "plain-shift closure: 36 codes, 0 failures"
    # the impossibility half is refuted by exactly the codes the set oracle
    # finds reversible, listed in sweep order
    (_, set_is_reversible), _, _ = set_oracles
    spots = [(n, t) for n in (3, 5) for t in range(1, n)]
    spots += [(n, t) for n in (4, 6) for t in range(1, n, 2)]
    reversible = []
    lacking_g1 = odd_n = 0
    for n, shape, g, g1, cs in _v_shape_codes(spots):
        contains_g1 = membership(cs, poly_to_word(g1, n))
        if set_is_reversible(cs):
            # the cause: every counterexample contains g1 itself
            assert contains_g1, _desc(n, shape, g)
            reversible.append(_desc(n, shape, g) + f" is reversible ({cs.size} words)")
        lacking_g1 += not contains_g1
        if n % 2:
            # x^n * v = theta^n(v) * x^n = (1+v) * x^n at odd n, and x^n = 1
            # modulo x^n - 1, so x^n * v*g1 reduces to (1+v)*g1 and back
            partner = sp.scale(V1 if shape == "v" else V, g1)
            shifted = sp.mul((0,) * n + (1,), g)
            assert sp.right_divmod(shifted, sp.x_pow_minus_one(n))[1] == partner
            odd_n += 1
    assert odd_n == 24
    assert r.details[1] == "claimed-impossible reversibility: 54 codes, 22 reversible"
    assert r.details[2:] == reversible
    # the rule survives where the collapse does not happen
    assert lacking_g1 == 20


def test_criterion_09_reverse_complement_rules(set_oracles, naive_closure):
    r = _report_refuted(9, verify.check_reverse_complement_rules, 60)
    # the equivalence half is sound and must stay clean
    assert r.details[0] == "290 codes; equivalence failures: 0"
    # the no-complement half is refuted by exactly the codes the set oracle
    # finds complement-closed, listed in sweep order
    _, (_, set_is_complement_closed), _ = set_oracles
    spots = [(n, t) for n in (2, 4, 6) for t in range(1, n)]
    closed = []
    contain_g1 = by_naive_closure = 0
    for n, shape, g, g1, cs in _v_shape_codes(spots):
        if cs.size > verify.MATERIALIZE_LIMIT or not set_is_complement_closed(cs):
            continue
        closed.append(_desc(n, shape, g) + " is complement-closed")
        contain_g1 += membership(cs, poly_to_word(g1, n))
        if cs.size <= 256:
            words = naive_closure(n, [g])
            assert all(complement_word(w) in words for w in words), _desc(n, shape, g)
            by_naive_closure += 1
    assert r.details[1] == "complement-closed non-unit codes: 24"
    assert r.details[2:] == closed
    # half of them collapse onto g1; the other half reach the all-ones word
    # through shifts of v*g1 that alternate between v and 1+v
    assert contain_g1 == 12
    assert by_naive_closure == 16


def test_criterion_09_basis_decision_matches_word_walk(packed_rc_oracle):
    # the affine-lemma decision against the packed word walk it replaced,
    # on every code of the check's sweep
    spots = [(n, t) for n in (2, 4, 6) for t in range(1, n)]
    codes = list(verify._sweep(spots, limit=verify.MATERIALIZE_LIMIT))
    assert len(codes) == 290
    closed = 0
    for n, shape, g, cs in codes:
        expected = packed_rc_oracle(cs)
        assert verify._rc_closed(cs) == expected, _desc(n, shape, g)
        closed += expected
    assert closed == 22


def _echelon(vectors):
    """The reduced row-echelon basis of the span of vectors, top bits
    descending: one pivot per vector, and the same tuple for the same span."""
    basis = []
    for vec in vectors:
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis = sorted([min(b, b ^ vec) for b in basis] + [vec], reverse=True)
    return tuple(basis)


def test_criterion_09_basis_decision_on_any_subspace(packed_rc_oracle):
    # the lemma holds for any GF(2) subspace, not only for codes, and needs
    # rc(0) and every basis vector: all 67 subspaces of the 4-bit words at
    # n = 1, then random ones at n = 2, 3, each also grown until rc maps its
    # basis vectors into it (which need not bring in rc(0)), and that one
    # with a random vector put in at a random place of its basis
    spaces = {(1, _echelon(vs)) for k in range(5)
              for vs in itertools.combinations(range(1, 16), k)}
    assert len(spaces) == 67
    rng = random.Random(9)
    for n in (2, 3):
        rc = dna.theta_reverse_complement(n)
        for _ in range(300):
            basis = _echelon(rng.getrandbits(4 * n) for _ in range(rng.randrange(1, 4)))
            spaces.add((n, basis))
            while (grown := _echelon(basis + tuple(map(rc, basis)))) != basis:
                basis = grown
            spaces.add((n, basis))
            x = rng.getrandbits(4 * n)
            for b in basis:
                x = min(x, x ^ b)  # off every pivot of the basis
            i = rng.randrange(len(basis) + 1)
            spaces.add((n, basis[:i] + (x,) + basis[i:] if x else basis))
    closed = 0
    for n, basis in spaces:
        cs = cd.CodeSet(cd.code_from_generator(n, (1,)), cd.echelon(basis))
        expected = packed_rc_oracle(cs)
        assert verify._rc_closed(cs) == expected, (n, basis)
        closed += expected
    assert 0 < closed < len(spaces)


def test_criterion_09_walks_no_codeword(monkeypatch):
    def refuse(self):
        raise AssertionError("check 9 walked a code's words")

    monkeypatch.setattr(cd.CodeSet, "walk", refuse)
    r = verify.check_reverse_complement_rules()
    assert r.details[0] == "290 codes; equivalence failures: 0"
    assert r.details[1] == "complement-closed non-unit codes: 24"


def test_criterion_10_image_rotation_identity():
    _report(10, verify.check_image_rotation_identity, 30)


def test_criterion_11_distance_preservation():
    _report(11, verify.check_distance_preservation, 30)


def _tuple_draw_rotation_failures():
    """Check 10's failures as the tuple-draw loop reports them: exhaustive
    words for n <= 2, then randrange_word draws, tested on the package's
    current maps, one word at a time."""
    rng = random.Random(verify.DEFAULT_SEED)
    for n in range(1, 7):
        defect = an.image_shift_defect(n)
        words = (itertools.product(range(16), repeat=n) if n <= 2 else
                 (randrange_word(rng, n) for _ in range(10_000)))
        for word in words:
            if defect(cd.pack(word)):
                yield str(word)


def _tuple_draw_distance_failures():
    """Check 11's failures as the tuple-draw loop reports them: element
    pairs, then randrange_word pairs u, w, on the package's current maps,
    one pair at a time.  The pairs' maps are built for 2n entries, the
    size of a pair, as the check's lanes are: the maps are entry-local, so
    on words of n entries they act as the n-entry maps do."""
    def gray_maps(m):
        return an.packed_weight_fold(m, "lee"), an.packed_gray_image(m), an.image_weight_fold(m)

    lee, image, fold = gray_maps(1)
    for x, y in itertools.product(range(16), repeat=2):
        dl, dh = lee(x ^ y).bit_count(), fold(image(x) ^ image(y)).bit_count()
        if dl != dh:
            yield f"elements {r_token(x)}, {r_token(y)}: {dl} != {dh}"
    rng = random.Random(verify.DEFAULT_SEED)
    for n in range(1, 7):
        lee, image, fold = gray_maps(2 * n)
        for _ in range(10_000):
            u, w = randrange_word(rng, n), randrange_word(rng, n)
            pu, pw = cd.pack(u), cd.pack(w)
            if lee(pu ^ pw).bit_count() != fold(image(pu) ^ image(pw)).bit_count():
                yield f"words {u}, {w}"


def test_criteria_10_and_11_test_the_packed_maps(monkeypatch):
    # both checks run the maps the package runs, so breaking one breaks them:
    # the plain rotation (no theta) for analysis's packed sigma, the Hamming
    # weight fold for the Lee one.  Each mutation is applied to every length,
    # and once more above the exhaustive part only, so that the first 20
    # failures come from the seeded words and pin their order and their
    # printed form.
    shift, weigher = an.packed_skew_shift, an.packed_weight_fold
    for mutant, summary in (
            (cd.packed_rotation, "40272 words checked, 40040 identity failures"),
            (lambda n, lanes=1: (cd.packed_rotation if n > 2 else shift)(n, lanes), None)):
        monkeypatch.setattr(an, "packed_skew_shift", mutant)
        r = verify.check_image_rotation_identity()
        assert summary in (None, r.summary)
        assert r.details == list(itertools.islice(_tuple_draw_rotation_failures(), 20))
    assert len(r.details) == 20 and r.details[0].count(",") == 2  # a seeded length-3 word
    monkeypatch.setattr(an, "packed_skew_shift", shift)
    for mutant, summary in (
            (lambda n, metric: weigher(n, "hamming"),
             "256 element pairs + 60000 word pairs, 52523 failures"),
            (lambda n, metric: weigher(n, "hamming" if n > 1 else metric), None)):
        monkeypatch.setattr(an, "packed_weight_fold", mutant)
        r = verify.check_distance_preservation()
        assert summary in (None, r.summary)
        assert r.details == list(itertools.islice(_tuple_draw_distance_failures(), 20))
    assert len(r.details) == 20 and r.details[0].startswith("words (")  # seeded pairs


def test_packed_draws_match_the_randrange_loop():
    # the bulk draw is exactly the randrange(16) stream: the same words, in
    # lane order chunk after chunk, and the generator left in the same
    # state; every chunk holds exactly _LANES words
    lanes = verify._LANES
    assert 10_000 % lanes == 0  # checks 10 and 11 draw whole chunks
    for seed in (verify.DEFAULT_SEED, 48611):
        for n in range(1, 7):
            width = 4 * n
            for count in (0, lanes, 3 * lanes):
                bulk, loop = random.Random(seed), random.Random(seed)
                words = []
                chunks = list(verify._packed_draws(bulk, n, count))
                assert len(chunks) == count // lanes
                for p in chunks:
                    assert p >> width * lanes == 0
                    words += (p >> width * i & (1 << width) - 1 for i in range(lanes))
                assert words == [cd.pack(randrange_word(loop, n)) for _ in range(count)]
                assert bulk.getstate() == loop.getstate(), (seed, n, count)


def test_criteria_10_and_11_do_not_depend_on_the_chunk_size(monkeypatch):
    # lanes and pairs cross chunk boundaries: chunks of 1,000, 16 and
    # 10,000 lanes, each dividing the 10,000 draws per length.  Unmutated
    # and mutated, the results are the same.  The two mutations of
    # test_criteria_10_and_11_test_the_packed_maps are applied at once:
    # check 10 reads no weight fold and check 11 no shift, so each check
    # runs under its own mutation.  Each check builds its lane maps once
    # per length.
    fold, defect, weigh = an.packed_weight_fold, an.image_shift_defect, an.image_weight_fold
    results = []
    for lanes in (1000, 16, 10_000):
        monkeypatch.setattr(verify, "_LANES", lanes)
        for mutated in (False, True):
            built = []  # one entry per lane-map build
            with monkeypatch.context() as m:
                m.setattr(an, "image_shift_defect",
                          lambda n, k=1: built.append((10, n, k)) or defect(n, k))
                # check 11 builds its maps for 2n entries per lane
                m.setattr(an, "image_weight_fold",
                          lambda size: built.append((11, size)) or weigh(size))
                if mutated:
                    m.setattr(an, "packed_skew_shift", cd.packed_rotation)
                    m.setattr(an, "packed_weight_fold", lambda n, metric: fold(n, "hamming"))
                results.append([(r.summary, r.details) for r in (
                    verify.check_image_rotation_identity(), verify.check_distance_preservation())])
            assert built == ([(10, 1, 16), (10, 2, 256)]
                             + [(10, n, lanes) for n in range(3, 7)]
                             + [(11, 1)] + [(11, 2 * n * lanes) for n in range(1, 7)])
    assert results[:2] == results[2:4] == results[4:]
    assert [r[0] for r in results[1]] == ["40272 words checked, 40040 identity failures",
                                          "256 element pairs + 60000 word pairs, 52523 failures"]


def test_criteria_10_and_11_stream_their_words():
    # each word or pair is drawn, tested and dropped; a list of the 60,256
    # pairs would take megabytes
    for check in (verify.check_image_rotation_identity, verify.check_distance_preservation):
        tracemalloc.start()
        try:
            assert check().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (check.__name__, peak)


def test_criterion_12_minimal_degree_factor_forms():
    r = _report(12, verify.check_minimal_degree_forms, 60)
    assert "326" in r.summary


def test_run_all_builds_each_swept_code_once(monkeypatch):
    # checks 6-9 and 12 share one build per (n, generator); the one repeat
    # is check 5's table code, built outside the sweeps
    built, enumerated = collections.Counter(), collections.Counter()
    materialize, enumerate_divisors = cd.materialize, cd.enumerate_right_divisors

    def counting_materialize(code):
        built[code.n, code.generators] += 1
        return materialize(code)

    def counting_enumerate(n, t, leading=cd.FORM_UNIT, **kwargs):
        enumerated[n, t, leading] += 1
        return enumerate_divisors(n, t, leading, **kwargs)

    monkeypatch.setattr(cd, "materialize", counting_materialize)
    monkeypatch.setattr(cd, "enumerate_right_divisors", counting_enumerate)
    verify.run_all()
    assert (sum(built.values()), len(built)) == (336, 335)
    table_code = cd.code_from_generator(6, sp.parse_poly("v(x^4+x^2+1)"))
    assert [key for key, calls in built.items() if calls > 1] == [
        (table_code.n, table_code.generators)]
    assert len(enumerated) == 45 and set(enumerated.values()) == {1}
    assert verify._swept.cache_info().currsize == 0  # nothing outlives the run


def test_verify_paper_answers_the_same_at_every_seed():
    # the seed moves only the draws of checks 10 and 11, whose summaries
    # count words and pairs, not which ones; the benchmark keys its recorded
    # verify-paper answer without the seed
    answers = {seed: [(r.name, r.passed, r.summary, r.details) for r in verify.run_all(seed)]
               for seed in (1, 2, 3, 20902, 424242)}
    first = answers[1]
    assert len(first) == 12 and sum(passed for _, passed, _, _ in first) == 10
    assert all(answer == first for answer in answers.values())


def test_checks_keep_their_names_docstrings_and_signatures():
    # each check is the plain function, so help() shows its proof
    for check in verify.ALL_CHECKS:
        assert check.__name__.startswith("check_") and check.__doc__, check
        assert getattr(verify, check.__name__) is check
    assert "GF(2)-affine" in verify.check_reverse_complement_rules.__doc__
    assert list(inspect.signature(verify.check_distance_preservation).parameters) == ["seed"]


# ---------------------------------------------------------------------------
# failure paths: each check, with the package broken under it, fails and
# names what broke


def _swept_codes(spots, shapes=("unit", "v", "v1"), limit=None):
    """(n, shape, g, codeset) for every divisor of each (n, t) spot and shape,
    in the order the verify sweeps visit them, codes over limit words left out."""
    for n, t in spots:
        for shape in shapes:
            for g in cd.enumerate_right_divisors(n, t, leading=shape):
                cs = cd.materialize(cd.code_from_generator(n, g))
                if limit is None or cs.size <= limit:
                    yield n, shape, g, cs


def _failed(check, monkeypatch, *patches):
    for target, name, value in patches:
        monkeypatch.setattr(target, name, value)
    t0 = time.perf_counter()
    result = check()
    assert time.perf_counter() - t0 < 0.5
    assert not result.passed and len(result.details) > 0
    return result


def test_checks_2_and_5_name_each_failure(monkeypatch):
    r = _failed(verify.check_unit_inverse_formula, monkeypatch,
                (verify, "r_mul", lambda a, b: 0), (verify, "UNITS", verify.UNITS[:-1]))
    assert r.details[0] == f"unit set mismatch: {sorted(verify.UNITS)}"
    assert r.details[1:] == [f"({r_token(inv)}) * ({r_token(u)}) != 1" for u, inv in
                             zip(sorted(verify.UNITS), map(r_inv, sorted(verify.UNITS)))]
    r = _failed(verify.check_sixteen_codeword_table, monkeypatch,
                (cd, "materialize", lambda code: cd.CodeSet(code, {})),
                (dna, "encode_codeset", lambda cs: ["AAAAAAAAAAAA", "ACGT"]),
                (dna, "is_reversible", lambda cs: False),
                (an, "min_distance", lambda cs, metric: 2))
    assert r.details == ["expected 16 codewords, got 1",
                         f"missing: {sorted(verify.SIXTEEN_WORD_TABLE - {'AAAAAAAAAAAA'})}",
                         "extra: ['ACGT']", "not reversible", "min Lee distance 2, expected 3"]


@pytest.mark.parametrize("check", [verify.check_palindromic_divisor_length10,
                                   verify.check_theta_palindromic_divisor_length12])
def test_worked_divisors_report_an_unexpected_form(check, monkeypatch):
    r = _failed(check, monkeypatch, (cd, "classify_generator", lambda n, g: cd.FORM_OTHER))
    assert r.details == ["unexpected form other"]


@pytest.mark.parametrize("check, n, degree",
                         [(verify.check_palindromic_divisor_length10, 10, 4),
                          (verify.check_theta_palindromic_divisor_length12, 12, 3)])
def test_worked_divisors_divide_x_n_minus_1_once(check, n, degree, monkeypatch):
    # one right division of x^n - 1 tells both the divisibility and the
    # shape; reversibility is decided on the basis, without dividing
    calls, right_divmod = [], sp.right_divmod
    monkeypatch.setattr(sp, "right_divmod",
                        lambda f, d: calls.append((len(f), len(d))) or right_divmod(f, d))
    assert check().passed
    assert calls == [(n + 1, degree + 1)]


def test_check_6_lists_each_reversible_code_of_a_non_palindromic_generator(monkeypatch):
    spots = [(n, t) for n in (2, 4, 6) for t in range(2, n, 2)]
    reversible = [_desc(n, shape, g) for n, shape, g, cs in _swept_codes(spots)
                  if dna.is_reversible(cs)]
    r = _failed(verify.check_even_length_even_degree_rule, monkeypatch,
                (sp, "is_palindromic", lambda f: False))
    assert r.details == reversible
    assert r.summary == f"147 codes swept, {len(reversible)} equivalence failures"


def test_check_7_lists_each_reversible_code_of_a_non_theta_palindromic_generator(monkeypatch):
    spots = [(n, t) for n in (4, 6) for t in range(1, n, 2)]
    reversible = [_desc(n, shape, g) + ": reversible=True"
                  for n, shape, g, cs in _swept_codes(spots, ("unit",)) if dna.is_reversible(cs)]
    r = _failed(verify.check_even_length_odd_degree_rule, monkeypatch,
                (sp, "is_theta_palindromic", lambda f: False))
    assert r.details == reversible
    assert r.summary == f"117 codes swept, {len(reversible)} equivalence failures"


def test_checks_8_9_and_12_list_each_code_their_broken_half_fails(monkeypatch):
    odd = [(n, t) for n in (3, 5) for t in range(1, n)]
    codes = [_desc(n, shape, g) for n, shape, g, _ in _swept_codes(odd)]
    r = _failed(verify.check_odd_length_cyclic_and_impossibility, monkeypatch,
                (cd, "is_plain_cyclic", lambda cs: False))
    assert r.details[:len(codes) + 1] == [
        f"plain-shift closure: {len(codes)} codes, {len(codes)} failures", *codes]

    spots = [(n, t) for n in (2, 4, 6) for t in range(1, n)]
    codes = [_desc(n, shape, g) for n, shape, g, _ in
             _swept_codes(spots, limit=verify.MATERIALIZE_LIMIT)]
    rc_closed = verify._rc_closed
    r = _failed(verify.check_reverse_complement_rules, monkeypatch,
                (verify, "_rc_closed", lambda cs: not rc_closed(cs)))
    assert r.details[:291] == ["290 codes; equivalence failures: 290", *codes]

    scan = cd.minimal_degree_scan
    r = _failed(verify.check_minimal_degree_forms, monkeypatch,
                (cd, "minimal_degree_scan", lambda cs: scan(cs)._replace(all_factor=False)))
    assert len(r.details) == int(r.summary.split()[0]) > 0
    assert all(": degree " in line and " offenders (" in line for line in r.details)
