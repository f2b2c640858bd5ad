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

import itertools
import random
import tracemalloc

from skewdna import analysis as an
from skewdna import codes as cd
from skewdna import dna
from skewdna import skewpoly as sp
from skewdna import verify
from skewdna.algebra import parse_element, parts

from conftest import complement_word, poly_to_word

V = parse_element("v")
V1 = parse_element("1+v")


def _report(number: int, result, budget_seconds: float):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:2d} [{result.name}] {status} "
          f"({result.seconds:.2f}s) {result.summary}")
    assert result.seconds < budget_seconds, "over the runtime budget"
    assert result.passed, "\n".join([result.summary, *result.details])


def _report_refuted(number: int, result, budget_seconds: float):
    status = "REFUTED" if not result.passed else "NOT REFUTED"
    print(f"criterion {number:2d} [{result.name}] {status} "
          f"({result.seconds:.2f}s) {result.summary}")
    assert result.seconds < budget_seconds, "over the runtime budget"
    assert not result.passed, "the check no longer refutes its rule"


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
    _report(1, verify.check_element_dna_table(), 1)


def test_criterion_02_unit_inverses():
    _report(2, verify.check_unit_inverse_formula(), 1)


def test_criterion_03_length10_palindromic_code():
    _report(3, verify.check_palindromic_divisor_length10(), 10)


def test_criterion_04_length12_theta_palindromic_divisor():
    _report(4, verify.check_theta_palindromic_divisor_length12(), 10)


def test_criterion_05_sixteen_word_code_table():
    _report(5, verify.check_sixteen_codeword_table(), 5)


def test_criterion_06_even_length_even_degree_equivalence():
    r = verify.check_even_length_even_degree_rule()
    assert "147 codes" in r.summary  # frozen sweep inventory
    _report(6, r, 120)


def test_criterion_07_even_length_odd_degree_equivalence():
    r = verify.check_even_length_odd_degree_rule()
    assert "117 codes" in r.summary
    _report(7, r, 60)


def test_criterion_08_odd_length_closure_and_impossibility(set_oracles):
    r = verify.check_odd_length_cyclic_and_impossibility()
    _report_refuted(8, r, 60)
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
        contains_g1 = cd.membership(cs, poly_to_word(g1, n))
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
    r = verify.check_reverse_complement_rules()
    _report_refuted(9, r, 60)
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
        contain_g1 += cd.membership(cs, poly_to_word(g1, n))
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
        cs = cd.CodeSet(cd.code_from_generator(n, (1,)), basis)
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
    _report(10, verify.check_image_rotation_identity(), 30)


def test_criterion_11_distance_preservation():
    _report(11, verify.check_distance_preservation(), 30)


def test_criteria_10_and_11_test_the_packed_maps(monkeypatch):
    # both checks run the maps the package runs, so breaking one breaks them:
    # the plain rotation (no theta) for analysis's packed sigma, the Hamming
    # weigher for the Lee one
    weigher = an.packed_weigher
    monkeypatch.setattr(an, "packed_skew_shift", cd.packed_rotation)
    r = verify.check_image_rotation_identity()
    assert r.summary == "40272 words checked, 40040 identity failures"
    monkeypatch.setattr(an, "packed_weigher", lambda n, metric: weigher(n, "hamming"))
    r = verify.check_distance_preservation()
    assert r.summary == "256 element pairs + 60000 word pairs, 52523 failures"


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
    r = verify.check_minimal_degree_forms()
    assert "326" in r.summary
    _report(12, r, 60)
