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

from skewdna import codes as cd
from skewdna import dna
from skewdna import skewpoly as sp
from skewdna import verify
from skewdna.algebra import parse_element, parts

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
        contains_g1 = cd.membership(cs, cd.poly_to_word(g1, n))
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
        contain_g1 += cd.membership(cs, cd.poly_to_word(g1, n))
        if cs.size <= 256:
            words = naive_closure(n, [g])
            assert all(dna.complement_word(w) in words for w in words), _desc(n, shape, g)
            by_naive_closure += 1
    assert r.details[1] == "complement-closed non-unit codes: 24"
    assert r.details[2:] == closed
    # half of them collapse onto g1; the other half reach the all-ones word
    # through shifts of v*g1 that alternate between v and 1+v
    assert contain_g1 == 12
    assert by_naive_closure == 16


def test_criterion_10_image_rotation_identity():
    _report(10, verify.check_image_rotation_identity(), 30)


def test_criterion_11_distance_preservation():
    _report(11, verify.check_distance_preservation(), 30)


def test_criterion_12_minimal_degree_factor_forms():
    r = verify.check_minimal_degree_forms()
    assert "326" in r.summary
    _report(12, r, 60)
