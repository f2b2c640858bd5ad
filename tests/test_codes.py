"""Code construction: span engine, membership, enumeration, serialization."""

import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from skewdna import analysis as an
from skewdna import cli
from skewdna import codes as cd
from skewdna import dna
from skewdna import skewpoly as sp
from skewdna import verify
from skewdna.algebra import is_unit, parse_element, r_mul

from conftest import code_basis, membership, randrange_word, theta

EX3 = sp.parse_poly("v(x^4+x^2+1)")


@pytest.mark.parametrize("n,gens", [
    (2, [(1, 1)]),
    (2, [(6, 1)]),
    (3, [(1, 1)]),
    (3, [(4, 4)]),                 # v(x+1): reduces to more than its shifts
    (4, [sp.parse_poly("v(x+1)^3")]),
    (6, [EX3]),
    (3, [(4, 4), (1, 1, 1)]),      # two generators
    (1, [(1,)]),                   # n = 1: the rotation wraps onto itself
    (1, [(4,)]),                   # v: the shift's theta alone reaches 1 + v
    (1, [(10,)]),                  # w(1 + v)
    (5, [sp.parse_poly("x^3 + w*x^2 + w*x + 1")]),  # (x+1)(x^2+w2*x+1), 256 words
])
def test_span_engine_matches_naive_closure(n, gens, naive_closure, codeset_words):
    code = cd.code_from_generators(n, gens)
    assert codeset_words(cd.materialize(code)) == naive_closure(n, gens)


# unit generators of the cli-large benchmark pools, far beyond the naive
# closure's reach
@pytest.mark.parametrize("n,text", [
    (400, "x^4 + (w+v)*x^2 + 1"),
    (400, "x^4 + v*x^3 + (w+v)*x^2 + v*x + 1"),
    (408, "x^3 + (w2+v)*x^2 + (w+v)*x + 1"),
    (408, "x^3 + x^2 + x + 1"),
])
def test_span_engine_at_large_lengths(n, text):
    # g is a unit-form right divisor of x^n - 1, so <g> holds 16^(n - t)
    # words, exactly those right-divisible by g; 4(n - t) independent
    # vectors (distinct pivots), each right-divisible by g, span all of it
    g = sp.parse_poly(text)
    code = cd.code_from_generator(n, g)
    assert cd.classify_generator(n, g) == cd.FORM_UNIT
    basis = code_basis(code)
    assert len(basis) == 4 * (n - (len(g) - 1))
    assert len({b.bit_length() for b in basis}) == len(basis)
    assert all(sp.right_divides(g, sp.normalize(cd.unpack(b, n))) for b in basis)


def _same_span(a, b):
    return len(a) == len(b) and cd.spans(cd.echelon(a), b) and cd.spans(cd.echelon(b), a)


def test_span_engine_matches_three_rule_fixpoint(three_rule_span, queue_span, monkeypatch):
    # the shift-only fixpoint from g, w*g, v*g and wv*g spans what the
    # fixpoint under the shift, w and v spans: on the 335 codes verify-paper
    # sweeps and on seeded random codes of one to three generators; and its
    # in-place shift chains give the queue loop's basis, vector for vector
    swept, materialize = {}, cd.materialize

    def collect(code):
        swept[code.n, code.generators] = code
        return materialize(code)

    monkeypatch.setattr(cd, "materialize", collect)
    verify.run_all()
    assert len(swept) == 335
    rng = random.Random(23)
    drawn = []
    while len(drawn) < 300:
        n = rng.randrange(1, 7)
        gens = [sp.normalize(rng.randrange(16) for _ in range(n))
                for _ in range(rng.randrange(1, 4))]
        if all(gens):
            drawn.append(cd.code_from_generators(n, gens))
    bad = [code for code in [*swept.values(), *drawn]
           if not _same_span(code_basis(code),
                             three_rule_span(code.n, code.generator_words()))]
    assert bad == []
    assert [code for code in [*swept.values(), *drawn]
            if code_basis(code) != tuple(queue_span(code.n, code.generator_words()))] == []
    assert {len(code_basis(code)) for code in drawn} >= {4, 8, 12, 16, 20, 24}


# the cli-large benchmark's generators, each a right divisor of x^n - 1
LARGE_POOLS = [
    (400, ("x^4 + (w+v)*x^2 + 1", "x^4 + (w2+v)*x^2 + 1", "x^4 + w*x^2 + 1",
           "x^4 + x^3 + x^2 + x + 1", "x^4 + w*x^3 + w*x + 1", "x^4 + w2*x^3 + w2*x + 1",
           "x^4 + v*x^3 + (w+v)*x^2 + v*x + 1", "x^4 + (1+v)*x^3 + (w+v)*x^2 + (1+v)*x + 1",
           "x^4 + (1+v)*x^3 + (w2+v)*x^2 + (1+v)*x + 1")),
    (402, ("v*x^4 + v*x^2 + v", "v*x^4 + (w2*v)*x^2 + w*v", "v*x^4 + (w*v)*x^2 + w2*v")),
    (408, ("x^3 + (w2+v)*x^2 + (w+v)*x + 1", "x^3 + 1", "x^3 + x^2 + x + 1",
           "x^3 + (w+v)*x^2 + (w2+v)*x + 1")),
    (800, ("x^4 + v*x^3 + (w2+v)*x^2 + v*x + 1", "x^4 + (w+v)*x^3 + x^2 + (w+v)*x + 1",
           "x^4 + w2*x^2 + 1")),
    (2048, ("x + 1",)),
]


@pytest.mark.parametrize("n,texts", LARGE_POOLS)
def test_span_engine_matches_three_rule_fixpoint_at_large_lengths(n, texts, three_rule_span,
                                                                   queue_span):
    for text in texts:
        code = cd.code_from_generator(n, sp.parse_poly(text))
        basis, words = code_basis(code), code.generator_words()
        assert _same_span(basis, three_rule_span(n, words)), text
        assert basis == tuple(queue_span(n, words)), text


@given(case=st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.one_of(st.lists(st.integers(0, 15), min_size=n, max_size=n),           # dense
              st.dictionaries(st.integers(0, n - 1), st.integers(1, 15),       # sparse
                              min_size=1, max_size=3)
              .map(lambda d: [d.get(i, 0) for i in range(n)])),
    min_size=1, max_size=3))))
def test_span_engine_matches_the_queue_loop(case, queue_span):
    # the same vectors in the same order as the loop that queues every shift
    n, gens = case
    gens = [g for g in map(sp.normalize, gens) if g]
    assume(gens)
    code = cd.code_from_generators(n, gens)
    assert code_basis(code) == tuple(queue_span(n, code.generator_words()))


@pytest.mark.parametrize("n,texts", LARGE_POOLS)
def test_span_engine_reduces_only_chain_ends(n, texts, monkeypatch):
    # a work guard, not a timing test: each shift chain runs in place, so
    # only the seeds and each chain's last shift are reduced (the queue loop
    # reduced one vector per basis vector, 800 to 8,192 here)
    calls, reduce = [0], cd._reduce

    def counted(vec, pivots):
        calls[0] += 1
        return reduce(vec, pivots)

    monkeypatch.setattr(cd, "_reduce", counted)
    for text in texts:
        calls[0] = 0
        code_basis(cd.code_from_generator(n, sp.parse_poly(text)))
        assert calls[0] <= 16, (text, calls[0])


def _count_tables(monkeypatch):
    """Record, by identity, each pivot table that _reduce reads and each one
    that span_basis or echelon returns, and count their calls and
    materialize's.  A table that a decider builds for itself is read but
    never returned; the dicts keep every table alive, so no id recurs."""
    read, built = {}, {}
    calls = dict.fromkeys(("span_basis", "echelon", "materialize"), 0)
    reduce = cd._reduce

    def reading(vec, pivots):
        read[id(pivots)] = pivots
        return reduce(vec, pivots)

    def counted(fn, name, table=True):
        def wrapper(*args):
            calls[name] += 1
            result = fn(*args)
            if table:
                built[id(result)] = result
            return result
        return wrapper

    monkeypatch.setattr(cd, "_reduce", reading)
    monkeypatch.setattr(cd, "span_basis", counted(cd.span_basis, "span_basis"))
    monkeypatch.setattr(cd, "materialize", counted(cd.materialize, "materialize", table=False))
    echelon = counted(cd.echelon, "echelon")
    for module in (cd, dna, an):
        monkeypatch.setattr(module, "echelon", echelon)
    return read, built, calls


@pytest.mark.parametrize("n,texts", LARGE_POOLS)
def test_each_command_builds_one_pivot_table(n, texts, monkeypatch):
    # a work guard, not a timing test: build and check build the code's
    # pivot table once, and every span test reduces against that table
    read, built, _ = _count_tables(monkeypatch)
    for text in texts:
        for argv in (["build"], *(["check", "--property", prop] for prop in
                                  ("reversible", "complement", "reverse-complement",
                                   "quasi-cyclic"))):
            read.clear()
            built.clear()
            assert cli.main([*argv, "--n", str(n), "--gen", text]) == 0
            assert (len(built), len(read), len(read.keys() - built.keys())) == (1, 1, 0), \
                (argv, text)


def test_verify_paper_builds_one_pivot_table_per_code(monkeypatch):
    # every table a check reduces against is one that span_basis or echelon
    # returned: span_basis runs once per materialized code and once in each
    # of checks 3 and 4, which decide on a basis without a CodeSet, and
    # echelon twice, in check 5's DNA encoder and minimum distance
    read, built, calls = _count_tables(monkeypatch)
    verify.run_all()
    assert calls == {"span_basis": 338, "echelon": 2, "materialize": 336}
    assert (len(built), len(read.keys() - built.keys())) == (340, 0)


@given(st.integers(1, 2048).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << 4 * n) - 1))))
def test_theta_is_an_involution_and_sigma_its_shift_below_the_top_entry(case):
    # the premise of span_basis's two-register chains: the masked theta it
    # runs is theta on every entry, theta(theta(p)) = p, and on a word whose
    # entry n - 1 is 0 the skew shift is theta and a 4-bit shift
    n, p = case
    m3 = 3 * int("1" * n, 16)
    packed_theta = p ^ (p >> 2) & m3
    assert packed_theta == cd.pack(tuple(map(theta, cd.unpack(p, n))))
    assert packed_theta ^ (packed_theta >> 2) & m3 == p
    low = p & ((1 << 4 * (n - 1)) - 1)
    assert cd.packed_skew_shift(n)(low) == (low ^ (low >> 2) & m3) << 4


@pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (6, 4), (6, 5)])
def test_unit_generator_code_size_law(n, t):
    # a unit-monic right divisor of degree t spans 16^(n-t) words
    for g in cd.enumerate_right_divisors(n, t)[:2]:
        assert cd.materialize(cd.code_from_generator(n, g)).size == 16 ** (n - t)


def test_skew_shift_definition():
    w = (1, 4, 3)
    assert cd.skew_shift(w) == (theta(3), theta(1), theta(4))


def test_packed_scalar_maps_match_ring_products():
    # v*c entry by entry through r_mul: exhaustive for n <= 2, sampled up
    # to n = 9
    v = parse_element("v")
    rng = random.Random(7)
    for n in range(1, 10):
        words = (itertools.product(range(16), repeat=n) if n <= 2 else
                 (randrange_word(rng, n) for _ in range(200)))
        times_v = cd.packed_times_v(n)
        for w in words:
            p = cd.pack(w)
            assert times_v(p) == cd.pack(tuple(r_mul(v, c) for c in w)), w


def test_codes_are_closed_under_skew_shift(sixteen_word_code, codeset_words):
    words = codeset_words(sixteen_word_code)
    for w in words:
        assert cd.skew_shift(w) in words


def test_odd_length_codes_are_closed_under_plain_shift(codeset_words):
    for t in (1, 2):
        for g in cd.enumerate_right_divisors(3, t):
            words = codeset_words(cd.materialize(cd.code_from_generator(3, g)))
            for w in words:
                assert (w[-1],) + w[:-1] in words


def test_membership_matches_remainder_exhaustively():
    # every length-3 word, against both membership paths
    words = [(a, b, c) for a in range(16) for b in range(16) for c in range(16)]
    for t in (1, 2):
        for g in cd.enumerate_right_divisors(3, t):
            code = cd.code_from_generator(3, g)
            cs = cd.materialize(code)
            for w in words:
                assert membership(cs, w) == cd.remainder_membership(code, w)


def test_membership_matches_remainder_sampled(codeset_words):
    rng = random.Random(7)
    g = cd.enumerate_right_divisors(6, 3)[0]
    code = cd.code_from_generator(6, g)
    cs = cd.materialize(code)
    for _ in range(10_000):
        w = tuple(rng.randrange(16) for _ in range(6))
        assert membership(cs, w) == cd.remainder_membership(code, w)
    for w in list(codeset_words(cs))[:500]:
        assert cd.remainder_membership(code, w)


def test_spans_and_echelon_match_brute_force_spans():
    # random sets of a few vectors of up to 8 bits against their literal
    # span: every XOR of a subset
    rng = random.Random(11)
    for _ in range(300):
        vectors = [rng.randrange(256) for _ in range(rng.randrange(6))]
        span = {0}
        for vec in vectors:
            span |= {s ^ vec for s in span}
        basis = cd.echelon(vectors)
        assert all(pivot == b.bit_length() - 1 for pivot, b in basis.items())
        assert 1 << len(basis) == len(span)
        assert all(cd.spans(basis, [w]) == (w in span) for w in range(256))
        assert cd.spans(basis, vectors) and cd.spans(basis, [])
        outside = [w for w in range(256) if w not in span]
        if outside:
            assert not cd.spans(basis, [*vectors, rng.choice(outside)])


def test_code_sizes_are_powers_of_two(sixteen_word_code):
    assert sixteen_word_code.size == 16
    assert len(code_basis(sixteen_word_code.code)) == 4


def test_dimension_without_materializing():
    g = sp.parse_poly("x^4 + (v+w)*x^2 + 1")
    assert len(code_basis(cd.code_from_generator(10, g))) == 24  # 16^6 words


def test_enumerate_counts_are_frozen():
    assert [len(cd.enumerate_right_divisors(6, t)) for t in range(1, 6)] == [9, 54, 93, 54, 9]
    assert len(cd.enumerate_right_divisors(4, 2)) == 13
    assert len(cd.enumerate_right_divisors(5, 3)) == 2
    assert len(cd.enumerate_right_divisors(5, 4)) == 1
    assert [len(cd.enumerate_right_divisors(6, t, leading=cd.FORM_V)) for t in range(1, 6)] \
        == [3, 6, 7, 6, 3]
    assert len(cd.enumerate_right_divisors(6, 4, leading=cd.FORM_V1)) == 6


def test_enumerate_smallest_case_exactly():
    assert cd.enumerate_right_divisors(2, 1) == [(1, 1), (6, 1), (7, 1)]


def test_enumerate_is_sorted_and_deterministic():
    for shape in (cd.FORM_UNIT, cd.FORM_V):
        out = cd.enumerate_right_divisors(6, 2, leading=shape)
        assert out == sorted(out)
        assert out == cd.enumerate_right_divisors(6, 2, leading=shape)


def test_enumerate_includes_reference_divisors():
    assert (1, 0, 6, 0, 1) in cd.enumerate_right_divisors(10, 4)
    assert (1, 6, 7, 1) in cd.enumerate_right_divisors(12, 3)
    assert tuple(EX3) in cd.enumerate_right_divisors(6, 4, leading=cd.FORM_V)


def _brute_force_divisors(n, t):
    """Every monic degree-t g with a unit constant term that right-divides
    x^n - 1, all 9 * 16^(t-1) candidates tried."""
    xn1 = sp.x_pow_minus_one(n)
    return sorted(low + (1,) for low in itertools.product(range(16), repeat=t)
                  if is_unit(low[0]) and sp.right_divides(low + (1,), xn1))


def _brute_force_gf4_divisors(n, t):
    """Every monic degree-t g1 over GF(4) with a nonzero constant term that
    divides x^n - 1 in GF(4)[x], all 3 * 4^(t-1) candidates tried."""
    xn1 = sp.x_pow_minus_one(n)
    return [low + (1,) for low in itertools.product(range(4), repeat=t)
            if low[0] and sp.right_divides(low + (1,), xn1)]


def _brute_force_cofactor_divisors(n, t):
    """Every monic degree-t g with h * g = x^n - 1 for some monic h of
    degree n - t over R, all 9 * 16^(n-t-1) such h with a unit constant term
    tried: g is solved top-down from the coefficients of h * g, as h is
    monic and theta an involution, and kept when the product is exact."""
    xn1, s = sp.x_pow_minus_one(n), n - t
    found = []
    for low in itertools.product(range(16), repeat=s):
        if not is_unit(low[0]):
            continue
        h, g = low + (1,), [0] * (t + 1)
        for j in range(t, -1, -1):
            # x^(j+s) in h * g: theta^s(g_j) + sum of h_i theta^i(g_(j+s-i)), i < s
            c = xn1[j + s]
            for i in range(max(0, j + s - t), s):
                gi = g[j + s - i]
                c ^= r_mul(h[i], theta(gi) if i % 2 else gi)
            g[j] = theta(c) if s % 2 else c
        if sp.mul(h, tuple(g)) == xn1:
            found.append(tuple(g))
    return sorted(found)


def test_odd_length_unit_divisors_match_brute_force():
    # the unit search runs over GF(4) at odd n; the oracle searches R, on
    # whichever side of x^n - 1 = h * g is shorter
    for n in (3, 5, 7, 9):
        for t in range(1, n):
            oracle = (_brute_force_divisors(n, t) if t <= n - t
                      else _brute_force_cofactor_divisors(n, t))
            assert cd.enumerate_right_divisors(n, t) == oracle, (n, t)


def test_cofactor_search_matches_brute_force():
    # every (n, t) that takes the degree-t divisors as quotients by the
    # degree-(n - t) ones (t > n - t) with n <= 8 and t <= 4, and the
    # 16^5-candidate case (6, 5)
    for n, t in ((3, 2), (4, 3), (5, 3), (5, 4), (6, 4), (7, 4), (6, 5)):
        assert cd.enumerate_right_divisors(n, t) == _brute_force_divisors(n, t), (n, t)


def test_balanced_search_matches_brute_force():
    # n = 2t: both sides cost 16^t, and the lanes hold every g_0..g_(t-1)
    for n, t in ((4, 2), (6, 3), (8, 4)):
        assert cd.enumerate_right_divisors(n, t) == _brute_force_divisors(n, t), (n, t)


def test_unit_search_heads_match_brute_force(monkeypatch):
    # the lanes hold g_(t-k)..g_(t-1) and each chunk one head g_0..g_(t-k-1),
    # g_0 a unit, so the list comes out sorted.  At the default 2^16 lanes no
    # n <= 8 spot has a head (k = 4 over R); at 2^8 lanes k = 2 over R, and
    # at 2^4 lanes k = 1 over R and k = 2 over GF(4).  So at 2^8 and 2^4
    # lanes the even-n spots over R have heads whose theta twin came first,
    # and which take the twin's divisors through theta.  The quotient spots
    # (t > n - t) take the one sort left, against the cofactor oracle
    direct = [(4, 2), (6, 3), (8, 4), (3, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3)]
    quotient = [(3, 2), (4, 3), (5, 3), (5, 4), (6, 4), (7, 4), (6, 5), (7, 5), (7, 6)]
    oracle = {**{spot: _brute_force_divisors(*spot) for spot in direct},
              **{spot: _brute_force_cofactor_divisors(*spot) for spot in quotient}}
    for lane_bits in (16, 8, 4):
        monkeypatch.setattr(cd, "_LANE_BITS", lane_bits)
        for (n, t), found in oracle.items():
            assert cd.enumerate_right_divisors(n, t) == found, (n, t, lane_bits)


def test_theta_maps_each_divisor_list_onto_itself():
    # at even n, theta on every coefficient is a ring automorphism of
    # R[x; theta] that fixes x^n - 1, so it permutes the monic divisors of
    # each degree; the search takes a head's divisors from its theta twin on
    # that ground.  Checked on the brute-force lists, which do not use it
    for n in (2, 4, 6, 8):
        for t in range(1, n):
            found = (_brute_force_divisors(n, t) if t <= n - t
                     else _brute_force_cofactor_divisors(n, t))
            assert sorted(tuple(theta(c) for c in g) for g in found) == found, (n, t)


def _scalar_long_side(n, t, shape):
    """The degree-t divisors for t > n - t by one scalar right division of
    x^n - 1 per monic short-side divisor, sorted, the shape's factor (v or
    v + 1, on GF(4) c << 2 or c | c << 2) put back."""
    xn1, short = sp.x_pow_minus_one(n), cd.enumerate_right_divisors(n, n - t, shape)
    lead = {cd.FORM_UNIT: 1, cd.FORM_V: 4, cd.FORM_V1: 5}[shape]
    monic = short if shape == cd.FORM_UNIT else [tuple(c >> 2 for c in g) for g in short]
    return sorted(sp.scale(lead, sp.right_divmod(xn1, h)[0]) for h in monic)


def test_long_side_matches_scalar_quotients(monkeypatch):
    # every t > n - t with n <= 12, all three shapes, at 2^16, 2^8 and 2^4
    # lanes, where the short side has heads and mirrored heads
    oracle = {(n, t, s): _scalar_long_side(n, t, s)
              for n in range(2, 13) for t in range(n // 2 + 1, n) for s in ("unit", "v", "v1")}
    for lane_bits in (16, 8, 4):
        monkeypatch.setattr(cd, "_LANE_BITS", lane_bits)
        for (n, t, s), found in oracle.items():
            assert cd.enumerate_right_divisors(n, t, s) == found, (n, t, s, lane_bits)


def test_gf4_shapes_match_brute_force(monkeypatch):
    # v * g1 and (v+1) * g1 for every g1 the GF(4) brute force finds; at
    # n = 9..12 only t <= 6 (at most 4^6 oracle candidates).  A chunk holds
    # 4^8 GF(4) candidates, so the search runs again on chunks of 4^4, where
    # t = 5 and 6 take several
    oracle = {(n, t): _brute_force_gf4_divisors(n, t)
              for n in range(2, 13) for t in range(1, n if n < 9 else 7)}
    for lane_bits in (cd._LANE_BITS, 8):
        monkeypatch.setattr(cd, "_LANE_BITS", lane_bits)
        for (n, t), g1s in oracle.items():
            assert cd.enumerate_right_divisors(n, t, cd.FORM_V) \
                == sorted(tuple(c << 2 for c in g1) for g1 in g1s), (n, t, lane_bits)
            assert cd.enumerate_right_divisors(n, t, cd.FORM_V1) \
                == sorted(tuple(c | c << 2 for c in g1) for g1 in g1s), (n, t, lane_bits)


def test_odd_length_divisors_lie_over_gf4():
    # at odd n every monic divisor over R is theta-fixed, so over GF(4):
    # the unit list is the v list with the factor v stripped.  Both come
    # from the GF(4) search; test_odd_length_unit_divisors_match_brute_force
    # checks the unit list against a search over R
    for n in (3, 5, 7, 9):
        for t in range(1, n):
            unit = cd.enumerate_right_divisors(n, t)
            assert all(c < 4 for g in unit for c in g), (n, t)
            v = cd.enumerate_right_divisors(n, t, cd.FORM_V)
            assert unit == [tuple(c >> 2 for c in g) for g in v], (n, t)


def test_divisor_inventory_is_frozen():
    # every shape at n = 2..8, 706 divisors, hashed before the three
    # search loops became one
    inventory = [(n, t, s, cd.enumerate_right_divisors(n, t, s))
                 for n in range(2, 9) for t in range(1, n) for s in ("unit", "v", "v1")]
    assert sum(len(found) for *_, found in inventory) == 706
    assert hashlib.sha256(repr(inventory).encode()).hexdigest() \
        == "8629c3ba4a9cf3180deda05dd21d9e645eef7c0d3df8164410ea3be51e97f9b9"


def test_balanced_search_is_frozen_at_10_5():
    # count and hash computed by the 16^5-candidate direct search
    found = cd.enumerate_right_divisors(10, 5)
    assert len(found) == 873
    assert hashlib.sha256(repr(found).encode()).hexdigest() \
        == "8db57a3b35f9345348fbf0e0567e2c374aef577022a40dc444e1f6dd4fea212f"


def test_unit_divisor_counts_are_frozen():
    # monic unit divisors for t = 0..n, counted by the scalar search
    rows = {
        2: [1, 3, 1],
        4: [1, 3, 13, 3, 1],
        6: [1, 9, 54, 93, 54, 9, 1],
        8: [1, 3, 13, 51, 205, 51, 13, 3, 1],
        10: [1, 3, 19, 102, 205, 873, 205, 102, 19, 3, 1],
        12: [1, 9, 90, 462, 1899, 4590, 7735, 4590, 1899, 462, 90, 9, 1],
    }
    for n, row in rows.items():
        assert [1] + [len(cd.enumerate_right_divisors(n, t)) for t in range(1, n)] + [1] \
            == row, n
    assert sum(rows[12]) == 21837


def test_search_is_frozen_at_12_6():
    # count and hash computed by the scalar search, 16^6 candidates in
    # 256 chunks of 2^16 lanes
    found = cd.enumerate_right_divisors(12, 6)
    assert len(found) == 7735
    assert hashlib.sha256(repr(found).encode()).hexdigest() \
        == "d65e78bfc0773ddd23d1b2b56fa6cb3dfae9ebc5e1952cbed7adaffa8f1cafa9"


@pytest.mark.parametrize("n,t,count,digest", [
    (14, 7, 12681, "2a6cbab02a0adc8206921a36823b83fd963704c271b665c5b07ec467aa77a221"),
    (16, 6, 3277, "e4dda42261788eb22993514c766ab6d90db6eabda7b83fc802e1d65c2270b9f7"),
])
def test_search_is_frozen_at_deeper_heads(n, t, count, digest):
    # counts and hashes computed before heads took their theta twins'
    # divisors: 2,304 heads g_0 g_1 g_2 at (14, 7), 144 heads g_0 g_1 at (16, 6)
    found = cd.enumerate_right_divisors(n, t, budget=2 ** 28)
    assert len(found) == count
    assert hashlib.sha256(repr(found).encode()).hexdigest() == digest


def test_enumerate_budget():
    # the budget counts the shorter side: 16^10 at (20, 10), 16^3 at (12, 9),
    # and 4^1 for the GF(4) shapes at (12, 11)
    with pytest.raises(cd.SizeCapExceeded):
        cd.enumerate_right_divisors(20, 10)
    with pytest.raises(cd.SizeCapExceeded):
        cd.enumerate_right_divisors(12, 9, budget=16 ** 3 - 1)
    assert cd.enumerate_right_divisors(12, 9, budget=16 ** 3)
    with pytest.raises(cd.SizeCapExceeded):
        cd.enumerate_right_divisors(6, 2, budget=10)
    assert len(cd.enumerate_right_divisors(12, 11, cd.FORM_V, budget=4)) == 3
    with pytest.raises(cd.SizeCapExceeded):
        cd.enumerate_right_divisors(12, 11, cd.FORM_V, budget=3)


def test_classify_generator_forms():
    assert cd.classify_generator(2, (1, 1)) == cd.FORM_UNIT
    assert cd.classify_generator(3, (4, 4)) == cd.FORM_V
    assert cd.classify_generator(3, (5, 5)) == cd.FORM_V1
    assert cd.classify_generator(4, (4, 1)) == cd.FORM_OTHER  # x + v: unit lead, no division
    with pytest.raises(ValueError):
        cd.classify_generator(3, ())


def test_building_a_code_divides_nothing(monkeypatch):
    # a code is its length and its generators: one below degree n needs no
    # division, and its shape is left to classify_generator
    calls = []
    right_divmod = sp.right_divmod
    monkeypatch.setattr(sp, "right_divmod", lambda f, d: calls.append(d) or right_divmod(f, d))
    for n, g in [(10, sp.parse_poly("x^4 + (v+w)*x^2 + 1")), (6, EX3), (4, (4, 1))]:
        assert cd.code_from_generator(n, g) == (n, (g,))
    assert cd.code_from_generators(3, [(4, 4), (1, 1, 1)]).generators == ((4, 4), (1, 1, 1))
    assert calls == []
    assert cd.code_from_generator(2, (1, 0, 1, 1)).generators == ((0, 1),)  # x^3 + x^2 + 1
    assert calls == [sp.x_pow_minus_one(2)]


@pytest.mark.parametrize("call, message", [
    (lambda: cd.code_from_generators(0, [(1,)]), "need length n >= 1"),
    (lambda: cd.code_from_generators(3, []), "a code needs at least one generator"),
    (lambda: membership(cd.materialize(cd.code_from_generator(6, EX3)), (0,) * 5),
     "word length does not match the code length"),
    (lambda: cd.remainder_membership(cd.code_from_generators(2, [(1, 1), (1, 1)]), (0, 0)),
     "remainder membership needs a single unit-form generator"),
    (lambda: cd.remainder_membership(cd.code_from_generator(6, EX3), (0,) * 6),
     "remainder membership needs a single unit-form generator"),
    (lambda: cd.remainder_membership(cd.code_from_generator(2, (1, 1)), (0,) * 3),
     "word length does not match the code length"),
    (lambda: cd.enumerate_right_divisors(4, 0), "need 1 <= t < n"),
    (lambda: cd.enumerate_right_divisors(4, 4), "need 1 <= t < n"),
    (lambda: cd.enumerate_right_divisors(4, 1, leading="w"), "unknown divisor shape 'w'"),
], ids=["length-0", "no-generators", "membership-length", "two-generators", "v-shape",
        "remainder-length", "degree-0", "degree-n", "unknown-shape"])
def test_error_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_generator_reduced_modulo_length():
    # x^n - 1 reduces to zero, which generates nothing
    with pytest.raises(ValueError):
        cd.code_from_generator(2, sp.x_pow_minus_one(2))


def test_minimal_degree_scan_small():
    scan = cd.minimal_degree_scan(cd.materialize(cd.code_from_generator(2, (1, 1))))
    assert scan.exists
    assert scan.degree == 1
    assert len(scan.words) == 6
    assert set(scan.forms) == {cd.FORM_V, cd.FORM_V1}
    assert scan.all_factor


def test_minimal_degree_scan_sixteen_words(sixteen_word_code):
    scan = cd.minimal_degree_scan(sixteen_word_code)
    assert scan.exists
    assert scan.degree == 4
    assert set(scan.forms) == {cd.FORM_V}
    assert scan.all_factor


@pytest.fixture(scope="module")
def word_walks(word_walk_oracles, word_walk_codes):
    """(code, naive minimal-degree report, naive plain-shift closure); each
    code's words are walked once, on a CodeSet that is then dropped."""
    naive_scan, naive_cyclic = word_walk_oracles
    walks = []
    for code, limit in word_walk_codes:
        cs = cd.materialize(code)
        if cs.size <= limit:
            walks.append((code, naive_scan(cs), naive_cyclic(cs)))
    return walks


def test_minimal_degree_scan_agrees_with_word_walk(word_walks):
    assert len(word_walks) == 375  # 340 single-generator, 35 random two-generator
    bad = [code for code, report, _ in word_walks
           if cd.minimal_degree_scan(cd.materialize(code)) != report]
    assert bad == []


def test_plain_cyclic_decision_agrees_with_set_definition(word_walks):
    verdicts = [(code.n, cd.is_plain_cyclic(cd.materialize(code)), closed)
                for code, _, closed in word_walks if code.n >= 2]
    assert [v for v in verdicts if v[1] != v[2]] == []
    # odd lengths are always closed; even lengths give the negative control
    assert all(closed for n, _, closed in verdicts if n % 2)
    assert {closed for n, _, closed in verdicts if n % 2 == 0} == {True, False}


def test_plain_cyclic_decision_reads_every_generator(word_walk_oracles):
    # at n = 4 each first generator alone gives a plain-cyclic code; the
    # second generator's rotation is what leaves these 256-word codes
    _, naive_cyclic = word_walk_oracles
    for gens in ([(4, 4, 4, 4), (5, 5)], [(1, 1, 1, 1), (4, 4)]):
        assert cd.is_plain_cyclic(cd.materialize(cd.code_from_generators(4, gens[:1])))
        cs = cd.materialize(cd.code_from_generators(4, gens))
        assert cs.size == 256
        assert cd.is_plain_cyclic(cs) is naive_cyclic(cs) is False


def test_minimal_degree_scan_of_the_zero_code():
    zero = cd.CodeSet(cd.code_from_generator(2, (1, 1)), {})
    assert cd.minimal_degree_scan(zero) == cd.MinimalDegreeReport(False, None, (), (), None)
