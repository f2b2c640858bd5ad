"""Skew polynomial arithmetic: the twist, right division, palindromes, text."""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewdna import skewpoly as sp
from skewdna.algebra import UNITS, V, theta

X = (0, 1)
VP = (V,)  # the constant polynomial v


def random_poly(rng, max_deg=4):
    return sp.normalize(tuple(rng.randrange(16) for _ in range(rng.randint(1, max_deg + 1))))


def test_normalize_and_queries():
    assert sp.normalize((1, 0, 0)) == (1,)
    assert sp.normalize(()) == ()


def test_twist_rule():
    # x * c = theta(c) * x, so x does not commute with v
    for c in range(16):
        assert sp.mul(X, (c,)) == sp.normalize((0, theta(c)))
    assert sp.mul(X, VP) == (0, V ^ 1)
    assert sp.mul(X, VP) != sp.mul(VP, X)


def test_vx_squares_to_zero():
    vx = (0, V)
    assert sp.mul(vx, vx) == ()  # v * theta(v) = v(1+v) = 0


def test_ring_axioms_random():
    rng = random.Random(9)
    for _ in range(200):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert sp.mul(sp.mul(f, g), h) == sp.mul(f, sp.mul(g, h))
        assert sp.mul(f, sp.add(g, h)) == sp.add(sp.mul(f, g), sp.mul(f, h))
        assert sp.mul(sp.add(f, g), h) == sp.add(sp.mul(f, h), sp.mul(g, h))
        assert sp.add(f, f) == ()


def test_scale_and_apply_theta():
    f = (1, 6, 7, 1)
    assert sp.scale(1, f) == f
    assert sp.scale(0, f) == ()
    # theta applied twice is the identity, so x^2 commutes with f
    assert sp.mul((0, 0, 1), f) == sp.mul(f, (0, 0, 1))


def test_right_divmod_reconstructs():
    rng = random.Random(17)
    for _ in range(300):
        f = random_poly(rng, max_deg=6)
        d = random_poly(rng, max_deg=3)
        if not d or d[-1] not in UNITS:
            continue
        q, r = sp.right_divmod(f, d)
        assert sp.add(sp.mul(q, d), r) == f
        assert len(r) < len(d)


POLYS = st.lists(st.integers(0, 15), max_size=8).map(sp.normalize)


@given(POLYS, POLYS, POLYS)
def test_mul_is_associative(f, g, h):
    assert sp.mul(sp.mul(f, g), h) == sp.mul(f, sp.mul(g, h))


@given(st.lists(st.integers(0, 15), max_size=14).map(sp.normalize),
       st.lists(st.integers(0, 15), max_size=7), st.sampled_from(UNITS))
def test_right_divmod_reconstructs_property(f, low, lead):
    d = tuple(low) + (lead,)
    q, r = sp.right_divmod(f, d)
    assert sp.add(sp.mul(q, d), r) == f
    assert len(r) < len(d)


@given(st.lists(st.integers(0, 15), max_size=12).map(sp.normalize))
def test_format_parse_round_trip(f):
    assert sp.parse_poly(sp.format_poly(f)) == f


def test_right_division_needs_unit_leading():
    with pytest.raises(ValueError):
        sp.right_divmod((1, 0, 1), (1, V))
    with pytest.raises(ZeroDivisionError):
        sp.right_divmod((1,), ())


def test_x_plus_one_divides_x2_minus_one():
    assert sp.x_pow_minus_one(2) == (1, 0, 1)
    assert sp.right_divides((1, 1), sp.x_pow_minus_one(2))


def test_degree_one_divisors_of_x2_minus_one_by_expansion():
    # oracle: multiply out (x + d)(x + c) for all 256 pairs and keep products
    # equal to x^2 + 1; compare against the division-based answer
    target = sp.x_pow_minus_one(2)
    from_expansion = {
        (c, 1)
        for c in range(16)
        for d in range(16)
        if sp.mul((d, 1), (c, 1)) == target
    }
    from_division = {(c, 1) for c in range(16) if sp.right_divides((c, 1), target)}
    assert from_expansion == from_division
    assert from_expansion == {(1, 1), (6, 1), (7, 1)}


def test_x_pow_minus_one_is_central_for_even_lengths():
    rng = random.Random(23)
    for n in (2, 4, 6):
        xn1 = sp.x_pow_minus_one(n)
        for f in [VP, X, (7, 1)] + [random_poly(rng) for _ in range(20)]:
            assert sp.mul(xn1, f) == sp.mul(f, xn1)


def test_x_pow_minus_one_not_central_for_odd_lengths():
    for n in (3, 5):
        xn1 = sp.x_pow_minus_one(n)
        assert sp.mul(xn1, VP) != sp.mul(VP, xn1)


def test_length10_palindromic_divisor():
    g = sp.parse_poly("x^4 + (v+w)*x^2 + 1")
    assert g == (1, 0, 6, 0, 1)
    assert sp.right_divides(g, sp.x_pow_minus_one(10))
    assert sp.is_palindromic(g)


def test_length12_theta_palindromic_divisor():
    g = sp.parse_poly("x^3 + (v+w2)*x^2 + (v+w)*x + 1")
    assert g == (1, 6, 7, 1)
    assert sp.right_divides(g, sp.x_pow_minus_one(12))
    assert sp.is_theta_palindromic(g)
    assert not sp.is_palindromic(g)


def test_palindromic_predicates_match_direct_definition():
    rng = random.Random(31)
    for _ in range(300):
        f = random_poly(rng)
        if not f or f[0] == 0:
            continue
        assert sp.is_palindromic(f) == (f == tuple(reversed(f)))
        assert sp.is_theta_palindromic(f) == (f == tuple(theta(c) for c in reversed(f)))


def test_zero_polynomial_has_no_palindrome_notion():
    for fn in (sp.is_palindromic, sp.is_theta_palindromic):
        with pytest.raises(ValueError):
            fn(())


def test_parse_format_round_trip():
    rng = random.Random(41)
    for _ in range(100):
        f = random_poly(rng, max_deg=5)
        if not f:
            continue
        assert sp.parse_poly(sp.format_poly(f)) == f


def test_parse_compact_products():
    # juxtaposition and implicit products around x
    assert sp.parse_poly("v(x^4+x^2+1)") == (V, 0, V, 0, V)
    assert sp.parse_poly("v(x^4+w2x^3+x+w2)") == (12, 4, 0, 12, 4)
    assert sp.parse_poly("w2x") == (0, 3)
    assert sp.parse_poly("(x+1)^2") == sp.mul((1, 1), (1, 1))


@pytest.mark.parametrize("bad", ["x +", "(x", "q", "x^", ""])
def test_parse_errors(bad):
    with pytest.raises(ValueError):
        sp.parse_poly(bad)


def test_coeff_list_str():
    assert sp.coeff_list_str((V, 0, V, 0, V)) == "[v, 0, v, 0, v]"


def test_parse_powers_match_repeated_products():
    # a noncommuting base, so the squaring order matters if anything does
    base = sp.parse_poly("v*x + w")
    expected = (1,)
    for e in range(20):
        assert sp.parse_poly(f"(v*x + w)^{e}") == expected
        expected = sp.mul(expected, base)


def test_parse_degree_limit():
    limit = sp.MAX_PARSE_DEGREE
    assert len(sp.parse_poly(f"x^{limit}")) == limit + 1
    for text in (f"x^{limit + 1}", f"(x^2 + 1)^{limit // 2 + 1}", f"x^{limit} * x",
                 f"x^{limit}(x + 1)", "x^100000000 + 1"):
        with pytest.raises(ValueError, match="limit"):
            sp.parse_poly(text)


def test_parse_nesting_limit():
    depth = sp.MAX_PARSE_NESTING
    assert sp.parse_poly("(" * depth + "w*x+1" + ")" * depth) == (1, 2)
    assert sp.parse_poly("+".join(["(x)"] * (2 * depth + 1))) == (0, 1)  # depth 1
    with pytest.raises(ValueError, match="nested deeper"):
        sp.parse_poly("(" * (depth + 1) + "x" + ")" * (depth + 1))


def test_largest_dense_power_parses_quickly():
    e = sp.MAX_PARSE_DEGREE - 1  # x + w + v to a power of two is sparse
    t0 = time.perf_counter()
    f = sp.parse_poly(f"(x + w+v)^{e}")
    assert time.perf_counter() - t0 < 2
    assert len(f) == e + 1
    assert sum(1 for c in f if c) > e // 2
