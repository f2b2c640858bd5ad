"""Exhaustive arithmetic checks for GF(4) and R = GF(4) + v*GF(4).

Everything here is small enough to check in full: 16 elements, 256 pairs,
4096 triples.  Reference multiplication is recomputed in-test as carry-less
polynomial products so the tables are never trusted on their own word.
"""

import pytest

from skewdna import algebra as alg

from conftest import gray_inverse, theta


def gf4_mul_reference(x: int, y: int) -> int:
    # polynomial product of two degree-<2 polynomials over GF(2),
    # reduced by x^2 + x + 1
    acc = 0
    if y & 1:
        acc ^= x
    if y & 2:
        acc ^= x << 1
    if acc & 4:
        acc ^= 0b111
    return acc


def r_mul_reference(x: int, y: int) -> int:
    # (a + b v)(c + d v) with v^2 = v
    a, b = x & 3, x >> 2
    c, d = y & 3, y >> 2
    m = gf4_mul_reference
    return (m(a, c)) | ((m(a, d) ^ m(b, c) ^ m(b, d)) << 2)


def test_gf4_mul_matches_polynomial_reference():
    for x in range(4):
        for y in range(4):
            assert alg.gf4_mul(x, y) == gf4_mul_reference(x, y)


def test_gf4_generator_relations():
    w = alg.parse_gf4("w")
    assert alg.gf4_mul(w, w) == w ^ 1          # w^2 = w + 1
    assert alg.gf4_mul(w, alg.gf4_mul(w, w)) == 1  # w^3 = 1


def test_gf4_inverses():
    for x in range(1, 4):
        assert alg.gf4_mul(x, alg.gf4_inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        alg.gf4_inv(0)


def test_r_mul_matches_reference():
    for x in alg.ELEMENTS:
        for y in alg.ELEMENTS:
            assert alg.r_mul(x, y) == r_mul_reference(x, y)


def test_r_ring_axioms_exhaustive():
    for x in alg.ELEMENTS:
        assert alg.r_mul(1, x) == x
        for y in alg.ELEMENTS:
            assert alg.r_mul(x, y) == alg.r_mul(y, x)
            for z in alg.ELEMENTS:
                assert alg.r_mul(alg.r_mul(x, y), z) == alg.r_mul(x, alg.r_mul(y, z))
                assert alg.r_mul(x, y ^ z) == alg.r_mul(x, y) ^ alg.r_mul(x, z)


def test_v_is_idempotent_zero_divisor():
    v, v1 = alg.V, alg.V ^ 1
    assert alg.r_mul(v, v) == v
    assert alg.r_mul(v, v1) == 0
    assert alg.r_mul(v1, v1) == v1


def test_unit_group():
    expected = {x for x in alg.ELEMENTS
                if (x & 3) != 0 and ((x & 3) ^ (x >> 2)) != 0}
    assert set(alg.UNITS) == expected
    assert len(alg.UNITS) == 9
    for u in alg.UNITS:
        assert alg.r_mul(u, alg.r_inv(u)) == 1
        assert alg.is_unit(u)
    # (w + v)(w2 + v) = 1
    assert alg.r_mul(alg.parse_element("w+v"), alg.parse_element("w2+v")) == 1


def test_inverse_formula():
    # (a + b v)^-1 = a^-1 + b^2 v
    for u in alg.UNITS:
        a, b = alg.parts(u)
        formula = alg.from_parts(alg.gf4_inv(a), alg.gf4_mul(b, b))
        assert alg.r_inv(u) == formula


@pytest.mark.parametrize("x", [0, alg.V, alg.V ^ 1, 8, 10])
def test_nonunits_have_no_inverse(x):
    if x != 0:
        assert not alg.is_unit(x)
    with pytest.raises(ValueError):
        alg.r_inv(x)


def test_theta_is_an_involutive_automorphism():
    th = theta
    assert alg._THETA == tuple(map(th, alg.ELEMENTS))  # the package's table
    assert th(alg.V) == alg.V ^ 1  # theta(v) = 1 + v
    for x in alg.ELEMENTS:
        assert th(th(x)) == x
        if x < 4:
            assert th(x) == x  # fixes the GF(4) subfield
        for y in alg.ELEMENTS:
            assert th(x ^ y) == th(x) ^ th(y)
            assert th(alg.r_mul(x, y)) == alg.r_mul(th(x), th(y))


def test_gray_map():
    seen = set()
    for x in alg.ELEMENTS:
        a, b = alg.parts(x)
        pair = alg.gray(x)
        assert pair == (a ^ b, a)
        assert gray_inverse(pair) == x
        seen.add(pair)
    assert len(seen) == 16


def test_gray_swaps_under_theta():
    for x in alg.ELEMENTS:
        p, q = alg.gray(x)
        assert alg.gray(theta(x)) == (q, p)


def test_crt_split_is_a_componentwise_homomorphism():
    # gray is the split modulo <v + 1> and modulo <v>
    for x in alg.ELEMENTS:
        for y in alg.ELEMENTS:
            px, qx = alg.gray(x)
            py, qy = alg.gray(y)
            assert alg.gray(x ^ y) == (px ^ py, qx ^ qy)
            m = alg.gray(alg.r_mul(x, y))
            assert m == (alg.gf4_mul(px, py), alg.gf4_mul(qx, qy))


def test_element_tokens_round_trip():
    for x in alg.ELEMENTS:
        assert alg.parse_element(alg.r_token(x)) == x
    assert alg.parse_element("w2+w2*v") == 15
    assert alg.parse_element("1+w*v") == 9
    assert alg.r_token(0) == "0"
    for x in range(4):
        assert alg.parse_gf4(alg.gf4_token(x)) == x


@pytest.mark.parametrize("bad", ["q", "w3", "", "2"])
def test_bad_tokens_raise(bad):
    with pytest.raises(ValueError):
        alg.parse_element(bad)
