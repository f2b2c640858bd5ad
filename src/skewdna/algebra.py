"""Exact arithmetic for GF(4) and the 16-element ring R = GF(4) + v*GF(4).

GF(4) = {0, 1, w, w2} with w2 = w + 1 is stored as 2-bit integers 0..3:
bit 0 is the constant coefficient, bit 1 the coefficient of w, so
0 -> 0, 1 -> 1, w -> 2, w2 -> 3.  Addition is XOR.  Multiplication uses
a 4x4 table that the tests check against polynomial arithmetic modulo
w^2 + w + 1 over GF(2).

Ring elements a + b*v (v^2 = v) are stored as 4-bit integers a | (b << 2).
Addition is again XOR; multiplication expands

    (a + b v)(c + d v) = ac + (ad + bc + bd) v.

R is commutative but not a chain ring: its maximal ideals are <v> and
<v + 1>, and splitting along them sends a + b*v to the pair (a + b, a).
An element is a unit exactly when both components are nonzero, which
leaves 9 units out of 16 elements.

The ring automorphism theta maps a + b*v to (a + b) + b*v.  It is an
involution, fixes exactly GF(4), and swaps the two split components.

Canonical text tokens: "0", "1", "w", "w2" for GF(4).  Ring elements
render as "a+b*v" with zero parts elided and "1*v" shortened to "v"
("w2+v", "w*v", "1+w2*v", ...).  parse_element accepts these forms.
"""

from __future__ import annotations

__all__ = [
    "gf4_mul", "gf4_inv", "gf4_token", "parse_gf4", "ELEMENTS", "UNITS", "V",
    "V1", "from_parts", "parts", "r_mul", "r_inv", "is_unit", "theta", "gray",
    "gray_inverse", "r_token", "parse_element",
]

_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
_GF4_INV = (None, 1, 3, 2)

_GF4_TOKENS = ("0", "1", "w", "w2")


def gf4_mul(x: int, y: int) -> int:
    return _GF4_MUL[x][y]


def gf4_inv(x: int) -> int:
    if x == 0:
        raise ZeroDivisionError("0 has no inverse in GF(4)")
    return _GF4_INV[x]


def gf4_token(x: int) -> str:
    return _GF4_TOKENS[x]


def parse_gf4(text: str) -> int:
    try:
        return _GF4_TOKENS.index(text.strip())
    except ValueError:
        raise ValueError(f"not a GF(4) token: {text!r}") from None


# ---------------------------------------------------------------------------
# the ring R = GF(4) + v*GF(4)

ELEMENTS = tuple(range(16))
V = 4        # v
V1 = 5       # 1 + v


def from_parts(a: int, b: int) -> int:
    """Element a + b*v from its GF(4) parts."""
    return a | (b << 2)


def parts(x: int) -> tuple[int, int]:
    return x & 3, x >> 2


def _build_r_mul() -> tuple[tuple[int, ...], ...]:
    table = []
    for x in ELEMENTS:
        a, b = parts(x)
        row = []
        for y in ELEMENTS:
            c, d = parts(y)
            lo = _GF4_MUL[a][c]
            hi = _GF4_MUL[a][d] ^ _GF4_MUL[b][c] ^ _GF4_MUL[b][d]
            row.append(from_parts(lo, hi))
        table.append(tuple(row))
    return tuple(table)


_R_MUL = _build_r_mul()

# theta(a + b v) = (a + b) + b v
_THETA = tuple(from_parts((x & 3) ^ (x >> 2), x >> 2) for x in ELEMENTS)

# a + b v is a unit iff a != 0 and a + b != 0
UNITS = tuple(x for x in ELEMENTS if (x & 3) and ((x & 3) ^ (x >> 2)))

_R_INV = [None] * 16
for _x in UNITS:
    # unit (a + b v)^-1 = a^-1 + b^2 v
    _a, _b = parts(_x)
    _R_INV[_x] = from_parts(_GF4_INV[_a], _GF4_MUL[_b][_b])
_R_INV = tuple(_R_INV)

_GRAY = tuple(((x & 3) ^ (x >> 2), x & 3) for x in ELEMENTS)


def r_mul(x: int, y: int) -> int:
    return _R_MUL[x][y]


def is_unit(x: int) -> bool:
    return _R_INV[x] is not None


def r_inv(x: int) -> int:
    inv = _R_INV[x]
    if inv is None:
        raise ValueError(f"{r_token(x)} is not a unit")
    return inv


def theta(x: int) -> int:
    return _THETA[x]


def gray(x: int) -> tuple[int, int]:
    """GF(4) coordinate pair (a + b, a) of the element a + b*v: its images
    modulo <v + 1> and modulo <v>, a ring homomorphism in each component."""
    return _GRAY[x]


def gray_inverse(pair: tuple[int, int]) -> int:
    p, q = pair
    return from_parts(q, p ^ q)


def r_token(x: int) -> str:
    a, b = parts(x)
    if b == 0:
        return _GF4_TOKENS[a]
    vpart = "v" if b == 1 else f"{_GF4_TOKENS[b]}*v"
    if a == 0:
        return vpart
    return f"{_GF4_TOKENS[a]}+{vpart}"


def parse_element(text: str) -> int:
    """Parse a ring element token such as "w2+v", "w*v", "0" or "1"."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty element token")
    a = b = 0
    for part in s.split("+"):
        if part == "v":
            b ^= 1
        elif part.endswith("*v"):
            b ^= parse_gf4(part[:-2])
        else:
            a ^= parse_gf4(part)
    return from_parts(a, b)
