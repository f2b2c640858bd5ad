"""Skew polynomial arithmetic over R = GF(4) + v*GF(4).

The skew ring R[x; theta] carries the commutation rule x * a = theta(a) * x,
so general products expand as (a x^i)(b x^j) = a * theta^i(b) x^(i+j), with
theta^i depending only on the parity of i (theta is an involution).  The ring
is genuinely noncommutative: x * v = (1 + v) x != v * x.

A polynomial is a tuple of ring element indices in ascending degree order
with no trailing zeros, so a nonzero f has degree len(f) - 1.  The empty
tuple is the zero polynomial, which has no degree.

Division is *right* division unless named otherwise: right_divmod(f, d)
produces q, r with f = q * d + r and deg r < deg d, which exists and is
unique whenever the leading coefficient of d is a unit.  "d right-divides
f" means the corresponding remainder vanishes, i.e. f = q * d.
"""

from __future__ import annotations

from .algebra import (
    _R_MUL as _MUL,
    _THETA as _TH,
    is_unit,
    parse_element,
    r_inv,
    r_token,
)

Poly = tuple[int, ...]

# The largest degree a parsed power, product or coefficient list may have,
# and the longest code length the command line takes.  It bounds the
# parser's work (a product costs at most the product of its factors'
# lengths), so hostile text such as "x^100000000" is refused at once; and a
# code of length n has at most 16^n words, so at n = 2048 its size, 2^8192,
# has 2,467 digits, under the 4,300 that Python prints by default.
MAX_PARSE_DEGREE = 1 << 11
# The deepest parenthesis nesting parsed, inside Python's recursion limit.
MAX_PARSE_NESTING = 100


def normalize(coeffs) -> Poly:
    """Tuple with trailing zeros stripped; () is the zero polynomial."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add(f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] ^= c
    return normalize(out)


def scale(lam: int, f: Poly) -> Poly:
    """Left multiple lam * f by a ring element."""
    row = _MUL[lam]
    return normalize(row[c] for c in f)


def mul(f: Poly, g: Poly) -> Poly:
    """Skew product: (a x^i)(b x^j) = a * theta^i(b) x^(i+j)."""
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    g_theta = tuple(_TH[c] for c in g)
    for i, a in enumerate(f):
        if not a:
            continue
        row = _MUL[a]
        gg = g if i % 2 == 0 else g_theta
        for j, c in enumerate(gg):
            if c:
                out[i + j] ^= row[c]
    return normalize(out)


def right_divmod(f: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with f = q * d + r, deg r < deg d.

    Requires the leading coefficient of d to be a unit; the quotient
    coefficient at degree s must solve c * theta^s(lead d) = lead r, which
    is only possible in general when lead d is invertible.
    """
    if not d:
        raise ZeroDivisionError("right division by the zero polynomial")
    dt = d[-1]
    if not is_unit(dt):
        raise ValueError(
            f"leading coefficient {r_token(dt)} is not a unit; "
            "right division is not defined"
        )
    t = len(d) - 1
    if len(f) <= t:
        return (), f
    inv_even = r_inv(dt)
    inv_odd = _TH[inv_even]  # theta(dt)^-1 = theta(dt^-1)
    r = list(f)
    q = [0] * (len(f) - t)
    d_theta = tuple(_TH[c] for c in d)
    for s in range(len(f) - 1 - t, -1, -1):
        top = r[s + t]
        if not top:
            continue
        even = s % 2 == 0
        c = _MUL[top][inv_even if even else inv_odd]
        q[s] = c
        row = _MUL[c]
        dd = d if even else d_theta
        for j, dj in enumerate(dd):
            if dj:
                r[s + j] ^= row[dj]
    return normalize(q), normalize(r[:t])


def right_divides(d: Poly, f: Poly) -> bool:
    return not right_divmod(f, d)[1]


def x_pow_minus_one(n: int) -> Poly:
    """x^n - 1, which in characteristic 2 is x^n + 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (1,) + (0,) * (n - 1) + (1,)


# theta on a byte of bytes(f), for bytes.translate; bytes 16..255 never occur
_THETA_BYTES = bytes(_TH) + bytes(range(16, 256))


def is_palindromic(f: Poly) -> bool:
    """a_i == a_(t-i) for all i."""
    if not f:
        raise ValueError("palindromic is undefined for the zero polynomial")
    return f == f[::-1]


def is_theta_palindromic(f: Poly) -> bool:
    """a_i == theta(a_(t-i)) for all i."""
    if not f:
        raise ValueError("palindromic is undefined for the zero polynomial")
    b = bytes(f)
    return b == b[::-1].translate(_THETA_BYTES)


# ---------------------------------------------------------------------------
# text forms
#
# Two interchangeable notations, both deterministic:
#   human form   x^4 + (w+v)*x^2 + 1         (descending powers)
#   coefficient  [1, 0, w+v, 0, 1]           (ascending, full length)


def format_poly(f: Poly) -> str:
    if not f:
        return "0"
    terms = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if not c:
            continue
        tok = r_token(c)
        if k == 0:
            terms.append(tok)
            continue
        xpart = "x" if k == 1 else f"x^{k}"
        if c == 1:
            terms.append(xpart)
        elif "+" in tok or "*" in tok:
            terms.append(f"({tok})*{xpart}")
        else:
            terms.append(f"{tok}*{xpart}")
    return " + ".join(terms)


def coeff_list_str(f: Poly) -> str:
    if not f:
        return "[0]"
    return "[" + ", ".join(r_token(c) for c in f) + "]"


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[str] = []
        i, n, depth = 0, len(text), 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*^()[],":
                self.toks.append(ch)
                depth += (ch == "(") - (ch == ")")
                if depth > MAX_PARSE_NESTING:
                    raise ValueError(f"parentheses nested deeper than {MAX_PARSE_NESTING}")
                i += 1
            elif ch.isalnum():
                j = i
                while j < n and text[j].isalnum():
                    j += 1
                # x is the only name containing the letter x, so a run like
                # "w2x" is an implicit product: split it
                for piece in text[i:j].replace("x", " x ").split():
                    self.toks.append(piece)
                i = j
            else:
                raise ValueError(f"unexpected character {ch!r} in polynomial")
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial")
        self.pos += 1
        return tok


def _parse_expr(ts: _Tokens) -> Poly:
    acc = _parse_term(ts)
    while ts.peek() in ("+", "-"):  # R has characteristic 2: -a = a
        ts.take()
        acc = add(acc, _parse_term(ts))
    return acc


def _check_degree(deg: int) -> None:
    if deg > MAX_PARSE_DEGREE:
        raise ValueError(f"degree {deg} exceeds the parser's limit of {MAX_PARSE_DEGREE}")


def _parse_term(ts: _Tokens) -> Poly:
    acc = _parse_factor(ts)
    while True:
        nxt = ts.peek()
        if nxt == "*":
            ts.take()
        elif not (nxt == "(" or (nxt is not None and nxt[0].isalnum())):
            return acc
        # explicit or implicit product, e.g. "v(x^4 + x^2 + 1)"
        factor = _parse_factor(ts)
        _check_degree(len(acc) + len(factor) - 2)
        acc = mul(acc, factor)


def _parse_factor(ts: _Tokens) -> Poly:
    base = _parse_atom(ts)
    if ts.peek() != "^":
        return base
    ts.take()
    exp_tok = ts.take()
    if not (exp_tok.isascii() and exp_tok.isdigit()):
        raise ValueError(f"bad exponent {exp_tok!r}")
    try:
        e = int(exp_tok)
    except ValueError:  # past the interpreter's limit on int() digits
        raise ValueError(f"exponent of {len(exp_tok)} digits is too long") from None
    _check_degree(max(len(base) - 1, 0) * e)
    out: Poly = (1,)  # base^e by repeated squaring
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out


def _parse_atom(ts: _Tokens) -> Poly:
    tok = ts.take()
    if tok == "(":
        inner = _parse_expr(ts)
        if ts.take() != ")":
            raise ValueError("unbalanced parenthesis in polynomial")
        return inner
    if tok == "x":
        return (0, 1)
    if not tok.isalnum():
        raise ValueError(f"expected a term, found {tok!r}")
    return normalize((parse_element(tok),))


def parse_poly(text: str) -> Poly:
    """Parse either notation: "x^2 + (w+v)*x + 1" or "[1, w+v, 1]"."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError("unterminated coefficient list")
        body = s[1:-1].strip()
        if not body:
            return ()
        coeffs = normalize(parse_element(p) for p in body.split(","))
        _check_degree(len(coeffs) - 1)
        return coeffs
    ts = _Tokens(s)
    out = _parse_expr(ts)
    if ts.peek() is not None:
        raise ValueError(f"trailing input in polynomial: {ts.peek()!r}")
    return out
