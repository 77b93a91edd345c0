"""Independent exact reference for checking symbol3's results.

Scalars of Q(w) are pairs (r, s) of Fractions standing for r + s*w, with
w^2 = -1 - w.  Elements are 9-tuples of such pairs in symbol3's public basis
order 1, x, x^2, y, y^2, xy, x^2y^2, x^2y, xy^2, and products follow the
defining relations x^3 = a, y^3 = b, yx = w xy directly.  Nothing here
imports symbol3: results cross the boundary only as text in the scalar
grammar R, R+S*w, R-S*w, so the checks hold whatever symbol3 stores inside.
"""

from __future__ import annotations

import re
from fractions import Fraction

EXPONENTS = ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 2), (2, 1), (1, 2))
INDEX_OF = {e: k for k, e in enumerate(EXPONENTS)}

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
OMEGA = (Fraction(0), Fraction(1))

_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(rf"^({_RAT})(?:([+-])(\d+(?:/\d+)?)\*w)?$")


def parse(text: str):
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError(f"not a scalar: {text!r}")
    r, sign, s = m.groups()
    s = Fraction(s) if s is not None else Fraction(0)
    return Fraction(r), -s if sign == "-" else s


def _fmt_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt(u) -> str:
    r, s = u
    if s == 0:
        return _fmt_rat(r)
    return f"{_fmt_rat(r)}{'-' if s < 0 else '+'}{_fmt_rat(abs(s))}*w"


def add(u, v):
    return u[0] + v[0], u[1] + v[1]


def sub(u, v):
    return u[0] - v[0], u[1] - v[1]


def mul(u, v):
    cross = u[1] * v[1]
    return u[0] * v[0] - cross, u[0] * v[1] + u[1] * v[0] - cross


def inv(u):
    r, s = u
    n = r * r - r * s + s * s
    if n == 0:
        raise ZeroDivisionError("inverse of zero in Q(w)")
    return (r - s) / n, -s / n


def _power(u, k: int):
    out = ONE
    for _ in range(k):
        out = mul(out, u)
    return out


def structure(a, b):
    """table[i][k] = (scalar, index) with b_i * b_k = scalar * b_index."""
    table = []
    for i, j in EXPONENTS:
        row = []
        for k, l in EXPONENTS:
            c = mul(mul(_power(OMEGA, (j * k) % 3), _power(a, (i + k) // 3)), _power(b, (j + l) // 3))
            row.append((c, INDEX_OF[((i + k) % 3, (j + l) % 3)]))
        table.append(tuple(row))
    return tuple(table)


def el_mul(table, z, w):
    out = [ZERO] * 9
    for i, zi in enumerate(z):
        if zi == ZERO:
            continue
        for k, wk in enumerate(w):
            if wk == ZERO:
                continue
            c, idx = table[i][k]
            out[idx] = add(out[idx], mul(mul(zi, wk), c))
    return tuple(out)


def el_add(z, w):
    return tuple(add(u, v) for u, v in zip(z, w))


def el_sub(z, w):
    return tuple(sub(u, v) for u, v in zip(z, w))


def el_scale(c, z):
    return tuple(mul(c, u) for u in z)


def scalar(c):
    return (c,) + (ZERO,) * 8


def monomial(k: int):
    return tuple(ONE if i == k else ZERO for i in range(9))


def char_data(table, z):
    """(tau, pi, adjoint, z * adjoint) from tau = 3 c0, pi = (tau^2 - tau(z^2)) / 2
    and z* = z^2 - tau z + pi.  The last is eta(z) times 1 when z* is right."""
    sq = el_mul(table, z, z)
    tau = mul((Fraction(3), Fraction(0)), z[0])
    tau_sq = mul((Fraction(3), Fraction(0)), sq[0])
    d = sub(mul(tau, tau), tau_sq)
    pi = (d[0] / 2, d[1] / 2)
    adj = el_add(el_sub(sq, el_scale(tau, z)), scalar(pi))
    return tau, pi, adj, el_mul(table, z, adj)


def norm(table, z):
    return char_data(table, z)[3][0]


def el_inverse(table, z):
    _, _, adj, prod = char_data(table, z)
    return el_scale(inv(prod[0]), adj)


def twist(z, k: int):
    return tuple(mul(u, _power(OMEGA, (j * k) % 3)) for u, (_, j) in zip(z, EXPONENTS))
