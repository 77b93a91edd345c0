"""Degree-3 symbol algebra S = (a,b / K,w) over K = Q(w).

Generators x, y satisfy x^3 = a, y^3 = b, yx = w*xy.  Elements are stored as
nine coordinates in the fixed basis

    (1, x, x^2, y, y^2, xy, x^2y^2, x^2y, xy^2)

whose exponent pairs (i, j) with monomial x^i y^j are listed in EXPONENTS.
Multiplication comes from the closed-form rewriting rule

    (x^i y^j)(x^k y^l) = w^(jk) * a^((i+k) div 3) * b^((j+l) div 3)
                         * x^((i+k) mod 3) y^((j+l) mod 3),

never from a transcribed table.  SymbolAlgebra.table() is the only place that
encodes these structure constants, and table_products is the one loop that
multiplies through its integer copy: the element product, eta (the scalar
terms of z z*, SymbolElement.characteristic) and the reconstruction product
(representations._mixed_product) all sum there.  pi and the adjoint are read
from element products.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .cyclotomic import HALF, CycQ, OMEGA_POW, ONE, ZERO, _coerce, from_numerators, numerators


class ParamsMismatch(ValueError):
    """Two elements from algebras with different (a, b) were combined."""


class NotInvertible(ArithmeticError):
    """The element has reduced norm zero and therefore no inverse."""


EXPONENTS = ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 2), (2, 1), (1, 2))
INDEX_OF = {e: k for k, e in enumerate(EXPONENTS)}
# COMPLEMENT[k] is the basis monomial whose product with monomial k is a scalar
# (x with x^2, xy with x^2y^2, ...).
COMPLEMENT = tuple(INDEX_OF[(-i) % 3, (-j) % 3] for i, j in EXPONENTS)
BASIS_NAMES = ("1", "x", "x^2", "y", "y^2", "x*y", "x^2*y^2", "x^2*y", "x*y^2")


def basis_product_exponents(e1, e2):
    """Structure of (x^i y^j)(x^k y^l): (omega_pow, a_pow, b_pow, result exponents)."""
    i, j = e1
    k, l = e2
    return (j * k) % 3, (i + k) // 3, (j + l) // 3, ((i + k) % 3, (j + l) % 3)


def table_products(left, rows, right) -> tuple:
    """For each nonzero left pair (p1, q1), its row of _integer_table() and its
    right terms (k, p2, q2), add (p1 + q1 w)(p2 + q2 w)(tr + ts w) in ints into
    output index, where row[k] = (tr, ts, index); returns (out_r, out_s)."""
    out_r = [0] * 9
    out_s = [0] * 9
    for (p1, q1), row, terms in zip(left, rows, right):
        if not (p1 or q1):
            continue
        for k, p2, q2 in terms:
            tr, ts, idx = row[k]
            # (p1 + q1 w)(p2 + q2 w)(tr + ts w), each step using w^2 = -1 - w
            cross = q1 * q2
            u = p1 * p2 - cross
            v = p1 * q2 + q1 * p2 - cross
            cross = v * ts
            out_r[idx] += u * tr - cross
            out_s[idx] += u * ts + v * tr - cross
    return out_r, out_s


class SymbolAlgebra:
    """The pair (a, b) of nonzero scalars defining S, plus element constructors."""

    __slots__ = ("a", "b", "_table", "_int_table")

    def __init__(self, a, b):
        a = _as_cycq(a)
        b = _as_cycq(b)
        if not a or not b:
            raise ValueError("symbol algebra needs nonzero a and b")
        self.a = a
        self.b = b
        self._table = None
        self._int_table = None

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolAlgebra) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"SymbolAlgebra(a={self.a}, b={self.b})"

    def table(self):
        """9x9 structure table: table[i][k] = (scalar, result index)."""
        if self._table is None:
            powers_a = (ONE, self.a, self.a * self.a)
            powers_b = (ONE, self.b, self.b * self.b)
            rows = []
            for e1 in EXPONENTS:
                row = []
                for e2 in EXPONENTS:
                    w, pa, pb, res = basis_product_exponents(e1, e2)
                    row.append((OMEGA_POW[w] * powers_a[pa] * powers_b[pb], INDEX_OF[res]))
                rows.append(tuple(row))
            self._table = tuple(rows)
        return self._table

    def _integer_table(self):
        """table() over its least common denominator: (den, rows) with
        rows[i][k] = (r, s, index) where table[i][k] = ((r + s*w) / den, index)."""
        if self._int_table is None:
            table = self.table()
            den, pairs = numerators([scalar for row in table for scalar, _ in row])
            pairs = iter(pairs)
            self._int_table = den, tuple(
                tuple((*next(pairs), index) for _, index in row) for row in table
            )
        return self._int_table

    def element(self, coeffs: Iterable) -> "SymbolElement":
        cs = tuple(_as_cycq(c) for c in coeffs)
        if len(cs) != 9:
            raise ValueError("an element needs exactly 9 coefficients")
        return SymbolElement(self, cs)

    def zero(self) -> "SymbolElement":
        return self.element([0] * 9)

    def one(self) -> "SymbolElement":
        return self.monomial(0)

    def x(self) -> "SymbolElement":
        return self.monomial(1)

    def y(self) -> "SymbolElement":
        return self.monomial(3)

    def monomial(self, index: int, coeff=1) -> "SymbolElement":
        cs = [ZERO] * 9
        cs[index] = _as_cycq(coeff)
        return SymbolElement(self, tuple(cs))

    def scalar(self, value) -> "SymbolElement":
        return self.monomial(0, value)


class CharData(NamedTuple):
    """Coefficients (tau, pi, eta) of X^3 - tau*X^2 + pi*X - eta."""

    tau: CycQ
    pi: CycQ
    eta: CycQ


class SymbolElement:
    """An element of a fixed symbol algebra; immutable."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: SymbolAlgebra, coeffs: tuple):
        self.algebra = algebra
        self.coeffs = coeffs

    def _check_same(self, other: "SymbolElement"):
        if self.algebra != other.algebra:
            raise ParamsMismatch(
                f"cannot combine elements of {self.algebra!r} and {other.algebra!r}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        terms = [
            f"({c})*{name}" if name != "1" else f"({c})"
            for c, name in zip(self.coeffs, BASIS_NAMES)
            if c
        ]
        return " + ".join(terms) if terms else "0"

    def __add__(self, other) -> "SymbolElement":
        if not isinstance(other, SymbolElement):
            return NotImplemented
        self._check_same(other)
        return SymbolElement(
            self.algebra, tuple(u + v for u, v in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other) -> "SymbolElement":
        if not isinstance(other, SymbolElement):
            return NotImplemented
        self._check_same(other)
        return SymbolElement(
            self.algebra, tuple(u - v for u, v in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "SymbolElement":
        return SymbolElement(self.algebra, tuple(-u for u in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, SymbolElement):
            self._check_same(other)
            # Each operand is (p_k + q_k w) / d over its least common denominator,
            # so the term products stay in ints and each output is normalised once.
            den, table = self.algebra._integer_table()
            d1, left = numerators(self.coeffs)
            d2, right = numerators(other.coeffs)
            right = [(k, p, q) for k, (p, q) in enumerate(right) if p or q]
            out_r, out_s = table_products(left, table, [right] * 9)
            return SymbolElement(self.algebra, from_numerators(d1 * d2 * den, out_r, out_s))
        scalar = _coerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        return self.scale(scalar)

    def __rmul__(self, other):
        # Scalars are central, so left and right scaling agree.
        scalar = _coerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        return self.scale(scalar)

    def scale(self, k) -> "SymbolElement":
        k = _as_cycq(k)
        return SymbolElement(self.algebra, tuple(k * c for c in self.coeffs))

    def coeff(self, key) -> CycQ:
        """Coefficient by basis index 0..8 or by exponent pair (i, j)."""
        if isinstance(key, tuple):
            key = INDEX_OF[key]
        return self.coeffs[key]

    def reduced_trace(self) -> CycQ:
        """tau(z) = 3*c0; the 9x9 left representation has trace 9*c0 = 3*tau(z)."""
        return 3 * self.coeffs[0]

    def _from_square(self) -> tuple:
        """(tau, pi, z*) from one square: pi(z) = (tau(z)^2 - tau(z^2)) / 2 and
        z* = z^2 - tau(z) z + pi(z)."""
        sq = self * self
        tau = self.reduced_trace()
        pi = (tau * tau - sq.reduced_trace()) * HALF
        return tau, pi, sq - self.scale(tau) + self.algebra.scalar(pi)

    def characteristic(self) -> tuple:
        """(CharData(tau, pi, eta), z*) from one square and nine term products.

        By Cayley-Hamilton z z* = eta(z), so eta is the scalar coefficient of
        z z*, which only the products c_k z*_COMPLEMENT[k] reach; the cube of
        eta equals det of the left representation, which the verification
        suite checks independently.
        """
        tau, pi, adj = self._from_square()
        den, table = self.algebra._integer_table()
        d1, left = numerators(self.coeffs)
        d2, right = numerators(adj.coeffs)
        # row k of z z* needs only its term with z*_COMPLEMENT[k]; all land on output 0
        out_r, out_s = table_products(left, table, [((k, *right[k]),) for k in COMPLEMENT])
        (eta,) = from_numerators(d1 * d2 * den, out_r[:1], out_s[:1])
        return CharData(tau, pi, eta), adj

    def pi_form(self) -> CycQ:
        """pi(z) = (tau(z)^2 - tau(z^2)) / 2."""
        return self._from_square()[1]

    def reduced_norm(self) -> CycQ:
        """eta(z), the scalar z z*."""
        return self.characteristic()[0].eta

    def char_poly(self) -> CharData:
        """(tau, pi, eta); the element is a root of X^3 - tau X^2 + pi X - eta."""
        return self.characteristic()[0]

    def adjoint(self) -> "SymbolElement":
        """z* = z^2 - tau(z) z + pi(z); satisfies z z* = z* z = eta(z)."""
        return self._from_square()[2]

    def inverse(self) -> "SymbolElement":
        (_, _, eta), adj = self.characteristic()
        if not eta:
            raise NotInvertible("reduced norm is zero")
        return adj.scale(eta.inverse())

    def twist(self, k: int) -> "SymbolElement":
        """Scale the y-degree-d coefficient block by w^(d*k); an algebra automorphism."""
        if k not in (1, 2):
            raise ValueError("twist exponent must be 1 or 2")
        return SymbolElement(
            self.algebra,
            tuple(
                c * OMEGA_POW[(j * k) % 3]
                for c, (_, j) in zip(self.coeffs, EXPONENTS)
            ),
        )

    def scalar_part(self) -> CycQ:
        return self.coeffs[0]


def _as_cycq(value) -> CycQ:
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a scalar in Q(w)")
    return out


def element_to_dict(z: SymbolElement) -> dict:
    """JSON-ready form: scalar strings for a, b and the nine coefficients."""
    return {
        "a": str(z.algebra.a),
        "b": str(z.algebra.b),
        "coeffs": [str(c) for c in z.coeffs],
    }


def element_from_dict(data: dict) -> SymbolElement:
    algebra = SymbolAlgebra(CycQ.parse(data["a"]), CycQ.parse(data["b"]))
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) != 9:
        raise ValueError("element JSON needs a list of exactly 9 coefficients")
    return algebra.element([CycQ.parse(c) for c in coeffs])
