"""Left/right regular matrix representations and exact 9x9 linear algebra.

lambda_mat(z) has column k equal to the coordinates of z * b_k, gamma_mat(z)
the coordinates of b_k * z, for b_k running over the fixed basis.  Both are
generated from multiplication; transcribed tables exist only as diagnostic
fixtures (see fixtures.py).  Matrix products, apply and the reconstruction
product run over integer numerators, like the element product: each operand is
written over its least common denominator, the sums stay in ints, and each
output is normalised once (_products, _mixed_product).  The reconstruction
product sums its monomial products in algebra.table_products, the loop that
also serves the element product and eta.  det is fraction-free
(Bareiss) elimination over Z[w] on the same integer numerators, so every
division in it is exact.  kernel_basis and solve_affine read the solution set
from _rref, exact Gauss-Jordan elimination over Q(w).
"""

from __future__ import annotations

from .algebra import COMPLEMENT, SymbolAlgebra, SymbolElement, table_products
from .cyclotomic import CycQ, ONE, ZERO, from_numerators, numerators


class IdentityViolation(RuntimeError):
    """A reconstruction identity that must hold exactly failed."""


class MatK:
    """Immutable 9x9 matrix over Q(w)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)
        if len(self.rows) != 9 or any(len(r) != 9 for r in self.rows):
            raise ValueError("MatK is fixed at 9x9")

    @classmethod
    def identity(cls) -> "MatK":
        return cls(
            [[ONE if i == j else ZERO for j in range(9)] for i in range(9)]
        )

    @classmethod
    def zero(cls) -> "MatK":
        return cls([[ZERO] * 9 for _ in range(9)])

    def __eq__(self, other) -> bool:
        return isinstance(other, MatK) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __add__(self, other: "MatK") -> "MatK":
        if not isinstance(other, MatK):
            return NotImplemented
        return MatK(
            [[u + v for u, v in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "MatK") -> "MatK":
        if not isinstance(other, MatK):
            return NotImplemented
        return MatK(
            [[u - v for u, v in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __mul__(self, other: "MatK") -> "MatK":
        if not isinstance(other, MatK):
            return NotImplemented
        cells = _products(self.rows, tuple(zip(*other.rows)))
        return MatK(cells[i:i + 9] for i in range(0, 81, 9))

    def transpose(self) -> "MatK":
        return MatK(tuple(zip(*self.rows)))

    def trace(self) -> CycQ:
        t = ZERO
        for i in range(9):
            t = t + self.rows[i][i]
        return t

    def apply(self, vec) -> tuple:
        """Matrix-vector product, vec a 9-tuple of scalars."""
        if len(vec) != 9:
            raise ValueError("apply needs a vector of exactly 9 scalars")
        return _products(self.rows, (vec,))


def _products(rows, cols) -> tuple:
    """Every dot product row . col, row by row, as one flat tuple.  The rows
    and the columns are each written as integer numerators p + q*w over their
    least common denominator, so the sums stay in ints and each output is
    normalised once; zero cells of the rows are skipped."""
    d1, left = numerators([c for row in rows for c in row])
    d2, right = numerators([c for col in cols for c in col])
    right = [right[k:k + 9] for k in range(0, len(right), 9)]
    out_r, out_s = [], []
    for k in range(0, len(left), 9):
        terms = [(j, p, q) for j, (p, q) in enumerate(left[k:k + 9]) if p or q]
        for col in right:
            # sum of (p1 + q1 w)(p2 + q2 w) = (pp - qq) + (cross - qq) w, as w^2 = -1 - w
            pp = qq = cross = 0
            for j, p1, q1 in terms:
                p2, q2 = col[j]
                pp += p1 * p2
                qq += q1 * q2
                cross += p1 * q2 + q1 * p2
            out_r.append(pp - qq)
            out_s.append(cross - qq)
    return from_numerators(d1 * d2, out_r, out_s)


def lambda_mat(z: SymbolElement) -> MatK:
    """Left representation: columns are the coordinates of z * b_k."""
    cols = [(z * z.algebra.monomial(k)).coeffs for k in range(9)]
    return MatK(tuple(zip(*cols)))


def gamma_mat(z: SymbolElement) -> MatK:
    """Right representation: columns are the coordinates of b_k * z."""
    cols = [(z.algebra.monomial(k) * z).coeffs for k in range(9)]
    return MatK(tuple(zip(*cols)))


def vec_rep(z: SymbolElement) -> tuple:
    """Coordinate column of z in the fixed basis."""
    return z.coeffs


def det(m: MatK) -> CycQ:
    """Exact determinant by fraction-free (Bareiss) elimination over Z[w].

    Each row is written as integer numerators p + q*w over its own least
    common denominator.  Pivoting on the first nonzero entry of each column,
    every row below the pivot becomes (pivot * row - lead * pivot_row) / prev,
    prev the previous pivot.  That division is exact in Z[w] (Sylvester's
    identity), so it is x * conj(prev) // N(prev), N(c + d w) = c^2 - cd + d^2.
    The last pivot, signed by the row swaps, is the determinant of the
    numerators; a column with no pivot means zero."""
    den = 1
    rows = []
    for row in m.rows:
        d, nums = numerators(row)
        den *= d
        rows.append(nums)
    sign = 1
    cr, cs, norm = 1, 0, 1  # conj(prev) and N(prev); prev = 1 to start
    for k in range(9):
        pivot = next((i for i in range(k, 9) if rows[i][k] != (0, 0)), None)
        if pivot is None:
            return ZERO
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k][k + 1:]
        p, q = rows[k][k]
        for i in range(k + 1, 9):
            row = rows[i]
            lp, lq = row[k]
            new = [None] * (k + 1)  # columns up to k are not read again
            for (a, b), (c, d) in zip(row[k + 1:], top):
                # (p + q w)(a + b w) - (lp + lq w)(c + d w), using w^2 = -1 - w
                qb, lqd = q * b, lq * d
                xr = p * a - qb - lp * c + lqd
                xs = p * b + q * a - qb - lp * d - lq * c + lqd
                # times conj(prev), then exactly divided by N(prev)
                xsc = xs * cs
                new.append(((xr * cr - xsc) // norm, (xr * cs + xs * cr - xsc) // norm))
            rows[i] = new
        cr, cs, norm = p - q, -q, p * p - p * q + q * q
    r, s = rows[8][8]
    return from_numerators(den, [sign * r], [sign * s])[0]


def _rref(rows):
    """In-place reduced row echelon form, pivoting on the first nonzero entry
    of each column; returns the list of pivot columns.  The backward pass
    scales each pivot row by the inverse the forward pass took."""
    pivots, inverses = [], []
    for col in range(len(rows[0])):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] * inv
                rows[i] = [u - factor * v if v else u for u, v in zip(rows[i], rows[r])]
        pivots.append(col)
        inverses.append(inv)
    for r in reversed(range(len(pivots))):
        inv = inverses[r]
        rows[r] = [v * inv if v else v for v in rows[r]]
        for i in range(r):
            factor = rows[i][pivots[r]]
            if factor:
                rows[i] = [u - factor * v if v else u for u, v in zip(rows[i], rows[r])]
    return pivots


def kernel_basis(m: MatK) -> list:
    """Exact basis of the right null space (empty list iff m is invertible)."""
    return solve_affine(m, (ZERO,) * 9)[1]


def solve_affine(m: MatK, rhs):
    """Full solution set of m * v = rhs: (particular, kernel) or None if inconsistent."""
    if len(rhs) != 9:
        raise ValueError("solve_affine needs a right side of exactly 9 scalars")
    rows = [list(r) + [b] for r, b in zip(m.rows, rhs)]
    pivots = _rref(rows)
    if 9 in pivots:
        return None
    particular = [ZERO] * 9
    for r, pc in enumerate(pivots):
        particular[pc] = rows[r][9]
    kernel = []
    for fc in (c for c in range(9) if c not in pivots):
        vec = [ZERO] * 9
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        kernel.append(tuple(vec))
    return tuple(particular), kernel


def _frame_weights(algebra: SymbolAlgebra):
    inv_a = algebra.a.inverse()
    inv_b = algebra.b.inverse()
    inv_ab = inv_a * inv_b
    return (ONE, inv_a, inv_a, inv_b, inv_b, inv_ab, inv_ab, inv_ab, inv_ab)


def reconstruction_frames(algebra: SymbolAlgebra):
    """Frames ((M9, N9), (M10, N10)) with M9 Lambda(z) N9 = M10 Gamma^t(z) N10 = 3z.

    A frame lists nine weighted basis monomials as (basis index, weight) pairs.
    For each route the sum telescopes to z * sum_k (b_k * pair_k) where pair_k
    is the complementary monomial scaled by 1/(b_k * pair_k); that forces the
    inverse-scalar weights onto the frame holding the complementary monomials.
    The Lambda route therefore carries its weights on the column frame N9.  (A
    variant that weights the row frame M9 instead, which only reproduces 3z at
    a = b = 1, is kept in fixtures.py as a diagnostic.)
    """
    weights = _frame_weights(algebra)
    basis = tuple((k, ONE) for k in range(9))
    comp = tuple((k, weights[k]) for k in COMPLEMENT)
    return (basis, comp), (comp, basis)


def reconstruct(z: SymbolElement) -> SymbolElement:
    """Recover 3z two ways: M9 Lambda(z) N9 and M10 Gamma^t(z) N10; raises
    IdentityViolation if either mixed product differs from 3z."""
    algebra = z.algebra
    (m9, n9), (m10, n10) = reconstruction_frames(algebra)
    lam = lambda_mat(z)
    gam_t = gamma_mat(z).transpose()
    expected = z.scale(3)
    via_lambda = _mixed_product(m9, lam, n9, algebra)
    if via_lambda != expected:
        raise IdentityViolation("left-frame reconstruction did not return 3z")
    via_gamma = _mixed_product(m10, gam_t, n10, algebra)
    if via_gamma != expected:
        raise IdentityViolation("right-frame reconstruction did not return 3z")
    return via_lambda


def _mixed_product(left, mat: MatK, right, algebra: SymbolAlgebra) -> SymbolElement:
    """sum_ij mat[i][j] * left_i * right_j for frames of (index, weight) pairs,
    each monomial product read from the structure table.  The cells, the
    frame weights and the table are integer numerators over one denominator
    each; each nonzero cell times its right weight is one right term of
    table_products, so the sum stays in ints and each output is normalised once."""
    den, table = algebra._integer_table()
    d_cells, cells = numerators([s for row in mat.rows for s in row])
    d_weights, weights = numerators([weight for _, weight in left + right])
    right = [(r, *weight) for (r, _), weight in zip(right, weights[9:])]
    terms = []
    for k in range(0, 81, 9):
        row = []
        for (r, p2, q2), (p3, q3) in zip(right, cells[k:k + 9]):
            if p3 or q3:
                # (p2 + q2 w)(p3 + q3 w), using w^2 = -1 - w
                cross = q2 * q3
                row.append((r, p2 * p3 - cross, p2 * q3 + q2 * p3 - cross))
        terms.append(row)
    out_r, out_s = table_products(weights[:9], [table[l] for l, _ in left], terms)
    return SymbolElement(algebra, from_numerators(d_cells * d_weights * d_weights * den, out_r, out_s))
