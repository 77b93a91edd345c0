"""Differential tests of the element product and the reduced norm against
the code they replaced.

`SymbolElement.__mul__` multiplies integer numerators over one common
denominator per operand and per structure table.  `reference_mul` is the
earlier product, kept word for word: one `CycQ` multiply-add per nonzero term.

`SymbolElement.reduced_norm` reads eta as the scalar z z* from products
through the structure table.  `reference_reduced_norm` is the earlier
hand-written cubic norm form, kept word for word.

`MatK.__mul__`, `MatK.apply` and `_mixed_product` run over integer numerators
too.  `reference_matmul`, `reference_dot`, `reference_apply` and
`reference_mixed_product` are the earlier `CycQ` loops, kept word for word.

`det` is fraction-free (Bareiss) elimination over Z[w] on integer numerators.
`reference_echelon` and `reference_det` are the earlier Gaussian elimination
over Q(w) that read the determinant as the signed pivot product, kept word for
word, with the call renamed.

`_rref` runs its forward pass inline and reuses each pivot's inverse in the
backward pass.  `reference_rref_echelon` and `reference_rref` are the earlier
separate forward pass and the `_rref` that called it and inverted each pivot
again, kept word for word, with the calls renamed.

The element product, eta and `_mixed_product` sum their term products in one
loop, `algebra.table_products`.  `reference_integer_mul`,
`reference_integer_characteristic` and `reference_integer_mixed_product` are
the three integer loops it replaced, kept word for word, with the calls
renamed.

`CycQ.__init__` keeps a `Fraction` argument as it is, since arithmetic results
are already in lowest terms.  `ReferenceCycQ` is the earlier scalar, which
passed every part through `Fraction(...)` again; its `__init__`, `__add__`,
`__sub__`, `__mul__`, `__neg__`, `conj` and `inverse` are kept word for word,
with the class renamed.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from symbol3.algebra import COMPLEMENT, CharData, SymbolAlgebra, SymbolElement
from symbol3.cyclotomic import CycQ, OMEGA, OMEGA_POW, ONE, ZERO, _coerce, from_numerators, numerators
from symbol3.fibonacci import fib_element
from symbol3.fixtures import transcribed_reconstruction_frames
from symbol3.representations import MatK, _mixed_product, _rref, det, gamma_mat, lambda_mat, reconstruction_frames
from symbol3.verify import ALGEBRAS


def reference_mul(self, other):
    if isinstance(other, SymbolElement):
        self._check_same(other)
        table = self.algebra.table()
        out = [ZERO] * 9
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            row = table[i]
            for k, ck in enumerate(other.coeffs):
                if not ck:
                    continue
                scalar, idx = row[k]
                out[idx] = out[idx] + ci * ck * scalar
        return SymbolElement(self.algebra, tuple(out))


def reference_reduced_norm(self) -> CycQ:
    """eta(z), evaluated as the explicit cubic form in the coefficients.

    Writing c_ij for the coefficient of x^i y^j:

      eta = a^2 (c20^3 + b c21^3 + b^2 c22^3 - 3 b c20 c21 c22)
          + a   (c10^3 + b c11^3 + b^2 c12^3 - 3 b c10 c11 c12)
          - 3a  (c00 c10 c20 + b c01 c11 c21 + b^2 c02 c12 c22)
          - 3ab w   (c00 c12 c21 + c01 c10 c22 + c02 c11 c20)
          - 3ab w^2 (c00 c11 c22 + c02 c10 c21 + c01 c12 c20)
          +      c00^3 + b c01^3 + b^2 c02^3 - 3 b c00 c01 c02.

    The cube of this value equals det of the left representation, which the
    verification suite checks independently.
    """
    a, b = self.algebra.a, self.algebra.b
    c = self.coeff
    c00, c10, c20 = c((0, 0)), c((1, 0)), c((2, 0))
    c01, c11, c21 = c((0, 1)), c((1, 1)), c((2, 1))
    c02, c12, c22 = c((0, 2)), c((1, 2)), c((2, 2))
    w, w2 = OMEGA_POW[1], OMEGA_POW[2]
    out = a * a * (c20**3 + b * c21**3 + b * b * c22**3 - 3 * b * c20 * c21 * c22)
    out = out + a * (c10**3 + b * c11**3 + b * b * c12**3 - 3 * b * c10 * c11 * c12)
    out = out - 3 * a * (c00 * c10 * c20 + b * c01 * c11 * c21 + b * b * c02 * c12 * c22)
    out = out - 3 * a * b * w * (c00 * c12 * c21 + c01 * c10 * c22 + c02 * c11 * c20)
    out = out - 3 * a * b * w2 * (c00 * c11 * c22 + c02 * c10 * c21 + c01 * c12 * c20)
    out = out + c00**3 + b * c01**3 + b * b * c02**3 - 3 * b * c00 * c01 * c02
    return out


# a and b with denominators and a w part, so the integer table's denominator is not 1
FRACTIONAL = SymbolAlgebra(CycQ(Fraction(1, 2)), CycQ(Fraction(2, 3), Fraction(1, 5)))
KERNEL_ALGEBRAS = ALGEBRAS + (FRACTIONAL,)

# denominators well beyond verify.random_scalar's {1, 2, 3}
rationals = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6))
scalars = st.one_of(st.just(ZERO), st.builds(CycQ, rationals, rationals), st.builds(CycQ, rationals))
coefficient_lists = st.lists(scalars, min_size=9, max_size=9)


def test_fractional_algebra_table_has_a_denominator():
    assert FRACTIONAL._integer_table()[0] == 30  # lcm of the denominators of a, b and ab
    assert [algebra._integer_table()[0] for algebra in ALGEBRAS] == [1, 1, 1]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), coefficient_lists, coefficient_lists)
def test_product_matches_per_term_loop(algebra, left, right):
    z, w = algebra.element(left), algebra.element(right)
    assert z * w == reference_mul(z, w)
    assert w * z == reference_mul(w, z)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), st.integers(0, 8), scalars, coefficient_lists)
def test_monomial_products_match_per_term_loop(algebra, index, coeff, right):
    # Lambda/Gamma multiply by basis monomials, so most left coefficients are zero.
    b = algebra.monomial(index, coeff)
    z = algebra.element(right)
    assert b * z == reference_mul(b, z)
    assert z * b == reference_mul(z, b)


def test_large_fibonacci_element_times_its_inverse():
    f = fib_element(3000)
    assert f * f.inverse() == f.algebra.one()


def _element(a, b, support):
    coeffs = [0] * 9
    for index, c in support.items():
        coeffs[index] = c
    return SymbolAlgebra(a, b).element(coeffs)


# One zero divisor (eta = 0) per verify.ALGEBRAS entry, from an exhaustive
# search of coefficients in {0, +-1}.
ZERO_DIVISORS = (
    _element(ONE, ONE, {7: 1, 8: -1}),  # x^2y - xy^2 at (1, 1)
    _element(CycQ(2), CycQ(3), {5: 1, 7: 1, 8: -1}),  # xy + x^2y - xy^2 at (2, 3)
    _element(OMEGA, ONE + OMEGA, {6: 1, 7: -1, 8: 1}),  # x^2y^2 - x^2y + xy^2 at (w, 1 + w)
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), coefficient_lists)
def test_reduced_norm_matches_cubic_form(algebra, coeffs):
    z = algebra.element(coeffs)
    assert z.reduced_norm() == reference_reduced_norm(z)


def test_reduced_norm_matches_cubic_form_on_fixed_inputs():
    f = fib_element(3000)
    assert f.reduced_norm() == reference_reduced_norm(f)
    for z in ZERO_DIVISORS:
        assert z and z.reduced_norm() == reference_reduced_norm(z) == ZERO


def reference_matmul(self, other: "MatK") -> "MatK":
    if not isinstance(other, MatK):
        return NotImplemented
    cols = tuple(zip(*other.rows))
    out = []
    for row in self.rows:
        out.append(
            [reference_dot(row, col) for col in cols]
        )
    return MatK(out)


def reference_apply(self, vec) -> tuple:
    """Matrix-vector product, vec a 9-tuple of scalars."""
    return tuple(reference_dot(row, vec) for row in self.rows)


def reference_dot(u, v) -> CycQ:
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def reference_mixed_product(left, mat: MatK, right, algebra: SymbolAlgebra) -> SymbolElement:
    """sum_ij mat[i][j] * left_i * right_j for frames of (index, weight) pairs,
    each monomial product read from the structure table."""
    table = algebra.table()
    out = [ZERO] * 9
    for (l, weight_l), row in zip(left, mat.rows):
        for (r, weight_r), s in zip(right, row):
            if s:
                scalar, index = table[l][r]
                out[index] = out[index] + s * weight_l * weight_r * scalar
    return algebra.element(out)


def assert_matrix_kernels_match(m1, m2, vec):
    assert m1 * m2 == reference_matmul(m1, m2)
    assert m1.apply(vec) == reference_apply(m1, vec)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), coefficient_lists, coefficient_lists, coefficient_lists)
def test_matrix_products_match_cycq_loops(algebra, left, right, vec):
    z, w = algebra.element(left), algebra.element(right)
    lam, gam = lambda_mat(z), gamma_mat(w)
    assert_matrix_kernels_match(lam, gam, tuple(vec))
    assert_matrix_kernels_match(gam, lam, tuple(vec))
    assert_matrix_kernels_match(lam - gam, lam, z.coeffs)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), st.integers(0, 8), scalars, coefficient_lists)
def test_sparse_matrix_products_match_cycq_loops(algebra, index, coeff, right):
    # Lambda of a basis monomial has one nonzero cell per row and column
    mono = lambda_mat(algebra.monomial(index, coeff))
    full = gamma_mat(algebra.element(right))
    unit = tuple(ONE if k == index else ZERO for k in range(9))
    for m1, m2 in ((mono, full), (full, mono), (mono, mono)):
        assert_matrix_kernels_match(m1, m2, unit)
    for m in (mono, full):
        for special in (MatK.zero(), MatK.identity()):
            assert_matrix_kernels_match(m, special, (ZERO,) * 9)
            assert_matrix_kernels_match(special, m, tuple(right))
        assert m * MatK.identity() == m == MatK.identity() * m
        assert m * MatK.zero() == MatK.zero() == MatK.zero() * m


def test_matrix_products_match_cycq_loops_on_large_denominators():
    # the coefficients of F_300^-1 have denominators of hundreds of bits
    f = fib_element(300)
    g = f.inverse()
    assert max(c.r.denominator.bit_length() for c in g.coeffs) > 200
    lam, lam_inv = lambda_mat(f), lambda_mat(g)
    assert_matrix_kernels_match(lam_inv, lam, f.coeffs)
    assert_matrix_kernels_match(lam, lam_inv, g.coeffs)
    assert_matrix_kernels_match(lam_inv, gamma_mat(g), g.coeffs)
    assert lam_inv * lam == MatK.identity()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), coefficient_lists)
def test_mixed_products_match_cycq_loop(algebra, coeffs):
    z = algebra.element(coeffs)
    mats = (lambda_mat(z), gamma_mat(z).transpose())
    # both reconstruction routes, and the row-weighted variant kept in fixtures
    for frames in (reconstruction_frames(algebra), transcribed_reconstruction_frames(algebra)):
        for (left, right), mat in zip(frames, mats):
            assert _mixed_product(left, mat, right, algebra) == reference_mixed_product(left, mat, right, algebra)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), st.integers(0, 8), scalars)
def test_sparse_mixed_products_match_cycq_loop(algebra, index, coeff):
    b = algebra.monomial(index, coeff)
    mats = (lambda_mat(b), gamma_mat(b).transpose())
    for frames in (reconstruction_frames(algebra), transcribed_reconstruction_frames(algebra)):
        for (left, right), mat in zip(frames, mats):
            assert _mixed_product(left, mat, right, algebra) == reference_mixed_product(left, mat, right, algebra)
        left, right = frames[0]
        for mat in (MatK.zero(), MatK.identity()):
            assert _mixed_product(left, mat, right, algebra) == reference_mixed_product(left, mat, right, algebra)


class ReferenceCycQ:
    __slots__ = ("r", "s")

    def __init__(self, r=0, s=0):
        # Fraction normalizes: lowest terms, positive denominator.
        self.r = Fraction(r)
        self.s = Fraction(s)

    def __add__(self, other) -> "ReferenceCycQ":
        if type(other) is int:
            return ReferenceCycQ(self.r + other, self.s)
        other = _reference_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ReferenceCycQ(self.r + other.r, self.s + other.s)

    __radd__ = __add__

    def __sub__(self, other) -> "ReferenceCycQ":
        other = _reference_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ReferenceCycQ(self.r - other.r, self.s - other.s)

    def __neg__(self) -> "ReferenceCycQ":
        return ReferenceCycQ(-self.r, -self.s)

    def __mul__(self, other) -> "ReferenceCycQ":
        if type(other) is int:
            return ReferenceCycQ(self.r * other, self.s * other)
        other = _reference_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (r1 + s1 w)(r2 + s2 w) with w^2 = -1 - w.
        r1, s1, r2, s2 = self.r, self.s, other.r, other.s
        cross = s1 * s2
        return ReferenceCycQ(r1 * r2 - cross, r1 * s2 + s1 * r2 - cross)

    __rmul__ = __mul__

    def conj(self) -> "ReferenceCycQ":
        """Galois conjugate w -> w^2, i.e. r + s*w -> (r - s) - s*w."""
        return ReferenceCycQ(self.r - self.s, -self.s)

    def norm_rational(self):
        """u * conj(u) = r^2 - r*s + s^2, a nonnegative rational."""
        return self.r * self.r - self.r * self.s + self.s * self.s

    def inverse(self) -> "ReferenceCycQ":
        n = self.norm_rational()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conj()
        return ReferenceCycQ(c.r / n, c.s / n)


def _reference_coerce(value) -> "ReferenceCycQ":
    if isinstance(value, ReferenceCycQ):
        return value
    if isinstance(value, (int, Fraction)):
        return ReferenceCycQ(value)
    return NotImplemented


def assert_same_scalar(got, want):
    assert type(got) is CycQ
    assert (got.r, got.s) == (want.r, want.s)
    for part in (got.r, got.s):
        assert type(part) is Fraction
        assert part.denominator > 0 and math.gcd(part.numerator, part.denominator) == 1


# small, and up to 5000 decimal digits in each numerator and denominator
digit_counts = st.sampled_from((1, 3, 40, 5000))
wide_ints = digit_counts.flatmap(lambda k: st.integers(-(10**k), 10**k))
wide_rationals = st.builds(Fraction, wide_ints, wide_ints.filter(bool))
right_operands = st.one_of(st.booleans(), wide_ints, wide_rationals)


@settings(max_examples=80, deadline=None)
@given(wide_rationals, wide_rationals, wide_rationals, wide_rationals)
def test_scalar_arithmetic_matches_the_normalising_constructor(r1, s1, r2, s2):
    x, y = CycQ(r1, s1), CycQ(r2, s2)
    rx, ry = ReferenceCycQ(r1, s1), ReferenceCycQ(r2, s2)
    assert_same_scalar(x + y, rx + ry)
    assert_same_scalar(x - y, rx - ry)
    assert_same_scalar(x * y, rx * ry)
    assert_same_scalar(-x, -rx)
    assert_same_scalar(x.conj(), rx.conj())
    if y:
        assert_same_scalar(y.inverse(), ry.inverse())


@settings(max_examples=80, deadline=None)
@given(wide_rationals, wide_rationals, right_operands)
def test_scalar_arithmetic_with_rational_operands_matches(r, s, k):
    x, rx = CycQ(r, s), ReferenceCycQ(r, s)
    assert_same_scalar(x + k, rx + k)
    assert_same_scalar(k + x, k + rx)
    assert_same_scalar(x - k, rx - k)
    assert_same_scalar(x * k, rx * k)
    assert_same_scalar(k * x, k * rx)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), coefficient_lists)
def test_eta_is_the_scalar_coefficient_of_z_times_its_adjoint(algebra, coeffs):
    z = algebra.element(coeffs)
    assert z.char_poly().eta == (z * z.adjoint()).coeffs[0]


def reference_echelon(rows):
    """In-place forward elimination to row echelon form, pivoting on the first
    nonzero entry of each column; returns (pivot columns, signed pivot product)."""
    pivots = []
    product = ONE
    for col in range(len(rows[0])):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            product = -product
        pval = rows[r][col]
        product = product * pval
        inv = pval.inverse()
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] * inv
                rows[i] = [u - factor * v if v else u for u, v in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots, product


def reference_det(m: MatK) -> CycQ:
    """Exact determinant: the signed pivot product, or zero without 9 pivots."""
    pivots, product = reference_echelon([list(r) for r in m.rows])
    return product if len(pivots) == 9 else ZERO


def assert_det_matches(m):
    got = det(m)
    assert_same_scalar(got, reference_det(m))
    return got


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), coefficient_lists, coefficient_lists)
def test_det_matches_gaussian_elimination(algebra, left, right):
    a, b = algebra.element(left), algebra.element(right)
    assert_det_matches(lambda_mat(a))
    assert_det_matches(gamma_mat(a))
    assert_det_matches(lambda_mat(a) - gamma_mat(b))
    # A commutes with itself, so this one is singular
    assert assert_det_matches(lambda_mat(a) - gamma_mat(a)) == ZERO
    # equal constant terms put a zero at the first pivot, so the elimination swaps rows
    swapping = lambda_mat(a) - gamma_mat(a + algebra.x())
    assert swapping[0, 0] == ZERO
    assert_det_matches(swapping)


matrix_rows = st.lists(coefficient_lists, min_size=9, max_size=9)


@settings(max_examples=25, deadline=None)
@given(matrix_rows)
def test_det_matches_gaussian_elimination_on_dense_matrices(rows):
    assert_det_matches(MatK(rows))
    repeated = rows[:5] + [rows[2]] + rows[6:]
    assert assert_det_matches(MatK(repeated)) == ZERO
    zero_first_column = [[ZERO] + row[1:] for row in rows]
    assert assert_det_matches(MatK(zero_first_column)) == ZERO


def _zw_matrix(first):
    """A fixed invertible 9x9 matrix over Z[w] with the given top-left entry;
    every leading minor is nonzero, so no step pivots on a later row."""
    rng = random.Random(20)
    rows = [[CycQ(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(9)] for _ in range(9)]
    rows[0][0] = first
    return MatK(rows)


def test_det_matches_gaussian_elimination_on_fixed_inputs():
    assert assert_det_matches(MatK.zero()) == ZERO
    assert assert_det_matches(MatK.identity()) == ONE
    # the coefficients of F_300^-1 have denominators of hundreds of bits
    f = fib_element(300)
    assert assert_det_matches(lambda_mat(f.inverse())) == f.reduced_norm().inverse() ** 3
    # pivots of norm 3, such as 1 - w, make the exact divisions non-trivial
    one_minus_w = ONE - OMEGA
    assert one_minus_w.norm_rational() == 3
    assert assert_det_matches(_zw_matrix(one_minus_w))
    # a unit but non-rational first pivot: dividing by it needs its conjugate
    assert assert_det_matches(_zw_matrix(OMEGA))


def reference_rref_echelon(rows):
    """The forward pass of _rref: in-place elimination to row echelon form,
    pivoting on the first nonzero entry of each column; returns the list of
    pivot columns."""
    pivots = []
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
    return pivots


def reference_rref(rows):
    """In-place reduced row echelon form; returns the list of pivot columns."""
    pivots = reference_rref_echelon(rows)
    for r in reversed(range(len(pivots))):
        inv = rows[r][pivots[r]].inverse()
        rows[r] = [v * inv if v else v for v in rows[r]]
        for i in range(r):
            factor = rows[i][pivots[r]]
            if factor:
                rows[i] = [u - factor * v if v else u for u, v in zip(rows[i], rows[r])]
    return pivots


def assert_rref_matches(m, rhs):
    """Reduce m | rhs both ways; the pivots and every cell must agree exactly.
    Returns the pivot columns."""
    got = [list(row) + [b] for row, b in zip(m.rows, rhs)]
    want = [list(row) + [b] for row, b in zip(m.rows, rhs)]
    pivots = _rref(got)
    assert pivots == reference_rref(want)
    for got_row, want_row in zip(got, want):
        for g, w in zip(got_row, want_row):
            assert_same_scalar(g, w)
    return pivots


UNIT_VECTORS = [tuple(ONE if i == k else ZERO for i in range(9)) for k in range(9)]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), coefficient_lists, coefficient_lists, coefficient_lists)
def test_rref_matches_separate_forward_pass(algebra, left, right, rhs):
    a, b = algebra.element(left), algebra.element(right)
    assert_rref_matches(lambda_mat(a) - gamma_mat(b), rhs)
    # A commutes with itself, so this system is singular.  Its image holds only
    # commutators, whose reduced trace is 0, so vec(1) is an inconsistent right side.
    singular = lambda_mat(a) - gamma_mat(a)
    assert_rref_matches(singular, rhs)
    assert 9 not in assert_rref_matches(singular, singular.apply(rhs))
    assert 9 in assert_rref_matches(singular, UNIT_VECTORS[0])


@settings(max_examples=15, deadline=None)
@given(matrix_rows, coefficient_lists)
def test_rref_matches_separate_forward_pass_on_dense_matrices(rows, rhs):
    assert_rref_matches(MatK(rows), rhs)
    # rows 2 and 5 are equal, so e_2 is an inconsistent right side
    repeated = MatK(rows[:5] + [rows[2]] + rows[6:])
    assert_rref_matches(repeated, rhs)
    assert 9 in assert_rref_matches(repeated, UNIT_VECTORS[2])


def test_rref_matches_separate_forward_pass_on_fixed_inputs():
    for m in (MatK.zero(), MatK.identity(), _zw_matrix(ONE - OMEGA), _zw_matrix(OMEGA)):
        for rhs in UNIT_VECTORS[:2]:
            assert_rref_matches(m, rhs)
    assert 9 in assert_rref_matches(MatK.zero(), UNIT_VECTORS[0])
    f = fib_element(300).inverse()
    assert_rref_matches(lambda_mat(f) - gamma_mat(f), f.coeffs)


def reference_integer_mul(self, other):
    if isinstance(other, SymbolElement):
        self._check_same(other)
        # Each operand is (p_k + q_k w) / d over its least common denominator,
        # so the term products stay in ints and each output is normalised once.
        den, table = self.algebra._integer_table()
        d1, left = numerators(self.coeffs)
        d2, right = numerators(other.coeffs)
        right = [(k, p, q) for k, (p, q) in enumerate(right) if p or q]
        out_r = [0] * 9
        out_s = [0] * 9
        for (p1, q1), row in zip(left, table):
            if not (p1 or q1):
                continue
            for k, p2, q2 in right:
                tr, ts, idx = row[k]
                # (p1 + q1 w)(p2 + q2 w)(tr + ts w), each step using w^2 = -1 - w
                cross = q1 * q2
                u = p1 * p2 - cross
                v = p1 * q2 + q1 * p2 - cross
                cross = v * ts
                out_r[idx] += u * tr - cross
                out_s[idx] += u * ts + v * tr - cross
        return SymbolElement(self.algebra, from_numerators(d1 * d2 * den, out_r, out_s))
    scalar = _coerce(other)
    if scalar is NotImplemented:
        return NotImplemented
    return self.scale(scalar)


def reference_integer_characteristic(self) -> tuple:
    """(CharData(tau, pi, eta), z*) from one square and nine term products.

    By Cayley-Hamilton z z* = eta(z), so eta is the scalar coefficient of
    z z*, which only the products c_k z*_COMPLEMENT[k] reach; the cube of
    eta equals det of the left representation, which the verification
    suite checks independently.
    """
    tau, pi, adj = self._from_square()
    # the scalar row of the product kernel in __mul__
    den, table = self.algebra._integer_table()
    d1, left = numerators(self.coeffs)
    d2, right = numerators(adj.coeffs)
    eta_r = eta_s = 0
    for (p1, q1), k, row in zip(left, COMPLEMENT, table):
        p2, q2 = right[k]
        tr, ts, _ = row[k]
        cross = q1 * q2
        u = p1 * p2 - cross
        v = p1 * q2 + q1 * p2 - cross
        cross = v * ts
        eta_r += u * tr - cross
        eta_s += u * ts + v * tr - cross
    (eta,) = from_numerators(d1 * d2 * den, (eta_r,), (eta_s,))
    return CharData(tau, pi, eta), adj


def reference_integer_mixed_product(left, mat: MatK, right, algebra: SymbolAlgebra) -> SymbolElement:
    """sum_ij mat[i][j] * left_i * right_j for frames of (index, weight) pairs,
    each monomial product read from the structure table.  The cells, the
    frame weights and the table are integer numerators over one denominator
    each, so the sum stays in ints and each output is normalised once."""
    den, table = algebra._integer_table()
    d_cells, cells = numerators([s for row in mat.rows for s in row])
    d_weights, weights = numerators([weight for _, weight in left + right])
    right = [(r, *weight) for (r, _), weight in zip(right, weights[9:])]
    out_r = [0] * 9
    out_s = [0] * 9
    for k, ((l, _), (p1, q1)) in enumerate(zip(left, weights)):
        row = table[l]
        for (r, p2, q2), (p3, q3) in zip(right, cells[9 * k:9 * k + 9]):
            if not (p3 or q3):
                continue
            tr, ts, index = row[r]
            # (p1 + q1 w)(p2 + q2 w)(p3 + q3 w)(tr + ts w), each step using w^2 = -1 - w
            cross = q1 * q2
            u, v = p1 * p2 - cross, p1 * q2 + q1 * p2 - cross
            cross = v * q3
            u, v = u * p3 - cross, u * q3 + v * p3 - cross
            cross = v * ts
            out_r[index] += u * tr - cross
            out_s[index] += u * ts + v * tr - cross
    return SymbolElement(algebra, from_numerators(d_cells * d_weights * d_weights * den, out_r, out_s))


def assert_same_element(got, want):
    assert got.algebra == want.algebra
    for g, w in zip(got.coeffs, want.coeffs):
        assert_same_scalar(g, w)


def assert_table_products_match(z, w, frame_sets):
    """z * w, eta(z) and the mixed products of Lambda(z) and Gamma^t(z) on
    each frame set agree with the three integer loops in exact parts."""
    algebra = z.algebra
    assert_same_element(z * w, reference_integer_mul(z, w))
    assert_same_scalar(z.reduced_norm(), reference_integer_characteristic(z)[0].eta)
    mats = (lambda_mat(z), gamma_mat(z).transpose())
    for frames in frame_sets:
        for (left, right), mat in zip(frames, mats):
            assert_same_element(_mixed_product(left, mat, right, algebra),
                                reference_integer_mixed_product(left, mat, right, algebra))


# at most three nonzero coefficients, the zero element included
sparse_coefficient_lists = st.dictionaries(st.integers(0, 8), scalars, max_size=3).map(
    lambda terms: [terms.get(k, ZERO) for k in range(9)])
operands = st.one_of(coefficient_lists, sparse_coefficient_lists)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_ALGEBRAS), operands, operands)
def test_table_products_match_the_integer_loops(algebra, left, right):
    z, w = algebra.element(left), algebra.element(right)
    # the corrected reconstruction frames and the transcribed row-weighted ones
    frame_sets = (reconstruction_frames(algebra), transcribed_reconstruction_frames(algebra))
    assert_table_products_match(z, w, frame_sets)
    assert_table_products_match(w, z, frame_sets)


def test_table_products_match_the_integer_loops_on_large_denominators():
    # the coefficients of F_300^-1 have denominators of hundreds of bits
    f = fib_element(300)
    g = f.inverse()
    algebra = f.algebra
    frame_sets = (reconstruction_frames(algebra), transcribed_reconstruction_frames(algebra))
    assert_table_products_match(g, f, frame_sets)
    assert_table_products_match(f, g, frame_sets)
    assert_table_products_match(g, g, frame_sets)
