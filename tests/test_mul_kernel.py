"""Differential test of the element product against the per-term loop it replaced.

`SymbolElement.__mul__` multiplies integer numerators over one common
denominator per operand and per structure table.  The reference below is the
earlier product, kept word for word: one `CycQ` multiply-add per nonzero term.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from symbol3.algebra import SymbolAlgebra, SymbolElement
from symbol3.cyclotomic import CycQ, ZERO
from symbol3.fibonacci import fib_element
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
