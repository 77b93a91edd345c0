import random
from fractions import Fraction

import pytest

from symbol3.algebra import (
    EXPONENTS,
    INDEX_OF,
    NotInvertible,
    ParamsMismatch,
    SymbolAlgebra,
    element_from_dict,
    element_to_dict,
)
from symbol3.cyclotomic import CycQ, OMEGA, ONE, ZERO
from symbol3.representations import det, lambda_mat
from symbol3.verify import (
    ALGEBRAS,
    char_poly_identities,
    norm_trace_identities,
    random_element,
    tally,
)

UNIT, GENERIC, TWISTED = ALGEBRAS


def test_algebra_rejects_zero_parameters():
    with pytest.raises(ValueError):
        SymbolAlgebra(CycQ(0), CycQ(1))
    with pytest.raises(ValueError):
        SymbolAlgebra(CycQ(1), CycQ(0))


def test_basis_product_defining_relations():
    for algebra in ALGEBRAS:
        table = algebra.table()
        scalar, result = table[INDEX_OF[(0, 1)]][INDEX_OF[(1, 0)]]  # y * x
        assert scalar == OMEGA and EXPONENTS[result] == (1, 1)
        scalar, result = table[INDEX_OF[(2, 0)]][INDEX_OF[(2, 0)]]  # x^2 * x^2
        assert scalar == algebra.a and EXPONENTS[result] == (1, 0)
        # y * x^2 rewrites through two swaps: y x^2 = w x y x = w^2 x^2 y
        scalar, result = table[INDEX_OF[(0, 1)]][INDEX_OF[(2, 0)]]
        assert scalar == OMEGA * OMEGA and EXPONENTS[result] == (2, 1)


def test_generator_relations():
    for algebra in ALGEBRAS:
        x, y = algebra.x(), algebra.y()
        assert x * x * x == algebra.scalar(algebra.a)
        assert y * y * y == algebra.scalar(algebra.b)
        assert y * x == (x * y).scale(OMEGA)


def test_mul_unit_and_normal_form():
    rng = random.Random(3)
    for algebra in ALGEBRAS:
        one = algebra.one()
        z = random_element(rng, algebra)
        assert one * z == z and z * one == z
        xy = algebra.x() * algebra.y()
        assert xy.coeffs[5] == ONE and sum(1 for c in xy.coeffs if c) == 1


def test_mul_associative_on_random_triples():
    rng = random.Random(4)
    for algebra in ALGEBRAS:
        for _ in range(5):
            z, w, u = (random_element(rng, algebra) for _ in range(3))
            assert (z * w) * u == z * (w * u)


def test_add_scale_trivials():
    z = GENERIC.element([1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert z + GENERIC.zero() == z
    assert z.scale(CycQ(0)) == GENERIC.zero()
    assert GENERIC.x().scale(OMEGA).coeffs[1] == OMEGA


def test_params_mismatch_raises():
    with pytest.raises(ParamsMismatch):
        UNIT.one() + GENERIC.one()
    with pytest.raises(ParamsMismatch):
        UNIT.one() * GENERIC.one()


def test_reduced_trace():
    assert UNIT.one().reduced_trace() == CycQ(3)
    assert UNIT.x().reduced_trace() == ZERO
    z = GENERIC.element([CycQ(2, 1)] + [0] * 8)
    assert z.reduced_trace() == CycQ(6, 3)
    # oracle: the trace of the generated 9x9 left representation, divided by 3
    assert tally(norm_trace_identities(random.Random(5), 1)).passed


def test_pi_form():
    assert UNIT.one().pi_form() == CycQ(3)
    assert UNIT.x().pi_form() == ZERO
    assert tally(char_poly_identities(random.Random(6), 1)).passed


def test_reduced_norm_examples():
    for algebra in ALGEBRAS:
        assert algebra.one().reduced_norm() == ONE
        assert algebra.x().reduced_norm() == algebra.a
    z = UNIT.element([1, 1, 1, 0, 0, 0, 0, 0, 0])
    assert z.reduced_norm() == ZERO
    assert det(lambda_mat(z)) == ZERO


def test_char_poly():
    assert UNIT.one().char_poly() == (CycQ(3), CycQ(3), CycQ(1))
    tau, pi, eta = GENERIC.x().char_poly()
    assert (tau, pi, eta) == (ZERO, ZERO, GENERIC.a)
    assert tally(char_poly_identities(random.Random(7), 1)).passed


def test_adjoint():
    for algebra in ALGEBRAS:
        one, x = algebra.one(), algebra.x()
        assert one.adjoint() == one
        assert x.adjoint() == algebra.monomial(2)
        assert x * x.adjoint() == algebra.scalar(algebra.a)
    assert tally(char_poly_identities(random.Random(8), 1)).passed


def test_inverse():
    rng = random.Random(9)
    for algebra in ALGEBRAS:
        assert algebra.one().inverse() == algebra.one()
        assert algebra.x().inverse() == algebra.monomial(2, algebra.a.inverse())
        z = random_element(rng, algebra)
        if z.reduced_norm():
            assert z * z.inverse() == algebra.one()
            assert z.inverse() * z == algebra.one()
    with pytest.raises(NotInvertible):
        UNIT.element([1, 1, 1, 0, 0, 0, 0, 0, 0]).inverse()
    with pytest.raises(NotInvertible):
        UNIT.zero().inverse()


def test_norm_multiplicative():
    assert tally(norm_trace_identities(random.Random(10), 1)).passed


def test_twist():
    rng = random.Random(11)
    z = UNIT.element([1, 2, 3, 0, 0, 0, 0, 0, 0])
    assert z.twist(1) == z  # no y-coefficients
    assert UNIT.y().twist(1) == UNIT.monomial(3, OMEGA)
    for algebra in ALGEBRAS:
        w = random_element(rng, algebra)
        assert w.twist(1).twist(1) == w.twist(2)
        assert w.twist(1).twist(2) == w
    with pytest.raises(ValueError):
        z.twist(3)


def test_twist_is_conjugation_by_a_power_of_x():
    # x y x^-1 = w^2 y and x x x^-1 = x, so conjugation by x scales the
    # y-degree-j block by w^(2j), which is twist(2), and conjugation by x^2 is
    # twist(1).  Both sides are K-linear in z, so the 9 basis monomials prove
    # it for every element of these algebras.  Lambda(twist(k) z) is then a
    # conjugate of Lambda(z), and det Lambda, det Gamma and eta are
    # twist-invariant at these (a, b), not only at a = b = 1.
    for algebra in ALGEBRAS + (SymbolAlgebra(CycQ(2), CycQ(5)),):
        x = algebra.x()
        x2 = x * x
        for k in range(9):
            b = algebra.monomial(k)
            assert b.twist(1) == x2 * b * x2.inverse()
            assert b.twist(2) == x * b * x.inverse()


def test_twist_touches_the_y_degree_blocks():
    z = UNIT.element([1, 1, 1, 1, 1, 1, 1, 1, 1])
    t = z.twist(1)
    w2 = OMEGA * OMEGA
    expected = {0: ONE, 1: ONE, 2: ONE, 3: OMEGA, 5: OMEGA, 7: OMEGA, 4: w2, 8: w2, 6: w2}
    for idx, val in expected.items():
        assert t.coeffs[idx] == val


def test_zero_element_degenerate_contract():
    zero = GENERIC.zero()
    assert zero.char_poly() == (ZERO, ZERO, ZERO)
    assert zero.adjoint() == zero


def test_element_json_round_trip():
    z = TWISTED.element(
        [CycQ(Fraction(1, 2), Fraction(-3, 5)), CycQ(7), ZERO, OMEGA, CycQ(0, -2),
         CycQ(Fraction(-1, 3)), ONE, CycQ(4, 4), ZERO]
    )
    data = element_to_dict(z)
    assert element_from_dict(data) == z
    # strings are canonical, so a second round trip is byte-identical
    assert element_to_dict(element_from_dict(data)) == data


def test_exponent_map_is_fixed():
    assert EXPONENTS == ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 2), (2, 1), (1, 2))
