from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symbol3.cyclotomic import CycQ, OMEGA, ONE, ScalarFormatError, ZERO


def test_addition_examples():
    assert CycQ(1) + CycQ(0, 1) == CycQ(1, 1)
    u = CycQ(Fraction(2, 7), Fraction(-1, 3))
    assert u + CycQ(0) == u
    assert CycQ(Fraction(1, 2), Fraction(1, 3)) + CycQ(Fraction(1, 2), Fraction(2, 3)) == CycQ(1, 1)


def test_multiplication_reduces_by_minimal_polynomial():
    assert OMEGA * OMEGA == CycQ(-1, -1)
    assert OMEGA * OMEGA * OMEGA == ONE
    assert (ONE + OMEGA) * (-OMEGA) == ONE
    assert OMEGA * OMEGA + OMEGA + 1 == ZERO


def test_inverse_examples():
    assert ONE.inverse() == ONE
    assert (ONE + OMEGA).inverse() == -OMEGA
    assert CycQ(2).inverse() == CycQ(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugation():
    assert OMEGA.conj() == CycQ(-1, -1)
    q = CycQ(Fraction(3, 4))
    assert q.conj() == q
    u = CycQ(Fraction(2, 5), Fraction(-7, 3))
    assert u.conj().conj() == u


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
scalars = st.builds(CycQ, rationals, rationals)


@given(scalars, scalars, scalars)
def test_field_axioms(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert u + v == v + u
    assert u * v == v * u


@given(scalars)
def test_inverse_is_two_sided(u):
    if u:
        assert u * u.inverse() == ONE
        assert u.inverse() * u == ONE


@given(scalars)
def test_norm_is_positive_rational(u):
    n = u * u.conj()
    assert n.is_rational()
    if u:
        assert n.r > 0
    else:
        assert n == ZERO


@given(scalars)
def test_parse_format_round_trip(u):
    assert CycQ.parse(str(u)) == u
    # and the canonical string is stable
    assert str(CycQ.parse(str(u))) == str(u)


def test_text_of_integers_past_the_digit_limit():
    assert str(CycQ(10**5000)) == "1" + "0" * 5000
    big = CycQ(Fraction(10**5000 + 1, 3), -(10**4400))
    assert repr(big) == f"CycQ.parse('{big}')"
    assert str(CycQ(Fraction(-1, 10**5000), 10**5000)) == f"-1/1{'0' * 5000}+1{'0' * 5000}*w"
    assert CycQ.parse("1" * 5000) == CycQ((10**5000 - 1) // 9)
    assert CycQ.parse("0-7/" + "9" * 6000 + "*w") == CycQ(0, Fraction(-7, 10**6000 - 1))


big_ints = st.integers(1, 20000).flatmap(lambda k: st.integers(-(10**k), 10**k))
big_rationals = st.builds(Fraction, big_ints, big_ints.filter(bool))


@settings(max_examples=40, deadline=None)
@given(big_rationals, big_rationals)
def test_parse_format_round_trip_large(r, s):
    u = CycQ(r, s)
    assert CycQ.parse(str(u)) == u


# zero, small and past the 4300-digit text limit, of either sign
int_operands = st.sampled_from((0, 1, -1, 10**4400 + 1, -(10**5000))) | big_ints


@settings(max_examples=40, deadline=None)
@given(big_rationals, big_rationals, int_operands)
def test_int_operands_agree_with_the_coerced_scalar(r, s, k):
    x = CycQ(r, s)
    products = (x * k, k * x, x * CycQ(k), x * Fraction(k))
    sums = (x + k, k + x, x + CycQ(k), x + Fraction(k))
    assert all(type(value) is CycQ for value in products + sums)
    assert len(set(products)) == 1 and len(set(sums)) == 1
    assert products[0] == CycQ(r * k, s * k) and sums[0] == CycQ(r + k, s)


@given(scalars, rationals)
def test_bool_and_fraction_operands_still_coerce(x, q):
    assert True * x == x * True == x
    assert False * x == ZERO and x + False == x and True + x == x + 1
    for value in (x * q, q * x, x + q, q + x):
        assert type(value) is CycQ
    assert x * q == x * CycQ(q) and q + x == x + CycQ(q)


@given(scalars)
def test_power_is_the_repeated_product(x):
    product = ONE
    for n in range(13):
        assert x ** n == product
        if x:
            assert x ** -n == (x ** n).inverse()
        product = product * x


def test_power_of_zero():
    assert ZERO ** 0 == ONE
    assert ZERO ** 5 == ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


@given(
    st.text()
    | st.from_regex(r"-?\d+(/\d+)?([+-]\d+(/\d+)?\*w)?", fullmatch=True)
)
def test_parse_returns_a_scalar_or_scalar_format_error(text):
    try:
        value = CycQ.parse(text)
    except ScalarFormatError:
        return
    assert isinstance(value, CycQ)


@pytest.mark.parametrize("text", ["1/2", "-3+2/5*w", "0+1*w", "-7", "0-3/4*w"])
def test_grammar_accepts(text):
    assert str(CycQ.parse(text)) == text


@pytest.mark.parametrize("text", ["", "w", "1+w", "1+ 2*w", "2*w", "1/0", "1-", "x"])
def test_grammar_rejects(text):
    with pytest.raises((ScalarFormatError, ZeroDivisionError)):
        CycQ.parse(text)


@pytest.mark.parametrize("value", [0.1, 1.0, "1/3", "1", Decimal("0.1"), Decimal(1), None])
def test_constructor_takes_only_exact_rationals(value):
    with pytest.raises(TypeError):
        CycQ(value)
    with pytest.raises(TypeError):
        CycQ(0, value)


def test_constructor_converts_ints_and_bools():
    for value in (CycQ(True, False), CycQ(3, -2), CycQ(Fraction(6, 4))):
        assert type(value.r) is Fraction and type(value.s) is Fraction
    assert CycQ(True, False) == ONE and CycQ(Fraction(6, 4)).r == Fraction(3, 2)


@given(rationals)
def test_rational_values_hash_like_the_rationals_they_equal(r):
    q = CycQ(r)
    assert q == r and hash(q) == hash(r) and len({q, r}) == 1
    if r.denominator == 1:
        assert q == r.numerator and len({q, r.numerator}) == 1
