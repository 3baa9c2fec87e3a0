"""Rational and univariate-polynomial scalar layer."""

import random
from fractions import Fraction

import pytest

from planechow.scalars import (
    D,
    GENERIC,
    RATIONAL,
    UniPoly,
    interpolate,
    scalar_mode,
)


def test_rational_arithmetic_stays_reduced():
    q = Fraction(2, 4) + Fraction(1, 6)
    assert (q.numerator, q.denominator) == (2, 3)
    assert str(Fraction(-80, 7)) == "-80/7"
    assert str(Fraction(6, -3)) == "-2"


def test_unipoly_canonical_form_drops_trailing_zeros():
    assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert UniPoly(()).coeffs == ()
    assert UniPoly((0,)) == UniPoly()
    assert not UniPoly()
    assert UniPoly((0, 1)) == D


def test_unipoly_degree_convention():
    assert UniPoly().degree == -1
    assert UniPoly.const(5).degree == 0
    assert (D**3).degree == 3


def test_unipoly_product_expands():
    assert (D - 1) * (D - 1) == D**2 - 2 * D + 1
    assert (D - 1) * (D - 2) * (D - 3) == D**3 - 6 * D**2 + 11 * D - 6


def test_unipoly_int_constants_are_neutral():
    assert 2 * D - 6 == UniPoly((-6, 2))
    assert 1 - D == UniPoly((1, -1))
    assert (3 + D) - 3 == D


def test_unipoly_rendering():
    assert str(D**2 - 3 * D + 3) == "d^2 - 3*d + 3"
    assert str(-(D**3) + 3 * D**2 - 3 * D) == "-d^3 + 3*d^2 - 3*d"
    assert str(UniPoly()) == "0"
    assert str(UniPoly.const(Fraction(1, 2))) == "1/2"
    assert str(-2 * D) == "-2*d"
    assert str(D * Fraction(1, 3)) == "1/3*d"


def test_eval_at_matches_direct_power_sum():
    rng = random.Random(11)
    for _ in range(100):
        p = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        direct = sum(
            (c * x**i for i, c in enumerate(p.coeffs)), Fraction(0)
        )
        assert p.evaluate(x) == direct


def test_eval_at_known_values():
    assert (D**2 - 3 * D + 3).evaluate(4) == 7
    assert (-D * (D - 1) ** 2).evaluate(4) == -36
    # quartic factor of the first table column
    quartic = 5 * D**4 - 20 * D**3 - 5 * D**2 + 50 * D - 12
    assert quartic.evaluate(4) == 108
    assert UniPoly().evaluate(123) == 0


def test_scalar_modes():
    assert scalar_mode(3) is None
    assert scalar_mode(Fraction(1, 2)) == RATIONAL
    assert scalar_mode(D) == GENERIC
    with pytest.raises(TypeError):
        scalar_mode(1.5)


def test_unipoly_stores_integral_coefficients_as_int():
    p = UniPoly((Fraction(1, 2), 3)) * 2
    assert p.coeffs == (1, 6)
    assert all(type(c) is int for c in p.coeffs)
    assert type(UniPoly.const(Fraction(4, 2)).coeffs[0]) is int
    assert UniPoly((Fraction(1, 3),)).coeffs == (Fraction(1, 3),)
    # an int and the equal Fraction hash alike, so equality is unchanged
    assert UniPoly((3,)) == UniPoly((Fraction(3),))
    assert hash(UniPoly((3,))) == hash(UniPoly((Fraction(3),)))


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", None, 1j])
def test_inexact_inputs_are_rejected(bad):
    with pytest.raises(TypeError, match="not a scalar"):
        UniPoly([bad, 1])
    with pytest.raises(TypeError, match="not a scalar"):
        UniPoly.const(bad)
    with pytest.raises(TypeError, match="not a scalar"):
        interpolate([(bad, 1), (2, 3)], max_degree=1)
    with pytest.raises(TypeError, match="not a scalar"):
        interpolate([(1, 1), (2, bad)], max_degree=1)


def test_interpolate_quadratic():
    p = interpolate([(1, 1), (2, 4), (3, 9)], max_degree=2)
    assert p == D**2


def test_interpolate_constant():
    assert interpolate([(5, 7)], max_degree=0) == UniPoly.const(7)


def test_interpolate_duplicate_abscissa_rejected():
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2)], max_degree=1)


def test_interpolate_degree_overflow_rejected():
    points = [(x, x**3) for x in range(4)]
    with pytest.raises(ValueError):
        interpolate(points, max_degree=2)


def test_interpolate_needs_enough_points():
    with pytest.raises(ValueError):
        interpolate([(0, 1), (1, 2)], max_degree=5)


def test_interpolate_inverts_evaluation():
    rng = random.Random(23)
    for _ in range(100):
        deg = rng.randint(0, 5)
        p = UniPoly(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(deg)]
            + [1]
        )
        extra = rng.randint(0, 3)
        xs = rng.sample(range(-20, 40), p.degree + 1 + extra)
        points = [(x, p.evaluate(x)) for x in xs]
        assert interpolate(points, max_degree=p.degree) == p
