"""Multivariate polynomial layer: arithmetic, grading, rendering."""

import random
from fractions import Fraction

import pytest

from conftest import random_mpoly
from planechow.mpoly import (
    C1,
    C2,
    C3,
    H,
    MPoly,
    monomial_weight,
    order_key,
)
from planechow.scalars import D, ModeMismatchError, UniPoly
from reference import T1, T2, T3


def test_zero_is_empty():
    assert MPoly.zero().terms == {}
    assert (C1 - C1).is_zero
    assert not (C1 - C1)


def test_difference_of_squares():
    assert (C1 + H) * (C1 - H) == C1**2 - H**2


def test_weights():
    assert monomial_weight((1, 1, 1, 0, 0, 0, 0)) == 6
    assert (C1 * C2 * C3).max_weight() == 6
    assert (H * T1 * T2).max_weight() == 3
    assert MPoly.zero().max_weight() == -1


def test_order_ranks_c1_powers_above_lower_variables():
    # under weighted grevlex: c1^2 > c2, c1^3 > c1*c2 > c3, c1 > h > t1
    k = lambda p: order_key(next(iter(p.terms)))
    assert k(C1**2) > k(C2)
    assert k(C1**3) > k(C1 * C2) > k(C3)
    assert k(C1) > k(H) > k(T1) > k(T3)


def test_generic_coefficients():
    p = H.scale(2 * D - 6) - C1.scale(2)
    assert p.terms[(0, 0, 0, 1, 0, 0, 0)] == 2 * D - 6
    q = p.specialize(3)
    assert q == C1.scale(-2)


def test_mode_mismatch_raises():
    generic = C1.scale(D)
    rational = C2.scale(Fraction(1, 2))
    with pytest.raises(ModeMismatchError):
        generic + rational
    with pytest.raises(ModeMismatchError):
        generic * rational
    with pytest.raises(ModeMismatchError):
        rational.scale(D)
    # ints are neutral and combine with either mode
    assert (generic * 2).mode == "generic"
    assert (rational * 2).mode == "rational"


def test_graded_parts_decompose():
    p = (1 - T1 - T2) * (1 - T3) + C2
    total = MPoly.zero()
    for w in range(p.max_weight() + 1):
        part = p.graded_part(w)
        assert all(monomial_weight(e) == w for e in part.terms)
        total = total + part
    assert total == p


def test_coefficient_in():
    p = C1 * H**2 + C2 * H**2 + C3 * H + MPoly.const(5)
    assert p.coefficient_in("h", 2) == C1 + C2
    assert p.coefficient_in("h", 1) == C3
    assert p.coefficient_in("h", 0) == MPoly.const(5)
    assert p.coefficient_in("h", 3).is_zero


def test_substitute_roots_to_chern():
    p = T1 * T2 * T3
    assert p.substitute({"t1": C1, "t2": C2, "t3": C3}) == C1 * C2 * C3
    q = T1**2 - T2
    assert q.substitute({"t1": H + C1, "t2": MPoly.zero()}) == (H + C1) ** 2


def test_substitute_is_ring_homomorphism():
    rng = random.Random(13)
    bindings = {"h": C1 + C2, "t1": C3 - C1}
    for _ in range(40):
        a = random_mpoly(rng, names=("c1", "h", "t1"))
        b = random_mpoly(rng, names=("c2", "h", "t1"))
        assert (a + b).substitute(bindings) == a.substitute(
            bindings
        ) + b.substitute(bindings)
        assert (a * b).substitute(bindings) == a.substitute(
            bindings
        ) * b.substitute(bindings)


def test_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(80):
        a = random_mpoly(rng)
        b = random_mpoly(rng)
        c = random_mpoly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + MPoly.zero() == a
        assert a * MPoly.const(1) == a
        assert a - a == MPoly.zero()


def test_rendering_fixed_order_and_signs():
    assert str(MPoly.zero()) == "0"
    assert str(C1.scale(-36)) == "-36*c1"
    assert str((C1**3).scale(Fraction(-80, 7))) == "-80/7*c1^3"
    assert str(C1**3 - C1 * C2 * 3 + C3 * 3) == "c1^3 - 3*c1*c2 + 3*c3"
    # terms print in descending monomial order, leading term first
    assert str(C2 * H**2 + C3 * H) == "c3*h + c2*h^2"
    assert str(-2 * C1**3 - C1 * C2 - C3) == "-2*c1^3 - c1*c2 - c3"


def test_rendering_generic_coefficients():
    p = C3.scale(-(D**3) + 3 * D**2 - 3 * D) + (C1 * C2).scale(2 * D)
    assert str(p) == "2*d*c1*c2 + (-d^3 + 3*d^2 - 3*d)*c3"
    assert str(C1.scale(D - 1)) == "(d - 1)*c1"
    assert str(MPoly.const(D - 1)) == "d - 1"
    assert str(H.scale(-2 * D)) == "-2*d*h"


def test_rendering_unit_coefficients():
    assert str(C1 - C2) == "-c2 + c1"
    assert str(MPoly.const(1)) == "1"
    assert str(-C1) == "-c1"


def test_pow_matches_repeated_multiplication():
    p = C1 + H
    assert p**0 == MPoly.const(1)
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p ** (-1)


def test_bad_exponent_tuples_rejected():
    with pytest.raises(ValueError):
        MPoly({(1, 0): 1})
    with pytest.raises(ValueError):
        MPoly({(-1, 0, 0, 0, 0, 0, 0): 1})


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        MPoly({(1, 0, 0, 0, 0, 0, 0): 0.5})
