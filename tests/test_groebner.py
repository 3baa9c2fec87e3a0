"""Groebner engine: bases, normal forms, ideal equality, graded sizes."""

import random
from fractions import Fraction

import pytest

from conftest import random_homogeneous_c, random_mpoly
from planechow.groebner import (
    RingPresentation,
    buchberger,
    graded_dimensions,
    normal_form,
    s_polynomial,
    verify_presentation,
)
from planechow.mpoly import C1, C2, C3, H, MPoly
from planechow.moduli import groebner_basis, ideal
from planechow.scalars import D
from reference import ideal_equal, normal_form_by_scan


def test_principal_ideal_basis():
    assert buchberger([C1.scale(7)]) == [C1]
    assert buchberger([]) == []
    assert buchberger([MPoly.zero(), C2]) == [C2]


def test_basis_of_monomial_ideal_is_itself():
    gens = [C1**2, C1 * C2, C1 * C3]
    assert buchberger(gens) == gens


def test_buchberger_is_idempotent():
    for d in (1, 2, 3, 4, 7, 19):
        gb = buchberger(ideal("nodal", d))
        assert buchberger(gb) == gb


def test_generators_reduce_to_zero_modulo_their_basis():
    for d in (2, 3, 4, 5, 11):
        for gens in (ideal("smooth", d), ideal("nodal", d)):
            gb = buchberger(gens)
            for g in gens:
                assert normal_form(g, gb).is_zero


def test_normal_form_examples_degree_four():
    gb = buchberger(ideal("nodal", 4))
    # the relations force c2 = 3 c1^2, c3 = 45/7 c1^3 and kill c1^4
    assert normal_form(C2 - (C1**2).scale(3), gb).is_zero
    assert normal_form(C3 - (C1**3).scale(Fraction(45, 7)), gb).is_zero
    assert normal_form(C1**4, gb).is_zero
    assert not normal_form(C1**3, gb).is_zero


def test_normal_form_matches_scan_reference():
    # the heap-driven division against the max-scan one, 200 seeded inputs
    rng = random.Random(2029)
    for d in (3, 4, 7, 20):
        for basis in (groebner_basis("smooth", d), groebner_basis("nodal", d)):
            for _ in range(25):
                p = random_mpoly(rng, names=("c1", "c2", "c3"), max_terms=6, max_exp=4)
                fast = normal_form(p, basis)
                slow = normal_form_by_scan(p, basis)
                assert fast == slow
                assert str(fast) == str(slow)


def test_normal_form_is_linear():
    rng = random.Random(31)
    gb = buchberger(ideal("nodal", 5))
    for _ in range(40):
        w = rng.randint(0, 6)
        p = random_homogeneous_c(rng, w)
        q = random_homogeneous_c(rng, w)
        assert normal_form(p + q, gb) == normal_form(p, gb) + normal_form(q, gb)
        assert normal_form(p - normal_form(p, gb), gb).is_zero


def test_normal_form_rejects_generic_and_h_inputs():
    with pytest.raises(ValueError):
        normal_form(C1.scale(D), [C1])
    with pytest.raises(ValueError):
        normal_form(H + C1, [C1])


def test_buchberger_rejects_inhomogeneous_generators():
    with pytest.raises(ValueError):
        buchberger([C1 + C2])
    with pytest.raises(ValueError):
        buchberger([C1.scale(D)])
    with pytest.raises(ValueError):
        buchberger([C1 + H])


def test_s_polynomial_cancels_leading_terms():
    f = C1**2 - C2
    g = C1 * C2 - C3
    s = s_polynomial(f, g)
    assert s == C1 * C3 - C2**2


def test_ideal_equality():
    # the containment route against reduced-basis equality, case by case
    cases = (
        (ideal("nodal", 1), [C3], True),
        (ideal("nodal", 2), [C3 - C1 * C2], True),
        ([C1**2, C1**2 + C2.scale(2)], [C1**2, C2], True),
        ([C1], [C2], False),
        ([C1**2], [C1], False),
    )
    for gens_a, gens_b, same in cases:
        assert ideal_equal(gens_a, gens_b) is same
        assert (buchberger(gens_a) == buchberger(gens_b)) is same


def test_ideal_equal_matches_reduced_basis_equality():
    rng = random.Random(17)
    for _ in range(30):
        gens_a = [
            random_homogeneous_c(rng, rng.randint(1, 4)) for _ in range(2)
        ]
        gens_b = [
            random_homogeneous_c(rng, rng.randint(1, 4)) for _ in range(2)
        ]
        same = ideal_equal(gens_a, gens_b)
        assert same == (buchberger(gens_a) == buchberger(gens_b))


def test_graded_dimensions_of_free_ring():
    assert graded_dimensions([], 3) == (1, 1, 2, 3)
    assert graded_dimensions([], 8) == (1, 1, 2, 3, 4, 5, 7, 8, 10)


def test_graded_dimensions_examples():
    assert graded_dimensions(buchberger([C1, C2, C3]), 4) == (1, 0, 0, 0, 0)
    assert graded_dimensions(buchberger([C1**4]), 6) == (
        1, 1, 2, 3, 3, 4, 5,
    )
    assert graded_dimensions(buchberger(ideal("nodal", 5)), 6) == (
        1, 1, 1, 1, 0, 0, 0,
    )


def test_graded_dimensions_principal_ideal_shift():
    # modulo one homogeneous nonzerodivisor of weight w the dimensions drop
    # by exactly the free dimensions shifted by w
    rng = random.Random(41)
    free = graded_dimensions([], 10)
    for _ in range(25):
        w = rng.randint(1, 5)
        f = random_homogeneous_c(rng, w)
        if f.is_zero:
            continue
        dims = graded_dimensions(buchberger([f]), 10)
        for k in range(11):
            expected = free[k] - (free[k - w] if k >= w else 0)
            assert dims[k] == expected


def test_verify_presentation_pass_and_fail():
    report = verify_presentation(
        groebner_basis("nodal", 3),
        RingPresentation((C1**2, C1 * C2, C1 * C3), (1, 1, 1, 1)),
    )
    assert report == {
        "ideal_equal": True,
        "graded_dims": [1, 1, 1, 1],
        "expected": [1, 1, 1, 1],
        "pass": True,
    }
    bad = verify_presentation(
        groebner_basis("nodal", 3),
        RingPresentation((C1**2, C1 * C2, C1 * C3), (1, 1, 2, 1)),
    )
    assert bad["ideal_equal"] is True
    assert bad["pass"] is False
    wrong_ideal = verify_presentation(
        buchberger([C1]), RingPresentation((C2,), (1, 0))
    )
    assert wrong_ideal["ideal_equal"] is False
    assert wrong_ideal["pass"] is False
