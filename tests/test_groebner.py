"""Groebner engine: bases, normal forms, ideal equality, graded sizes."""

import random
from fractions import Fraction

import pytest

from conftest import random_coeff, random_homogeneous_c, random_mpoly
from planechow.groebner import (
    RingPresentation,
    graded_dimensions,
    normal_form,
    reduced_basis,
    verify_presentation,
)
from planechow.mpoly import C1, C2, C3, H, MPoly, order_key
from planechow.moduli import groebner_basis, ideal, nodal_target, smooth_target
from planechow.scalars import D
from reference import buchberger, ideal_equal, normal_form_by_scan, s_polynomial


def test_principal_ideal_basis():
    assert reduced_basis([C1.scale(7)]) == [C1]
    assert reduced_basis([]) == []
    assert reduced_basis([MPoly.zero(), C2]) == [C2]
    assert reduced_basis([C1, MPoly.const(3)]) == [MPoly.const(1)]


def test_basis_of_monomial_ideal_is_itself():
    gens = [C1**2, C1 * C2, C1 * C3]
    assert reduced_basis(gens) == gens


def test_buchberger_is_idempotent():
    # both routes return a reduced basis, which is its own reduced basis
    for d in (1, 2, 3, 4, 7, 19):
        gb = reduced_basis(ideal("nodal", d))
        assert reduced_basis(gb) == gb
        assert buchberger(gb) == gb


def test_reduced_basis_matches_buchberger_on_presentations():
    # every basis verify and present compute: both relation ideals and both
    # claimed targets at each d = 1..64
    for d in range(1, 65):
        for gens in (
            ideal("smooth", d),
            ideal("nodal", d),
            smooth_target(d).generators,
            nodal_target(d).generators,
        ):
            assert reduced_basis(gens) == buchberger(gens)


def _finite_quotient(basis) -> bool:
    """True iff some lead is a pure power of each of c1, c2, c3."""
    leads = [max(g.terms, key=order_key) for g in basis]
    return all(
        any(lm[i] and not any(lm[:i] + lm[i + 1 :]) for lm in leads)
        for i in range(3)
    )


def test_reduced_basis_matches_buchberger_on_random_ideals():
    rng = random.Random(1983)
    infinite = 0
    for _ in range(200):
        gens = [
            random_homogeneous_c(rng, rng.randint(1, 4))
            for _ in range(rng.randint(2, 5))
        ]
        gb = reduced_basis(gens)
        assert gb == buchberger(gens)
        infinite += not _finite_quotient(gb)
    # both kinds of quotient occur: 157 infinite, 43 finite
    assert 20 <= infinite <= 180


def test_reduced_basis_stops_at_the_lcm_weights():
    # c2*c3 and c3^2 lie above both generator weights and the quotient is
    # infinite (c1^k survives), so only the lcm rule ends the weights
    gb = reduced_basis([C1 * C2 - C3, C2**2])
    assert gb == [C1 * C2 - C3, C2**2, C2 * C3, C3**2]
    assert not _finite_quotient(gb)


def test_generators_reduce_to_zero_modulo_their_basis():
    for d in (2, 3, 4, 5, 11):
        for gens in (ideal("smooth", d), ideal("nodal", d)):
            gb = reduced_basis(gens)
            for g in gens:
                assert normal_form(g, gb).is_zero


def test_normal_form_examples_degree_four():
    gb = reduced_basis(ideal("nodal", 4))
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
    gb = reduced_basis(ideal("nodal", 5))
    for _ in range(40):
        w = rng.randint(0, 6)
        p = random_homogeneous_c(rng, w)
        q = random_homogeneous_c(rng, w)
        assert normal_form(p + q, gb) == normal_form(p, gb) + normal_form(q, gb)
        assert normal_form(p - normal_form(p, gb), gb).is_zero


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 20, 64])
@pytest.mark.parametrize("locus", ["smooth", "nodal"])
def test_normal_form_is_idempotent_and_linear(locus, d):
    rng = random.Random(7 * d + len(locus))
    gb = groebner_basis(locus, d)
    for _ in range(10):
        p = random_mpoly(rng, names=("c1", "c2", "c3"), max_terms=5, max_exp=4)
        q = random_mpoly(rng, names=("c1", "c2", "c3"), max_terms=5, max_exp=4)
        a, b = random_coeff(rng), random_coeff(rng)
        nf_p, nf_q = normal_form(p, gb), normal_form(q, gb)
        assert normal_form(nf_p, gb) == nf_p
        assert normal_form(p * a + q * b, gb) == nf_p * a + nf_q * b


def test_normal_form_rejects_generic_and_h_inputs():
    with pytest.raises(ValueError):
        normal_form(C1.scale(D), [C1])
    with pytest.raises(ValueError):
        normal_form(H + C1, [C1])


def test_buchberger_rejects_inhomogeneous_generators():
    for route in (reduced_basis, buchberger):
        with pytest.raises(ValueError):
            route([C1 + C2])
        with pytest.raises(ValueError):
            route([C1.scale(D)])
        with pytest.raises(ValueError):
            route([C1 + H])


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
        assert (reduced_basis(gens_a) == reduced_basis(gens_b)) is same


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
        assert same == (reduced_basis(gens_a) == reduced_basis(gens_b))


def test_graded_dimensions_of_free_ring():
    assert graded_dimensions([], 3) == (1, 1, 2, 3)
    assert graded_dimensions([], 8) == (1, 1, 2, 3, 4, 5, 7, 8, 10)


def test_graded_dimensions_examples():
    assert graded_dimensions(reduced_basis([C1, C2, C3]), 4) == (1, 0, 0, 0, 0)
    assert graded_dimensions(reduced_basis([C1**4]), 6) == (
        1, 1, 2, 3, 3, 4, 5,
    )
    assert graded_dimensions(reduced_basis(ideal("nodal", 5)), 6) == (
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
        dims = graded_dimensions(reduced_basis([f]), 10)
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
        reduced_basis([C1]), RingPresentation((C2,), (1, 0))
    )
    assert wrong_ideal["ideal_equal"] is False
    assert wrong_ideal["pass"] is False
