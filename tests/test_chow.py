"""Chow ring of the plane: reduction, integration, standard classes."""

import random
import sys
from fractions import Fraction

import pytest

from conftest import random_coeff, random_mpoly
from planechow import chow
from planechow.chow import (
    canonical_class,
    euler_twist,
    integrate,
    nodal_divisor_class,
    pushforward,
    reduce_class,
)
from planechow.mpoly import C1, C2, C3, H, MPoly
from planechow.scalars import D
from reference import euler_twist_by_roots, reduce_class_by_terms


def test_reduce_h3():
    assert reduce_class(H**3) == -(C1 * H**2 + C2 * H + C3)


def test_reduce_h4():
    expected = (
        (C1**2 - C2) * H**2 + (C1 * C2 - C3) * H + C1 * C3
    )
    assert reduce_class(H**4) == expected


def test_reduce_fixes_low_degrees():
    for p in (MPoly.zero(), MPoly.const(3), H, H**2, C1 * H**2 + C3):
        assert reduce_class(p) == p


def test_reduce_is_idempotent_and_additive():
    rng = random.Random(19)
    for _ in range(60):
        a = random_mpoly(rng, max_exp=3)
        b = random_mpoly(rng, max_exp=3)
        ra = reduce_class(a)
        assert reduce_class(ra) == ra
        assert ra.degree_in("h") <= 2
        assert reduce_class(a + b) == reduce_class(ra + reduce_class(b))
        assert reduce_class(a * b) == reduce_class(ra * reduce_class(b))


@pytest.mark.parametrize("generic", [False, True])
def test_reduce_matches_term_by_term_reference(generic):
    # grouped reduction against the one-term-at-a-time rewrite, h-degree <= 12
    rng = random.Random(3 + generic)
    for _ in range(80):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1),
                   rng.randint(0, 12))
            coeff = random_coeff(rng)
            terms[exp] = D * rng.randint(-3, 3) + coeff if generic else coeff
        p = MPoly(terms)
        fast = reduce_class(p)
        slow = reduce_class_by_terms(p)
        assert fast == slow
        assert str(fast) == str(slow)


def test_reduce_builds_powers_of_h_without_recursion(monkeypatch):
    # the table of reduced h^k grows by iteration: a fresh table reaches
    # h^60 with only 40 frames of stack to spare above this test
    expected = reduce_class(H**60)
    monkeypatch.setattr(chow, "_H_POWERS", chow._H_POWERS[:3])
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        reduced = reduce_class(H**60)
    finally:
        sys.setrecursionlimit(limit)
    assert reduced == expected
    assert len(chow._H_POWERS) == 61


def test_pushforward_point_line_plane():
    assert pushforward(H**2) == MPoly.const(1)
    assert pushforward(H).is_zero
    assert pushforward(MPoly.const(1)).is_zero
    assert pushforward(C1 * H**2 + C2 * H + C3) == C1


def test_pushforward_rejects_unreduced_classes():
    with pytest.raises(ValueError):
        pushforward(H**3)


def test_integrate_powers_of_h():
    assert integrate(H**2) == MPoly.const(1)
    assert integrate(H**3) == -C1
    assert integrate(H**4) == C1**2 - C2


def test_integrate_is_linear():
    rng = random.Random(37)
    for _ in range(40):
        a = random_mpoly(rng, max_exp=3)
        b = random_mpoly(rng, max_exp=3)
        assert integrate(a + b) == integrate(a) + integrate(b)


def test_euler_twist_matches_direct_expansion():
    # the closed form against the product of the roots k*h - t_i, expanded
    # in t and rewritten into Chern classes
    for k in (
        0, 1, 2, 3, 7, 63, Fraction(5, 2), Fraction(-1, 3),
        D - 1, D, 2 * D - 3,
    ):
        closed = euler_twist(k)
        by_roots = euler_twist_by_roots(k)
        assert closed.terms == by_roots.terms
        assert str(closed) == str(by_roots)
        assert closed.mode == by_roots.mode


def test_euler_twist_zero():
    assert euler_twist(0) == -C3


def test_euler_twist_pushforward():
    assert integrate(euler_twist(3)) == C1.scale(-36)


def test_canonical_class():
    assert canonical_class() == -(H.scale(3)) - C1


def test_nodal_divisor_class():
    assert nodal_divisor_class(3) == C1.scale(-2)
    assert nodal_divisor_class(D) == H.scale(2 * D - 6) - C1.scale(2)
    # twice the degree-d hyperplane polarization plus twice the canonical class
    assert nodal_divisor_class(D) == (H.scale(D) + canonical_class()).scale(2)


def test_projection_formula_for_pulled_back_classes():
    rng = random.Random(43)
    for _ in range(40):
        base = random_mpoly(rng, names=("c1", "c2", "c3"), max_exp=2)
        fiber = random_mpoly(rng, max_exp=3)
        assert integrate(base * fiber) == base * integrate(fiber)
