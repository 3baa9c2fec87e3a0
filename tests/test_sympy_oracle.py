"""The Groebner engine's verdicts and normal forms against sympy as an oracle.

sympy's reduced bases use plain grevlex.  The relation ideals are
weighted-homogeneous, so the quotient's graded dimensions do not depend on
the term order: the standard monomials of each weight under any order
span that weight's piece of the quotient.  Membership does not depend on
it either: p - NF(p) lies in the ideal, and NF(p) is zero exactly when p
lies in it, under sympy's order as under ours.
"""

import random
from functools import lru_cache

import pytest

from conftest import random_homogeneous_c
from planechow.groebner import normal_form
from planechow.moduli import (
    groebner_basis,
    ideal,
    nodal_presentation,
    nodal_target,
    smooth_presentation,
    smooth_target,
)
from planechow.mpoly import C1, C2, C3, MPoly, monomial_weight

sp = pytest.importorskip("sympy")

C = sp.symbols("c1 c2 c3")


def _to_sympy(p: MPoly):
    return sum(
        (
            sp.Rational(coeff.numerator, coeff.denominator)
            * C[0] ** a * C[1] ** b * C[2] ** c
            for (a, b, c, _), coeff in p.terms.items()
        ),
        sp.Integer(0),
    )


def _reduced_basis(gens):
    return sp.groebner(
        [_to_sympy(g) for g in gens], *C, order="grevlex", domain=sp.QQ
    )


@lru_cache(maxsize=None)
def _relation_basis(locus: str, d: int):
    return _reduced_basis(ideal(locus, d))


def _standard_counts(basis, up_to: int) -> list[int]:
    leads = [p.monoms(order="grevlex")[0] for p in basis.polys]
    return [
        sum(
            1
            for c in range(w // 3 + 1)
            for b in range((w - 3 * c) // 2 + 1)
            if not any(
                lm[0] <= w - 3 * c - 2 * b and lm[1] <= b and lm[2] <= c
                for lm in leads
            )
        )
        for w in range(up_to + 1)
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 12, 40, 64])
@pytest.mark.parametrize(
    "locus, present, target",
    [
        ("smooth", smooth_presentation, smooth_target),
        ("nodal", nodal_presentation, nodal_target),
    ],
)
def test_presentation_matches_sympy(locus, present, target, d):
    report = present(d)
    ours = _relation_basis(locus, d)
    claimed = _reduced_basis(target(d).generators)
    assert report["ideal_equal"] == (set(ours.exprs) == set(claimed.exprs))
    assert report["graded_dims"] == _standard_counts(ours, 8)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 12, 40, 64])
@pytest.mark.parametrize("locus", ["smooth", "nodal"])
def test_normal_forms_match_sympy_membership(locus, d):
    # at each weight 0..8 a random p and a random member of the ideal
    rng = random.Random(1000 * d + len(locus))
    gens = ideal(locus, d)
    weights = [monomial_weight(next(iter(g.terms))) for g in gens]
    ours, theirs = groebner_basis(locus, d), _relation_basis(locus, d)
    for w in range(9):
        member = sum(
            (
                random_homogeneous_c(rng, w - gw) * g
                for g, gw in zip(gens, weights)
                if gw <= w
            ),
            MPoly.zero(),
        )
        for p in (random_homogeneous_c(rng, w), member):
            nf = normal_form(p, ours)
            assert theirs.contains(_to_sympy(p - nf))
            assert nf.is_zero == theirs.contains(_to_sympy(p))


def test_oracle_tells_ideals_apart():
    assert set(_reduced_basis([C1**2]).exprs) != set(_reduced_basis([C1]).exprs)
    assert set(_reduced_basis([C1**2, C1 * C2]).exprs) == set(
        _reduced_basis([C1 * C2, C1**2, C1**2 + C1 * C2]).exprs
    )
    assert _standard_counts(_reduced_basis([C1, C2, C3]), 3) == [1, 0, 0, 0]
    assert _standard_counts(_reduced_basis([]), 4) == [1, 1, 2, 3, 4]
