"""The Groebner engine's presentation verdicts against sympy as an oracle.

sympy's reduced bases use plain grevlex.  The relation ideals are
weighted-homogeneous, so the quotient's graded dimensions do not depend on
the term order: the standard monomials of each weight under any order
span that weight's piece of the quotient.
"""

import pytest

from planechow.moduli import (
    ideal,
    nodal_presentation,
    nodal_target,
    smooth_presentation,
    smooth_target,
)
from planechow.mpoly import C1, C2, C3, MPoly

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
    ours = _reduced_basis(ideal(locus, d))
    claimed = _reduced_basis(target(d).generators)
    assert report["ideal_equal"] == (set(ours.exprs) == set(claimed.exprs))
    assert report["graded_dims"] == _standard_counts(ours, 8)


def test_oracle_tells_ideals_apart():
    assert set(_reduced_basis([C1**2]).exprs) != set(_reduced_basis([C1]).exprs)
    assert set(_reduced_basis([C1**2, C1 * C2]).exprs) == set(
        _reduced_basis([C1 * C2, C1**2, C1**2 + C1 * C2]).exprs
    )
    assert _standard_counts(_reduced_basis([C1, C2, C3]), 3) == [1, 0, 0, 0]
    assert _standard_counts(_reduced_basis([]), 4) == [1, 1, 2, 3, 4]
