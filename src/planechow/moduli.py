"""Chow-ring computations for moduli of smooth and nodal plane curves.

The rational Chow ring of either moduli stack is a quotient of
Q[c1, c2, c3] by the ideal of pushed-forward relations coming from the
locus of singular (respectively worse-than-nodal) curves.  This module
computes those relations exactly, both for a formal degree parameter d and
for specific degrees, certifies the resulting quotient presentations with
the Groebner oracle, and evaluates the tautological delta and lambda
pullbacks together with their closed forms in d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .chow import euler_twist, integrate, nodal_divisor_class
from .groebner import (
    RingPresentation,
    buchberger,
    normal_form,
    verify_presentation,
)
from .mpoly import C1, C2, C3, H, MPoly
from .scalars import D, Scalar, UniPoly, interpolate
from .symmetric import chern_roots_product, decompose_weight3

#: Graded dimensions of Q[c1,c2] (weight 2 for c2) through weight 8.
_DIMS_TWO_VARS = (1, 1, 2, 2, 3, 3, 4, 4, 5)


def _require_degree(d: int) -> None:
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"curve degree must be a positive integer, got {d!r}")


def genus(d: int) -> int:
    """Genus of a smooth plane curve of degree d."""
    _require_degree(d)
    return (d - 1) * (d - 2) // 2


def smooth_relation(y: int, d: Scalar) -> MPoly:
    """Pushforward of h^y capped with the Euler class of the (d-1)-twist.

    These three classes (y = 0, 1, 2) generate the relation ideal of the
    smooth-curve moduli.  d may be the formal parameter or a specific
    value.
    """
    return integrate(H**y * euler_twist(d - 1))


def nodal_relation(y: int, d: Scalar) -> MPoly:
    """Pushforward of the nodal divisor class times h^y times the Euler class.

    These three classes generate the relation ideal of the at-worst-nodal
    moduli.
    """
    return integrate(H**y * nodal_divisor_class(d) * euler_twist(d - 1))


@lru_cache(maxsize=None)
def relations(locus: str, d: Scalar) -> tuple[MPoly, MPoly, MPoly]:
    """The y = 0, 1, 2 relations of a locus, d formal (D) or specific."""
    relation = {"smooth": smooth_relation, "nodal": nodal_relation}[locus]
    return tuple(relation(y, d) for y in range(3))


def coherence_check(d: int) -> bool:
    """Specializing the generic relations at d reproduces the direct ones."""
    _require_degree(d)
    return all(
        generic.specialize(d) == direct
        for locus in ("smooth", "nodal")
        for generic, direct in zip(relations(locus, D), relations(locus, d))
    )


def syzygy_holds(d: Scalar) -> bool:
    """One linear syzygy ties the three nodal relations together.

    The y = 2 relation equals -c1 * (y = 1) - c2 * (y = 0) up to the single
    correction term 2 d^2 (d-2)^2 c1 c3; this identity holds with d formal.
    """
    n0, n1, n2 = relations("nodal", d)
    rhs = (C1 * C3).scale(2 * d * d * (d - 2) ** 2)
    return n2 + C1 * n1 + C2 * n0 == rhs


def ideal(locus: str, d: int) -> list[MPoly]:
    """Nonzero relations of a locus at a specific degree."""
    _require_degree(d)
    return [p for p in relations(locus, d) if p]


@lru_cache(maxsize=None)
def groebner_basis(locus: str, d: int) -> tuple[MPoly, ...]:
    """Reduced Groebner basis of a locus's relation ideal at degree d."""
    return tuple(buchberger(ideal(locus, d)))


def smooth_target(d: int) -> RingPresentation:
    """Claimed presentation of the smooth-moduli Chow ring at degree d."""
    _require_degree(d)
    if d == 1:
        return RingPresentation((C3,), _DIMS_TWO_VARS)
    if d == 2:
        return RingPresentation((C1, C3), (1, 0, 1, 0, 1, 0, 1, 0, 1))
    return RingPresentation((C1, C2, C3), (1, 0, 0, 0, 0, 0, 0, 0, 0))


def nodal_target(d: int) -> RingPresentation:
    """Claimed presentation of the nodal-moduli Chow ring at degree d."""
    _require_degree(d)
    if d == 1:
        return RingPresentation((C3,), _DIMS_TWO_VARS)
    if d == 2:
        return RingPresentation((C3 - C1 * C2,), _DIMS_TWO_VARS)
    if d == 3:
        return RingPresentation(
            (C1**2, C1 * C2, C1 * C3), (1, 1, 1, 1, 1, 1, 2, 1, 2)
        )
    gens = (
        C2.scale(d - 3) - (C1**2).scale(d - 1),
        C3.scale((d - 3) ** 2 * (d * d - 3 * d + 3))
        - (C1**3).scale((d - 1) ** 2 * (d * d - 3 * d + 1)),
        C1**4,
    )
    return RingPresentation(gens, (1, 1, 1, 1, 0, 0, 0, 0, 0))


def smooth_presentation(d: int) -> dict:
    """Groebner certification of the smooth presentation at degree d."""
    report = verify_presentation(groebner_basis("smooth", d), smooth_target(d))
    return {"d": d, "locus": "smooth", **report}


def nodal_presentation(d: int) -> dict:
    """Groebner certification of the nodal presentation at degree d."""
    report = verify_presentation(groebner_basis("nodal", d), nodal_target(d))
    return {"d": d, "locus": "nodal", **report}


def delta_pullback(d: Scalar) -> MPoly:
    """Pullback of the boundary divisor class; equals -d(d-1)^2 c1."""
    return relations("smooth", d)[0]


def jet_compositions(d: int) -> list[tuple[int, int, int]]:
    """All positive (x, y, z) with x + y + z = d, in lexicographic order."""
    return [
        (x, y, d - x - y)
        for x in range(1, d - 1)
        for y in range(1, d - x)
    ]


def hodge_product(d: int) -> MPoly:
    """Total Chern class 1 + lambda1 + lambda2 + lambda3 of the Hodge bundle.

    The bundle's Chern roots are -(x t1 + y t2 + z t3) over the positive
    compositions x + y + z = d, one root per interior lattice point of the
    degree-d triangle.
    """
    _require_degree(d)
    return chern_roots_product(jet_compositions(d))


def lambda1_coefficient(d: int) -> int:
    """lambda1 = lambda1_coefficient(d) * c1, valid for every d >= 1."""
    return -math.comb(d, 3)


def lambda2_coefficient(d: int) -> Fraction:
    """Reduced lambda2 coefficient on c1^2 for d >= 4."""
    return Fraction(math.comb(d, 3) ** 2, 2)


@lru_cache(maxsize=None)
def lambda3_fraction_parts() -> tuple[UniPoly, UniPoly]:
    """Numerator and denominator of the reduced lambda3 coefficient in d."""
    d = D
    num = -(d**2) * (d - 1) * (d - 2) * (
        5 * d**8
        - 60 * d**7
        + 305 * d**6
        - 855 * d**5
        + 1430 * d**4
        - 1425 * d**3
        + 816 * d**2
        - 288 * d
        + 216
    )
    den = 6480 * (d - 3) * (d**2 - 3 * d + 3)
    return num, den


def lambda3_coefficient(d: int) -> Fraction:
    """Reduced lambda3 coefficient on c1^3 for d >= 4."""
    if d < 4:
        raise ValueError("the reduced lambda3 coefficient needs d >= 4")
    num, den = lambda3_fraction_parts()
    return num.evaluate(d) / den.evaluate(d)


def _c1_multiple(p: MPoly, gb: tuple[MPoly, ...], power: int) -> Fraction | None:
    """Coefficient q with p = q * c1^power modulo the ideal, if one exists."""
    nf_p = normal_form(p, gb)
    if not nf_p:
        return Fraction(0)
    nf_c = normal_form(C1**power, gb)
    if not nf_c:
        return None
    exp, lead = nf_c.sorted_terms()[0]
    q = Fraction(nf_p.terms.get(exp, 0)) / Fraction(lead)
    if nf_p == nf_c.scale(q):
        return q
    return None


class TautologicalReport(NamedTuple):
    """Delta and lambda pullbacks at one degree, with their checks.

    Raw classes live in Q[c1,c2,c3]; the reduced lambda fields rewrite
    lambda2 and lambda3 as multiples of powers of c1 modulo the nodal
    relation ideal (only possible for d >= 4, None otherwise).  Boolean
    fields compare everything against the closed forms in d; mumford_ok
    records lambda1^2 = 2*lambda2 modulo the ideal.
    """

    d: int
    genus: int
    delta: MPoly
    lambda1: MPoly
    lambda2: MPoly
    lambda3: MPoly
    lambda2_reduced: MPoly | None
    lambda3_reduced: MPoly | None
    abc: tuple[int, int, int] | None
    delta_ok: bool
    lambda1_ok: bool
    lambda2_ok: bool
    lambda3_ok: bool
    mumford_ok: bool | None

    @property
    def ok(self) -> bool:
        checks = [
            self.delta_ok,
            self.lambda1_ok,
            self.lambda2_ok,
            self.lambda3_ok,
        ]
        if self.mumford_ok is not None:
            checks.append(self.mumford_ok)
        return all(checks)


def lambda_classes(d: int) -> TautologicalReport:
    """Compute the tautological report at one specific degree."""
    _require_degree(d)
    hodge = hodge_product(d)
    lam1, lam2, lam3 = (hodge.graded_part(k) for k in (1, 2, 3))
    delta = delta_pullback(d)
    delta_ok = delta == C1.scale(-d * (d - 1) ** 2)
    lambda1_ok = lam1 == C1.scale(lambda1_coefficient(d))
    if d < 4:
        return TautologicalReport(
            d=d,
            genus=genus(d),
            delta=delta,
            lambda1=lam1,
            lambda2=lam2,
            lambda3=lam3,
            lambda2_reduced=None,
            lambda3_reduced=None,
            abc=None,
            delta_ok=delta_ok,
            lambda1_ok=lambda1_ok,
            lambda2_ok=lam2.is_zero,
            lambda3_ok=lam3.is_zero,
            mumford_ok=None,
        )
    gb = groebner_basis("nodal", d)
    q2 = _c1_multiple(lam2, gb, 2)
    q3 = _c1_multiple(lam3, gb, 3)
    lambda2_ok = not normal_form(
        lam2 - (C1**2).scale(lambda2_coefficient(d)), gb
    )
    # the lambda3 closed form as a rational coefficient and cleared of its
    # denominator; both read lambda3_fraction_parts() and agree for d >= 4,
    # where the denominator is nonzero
    direct = not normal_form(
        lam3 - (C1**3).scale(lambda3_coefficient(d)), gb
    )
    num, den = lambda3_fraction_parts()
    cross = not normal_form(
        lam3.scale(den.evaluate(d)) - (C1**3).scale(num.evaluate(d)), gb
    )
    mumford_ok = not normal_form(lam1 * lam1 - lam2.scale(2), gb)
    return TautologicalReport(
        d=d,
        genus=genus(d),
        delta=delta,
        lambda1=lam1,
        lambda2=lam2,
        lambda3=lam3,
        lambda2_reduced=(C1**2).scale(q2) if q2 is not None else None,
        lambda3_reduced=(C1**3).scale(q3) if q3 is not None else None,
        abc=decompose_weight3(lam3),
        delta_ok=delta_ok,
        lambda1_ok=lambda1_ok,
        lambda2_ok=lambda2_ok,
        lambda3_ok=direct and cross,
        mumford_ok=mumford_ok,
    )


def hodge_table(d_from: int, d_to: int) -> list[tuple[int, int, int, int]]:
    """Rows (d, A, B, C) of monomial-symmetric coordinates, weight 3.

    A, B, C are the coefficients of the weight-3 part of the Hodge product
    on the monomial-symmetric basis for the partitions (3), (1,1,1), (2,1);
    they are integers for every integer degree.
    """
    if d_from < 4 or d_to < d_from:
        raise ValueError(f"bad table range {d_from}..{d_to}")
    return [
        (d, *decompose_weight3(hodge_product(d).graded_part(3)))
        for d in range(d_from, d_to + 1)
    ]


def reference_closed_forms() -> tuple[UniPoly, UniPoly, UniPoly]:
    """The three table columns as expanded degree-9 polynomials in d."""
    d = D
    quintic = (d + 1) * d * (d - 1) * (d - 2) * (d - 3)
    a = -quintic * (5 * d**4 - 20 * d**3 - 5 * d**2 + 50 * d - 12) * Fraction(1, 6480)
    b = (
        -d * (d - 1) * (d - 2) * (d - 3)
        * (10 * d**5 - 30 * d**4 - 5 * d**3 - 45 * d**2 - 14 * d - 24)
        * Fraction(1, 2160)
    )
    c = -quintic * (5 * d**4 - 20 * d**3 + 10 * d**2 - 10 * d + 6) * Fraction(1, 2160)
    return a, b, c


def interpolated_closed_forms() -> tuple[UniPoly, UniPoly, UniPoly]:
    """Fit the three table columns on d = 4..20; degree must stay <= 9."""
    rows = hodge_table(4, 20)
    return tuple(
        interpolate([(row[0], row[col]) for row in rows], max_degree=9)
        for col in (1, 2, 3)
    )


def closed_forms_report() -> dict:
    """Interpolate the table columns and cross-check the closed forms.

    The interpolants must coincide with the reference polynomials and must
    keep predicting freshly computed table rows past the fitting window.
    """
    interp = interpolated_closed_forms()
    ref = reference_closed_forms()
    matches = interp == ref
    extrapolated = hodge_table(21, 25)
    extrapolation_ok = all(
        interp[col - 1].evaluate(row[0]) == row[col]
        for row in extrapolated
        for col in (1, 2, 3)
    )
    return {
        "degrees": [p.degree for p in interp],
        "matches_reference": matches,
        "extrapolation_ok": extrapolation_ok,
        "pass": matches and extrapolation_ok,
    }
