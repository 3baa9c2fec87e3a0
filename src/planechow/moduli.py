"""Chow-ring computations for moduli of smooth and nodal plane curves.

The rational Chow ring of either moduli stack is a quotient of
Q[c1, c2, c3] by the ideal of pushed-forward relations coming from the
locus of singular (respectively worse-than-nodal) curves.  This module
computes those relations exactly, both for a formal degree parameter d and
for specific degrees, certifies the resulting quotient presentations with
the Groebner oracle, and evaluates the tautological delta and lambda
pullbacks together with their closed forms in d.  ``CLAIMS`` lists every
per-degree claim that ``verify`` and ``lambda`` report.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .chow import euler_twist, integrate, nodal_divisor_class
from .groebner import (
    RingPresentation,
    buchberger,
    normal_form,
    verify_presentation,
)
from .mpoly import C1, C2, C3, H, MPoly
from .scalars import D, Scalar
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


def lambda3_coefficient(d: int) -> Fraction:
    """Reduced lambda3 coefficient on c1^3 for d >= 4."""
    if d < 4:
        raise ValueError("the reduced lambda3 coefficient needs d >= 4")
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
    return Fraction(num, 6480 * (d - 3) * (d**2 - 3 * d + 3))


def _ratio(p: MPoly, c: MPoly) -> Fraction | None:
    """The q with p = q * c, if one exists."""
    if not p:
        return Fraction(0)
    if not c:
        return None
    exp, lead = c.sorted_terms()[0]
    q = Fraction(p.terms.get(exp, 0)) / Fraction(lead)
    return q if p == c.scale(q) else None


class TautologicalClasses(NamedTuple):
    """Delta and the Hodge classes at one degree: the context every claim reads.

    For d >= 4, ``nf`` holds the normal forms modulo the nodal relation
    ideal of (lambda2, c1^2) and of (lambda3, c1^3).  The normal form is
    linear, so each lambda claim compares these four classes.  Below d = 4
    the Hodge bundle has rank < 3 and ``nf`` is None.
    """

    d: int
    delta: MPoly
    lambda1: MPoly
    lambda2: MPoly
    lambda3: MPoly
    nf: tuple[tuple[MPoly, MPoly], tuple[MPoly, MPoly]] | None

    def reduced(self, k: int) -> MPoly | None:
        """lambda_k (k = 2, 3) as q * c1^k modulo the nodal ideal, if any."""
        q = None if self.nf is None else _ratio(*self.nf[k - 2])
        return None if q is None else (C1**k).scale(q)

    @property
    def abc(self) -> tuple[int, int, int] | None:
        """(A, B, C) of lambda3 on the monomial-symmetric basis, for d >= 4."""
        return None if self.nf is None else decompose_weight3(self.lambda3)


def lambda_classes(d: int) -> TautologicalClasses:
    """Delta, the Hodge classes and their nodal normal forms at degree d."""
    _require_degree(d)
    hodge = hodge_product(d)
    lam1, lam2, lam3 = (hodge.graded_part(k) for k in (1, 2, 3))
    nf = None
    if d >= 4:
        gb = groebner_basis("nodal", d)
        nf = tuple(
            (normal_form(lam, gb), normal_form(C1**k, gb))
            for k, lam in ((2, lam2), (3, lam3))
        )
    return TautologicalClasses(d, delta_pullback(d), lam1, lam2, lam3, nf)


def _lambda_holds(t: TautologicalClasses, k: int) -> bool:
    """lambda_k (k = 2, 3) matches its closed form; it vanishes below d = 4."""
    if t.nf is None:
        return (t.lambda2, t.lambda3)[k - 2].is_zero
    coefficient = (lambda2_coefficient, lambda3_coefficient)[k - 2]
    lam, c1_power = t.nf[k - 2]
    return lam == c1_power.scale(coefficient(t.d))


def _mumford_holds(t: TautologicalClasses) -> bool:
    """lambda1^2 = 2 lambda2 modulo the nodal ideal, with lambda1 = a * c1."""
    (lam2, c1_squared), _ = t.nf
    a = t.lambda1.coefficient_in("c1", 1).constant_scalar()
    return c1_squared.scale(a * a) == lam2.scale(2)


class Claim(NamedTuple):
    """One per-degree claim of the paper, as ``verify`` and ``lambda`` report it.

    ``check`` reads the degree's TautologicalClasses and returns a bool, or a
    presentation report whose "pass" is the verdict.  Below ``first_d`` the
    claim does not apply and its value is None.  The ``lambda`` report shows
    the ``tautological`` claims.
    """

    key: str
    label: str
    check: Callable[[TautologicalClasses], bool | dict]
    first_d: int = 1
    tautological: bool = False


#: The claims in record order.  Each check names the functions it calls at
#: call time, so a function replaced on this module is the one that runs.
CLAIMS = (
    Claim("coherence", "coherence", lambda t: coherence_check(t.d)),
    Claim("smooth", "smooth", lambda t: smooth_presentation(t.d)),
    Claim("nodal", "nodal", lambda t: nodal_presentation(t.d)),
    Claim("syzygy", "syzygy", lambda t: syzygy_holds(t.d)),
    Claim(
        "delta_ok",
        "delta",
        lambda t: t.delta == C1.scale(-t.d * (t.d - 1) ** 2),
        tautological=True,
    ),
    Claim(
        "lambda1_ok",
        "lambda1",
        lambda t: t.lambda1 == C1.scale(lambda1_coefficient(t.d)),
        tautological=True,
    ),
    Claim("lambda2_ok", "lambda2", lambda t: _lambda_holds(t, 2), tautological=True),
    Claim("lambda3_ok", "lambda3", lambda t: _lambda_holds(t, 3), tautological=True),
    Claim("mumford_ok", "mumford", _mumford_holds, first_d=4, tautological=True),
)


def claim_values(t: TautologicalClasses, tautological: bool = False) -> dict:
    """Each claim's value at t.d by key, None where it does not apply.

    With ``tautological`` only the claims of the ``lambda`` report are run.
    """
    return {
        c.key: c.check(t) if t.d >= c.first_d else None
        for c in CLAIMS
        if c.tautological or not tautological
    }


def verdict(value: bool | dict | None) -> bool | None:
    """The pass/fail of one claim value; None means it does not apply."""
    return value["pass"] if isinstance(value, dict) else value


def passes(values: dict) -> bool:
    """No claim that applies fails."""
    return all(verdict(v) is not False for v in values.values())


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


def reference_closed_forms(d: Scalar = D) -> tuple[Scalar, Scalar, Scalar]:
    """The three table columns as degree-9 polynomials in d.

    With d formal (the default) they are UniPolys; at a specific degree
    they are the columns' values, which ``table`` checks every row against.
    """
    quintic = (d + 1) * d * (d - 1) * (d - 2) * (d - 3)
    a = -quintic * (5 * d**4 - 20 * d**3 - 5 * d**2 + 50 * d - 12) * Fraction(1, 6480)
    b = (
        -d * (d - 1) * (d - 2) * (d - 3)
        * (10 * d**5 - 30 * d**4 - 5 * d**3 - 45 * d**2 - 14 * d - 24)
        * Fraction(1, 2160)
    )
    c = -quintic * (5 * d**4 - 20 * d**3 + 10 * d**2 - 10 * d + 6) * Fraction(1, 2160)
    return a, b, c
