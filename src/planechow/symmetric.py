"""Hodge-bundle Chern classes by exact evaluation at three torus points.

A bundle whose Chern roots are -(x t1 + y t2 + z t3), over a multiset of
integer forms (x, y, z) closed under permuting the three entries, has a
total Chern class symmetric in t1, t2, t3.  So each of lambda1, lambda2,
lambda3 is a weighted-homogeneous polynomial in c1, c2, c3 = e1, e2, e3 of
t with 1, 2 and 3 unknown coefficients.  Evaluating the roots at
t = (1,0,0), (1,1,0), (1,1,1), where (c1, c2, c3) = (1,0,0), (2,1,0),
(3,3,1), gives a triangular integer system for those coefficients.
"""

from __future__ import annotations

from collections import Counter

from .mpoly import C1, C2, C3, MPoly

#: Exponents of the weight-3 monomials c1^3, c1*c2, c3.
_WEIGHT3 = ((3, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0))


def _elementary(forms, a: int, b: int, c: int) -> tuple[int, int, int]:
    """e1, e2, e3 of the integer roots -(x*a + y*b + z*c)."""
    e1 = e2 = e3 = 0
    for x, y, z in forms:
        r = -(x * a + y * b + z * c)
        e3 += e2 * r
        e2 += e1 * r
        e1 += r
    return e1, e2, e3


# Name, module and first argument are pinned by the benchmark's trace spans.
def chern_roots_product(forms: list[tuple[int, int, int]]) -> MPoly:
    """Total Chern class 1 + lambda1 + lambda2 + lambda3 in c1, c2, c3.

    forms are the integer triples (x, y, z) of the roots -(x t1 + y t2 +
    z t3); as a multiset they must be invariant under permuting entries.
    """
    count = Counter(forms)
    swapped = Counter((y, x, z) for x, y, z in forms)
    cycled = Counter((y, z, x) for x, y, z in forms)
    if not count == swapped == cycled:
        raise ValueError("root forms are not symmetric under permuting t1, t2, t3")
    e1_100, beta, p = _elementary(forms, 1, 0, 0)
    _, e2_110, e3_110 = _elementary(forms, 1, 1, 0)
    e3_111 = _elementary(forms, 1, 1, 1)[2]
    q, odd = divmod(e3_110 - 8 * p, 2)
    assert not odd, "integer symmetric input has integer Chern coefficients"
    r = e3_111 - 27 * p - 9 * q
    return (
        MPoly.const(1)
        + C1.scale(e1_100)
        + (C1**2).scale(beta)
        + C2.scale(e2_110 - 4 * beta)
        + (C1**3).scale(p)
        + (C1 * C2).scale(q)
        + C3.scale(r)
    )


def decompose_weight3(lam3: MPoly) -> tuple[int, int, int]:
    """Monomial-symmetric coordinates (A, B, C) of a weight-3 class.

    The class is given in c1, c2, c3; the basis is m3, m111, m21 (the sum
    of cubes, t1*t2*t3, and the sum of t_i^2 t_j over i != j), whose
    images are c1^3 - 3 c1 c2 + 3 c3, c3 and c1 c2 - 3 c3.
    """
    if not set(lam3.terms) <= set(_WEIGHT3):
        raise ValueError(f"not a weight-3 class in c1, c2, c3: {lam3}")
    p, q, r = (lam3.terms.get(e, 0) for e in _WEIGHT3)
    return p, 6 * p + 3 * q + r, 3 * p + q
