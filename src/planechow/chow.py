"""The equivariant Chow ring of the projective plane.

Classes live in Q[c1,c2,c3][h] modulo the single relation

    h^3 + c1*h^2 + c2*h + c3 = 0,

so every class has a canonical representative of h-degree at most 2.
Integration over the plane extracts the h^2 coefficient of the canonical
representative.  Scalars may be rational (specific degree) or generic
(polynomials in the degree parameter d); the same code handles both.
"""

from __future__ import annotations

from .mpoly import C1, C2, C3, H, MPoly
from .scalars import Scalar

C_AND_H = ("c1", "c2", "c3", "h")

#: Rewriting image of h^3.
_H3_IMAGE = -(C1 * H**2 + C2 * H + C3)


def reduce_class(p: MPoly) -> MPoly:
    """Canonical representative with h-degree at most 2."""
    if not p.uses_only(C_AND_H):
        raise ValueError(f"expected a class in c1, c2, c3, h: {p}")
    while True:
        top = p.degree_in("h")
        if top <= 2:
            return p
        for exp, coeff in list(p.terms.items()):
            k = exp[3]
            if k < 3:
                continue
            stripped = exp[:3] + (k - 3,) + exp[4:]
            p = p - MPoly({exp: coeff}) + MPoly({stripped: coeff}) * _H3_IMAGE


def pushforward(p: MPoly) -> MPoly:
    """Integrate a canonical class over the plane: the h^2 coefficient."""
    if p.degree_in("h") > 2:
        raise ValueError(f"class is not reduced: {p}")
    if not p.uses_only(C_AND_H):
        raise ValueError(f"expected a class in c1, c2, c3, h: {p}")
    return p.coefficient_in("h", 2)


def integrate(p: MPoly) -> MPoly:
    """Pushforward of an arbitrary-h-degree class: reduce, then integrate."""
    return pushforward(reduce_class(p))


def euler_twist(k: Scalar) -> MPoly:
    """Euler class of the twisted dual of the standard rank-3 bundle.

    Its Chern roots are k*h - t1, k*h - t2, k*h - t3, whose product is
    k^3 h^3 - k^2 c1 h^2 + k c2 h - c3; the result is that class reduced.
    """
    return reduce_class(
        (H**3).scale(k**3) - (C1 * H**2).scale(k**2) + (C2 * H).scale(k) - C3
    )


def canonical_class() -> MPoly:
    """The relative canonical divisor class -3h - c1."""
    return -(H.scale(3) + C1)


def nodal_divisor_class(d: Scalar) -> MPoly:
    """Divisor class (2d-6)h - 2c1 attached to degree-d nodal curves.

    Twice the sum of d*h and the canonical class; accepts the formal
    parameter d or any specific value.
    """
    return H.scale(2 * d - 6) - C1.scale(2)
