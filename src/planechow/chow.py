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

#: Rewriting image of h^3.
_H3_IMAGE = -(C1 * H**2 + C2 * H + C3)

#: Canonical representatives of h^0, h^1, h^2, ..., grown on demand.
_H_POWERS = [MPoly.const(1), H, H**2]


def _h_power(k: int) -> MPoly:
    """Canonical h^k, built as h * h^(k-1) with h^3 rewritten (no recursion)."""
    while len(_H_POWERS) <= k:
        top = _H_POWERS[-1] * H
        cubic = top.coefficient_in("h", 3)
        _H_POWERS.append(top - cubic * H**3 + cubic * _H3_IMAGE)
    return _H_POWERS[k]


def reduce_class(p: MPoly) -> MPoly:
    """Canonical representative with h-degree at most 2."""
    if p.degree_in("h") <= 2:
        return p
    groups: dict[int, dict] = {}
    for exp, coeff in p.terms.items():
        groups.setdefault(exp[3], {})[exp[:3] + (0,)] = coeff
    return sum(
        (MPoly(terms) * _h_power(k) for k, terms in groups.items()), MPoly.zero()
    )


def pushforward(p: MPoly) -> MPoly:
    """Integrate a canonical class over the plane: the h^2 coefficient."""
    if p.degree_in("h") > 2:
        raise ValueError(f"class is not reduced: {p}")
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
