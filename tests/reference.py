"""Independent second route for the Chern-root layer.

The engine reads the Hodge classes off three integer torus points and
builds euler_twist from its closed form.  This module keeps the route that
works in the Chern roots t1, t2, t3 themselves: the truncated product of
the linear root factors, rewritten into c1, c2, c3 by the leading-term
reduction behind the fundamental theorem of symmetric polynomials.  Tests
compare the two routes exactly.
"""

from __future__ import annotations

from itertools import permutations

from planechow.chow import reduce_class
from planechow.mpoly import H, MPoly, VAR_INDEX
from planechow.scalars import Scalar

T1 = MPoly.variable("t1")
T2 = MPoly.variable("t2")
T3 = MPoly.variable("t3")

T_VARS = ("t1", "t2", "t3")
_T = tuple(VAR_INDEX[n] for n in T_VARS)

#: Elementary symmetric polynomials of the roots.
E1 = T1 + T2 + T3
E2 = T1 * T2 + T1 * T3 + T2 * T3
E3 = T1 * T2 * T3


def _permuted(p: MPoly, perm: tuple[int, int, int]) -> MPoly:
    out = {}
    for exp, coeff in p.terms.items():
        e = list(exp)
        for i, j in zip(_T, perm):
            e[i] = exp[_T[j]]
        out[tuple(e)] = coeff
    return MPoly(out)


def is_symmetric(p: MPoly) -> bool:
    """True iff p is invariant under all permutations of t1, t2, t3."""
    if not p.uses_only(T_VARS):
        raise ValueError(f"expected a polynomial in t1, t2, t3: {p}")
    return all(_permuted(p, perm) == p for perm in permutations((0, 1, 2)))


def sym_to_chern(p: MPoly) -> MPoly:
    """Rewrite a symmetric polynomial in the roots as one in c1, c2, c3.

    Repeatedly strips the lex-leading monomial t1^a t2^b t3^c (a >= b >= c)
    by subtracting coeff * e1^(a-b) e2^(b-c) e3^c, recording the same
    monomial in the c-variables.
    """
    if not is_symmetric(p):
        raise ValueError(f"not symmetric in t1, t2, t3: {p}")
    out: dict = {}
    work = p
    while work:
        exp = max(work.terms, key=lambda e: tuple(e[i] for i in _T))
        a, b, c = (exp[i] for i in _T)
        coeff = work.terms[exp]
        out[(a - b, b - c, c, 0, 0, 0, 0)] = coeff
        work = work - (E1 ** (a - b) * E2 ** (b - c) * E3**c).scale(coeff)
    return MPoly(out)


def weight3_basis() -> tuple[MPoly, MPoly, MPoly]:
    """The monomial-symmetric polynomials m3, m111, m21 of weight 3."""
    m3 = T1**3 + T2**3 + T3**3
    m111 = T1 * T2 * T3
    m21 = (
        T1**2 * T2
        + T1**2 * T3
        + T2**2 * T1
        + T2**2 * T3
        + T3**2 * T1
        + T3**2 * T2
    )
    return m3, m111, m21


def roots_product(forms, max_weight: int = 3) -> MPoly:
    """Truncated product of the factors (1 - x*t1 - y*t2 - z*t3).

    Kept as a table over the root monomials t1^a t2^b t3^c of weight at
    most max_weight; each factor updates the table from the top weight
    down, so every entry reads lower-weight entries not yet updated.
    """
    monos = sorted(
        (
            (a, b, c)
            for a in range(max_weight + 1)
            for b in range(max_weight + 1 - a)
            for c in range(max_weight + 1 - a - b)
        ),
        key=sum,
        reverse=True,
    )
    acc = {(0, 0, 0): 1}
    for x, y, z in forms:
        for a, b, c in monos:
            acc[a, b, c] = (
                acc.get((a, b, c), 0)
                - x * acc.get((a - 1, b, c), 0)
                - y * acc.get((a, b - 1, c), 0)
                - z * acc.get((a, b, c - 1), 0)
            )
    return MPoly({(0, 0, 0, 0, *e): v for e, v in acc.items()})


def hodge_reference(d: int) -> tuple[MPoly, MPoly, MPoly, tuple]:
    """lambda1..lambda3 in c1, c2, c3 and (A, B, C) of the degree-d bundle.

    (A, B, C) are read straight off the weight-3 part in the roots: its
    coefficients at t1^3, t1*t2*t3 and t1^2*t2.
    """
    forms = [
        (x, y, d - x - y) for x in range(1, d - 1) for y in range(1, d - x)
    ]
    product = roots_product(forms)
    lambdas = tuple(sym_to_chern(product.graded_part(k)) for k in (1, 2, 3))
    part3 = product.graded_part(3)
    t_exps = ((3, 0, 0), (1, 1, 1), (2, 1, 0))
    abc = tuple(part3.terms.get((0, 0, 0, 0, *e), 0) for e in t_exps)
    return (*lambdas, abc)


def euler_twist_by_roots(k: Scalar) -> MPoly:
    """Euler class with Chern roots k*h - t_i, expanded in the roots."""
    kh = H.scale(k)
    product = MPoly.const(1)
    for root in (T1, T2, T3):
        product = product * (kh - root)
    converted = MPoly.zero()
    for j in range(4):
        converted = converted + sym_to_chern(product.coefficient_in("h", j)) * H**j
    return reduce_class(converted)
