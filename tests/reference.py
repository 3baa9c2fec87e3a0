"""Independent second routes for the Chern-root layer and the two kernels.

The engine reads the Hodge classes off three integer torus points and
builds euler_twist from its closed form.  This module keeps the route that
works in the Chern roots t1, t2, t3 themselves: the truncated product of
the linear root factors, rewritten into c1, c2, c3 by the leading-term
reduction behind the fundamental theorem of symmetric polynomials.  The
engine's polynomials have no root variables, so this route does its root
arithmetic in its own small type, ``Roots``, and shares no polynomial
arithmetic with the engine.

It also keeps the plain versions of the two kernels the engine runs in a
faster form: multivariate division that finds each leading term by a scan
of the whole working set (the engine uses a heap), and plane-bundle
reduction that rewrites one h^k term at a time (the engine multiplies each
h-degree group by a table of reduced powers of h).

The Groebner layer keeps its second route here too.  The engine reads
reduced bases off the row echelon forms of the ideal's graded pieces;
``buchberger`` builds them by S-pairs and inter-reduction, and
``ideal_equal`` checks that every generator of each side reduces to zero
modulo the other side's Buchberger basis.  The table's closed forms are
refitted here by interpolation.  Tests compare the routes exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Iterable

from planechow.groebner import (
    _divides,
    _shifted,
    check_generators,
    leading_term,
    normal_form,
)
from planechow.moduli import hodge_table, reference_closed_forms
from planechow.mpoly import C1, C2, C3, H, MPoly, order_key
from planechow.scalars import Scalar, UniPoly, interpolate


class Roots:
    """Polynomial in the Chern roots t1, t2, t3 and the hyperplane class h.

    Terms map exponents (a, b, c, k) of t1^a t2^b t3^c h^k to nonzero
    scalars; every variable has weight 1.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, value: Scalar) -> "Roots":
        return cls({(0, 0, 0, 0): value})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Roots) and self.terms == other.terms

    def __add__(self, other):
        other = other if isinstance(other, Roots) else Roots.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Roots(out)

    __radd__ = __add__

    def __neg__(self) -> "Roots":
        return Roots({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Roots):
            return Roots({e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Roots(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Roots":
        acc = Roots.const(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def graded_part(self, w: int) -> "Roots":
        return Roots({e: c for e, c in self.terms.items() if sum(e) == w})

    def h_coefficient(self, k: int) -> "Roots":
        """Coefficient of h^k, a polynomial in the roots alone."""
        return Roots({e[:3] + (0,): c for e, c in self.terms.items() if e[3] == k})

    def permuted(self, perm: tuple[int, int, int]) -> "Roots":
        """Give t_(i+1) the exponent that t_(perm[i]+1) had."""
        return Roots(
            {(*(e[j] for j in perm), e[3]): c for e, c in self.terms.items()}
        )

    def __repr__(self) -> str:
        return f"Roots({self.terms!r})"


T1, T2, T3, H_ROOT = (
    Roots({tuple(int(j == i) for j in range(4)): 1}) for i in range(4)
)

#: Elementary symmetric polynomials of the roots.
E1 = T1 + T2 + T3
E2 = T1 * T2 + T1 * T3 + T2 * T3
E3 = T1 * T2 * T3


def chern_to_roots(p: MPoly) -> Roots:
    """Substitute c_k = e_k(t1, t2, t3) into a polynomial in c1, c2, c3."""
    if not p.uses_only(("c1", "c2", "c3")):
        raise ValueError(f"expected a polynomial in c1, c2, c3: {p}")
    out = Roots()
    for (a, b, c, _), coeff in p.terms.items():
        out = out + E1**a * E2**b * E3**c * coeff
    return out


def is_symmetric(p: Roots) -> bool:
    """True iff p is invariant under all permutations of t1, t2, t3."""
    if any(e[3] for e in p.terms):
        raise ValueError(f"expected a polynomial in t1, t2, t3: {p}")
    return all(p.permuted(perm) == p for perm in permutations(range(3)))


def sym_to_chern(p: Roots) -> MPoly:
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
        exp = max(work.terms)
        a, b, c, _ = exp
        coeff = work.terms[exp]
        out[(a - b, b - c, c, 0)] = coeff
        work = work - E1 ** (a - b) * E2 ** (b - c) * E3**c * coeff
    return MPoly(out)


def weight3_basis() -> tuple[Roots, Roots, Roots]:
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


def roots_product(forms, max_weight: int = 3) -> Roots:
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
    return Roots({(*e, 0): v for e, v in acc.items()})


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
    t_exps = ((3, 0, 0, 0), (1, 1, 1, 0), (2, 1, 0, 0))
    abc = tuple(part3.terms.get(e, 0) for e in t_exps)
    return (*lambdas, abc)


def normal_form_by_scan(p: MPoly, basis) -> MPoly:
    """Remainder of p under division by basis, leading terms by a max scan."""
    leads = [max(g.terms, key=order_key) for g in basis]
    work = {e: Fraction(c) for e, c in p.terms.items()}
    remainder: dict = {}
    while work:
        exp = max(work, key=order_key)
        coeff = work.pop(exp)
        for g, lm in zip(basis, leads):
            if all(a <= b for a, b in zip(lm, exp)):
                factor = coeff / Fraction(g.terms[lm])
                shift = tuple(a - b for a, b in zip(exp, lm))
                for e, c in g.terms.items():
                    e = tuple(a + b for a, b in zip(e, shift))
                    if e == exp:
                        continue
                    acc = work.get(e, 0) - factor * c
                    if acc:
                        work[e] = acc
                    else:
                        work.pop(e, None)
                break
        else:
            remainder[exp] = coeff
    return MPoly(remainder)


def _monic(p: MPoly) -> MPoly:
    _, lc = leading_term(p)
    return p.scale(Fraction(1) / Fraction(lc))


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    lf, cf = leading_term(f)
    lg, cg = leading_term(g)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    sf = tuple(a - b for a, b in zip(lcm, lf))
    sg = tuple(a - b for a, b in zip(lcm, lg))
    left = MPoly(_shifted(f, sf, Fraction(1) / Fraction(cf)))
    right = MPoly(_shifted(g, sg, Fraction(1) / Fraction(cg)))
    return left - right


def buchberger(generators: Iterable[MPoly]) -> list[MPoly]:
    """Reduced monic Groebner basis, Buchberger's algorithm.

    Pairs are processed in the normal selection strategy (smallest lcm
    first) and filtered through both the coprimality and the chain
    criterion.  The returned basis is inter-reduced, monic, and sorted by
    ascending leading monomial, so it is a canonical form of the ideal.
    """
    basis: list[MPoly] = []
    for g in check_generators(generators):
        r = normal_form(g, basis)
        if r:
            basis.append(_monic(r))
    leads = [leading_term(g)[0] for g in basis]
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        i, j = min(
            pairs,
            key=lambda ij: order_key(
                tuple(max(a, b) for a, b in zip(leads[ij[0]], leads[ij[1]]))
            ),
        )
        pairs.remove((i, j))
        lcm = tuple(max(a, b) for a, b in zip(leads[i], leads[j]))
        if all(a == 0 or b == 0 for a, b in zip(leads[i], leads[j])):
            continue
        chained = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(leads[k], lcm):
                continue
            if (min(i, k), max(i, k)) not in pairs and (
                min(j, k),
                max(j, k),
            ) not in pairs:
                chained = True
                break
        if chained:
            continue
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r:
            basis.append(_monic(r))
            leads.append(leading_term(r)[0])
            pairs.update((t, len(basis) - 1) for t in range(len(basis) - 1))
    # inter-reduce to the unique reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            rest = basis[:i] + basis[i + 1 :]
            r = normal_form(basis[i], rest)
            if r != basis[i]:
                changed = True
                if r:
                    basis[i] = _monic(r)
                else:
                    del basis[i]
                break
    basis.sort(key=lambda g: order_key(leading_term(g)[0]))
    return basis


def ideal_equal(gens_a, gens_b) -> bool:
    """True iff both generating sets span the same ideal, by containment."""
    a = check_generators(gens_a)
    b = check_generators(gens_b)
    gb_a = buchberger(a)
    gb_b = buchberger(b)
    return all(not normal_form(g, gb_b) for g in a) and all(
        not normal_form(g, gb_a) for g in b
    )


_H3_IMAGE = -(C1 * H**2 + C2 * H + C3)


def reduce_class_by_terms(p: MPoly) -> MPoly:
    """Rewrite h^3 as -(c1 h^2 + c2 h + c3), one term at a time."""
    while p.degree_in("h") > 2:
        for exp, coeff in list(p.terms.items()):
            k = exp[3]
            if k < 3:
                continue
            stripped = exp[:3] + (k - 3,) + exp[4:]
            p = p - MPoly({exp: coeff}) + MPoly({stripped: coeff}) * _H3_IMAGE
    return p


def euler_twist_by_roots(k: Scalar) -> MPoly:
    """Euler class with Chern roots k*h - t_i, expanded in the roots."""
    kh = H_ROOT * k
    product = (kh - T1) * (kh - T2) * (kh - T3)
    converted = {
        exp[:3] + (j,): coeff
        for j in range(4)
        for exp, coeff in sym_to_chern(product.h_coefficient(j)).terms.items()
    }
    return reduce_class_by_terms(MPoly(converted))


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
