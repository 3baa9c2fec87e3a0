"""Buchberger engine over Q in the Chern subring Q[c1, c2, c3].

This is the oracle that certifies quotient-ring presentations: reduced
Groebner bases under the weighted grevlex order, normal forms, and graded
dimensions of the quotient.  Two ideals are equal exactly when their
reduced bases are.  Only weighted-homogeneous ideals with rational-mode
coefficients are accepted; the degree parameter must already be pinned
before anything lands here.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .mpoly import MPoly, monomial_weight, order_key
from .scalars import GENERIC

C_VARS = ("c1", "c2", "c3")


class RingPresentation(NamedTuple):
    """A claimed quotient presentation: relation ideal plus graded sizes.

    ``expected_dims[w]`` is the dimension of the weight-w graded piece of
    Q[c1,c2,c3] / (generators), for w = 0 .. len(expected_dims) - 1.
    """

    generators: tuple
    expected_dims: tuple


def check_generators(gens: Iterable[MPoly]) -> list[MPoly]:
    """Validate ideal generators and drop zero ones."""
    out = []
    for g in gens:
        if g.mode == GENERIC:
            raise ValueError("Groebner computations need a specific degree")
        if not g.uses_only(C_VARS):
            raise ValueError(f"generator uses variables outside Q[c1,c2,c3]: {g}")
        weights = {monomial_weight(e) for e in g.terms}
        if len(weights) > 1:
            raise ValueError(f"generator is not weighted-homogeneous: {g}")
        if g:
            out.append(g)
    return out


def leading_term(p: MPoly) -> tuple[tuple, Fraction]:
    exp = max(p.terms, key=order_key)
    return exp, p.terms[exp]


def _monic(p: MPoly) -> MPoly:
    _, lc = leading_term(p)
    return p.scale(Fraction(1) / Fraction(lc))


def _divides(e1: tuple, e2: tuple) -> bool:
    return all(a <= b for a, b in zip(e1, e2))


def _shifted(p: MPoly, shift: tuple, factor: Fraction) -> dict:
    return {
        tuple(a + b for a, b in zip(exp, shift)): factor * Fraction(c)
        for exp, c in p.terms.items()
    }


def normal_form(p: MPoly, basis: Sequence[MPoly]) -> MPoly:
    """Remainder of p under complete multivariate division by basis."""
    if p.mode == GENERIC:
        raise ValueError("normal forms need a specific degree")
    if not p.uses_only(C_VARS):
        raise ValueError(f"normal form input must live in Q[c1,c2,c3]: {p}")
    leads = [leading_term(g) for g in basis]
    work = {e: Fraction(c) for e, c in p.terms.items()}
    # min-heap of reversed order keys; entries no longer in work are skipped
    heap = [(-monomial_weight(e), e[::-1]) for e in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        exp = heapq.heappop(heap)[1][::-1]
        if exp not in work:
            continue
        coeff = work.pop(exp)
        for g, (lm, lc) in zip(basis, leads):
            if _divides(lm, exp):
                shift = tuple(a - b for a, b in zip(exp, lm))
                for e, c in _shifted(g, shift, coeff / lc).items():
                    if e == exp:
                        continue
                    if e not in work:
                        heapq.heappush(heap, (-monomial_weight(e), e[::-1]))
                    acc = work.get(e, 0) - c
                    if acc:
                        work[e] = acc
                    else:
                        work.pop(e, None)
                break
        else:
            remainder[exp] = coeff
    return MPoly(remainder)


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


def _c_exponents(weight: int):
    for e3 in range(weight // 3 + 1):
        for e2 in range((weight - 3 * e3) // 2 + 1):
            e1 = weight - 3 * e3 - 2 * e2
            yield (e1, e2, e3, 0)


def graded_dimensions(basis: Sequence[MPoly], up_to: int) -> tuple[int, ...]:
    """Dimensions of the quotient's graded pieces in weights 0 .. up_to.

    Counts standard monomials: monomials in c1, c2, c3 of each weight not
    divisible by any leading monomial of the (Groebner) basis.
    """
    leads = [leading_term(g)[0] for g in basis]
    dims = []
    for w in range(up_to + 1):
        dims.append(
            sum(
                1
                for exp in _c_exponents(w)
                if not any(_divides(lm, exp) for lm in leads)
            )
        )
    return tuple(dims)


def verify_presentation(
    basis: Sequence[MPoly], presentation: RingPresentation
) -> dict:
    """Check one claimed presentation against a relation ideal.

    ``basis`` is the ideal's reduced Groebner basis as ``buchberger``
    returns it.  Reduced bases under a fixed order are unique, so the ideals
    are equal exactly when the claimed generators give the same basis.
    """
    equal = tuple(basis) == tuple(buchberger(presentation.generators))
    dims = graded_dimensions(basis, len(presentation.expected_dims) - 1)
    expected = tuple(presentation.expected_dims)
    ok = equal and dims == expected
    return {
        "ideal_equal": equal,
        "graded_dims": list(dims),
        "expected": list(expected),
        "pass": ok,
    }
