"""Groebner engine over Q in the Chern subring Q[c1, c2, c3].

This is the oracle that certifies quotient-ring presentations: reduced
Groebner bases under the weighted grevlex order, read off the row echelon
forms of the ideal's graded pieces, normal forms by division, and graded
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


def _subtract(row: dict, factor: Fraction, other: dict) -> None:
    """row -= factor * other, in place, dropping zero coefficients."""
    for e, c in other.items():
        acc = row.get(e, 0) - factor * c
        if acc:
            row[e] = acc
        else:
            row.pop(e, None)


def _weight(g: MPoly) -> int:
    return monomial_weight(next(iter(g.terms)))


def _echelon(gens: Sequence[MPoly], w: int) -> dict:
    """Reduced row echelon form of the weight-w piece I_w of the ideal.

    Maps each pivot monomial to its monic row; a row's pivot is its leading
    monomial and no other pivot occurs in it.  The rows are m * g for each
    generator g and each monomial m of weight w - wt(g).
    """
    rows: dict = {}
    for g in gens:
        for m in _c_exponents(w - _weight(g)):
            row = _shifted(g, m, Fraction(1))
            # pivot rows are zero at every other pivot, so one pass reduces
            for p in [e for e in row if e in rows]:
                _subtract(row, row[p], rows[p])
            if row:
                lead = max(row, key=order_key)
                row = {e: c / row[lead] for e, c in row.items()}
                for other in rows.values():
                    if lead in other:
                        _subtract(other, other[lead], row)
                rows[lead] = row
    return rows


def reduced_basis(generators: Iterable[MPoly]) -> list[MPoly]:
    """Reduced monic Groebner basis, sorted by ascending leading monomial.

    Weight by weight, the echelon rows whose pivots no earlier lead divides
    are the basis elements of that weight (Lazard 1983).  The weights stop
    (a) once they reach every generator weight and the lcm weight of every
    pair of leads that share a variable (Buchberger's criterion; coprime
    pairs need no check), or (b) after three consecutive weights at which
    the quotient is zero, since c1, c2 and c3 then carry every higher
    monomial into the ideal.
    """
    gens = check_generators(generators)
    bound = max(map(_weight, gens), default=0)
    leads: list = []
    basis: list[MPoly] = []
    zero_run = w = 0
    while w <= bound and zero_run < 3:
        rows = _echelon(gens, w)
        for lead, row in rows.items():
            if not any(_divides(lm, lead) for lm in leads):
                for lm in leads:
                    if any(map(min, lm, lead)):  # the pair shares a variable
                        bound = max(bound, monomial_weight(tuple(map(max, lm, lead))))
                leads.append(lead)
                basis.append(MPoly(row))
        full = len(rows) == len(list(_c_exponents(w)))
        zero_run = zero_run + 1 if full else 0
        w += 1
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

    ``basis`` is the ideal's reduced Groebner basis as ``reduced_basis``
    returns it.  Reduced bases under a fixed order are unique, so the ideals
    are equal exactly when the claimed generators give the same basis.
    """
    equal = tuple(basis) == tuple(reduced_basis(presentation.generators))
    dims = graded_dimensions(basis, len(presentation.expected_dims) - 1)
    expected = tuple(presentation.expected_dims)
    ok = equal and dims == expected
    return {
        "ideal_equal": equal,
        "graded_dims": list(dims),
        "expected": list(expected),
        "pass": ok,
    }
