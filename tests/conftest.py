"""Shared generators for randomized tests.

Everything takes an explicit random.Random so suites stay deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction

from planechow.calc import BinOp, Call, Num, NormalFormCall, Pow, Span, Var
from planechow.mpoly import MPoly, NVARS, VAR_INDEX
from reference import E1, E2, E3, Roots


def random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def random_mpoly(
    rng: random.Random,
    names=("c1", "c2", "c3", "h"),
    max_terms: int = 4,
    max_exp: int = 2,
) -> MPoly:
    terms: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = [0] * NVARS
        for name in names:
            exp[VAR_INDEX[name]] = rng.randint(0, max_exp)
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + random_coeff(rng)
    return MPoly(terms)


def random_symmetric(rng: random.Random, max_exp: int = 2) -> Roots:
    """Random symmetric polynomial in the roots, built from e1, e2, e3."""
    out = Roots()
    for _ in range(rng.randint(0, 3)):
        term = Roots.const(random_coeff(rng))
        for basis in (E1, E2, E3):
            term = term * basis ** rng.randint(0, max_exp)
        out = out + term
    return out


def random_homogeneous_c(rng: random.Random, weight: int) -> MPoly:
    """Random weighted-homogeneous polynomial in c1, c2, c3."""
    terms: dict = {}
    for e3 in range(weight // 3 + 1):
        for e2 in range((weight - 3 * e3) // 2 + 1):
            e1 = weight - 3 * e3 - 2 * e2
            if rng.random() < 0.6:
                terms[(e1, e2, e3, 0)] = random_coeff(rng)
    return MPoly(terms)


_SPAN = Span(0, 0)


def random_ast(rng: random.Random, depth: int = 3):
    """Random well-formed calculator tree (evaluation not guaranteed cheap)."""
    if depth <= 0:
        choice = rng.randrange(3)
        if choice == 0:
            return Num(Fraction(rng.randint(0, 9), rng.randint(1, 5)), _SPAN)
        if choice == 1:
            return Var(rng.choice(("c1", "c2", "c3", "h", "d")), _SPAN)
        return Call(rng.choice(("K", "nodal_divisor")), (), _SPAN)
    choice = rng.randrange(6)
    if choice == 0:
        return BinOp(
            rng.choice("+-*"),
            random_ast(rng, depth - 1),
            random_ast(rng, depth - 1),
            _SPAN,
        )
    if choice == 1:
        return Pow(random_ast(rng, 0), rng.randint(0, 3), _SPAN)
    if choice == 2:
        return Call(
            rng.choice(("push", "reduce")), (random_ast(rng, depth - 1),), _SPAN
        )
    if choice == 3:
        return Call("euler_twist", (random_ast(rng, depth - 1),), _SPAN)
    if choice == 4:
        return NormalFormCall(
            random_ast(rng, depth - 1),
            rng.choice(("smooth", "nodal")),
            rng.randint(1, 9),
            _SPAN,
        )
    return random_ast(rng, 0)
