"""Sparse polynomials in the fixed weighted variable table.

The engine works throughout in the seven variables

    c1, c2, c3   equivariant Chern classes, weights 1, 2, 3
    h            hyperplane class, weight 1
    t1, t2, t3   Chern roots, weight 1 (only the tests build classes in them)

A monomial is an exponent 7-tuple; a polynomial maps monomials to nonzero
scalar coefficients (int, Fraction or UniPoly — see :mod:`.scalars`).  The
canonical term order is graded reverse lexicographic by weighted degree
with c1 > c2 > c3 > h > t1 > t2 > t3; rendering and Groebner reduction both
use it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .scalars import (
    GENERIC,
    RATIONAL,
    ModeMismatchError,
    Scalar,
    UniPoly,
    merge_modes,
    scalar_mode,
)

VARIABLES = ("c1", "c2", "c3", "h", "t1", "t2", "t3")
WEIGHTS = (1, 2, 3, 1, 1, 1, 1)
NVARS = len(VARIABLES)
VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
ZERO_EXP = (0,) * NVARS

Exponent = tuple


def unit_exp(name: str, power: int = 1) -> Exponent:
    exp = [0] * NVARS
    exp[VAR_INDEX[name]] = power
    return tuple(exp)


def monomial_weight(exp: Exponent) -> int:
    return sum(e * w for e, w in zip(exp, WEIGHTS))


def order_key(exp: Exponent):
    """Sort key realising weighted grevlex; larger key = larger monomial."""
    return (monomial_weight(exp), tuple(-e for e in reversed(exp)))


def _coeff_mode(terms: Mapping[Exponent, Scalar]) -> str | None:
    mode = None
    for c in terms.values():
        mode = merge_modes(mode, scalar_mode(c))
    return mode


class MPoly:
    """Sparse polynomial over the fixed variable table.

    Zero coefficients are never stored, so equality is plain dict equality.
    All coefficients of one polynomial share a scalar mode (ints are
    neutral); operations between polynomials merge modes and raise
    ModeMismatchError on a rational/generic clash.
    """

    __slots__ = ("terms", "mode")

    def __init__(self, terms: Mapping[Exponent, Scalar] | None = None):
        clean: dict[Exponent, Scalar] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != NVARS or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent tuple {exp!r}")
                if coeff:
                    clean[tuple(exp)] = coeff
        self.terms = clean
        self.mode = _coeff_mode(clean)

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> "MPoly":
        return cls({ZERO_EXP: value})

    @classmethod
    def variable(cls, name: str, power: int = 1) -> "MPoly":
        return cls({unit_exp(name, power): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, UniPoly)):
            return self.terms == MPoly.const(other).terms
        return NotImplemented

    __hash__ = None

    def _merge_with(self, other: "MPoly") -> None:
        merge_modes(self.mode, other.mode)

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        self._merge_with(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = out.get(exp, 0) + coeff
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, UniPoly)):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._merge_with(other)
        out: dict[Exponent, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(exp, 0) + c1 * c2
                if acc:
                    out[exp] = acc
                else:
                    out.pop(exp, None)
        return _raw(out)

    __rmul__ = __mul__

    def scale(self, s: Scalar) -> "MPoly":
        merge_modes(self.mode, scalar_mode(s))
        if not s:
            return MPoly.zero()
        return _raw({e: s * c for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        acc = MPoly.const(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def graded_part(self, w: int) -> "MPoly":
        """Sum of the terms of weighted degree exactly w."""
        return _raw(
            {e: c for e, c in self.terms.items() if monomial_weight(e) == w}
        )

    def max_weight(self) -> int:
        """Largest weighted degree present; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(monomial_weight(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        """Largest exponent of one variable; -1 for the zero polynomial."""
        i = VAR_INDEX[name]
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient_in(self, name: str, power: int) -> "MPoly":
        """Coefficient of name**power, with that variable removed."""
        i = VAR_INDEX[name]
        out = {}
        for exp, coeff in self.terms.items():
            if exp[i] == power:
                reduced = exp[:i] + (0,) + exp[i + 1 :]
                out[reduced] = coeff
        return _raw(out)

    def substitute(self, bindings: Mapping[str, "MPoly"]) -> "MPoly":
        """Replace variables by polynomials simultaneously."""
        indices = {VAR_INDEX[name]: poly for name, poly in bindings.items()}
        powers: dict[tuple[int, int], MPoly] = {}
        total = MPoly.zero()
        for exp, coeff in self.terms.items():
            rest = tuple(0 if i in indices else e for i, e in enumerate(exp))
            acc = _raw({rest: coeff})
            for i, poly in indices.items():
                e = exp[i]
                if e == 0:
                    continue
                key = (i, e)
                if key not in powers:
                    powers[key] = poly**e
                acc = acc * powers[key]
            total = total + acc
        return total

    def specialize(self, d0: Union[int, Fraction]) -> "MPoly":
        """Pin a generic-mode polynomial to the specific degree d0."""
        out = {}
        for exp, coeff in self.terms.items():
            if isinstance(coeff, UniPoly):
                coeff = coeff.evaluate(d0)
            out[exp] = coeff
        return MPoly(out)

    def uses_only(self, names: Iterable[str]) -> bool:
        allowed = {VAR_INDEX[n] for n in names}
        return all(
            all(e == 0 for i, e in enumerate(exp) if i not in allowed)
            for exp in self.terms
        )

    def constant_scalar(self) -> Scalar:
        """The value of a polynomial with no variables at all."""
        if not self.terms:
            return 0
        if set(self.terms) != {ZERO_EXP}:
            raise ValueError(f"not a constant: {self}")
        return self.terms[ZERO_EXP]

    def sorted_terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in descending canonical order, leading term first."""
        return [
            (e, self.terms[e])
            for e in sorted(self.terms, key=order_key, reverse=True)
        ]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        if set(self.terms) == {ZERO_EXP}:
            coeff = self.terms[ZERO_EXP]
            if isinstance(coeff, UniPoly):
                return str(coeff)
        rendered: list[str] = []
        for exp, coeff in self.sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(VARIABLES, exp)
                if e
            )
            sign, body = _format_term(coeff, mono)
            if not rendered:
                rendered.append(f"-{body}" if sign < 0 else body)
            else:
                rendered.append(f" - {body}" if sign < 0 else f" + {body}")
        return "".join(rendered)

    def __repr__(self) -> str:
        return f"MPoly({self.terms!r})"


def _raw(terms: dict) -> MPoly:
    """Build an MPoly from terms already free of zero coefficients."""
    p = MPoly.__new__(MPoly)
    p.terms = terms
    p.mode = _coeff_mode(terms)
    return p


def _as_poly(value) -> MPoly | None:
    if isinstance(value, MPoly):
        return value
    if isinstance(value, (int, Fraction, UniPoly)):
        return MPoly.const(value)
    return None


def _format_term(coeff: Scalar, mono: str) -> tuple[int, str]:
    """Split a term into a sign and an unsigned body string."""
    if isinstance(coeff, UniPoly) and coeff.is_constant():
        coeff = coeff.constant_value()
    if isinstance(coeff, UniPoly):
        if sum(1 for c in coeff.coeffs if c) > 1:
            body = f"({coeff})*{mono}" if mono else f"({coeff})"
            return 1, body
        lead = coeff.coeffs[-1]
        sign = -1 if lead < 0 else 1
        mag = str(-coeff if lead < 0 else coeff)
        return sign, f"{mag}*{mono}" if mono else mag
    sign = -1 if coeff < 0 else 1
    mag = -coeff if coeff < 0 else coeff
    if not mono:
        return sign, str(mag)
    if mag == 1:
        return sign, mono
    return sign, f"{mag}*{mono}"


C1 = MPoly.variable("c1")
C2 = MPoly.variable("c2")
C3 = MPoly.variable("c3")
H = MPoly.variable("h")
