"""Exact scalar arithmetic for the Chow-ring engine.

Two coefficient modes run through the whole engine:

* rational mode, for computations pinned to one specific curve degree:
  plain ``fractions.Fraction`` values;
* generic mode, for computations in a formal degree parameter ``d``:
  :class:`UniPoly` values, univariate polynomials in ``d`` over the
  rationals.

Plain ``int`` values are accepted everywhere as mode-neutral constants.
Combining a rational-mode scalar with a generic-mode scalar is a usage
error and raises :class:`ModeMismatchError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

RATIONAL = "rational"
GENERIC = "generic"


class ModeMismatchError(TypeError):
    """Raised when rational-mode and generic-mode scalars are mixed."""


class UniPoly:
    """Polynomial in the formal degree parameter ``d`` over the rationals.

    Coefficients are stored ascending by power with no trailing zeros, so
    representations are canonical and equality is structural.  The zero
    polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value: Union[int, Fraction]) -> "UniPoly":
        return cls((Fraction(value),))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def evaluate(self, d0: Union[int, Fraction]) -> Fraction:
        """Evaluate at d = d0 by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * d0 + c
        return acc

    def _lift(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly.const(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        acc = UniPoly.const(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(("UniPoly", self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            else:
                var = "d" if i == 1 else f"d^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self.coeffs!r})"


#: The formal degree parameter itself.
D = UniPoly((0, 1))

Scalar = Union[int, Fraction, UniPoly]


def scalar_mode(s: Scalar) -> str | None:
    """Mode of a scalar: RATIONAL, GENERIC, or None for neutral ints."""
    if isinstance(s, UniPoly):
        return GENERIC
    if isinstance(s, Fraction):
        return RATIONAL
    if isinstance(s, int):
        return None
    raise TypeError(f"not a scalar: {s!r}")


def merge_modes(a: str | None, b: str | None) -> str | None:
    """Combine two scalar modes, rejecting rational/generic mixes."""
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ModeMismatchError(f"cannot mix {a} and {b} scalars")


def interpolate(points: Sequence[tuple], max_degree: int) -> UniPoly:
    """Interpolate a polynomial in d through exact data points.

    Uses Newton divided differences, so feeding more points than
    ``max_degree + 1`` is allowed and acts as an overdetermination check.
    Raises ValueError on a repeated abscissa, on too few points, or if the
    interpolant's degree exceeds ``max_degree``.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(xs) != len(set(xs)):
        raise ValueError("duplicate abscissa in interpolation data")
    if len(xs) < max_degree + 1:
        raise ValueError("not enough points for the requested degree")
    coeffs = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - k])
    poly = UniPoly.const(coeffs[-1])
    for i in range(len(xs) - 2, -1, -1):
        poly = poly * UniPoly((-xs[i], 1)) + coeffs[i]
    if poly.degree > max_degree:
        raise ValueError(
            f"interpolant has degree {poly.degree} > {max_degree}"
        )
    return poly
