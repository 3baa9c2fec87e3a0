"""Seeded workloads for the CLI benchmark: planechow argv lists and checks.

Every workload is a list of ``Invocation``s, each one planechow command
line plus the records it must emit and an independent check of its
standard output.  A workload is built in rounds.  Within one round the
multiset of degrees is fixed, so the cost of a run does not depend on the
seed; the seed only chooses window boundaries, the order of invocations and
the coefficients of calculator expressions.

Checks never ask the program to check itself:

* ``verify``/``present`` JSON: every record has ``"pass": true`` and the
  records cover exactly the requested degrees;
* ``table`` CSV rows equal the closed forms below, evaluated here in
  ``Fraction`` arithmetic, and match ``golden_table.csv`` for d = 4..20;
* ``eval`` expressions come from families whose answer is known in
  advance (binomial-theorem identities, each relation reduced against its
  own ideal, ``c1^k`` in the nodal ideal for d >= 4, and the pushforward
  of the Euler class against -d(d-1)^2 c1).
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

#: Largest exponent written into a calculator expression; planned budgets
#: in the program must not turn benchmark operations into failures.
MAX_EXPONENT = 10


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, the records it emits, its output check."""

    args: tuple[str, ...]
    records: int
    check: Callable[[str], bool]
    parallel: bool = False  # starts worker processes, so may use every CPU


# ---------------------------------------------------------------- windows


def _windows(lo: int, hi: int, width: int, rng, min_width: int = 1):
    """Contiguous windows tiling lo..hi, cut every `width` from a seeded offset.

    An edge piece narrower than `min_width` joins its neighbour.  Shifting
    the cuts, rather than drawing window widths, keeps the spread of window
    costs, and so the latency percentiles, nearly the same for every seed.
    """
    starts = sorted({lo, *range(lo + rng.randrange(width), hi + 1, width)})
    windows = [[a, b - 1] for a, b in zip(starts, starts[1:] + [hi + 1])]
    if windows[0][1] - windows[0][0] + 1 < min_width:
        first = windows.pop(0)
        windows[0][0] = first[0]
    if windows[-1][1] - windows[-1][0] + 1 < min_width:
        last = windows.pop()
        windows[-1][1] = last[1]
    if [d for a, b in windows for d in range(a, b + 1)] != list(range(lo, hi + 1)):
        raise ValueError(f"windows {windows} do not tile {lo}..{hi}")
    rng.shuffle(windows)
    return windows


def _json_records(lo: int, hi: int, stdout: str) -> bool:
    try:
        records = json.loads(stdout)
    except ValueError:
        return False
    return (
        isinstance(records, list)
        and all(isinstance(r, dict) for r in records)
        and [r.get("d") for r in records] == list(range(lo, hi + 1))
        and all(r.get("pass") is True for r in records)
    )


# Each round of ``sweep`` and ``certify`` tiles 1..64 once, and each round of
# ``table-par`` tiles 4..64.  One-degree sweep windows give enough
# invocations for a p90 with ten samples above it in two rounds; the wider
# certify windows keep its Groebner work visible above startup; table
# windows are at least two wide, so that every call starts the worker pool.
SWEEP_WIDTH = 1
CERTIFY_WIDTH = 8
TABLE_WIDTH = 2


def sweep(rng, rounds: int) -> list[Invocation]:
    out = []
    for _ in range(rounds):
        for lo, hi in _windows(1, 64, SWEEP_WIDTH, rng):
            args = ("verify", "--d", f"{lo}..{hi}", "--jobs", "1", "--format", "json")
            check = functools.partial(_json_records, lo, hi)
            out.append(Invocation(args, hi - lo + 1, check))
    return out


def certify(rng, rounds: int) -> list[Invocation]:
    out = []
    for _ in range(rounds):
        for lo, hi in _windows(1, 64, CERTIFY_WIDTH, rng):
            args = ("present", "--d", f"{lo}..{hi}", "--format", "json")
            check = functools.partial(_json_records, lo, hi)
            out.append(Invocation(args, hi - lo + 1, check))
    return out


# ------------------------------------------------------------------ table


def closed_forms(d: int) -> tuple[int, int, int]:
    """(A, B, C) at degree d from the degree-9 closed forms of the table.

    A transcription of ``moduli.reference_closed_forms()``, evaluated here
    so that the check does not depend on the program's own route.
    """
    d = Fraction(d)
    quintic = (d + 1) * d * (d - 1) * (d - 2) * (d - 3)
    a = -quintic * (5 * d**4 - 20 * d**3 - 5 * d**2 + 50 * d - 12) / 6480
    b = (
        -d * (d - 1) * (d - 2) * (d - 3)
        * (10 * d**5 - 30 * d**4 - 5 * d**3 - 45 * d**2 - 14 * d - 24)
        / 2160
    )
    c = -quintic * (5 * d**4 - 20 * d**3 + 10 * d**2 - 10 * d + 6) / 2160
    values = (a, b, c)
    if any(v.denominator != 1 for v in values):
        raise ValueError(f"closed forms are not integral at d={d}")
    return tuple(int(v) for v in values)


@functools.cache
def _golden_rows() -> dict[int, tuple[int, int, int]]:
    with open(os.path.join(HERE, "golden_table.csv"), encoding="utf-8") as fh:
        lines = fh.read().split()
    if lines[0] != "d,A,B,C":
        raise ValueError("golden_table.csv has an unexpected header")
    rows = {}
    for line in lines[1:]:
        d, a, b, c = (int(x) for x in line.split(","))
        rows[d] = (a, b, c)
    return rows


def _table_csv(lo: int, hi: int, stdout: str) -> bool:
    lines = stdout.splitlines()
    if not lines or lines[0] != "d,A,B,C" or len(lines) != hi - lo + 2:
        return False
    for d, line in zip(range(lo, hi + 1), lines[1:]):
        try:
            row = tuple(int(x) for x in line.split(","))
        except ValueError:
            return False
        if row != (d, *closed_forms(d)):
            return False
        golden = _golden_rows().get(d)
        if golden is not None and row[1:] != golden:
            return False
    return True


def table_par(rng, rounds: int, jobs: int) -> list[Invocation]:
    out = []
    for _ in range(rounds):
        for lo, hi in _windows(4, 64, TABLE_WIDTH, rng, min_width=2):
            args = (
                "table", "--from", str(lo), "--to", str(hi),
                "--jobs", str(jobs), "--format", "csv",
            )
            check = functools.partial(_table_csv, lo, hi)
            out.append(Invocation(args, hi - lo + 1, check, parallel=True))
    return out


# ------------------------------------------------------------------- calc

# Each expression family has a fixed shape; the seed picks coefficients.
# The shapes were sized so that evaluation costs about as much as the
# interpreter's startup, and each family's answer is known in advance.


def _coeff(rng) -> int:
    return rng.randint(2, 9)


def _power(base: str, k: int) -> str:
    return f"({base})" + (f"^{k}" if k > 1 else "")


def _binomial_identity(x: str, y: str, k: int) -> str:
    """(x + y)^k minus its binomial expansion: always 0."""
    terms = []
    for i in range(k + 1):
        factors = []
        if math.comb(k, i) != 1:
            factors.append(str(math.comb(k, i)))
        if i:
            factors.append(_power(x, i))
        if k - i:
            factors.append(_power(y, k - i))
        terms.append("*".join(factors))
    return f"({x} + {y})^{k} - ({' + '.join(terms)})"


def _c_form(rng, d_term: bool) -> str:
    """A seeded linear form in c-monomials, optionally with d in it."""
    mid = "d*c2" if d_term else "c2"
    return (
        f"{_coeff(rng)}*c1 + {_coeff(rng)}*{mid} + {_coeff(rng)}*c3"
        f" + {_coeff(rng)}*c1*c2"
    )


def _ring(rng, n):
    x = f"{_coeff(rng)}*c1 + {_coeff(rng)}*d*h"
    y = f"{_coeff(rng)}*c2 + {_coeff(rng)}*h"
    return _binomial_identity(x, y, 8 if n is None else 10)


def _euler(rng, n):
    """push(euler_twist(d - 1)) = -d(d-1)^2 c1, times a seeded factor."""
    if n is None:
        z = _c_form(rng, d_term=True)
        return (
            f"push(euler_twist(d - 1))*{_power(z, 9)}"
            f" + d*(d - 1)^2*c1*{_power(z, 9)}"
        )
    z = _c_form(rng, d_term=True) + f" + {_coeff(rng)}*c1*c3"
    return (
        f"push(euler_twist(d - 1))*{_power(z, 10)}"
        f" + {n * (n - 1) ** 2}*c1*{_power(z, 10)}"
    )


_H_POWERS = ("", "h*", "h^2*")


def _smooth_relation(rng, n, y):
    z = _c_form(rng, d_term=False)
    return f"nf({_power(z, 9)}*push({_H_POWERS[y]}euler_twist(d - 1)), smooth, {n})"


def _nodal_relation(rng, n, y):
    z = _c_form(rng, d_term=False)
    return (
        f"nf({_power(z, 7)}*push({_H_POWERS[y]}nodal_divisor()"
        f"*euler_twist(d - 1)), nodal, {n})"
    )


def _c1_power(rng, n):
    z = _c_form(rng, d_term=False)
    return f"nf(c1^{rng.randint(4, 10)}*{_power(z, 7)}, nodal, {n})"


# One round: 61 generic expressions and one at each N in 4..64.
GENERIC_MIX = ["ring"] * 30 + ["euler"] * 31
AT_N_MIX = (
    ["ring"] * 12 + ["euler"] * 12 + ["smooth"] * 12 + ["nodal"] * 13
    + ["c1pow"] * 12
)
CALC_DEGREES = range(4, 65)


def _expression(rng, family: str, n: int | None, index: int) -> str:
    if family == "ring":
        return _ring(rng, n)
    if family == "euler":
        return _euler(rng, n)
    if family == "smooth":
        return _smooth_relation(rng, n, index % 3)
    if family == "nodal":
        return _nodal_relation(rng, n, index % 3)
    return _c1_power(rng, n)


def _expect_zero(stdout: str) -> bool:
    return stdout == "0\n"


def calc(rng, rounds: int) -> list[Invocation]:
    out = []
    for _ in range(rounds):
        degrees = [None] * len(GENERIC_MIX) + list(CALC_DEGREES)
        families = GENERIC_MIX + rng.sample(AT_N_MIX, len(AT_N_MIX))
        seen: dict[str, int] = {}
        calls = []
        for n, family in zip(degrees, families):
            index = seen[family] = seen.get(family, -1) + 1
            expr = _expression(rng, family, n, index)
            exponents = [int(e) for e in re.findall(r"\^(\d+)", expr)]
            if max(exponents, default=0) > MAX_EXPONENT:
                raise ValueError(f"exponent above {MAX_EXPONENT}: {expr}")
            args = ("eval", expr) if n is None else ("eval", expr, "--d", str(n))
            calls.append(Invocation(args, 1, _expect_zero))
        rng.shuffle(calls)
        out.extend(calls)
    return out
