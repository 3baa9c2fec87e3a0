"""Acceptance gate.

Each test is one criterion, checked in exact rational arithmetic (zero
tolerance) under a wall-clock budget, and prints a single pass/fail line
even when pytest captures output.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from planechow.calc import ParseError, parse, render
from planechow.chow import reduce_class
from planechow.cli import _table_csv, table_row
from planechow.groebner import normal_form
from planechow.moduli import (
    groebner_basis,
    ideal,
    lambda3_coefficient,
    nodal_presentation,
    reference_closed_forms,
    relations,
    smooth_presentation,
    syzygy_holds,
)
from planechow.mpoly import C1, C2, C3, MPoly
from planechow.scalars import D

from conftest import (
    random_ast,
    random_homogeneous_c,
    random_mpoly,
    random_symmetric,
)
from reference import (
    chern_to_roots,
    closed_forms_report,
    interpolated_closed_forms,
    sym_to_chern,
)


@contextmanager
def criterion(capsys, number: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} [{label}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    with capsys.disabled():
        verdict = "pass" if ok else "FAIL (over budget)"
        print(
            f"criterion {number} [{label}]: {verdict} "
            f"({elapsed:.2f}s, budget {budget:.0f}s)"
        )
    assert ok, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_generic_relations(capsys):
    with criterion(capsys, 1, "generic relation identities", 1.0):
        d = D
        r0, r1, r2 = relations("smooth", D)
        assert r0 == C1.scale(-d * (d - 1) ** 2)
        assert r1 == (
            C2.scale(-d * (d - 1) * (d - 2)) + (C1**2).scale(d * (d - 1) ** 2)
        )
        assert r2 == (
            C3.scale(-d * (d * d - 3 * d + 3))
            + (C1 * C2).scale(d * (d - 1) * (2 * d - 3))
            - (C1**3).scale(d * (d - 1) ** 2)
        )
        n0, n1, n2 = relations("nodal", D)
        assert n0 == (
            C2.scale(-2 * d * (d - 1) * (d - 2) * (d - 3))
            + (C1**2).scale(2 * d * (d - 1) ** 2 * (d - 2))
        )
        assert n1 == (
            C3.scale(-2 * d * (d - 3) * (d * d - 3 * d + 3))
            + (C1 * C2).scale(2 * d * (d - 1) * (2 * d * d - 8 * d + 7))
            - (C1**3).scale(2 * d * (d - 1) ** 2 * (d - 2))
        )
        assert n2 == (
            (C1 * C3).scale(2 * d * (2 * d**3 - 10 * d**2 + 16 * d - 9))
            + (C1**4).scale(2 * d * (d - 1) ** 2 * (d - 2))
            + (C2**2).scale(2 * d * (d - 1) * (d - 2) * (d - 3))
            - (C1**2 * C2).scale(2 * d * (d - 1) * (3 * d * d - 11 * d + 9))
        )


def test_criterion_2_generic_syzygy(capsys):
    with criterion(capsys, 2, "generic syzygy", 1.0):
        assert syzygy_holds(D)


def test_criterion_3_smooth_presentations(capsys):
    with criterion(capsys, 3, "smooth presentations d=1..30", 5.0):
        for d in range(1, 31):
            report = smooth_presentation(d)
            assert report["pass"], report
            if d == 1:
                expected = [1, 1, 2, 2, 3, 3, 4, 4, 5]
            elif d == 2:
                expected = [1, 0, 1, 0, 1, 0, 1, 0, 1]
            else:
                expected = [1, 0, 0, 0, 0, 0, 0, 0, 0]
            assert report["graded_dims"] == expected, report


def test_criterion_4_nodal_presentations(capsys):
    with criterion(capsys, 4, "nodal presentations d=1..30", 10.0):
        for d in range(1, 31):
            report = nodal_presentation(d)
            assert report["pass"], report
            if d in (1, 2):
                expected = [1, 1, 2, 2, 3, 3, 4, 4, 5]
            elif d == 3:
                expected = [1, 1, 1, 1, 1, 1, 2, 1, 2]
            else:
                expected = [1, 1, 1, 1, 0, 0, 0, 0, 0]
            assert report["graded_dims"] == expected, report
            if d >= 4:
                gb = groebner_basis("nodal", d)
                assert normal_form(C1**4, gb).is_zero
                assert not normal_form(C1**3, gb).is_zero


def test_criterion_5_coefficient_table(capsys):
    golden = (
        "d,A,B,C\n"
        "4,-2,-16,-7\n"
        "5,-82,-592,-277\n"
        "6,-882,-6012,-2877\n"
        "7,-5432,-35777,-17332\n"
        "8,-24052,-154952,-75642\n"
        "9,-85204,-540708,-265314\n"
        "10,-256564,-1610784,-793254\n"
        "11,-682264,-4249674,-2098404\n"
        "12,-1644214,-10180104,-5036889\n"
        "13,-3657654,-22540804,-11170159\n"
        "14,-7613606,-46746700,-23194171\n"
        "15,-14983696,-91724451,-45556056\n"
        "16,-28105896,-171634736,-85313956\n"
        "17,-50573096,-308212856,-153305796\n"
        "18,-87750056,-533881056,-265703676\n"
        "19,-147448208,-895809492,-446042328\n"
        "20,-240791978,-1461127968,-727822683\n"
    )
    with criterion(capsys, 5, "coefficient table d=4..20", 5.0):
        rows = [table_row(d) for d in range(4, 21)]
        assert _table_csv(rows) == golden


def test_criterion_6_closed_forms(capsys):
    with criterion(capsys, 6, "closed-form interpolation", 5.0):
        interp = interpolated_closed_forms()
        assert all(p.degree <= 9 for p in interp)
        assert interp == reference_closed_forms()
        report = closed_forms_report()
        assert report["pass"], report
        assert report["extrapolation_ok"]


def test_criterion_7_tautological_pullbacks(capsys):
    from planechow.moduli import claim_values, lambda_classes

    with criterion(capsys, 7, "tautological pullbacks d=4..20", 10.0):
        for d in range(4, 21):
            rep = lambda_classes(d)
            ok = claim_values(rep, tautological=True)
            assert rep.lambda1 == C1.scale(-math.comb(d, 3))
            assert rep.delta == C1.scale(-d * (d - 1) ** 2)
            assert ok["delta_ok"] and ok["lambda1_ok"]
            assert ok["lambda2_ok"], d
            assert ok["lambda3_ok"], d
            assert ok["mumford_ok"], d
            assert rep.reduced(2) == (C1**2).scale(
                Fraction(math.comb(d, 3) ** 2, 2)
            )
            assert rep.reduced(3) == (C1**3).scale(lambda3_coefficient(d))
            if d == 4:
                assert str(rep.reduced(3)) == "-80/7*c1^3"


def _suite_ring_axioms(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        a = random_mpoly(rng)
        b = random_mpoly(rng)
        c = random_mpoly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * MPoly.const(1) == a
        assert (a - a).is_zero
    return cases


def _suite_symmetric_round_trip(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        s = random_symmetric(rng)
        assert chern_to_roots(sym_to_chern(s)) == s
    return cases


def _suite_reduce_laws(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        p = random_mpoly(rng, max_exp=3)
        q = random_mpoly(rng, max_exp=3)
        assert reduce_class(reduce_class(p)) == reduce_class(p)
        assert reduce_class(p + q) == reduce_class(p) + reduce_class(q)
        assert reduce_class(p * q) == reduce_class(
            reduce_class(p) * reduce_class(q)
        )
    return cases


def _suite_normal_form_soundness(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        d = rng.randint(1, 9)
        locus = "smooth" if rng.random() < 0.5 else "nodal"
        gens, gb = ideal(locus, d), groebner_basis(locus, d)
        member = MPoly.zero()
        for g in gens:
            member = member + random_homogeneous_c(rng, rng.randint(0, 3)) * g
        assert normal_form(member, gb).is_zero
        p = random_homogeneous_c(rng, rng.randint(1, 6))
        nf = normal_form(p, gb)
        assert normal_form(nf, gb) == nf
        assert normal_form(p - nf, gb).is_zero
    return cases


def _suite_parser_round_trip(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        tree = random_ast(rng)
        assert parse(render(tree)) == tree
    return cases


def _suite_parser_crash_freedom(rng: random.Random, cases: int) -> int:
    fragments = (
        "c1", "c2", "c3", "h", "d", "push", "euler_twist", "nf", "K",
        "(", ")", "+", "-", "*", "^", ",", "/", "17", "0", "3/4", " ",
        "²", "µ", "_",
    )
    for i in range(cases):
        if i % 2 == 0:
            text = rng.randbytes(rng.randint(0, 40)).decode("latin-1")
        else:
            text = "".join(
                rng.choice(fragments) for _ in range(rng.randint(0, 16))
            )
        try:
            parse(text)
        except ParseError:
            pass
    return cases


def test_criterion_8_property_suites(capsys):
    suites = (
        ("ring axioms", _suite_ring_axioms),
        ("symmetric round-trip", _suite_symmetric_round_trip),
        ("reduction laws", _suite_reduce_laws),
        ("normal-form soundness", _suite_normal_form_soundness),
        ("parser round-trip", _suite_parser_round_trip),
        ("parser crash-freedom", _suite_parser_crash_freedom),
    )
    with criterion(capsys, 8, "property suites (6 x 500 cases)", 30.0):
        for seed, (_, suite) in enumerate(suites, start=1):
            ran = suite(random.Random(seed), 500)
            assert ran >= 500
