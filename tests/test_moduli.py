"""Relation ideals, presentations, and tautological classes."""

from fractions import Fraction

import pytest

from planechow.groebner import normal_form
from planechow.moduli import (
    claim_values,
    coherence_check,
    delta_pullback,
    genus,
    hodge_product,
    hodge_table,
    ideal,
    jet_compositions,
    lambda_classes,
    lambda3_coefficient,
    nodal_presentation,
    nodal_relation,
    passes,
    reference_closed_forms,
    relations,
    smooth_presentation,
    smooth_relation,
    syzygy_holds,
)
from planechow.mpoly import C1, C2, C3, MPoly, monomial_weight
from planechow.scalars import D, UniPoly
from reference import buchberger, closed_forms_report, interpolated_closed_forms


def test_genus():
    assert [genus(d) for d in (1, 2, 3, 4, 5)] == [0, 0, 1, 3, 6]


def test_generic_smooth_relations():
    d = D
    r0, r1, r2 = relations("smooth", D)
    assert r0 == C1.scale(-d * (d - 1) ** 2)
    assert r1 == C2.scale(-d * (d - 1) * (d - 2)) + (C1**2).scale(
        d * (d - 1) ** 2
    )
    assert r2 == (
        C3.scale(-d * (d * d - 3 * d + 3))
        + (C1 * C2).scale(d * (d - 1) * (2 * d - 3))
        - (C1**3).scale(d * (d - 1) ** 2)
    )


def test_generic_nodal_relations():
    d = D
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


def test_specific_relations():
    assert smooth_relation(2, 3) == (
        C3.scale(-9) + (C1 * C2).scale(18) - (C1**3).scale(12)
    )
    assert nodal_relation(2, 5) == (
        (C1 * C3).scale(710)
        + (C1**4).scale(480)
        + (C2**2).scale(240)
        - (C1**2 * C2).scale(1160)
    )
    assert smooth_relation(0, 1).is_zero
    assert nodal_relation(0, 3).specialize(3) == (C1**2).scale(24)


def test_specialization_coheres_with_direct_computation():
    for d in range(1, 31):
        assert coherence_check(d)


def test_syzygy_generic_and_specific():
    assert syzygy_holds(D)
    for d in (1, 2, 3, 4, 9, 20):
        assert syzygy_holds(d)


def test_syzygy_correction_term_vanishes_at_two():
    # at d = 2 the correction 2 d^2 (d-2)^2 c1 c3 is zero and the relation
    # ideal is generated by the first two images alone
    lhs = nodal_relation(2, 2) + C1 * nodal_relation(1, 2) + C2 * nodal_relation(0, 2)
    assert lhs.is_zero


def test_smooth_ideals_by_degree():
    assert ideal("smooth", 1) == [C3.scale(-1)]
    assert ideal("smooth", 2) == [
        C1.scale(-2),
        (C1**2).scale(2),
        C3.scale(-2) + (C1 * C2).scale(2) - (C1**3).scale(2),
    ]
    assert len(ideal("smooth", 3)) == 3


def test_nodal_ideals_by_degree():
    assert ideal("nodal", 1) == [C3.scale(4), (C1 * C3).scale(-2)]
    assert ideal("nodal", 2) == [
        C3.scale(4) - (C1 * C2).scale(4),
        (C1 * C3).scale(-4) + (C1**2 * C2).scale(4),
    ]
    assert ideal("nodal", 3) == [
        (C1**2).scale(24),
        (C1 * C2).scale(12) - (C1**3).scale(24),
        (C1 * C3).scale(18) + (C1**4).scale(24) - (C1**2 * C2).scale(36),
    ]


def test_presentations_small_degrees():
    for d, dims in (
        (1, [1, 1, 2, 2, 3, 3, 4, 4, 5]),
        (2, [1, 0, 1, 0, 1, 0, 1, 0, 1]),
        (3, [1, 0, 0, 0, 0, 0, 0, 0, 0]),
    ):
        report = smooth_presentation(d)
        assert report["pass"], report
        assert report["graded_dims"] == dims
    for d, dims in (
        (1, [1, 1, 2, 2, 3, 3, 4, 4, 5]),
        (2, [1, 1, 2, 2, 3, 3, 4, 4, 5]),
        (3, [1, 1, 1, 1, 1, 1, 2, 1, 2]),
        (4, [1, 1, 1, 1, 0, 0, 0, 0, 0]),
    ):
        report = nodal_presentation(d)
        assert report["pass"], report
        assert report["graded_dims"] == dims


def test_presentations_larger_degrees():
    for d in (5, 8, 13, 21, 30):
        assert smooth_presentation(d)["pass"]
        assert nodal_presentation(d)["pass"]


def test_delta_pullback():
    assert delta_pullback(D) == C1.scale(-D * (D - 1) ** 2)
    assert delta_pullback(1).is_zero
    assert delta_pullback(6) == C1.scale(-150)


def test_jet_compositions():
    assert jet_compositions(2) == []
    assert jet_compositions(3) == [(1, 1, 1)]
    assert jet_compositions(4) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    # positive compositions of d into three parts number (d-1)(d-2)/2,
    # the genus; one Chern root per interior lattice point
    assert len(jet_compositions(10)) == genus(10) == 36
    assert all(sum(c) == 10 and min(c) >= 1 for c in jet_compositions(10))


def test_hodge_product_small_degrees():
    assert hodge_product(1) == MPoly.const(1)
    assert hodge_product(2) == MPoly.const(1)
    p3 = hodge_product(3)
    assert p3.graded_part(0) == MPoly.const(1)
    assert p3.graded_part(1) == -C1
    assert p3.graded_part(2).is_zero
    assert all(monomial_weight(e) <= 3 for e in p3.terms)


def test_lambda_classes_degree_three():
    rep = lambda_classes(3)
    ok = claim_values(rep, tautological=True)
    assert rep.lambda1 == C1.scale(-1)
    assert rep.lambda2.is_zero and rep.lambda3.is_zero
    assert rep.reduced(2) is None and rep.abc is None
    assert ok["mumford_ok"] is None
    assert passes(ok)


def test_lambda_classes_degree_four():
    rep = lambda_classes(4)
    assert rep.lambda1 == C1.scale(-4)
    assert rep.lambda2 == (C1**2).scale(5) + C2
    assert rep.lambda3 == -(
        (C1**3).scale(2) + C1 * C2 + C3
    )
    assert str(rep.reduced(2)) == "8*c1^2"
    assert str(rep.reduced(3)) == "-80/7*c1^3"
    assert rep.abc == (-2, -16, -7)
    assert passes(claim_values(rep, tautological=True))


def test_lambda_reduction_routes_agree():
    # the engine's ratio of normal forms and a direct normal form of the
    # difference, in a basis built here, must both give the closed form
    for d in (4, 5, 6, 11, 17):
        rep = lambda_classes(d)
        ok = claim_values(rep, tautological=True)
        gb = buchberger(ideal("nodal", d))
        q3 = lambda3_coefficient(d)
        assert rep.reduced(3) == (C1**3).scale(q3)
        assert normal_form(rep.lambda3 - (C1**3).scale(q3), gb).is_zero
        assert ok["lambda3_ok"] and ok["lambda2_ok"]


def test_lambda3_coefficient_value():
    assert lambda3_coefficient(4) == Fraction(-80, 7)
    with pytest.raises(ValueError):
        lambda3_coefficient(3)


def test_mumford_relation():
    for d in (4, 5, 9, 16):
        ok = claim_values(lambda_classes(d), tautological=True)
        assert ok["mumford_ok"] is True
    # below d = 4 lambda2 vanishes outright and no Mumford check is made
    assert claim_values(lambda_classes(3), tautological=True)["mumford_ok"] is None


def test_hodge_table_frozen_rows():
    assert hodge_table(4, 6) == [
        (4, -2, -16, -7),
        (5, -82, -592, -277),
        (6, -882, -6012, -2877),
    ]
    assert hodge_table(13, 13) == [(13, -3657654, -22540804, -11170159)]
    assert hodge_table(20, 20) == [(20, -240791978, -1461127968, -727822683)]
    with pytest.raises(ValueError):
        hodge_table(3, 5)


def test_closed_forms_match_interpolation():
    interp = interpolated_closed_forms()
    ref = reference_closed_forms()
    assert interp == ref
    assert [p.degree for p in interp] == [9, 9, 9]
    report = closed_forms_report()
    assert report["pass"]
    assert report["matches_reference"] and report["extrapolation_ok"]


def test_closed_forms_sample_values():
    a, b, c = reference_closed_forms()
    assert a.evaluate(4) == -2 and a.evaluate(5) == -82
    assert b.evaluate(4) == -16
    assert c.evaluate(6) == -2877
    # below the nodal range all three columns vanish
    for d in (1, 2, 3):
        assert a.evaluate(d) == b.evaluate(d) == c.evaluate(d) == 0


def test_degree_validation():
    for bad in (0, -1, "4"):
        with pytest.raises(ValueError):
            ideal("smooth", bad)
        with pytest.raises(ValueError):
            lambda_classes(bad)
