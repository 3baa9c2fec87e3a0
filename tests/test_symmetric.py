"""Hodge classes by torus evaluation, against the Chern-root reference."""

import random

import pytest

from conftest import random_symmetric
from planechow.moduli import hodge_product
from planechow.mpoly import C1, C2, C3, H, MPoly, monomial_weight
from planechow.scalars import D
from planechow.symmetric import chern_roots_product, decompose_weight3
from reference import (
    E1,
    E2,
    E3,
    T1,
    T2,
    T3,
    hodge_reference,
    is_symmetric,
    roots_product,
    sym_to_chern,
    weight3_basis,
)


def test_is_symmetric():
    assert is_symmetric(T1 + T2 + T3)
    assert is_symmetric(T1 * T2 * T3)
    assert is_symmetric(MPoly.zero())
    assert is_symmetric(MPoly.const(4))
    assert not is_symmetric(T1 - T2)
    assert not is_symmetric(T1**2 * T2)


def test_is_symmetric_rejects_other_variables():
    with pytest.raises(ValueError):
        is_symmetric(H + T1)


def test_elementary_images():
    assert sym_to_chern(E1) == C1
    assert sym_to_chern(E2) == C2
    assert sym_to_chern(E3) == C3


def test_power_sum_and_friends():
    assert sym_to_chern(T1**3 + T2**3 + T3**3) == C1**3 - 3 * C1 * C2 + 3 * C3
    assert sym_to_chern(T1 * T2 * T3) == C3
    m21 = (
        T1**2 * T2 + T1**2 * T3 + T2**2 * T1
        + T2**2 * T3 + T3**2 * T1 + T3**2 * T2
    )
    assert sym_to_chern(m21) == C1 * C2 - 3 * C3
    assert sym_to_chern(T1**2 + T2**2 + T3**2) == C1**2 - 2 * C2


def test_sym_to_chern_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        sym_to_chern(T1)


def test_sym_to_chern_round_trip():
    rng = random.Random(3)
    for _ in range(60):
        p = random_symmetric(rng)
        image = sym_to_chern(p)
        assert image.uses_only(("c1", "c2", "c3"))
        back = image.substitute(
            {"c1": E1, "c2": E2, "c3": E3}
        )
        assert back == p


def test_sym_to_chern_generic_coefficients():
    p = (T1 * T2 * T3).scale(D) - (T1 + T2 + T3).scale(2 * D - 6)
    assert sym_to_chern(p) == C3.scale(D) - C1.scale(2 * D - 6)


def test_weight3_decomposition_reconstructs():
    m3, m111, m21 = (sym_to_chern(m) for m in weight3_basis())
    p = m3.scale(-2) + m111.scale(-16) + m21.scale(-7)
    assert p == -((C1**3).scale(2) + C1 * C2 + C3)
    assert decompose_weight3(p) == (-2, -16, -7)


def test_weight3_decomposition_of_zero():
    assert decompose_weight3(MPoly.zero()) == (0, 0, 0)


def test_weight3_decomposition_rejects_wrong_weight():
    with pytest.raises(ValueError):
        decompose_weight3(C1 + C2)
    with pytest.raises(ValueError):
        decompose_weight3(C1**3 + H)


def test_weight3_decomposition_random_round_trip():
    rng = random.Random(29)
    m3, m111, m21 = (sym_to_chern(m) for m in weight3_basis())
    for _ in range(50):
        a, b, c = (rng.randint(-20, 20) for _ in range(3))
        p = m3.scale(a) + m111.scale(b) + m21.scale(c)
        assert decompose_weight3(p) == (a, b, c)


def test_roots_product_empty_is_one():
    assert chern_roots_product([]) == MPoly.const(1)
    assert roots_product([]) == MPoly.const(1)


def test_roots_product_single_factor():
    assert chern_roots_product([(1, 1, 1)]) == MPoly.const(1) - C1
    assert chern_roots_product([(0, 0, 0)]) == MPoly.const(1)
    # roots -t1, -t2, -t3: the total Chern class of the dual bundle
    forms = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert chern_roots_product(forms) == MPoly.const(1) - C1 + C2 - C3


def test_roots_product_truncates():
    # the reference route drops every root monomial above the weight cap
    rng = random.Random(31)
    for _ in range(20):
        forms = [
            tuple(rng.randint(-3, 3) for _ in range(3))
            for _ in range(rng.randint(0, 5))
        ]
        full = MPoly.const(1)
        for x, y, z in forms:
            full = full * (
                MPoly.const(1) - T1.scale(x) - T2.scale(y) - T3.scale(z)
            )
        cap = rng.randint(0, 4)
        expected = MPoly(
            {e: c for e, c in full.terms.items() if monomial_weight(e) <= cap}
        )
        assert roots_product(forms, cap) == expected


def test_roots_product_matches_reference_on_symmetric_forms():
    rng = random.Random(37)
    for _ in range(30):
        base = tuple(rng.randint(-4, 4) for _ in range(3))
        x, y, z = base
        orbit = [(x, y, z), (y, z, x), (z, x, y), (y, x, z), (x, z, y), (z, y, x)]
        product = roots_product(orbit)
        expected = sum(
            (sym_to_chern(product.graded_part(k)) for k in (0, 1, 2, 3)),
            MPoly.zero(),
        )
        assert chern_roots_product(orbit) == expected


def test_roots_product_rejects_asymmetric_forms():
    for forms in (
        [(1, 2, 3)],
        [(1, 1, 2), (1, 2, 1)],
        # closed under swapping t1, t2 but not under the 3-cycle
        [(1, 1, 2), (2, 2, 1)],
        # the right set of forms, one of them twice
        [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 1)],
    ):
        with pytest.raises(ValueError):
            chern_roots_product(forms)


@pytest.mark.parametrize("d", [*range(1, 31), 40])
def test_hodge_classes_match_root_reference(d):
    lam1, lam2, lam3, abc = hodge_reference(d)
    hodge = hodge_product(d)
    assert hodge.graded_part(0) == MPoly.const(1)
    assert hodge.max_weight() <= 3
    engine = tuple(hodge.graded_part(k) for k in (1, 2, 3))
    assert engine == (lam1, lam2, lam3)
    for lam in engine:
        assert all(type(c) is int for c in lam.terms.values())
    engine_abc = decompose_weight3(engine[2])
    assert engine_abc == abc
    assert all(type(c) is int for c in engine_abc)
