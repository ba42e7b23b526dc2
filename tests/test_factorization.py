"""Factors, factorizations, Hurwitz moves, and complex conjugation."""

import pytest

from braidforge.braid import Braid, artin_gen, delta_squared
from braidforge.factorization import (Factor, Factorization,
                                      conj_factorization, frame_factorization,
                                      hurwitz_move)
from conftest import random_braid


def test_tag_exponent_contract():
    with pytest.raises(ValueError):
        Factor(artin_gen(3, 1), 3, "node")
    with pytest.raises(ValueError):
        Factor(artin_gen(3, 1), 1, "mystery")
    f = Factor(artin_gen(3, 1), 2, "node")
    assert f.degree == 2 and f.braid() == artin_gen(3, 1) ** 2


def test_half_twist_invariant(rng):
    g = random_braid(rng, 4)
    f = Factor(artin_gen(4, 2), 2, "node").conjugate(g)
    assert f.is_half_twist()
    bad = Factor(artin_gen(4, 1) * artin_gen(4, 3), 1, "composite")
    assert not bad.is_half_twist()


def test_frame_factorization_products():
    for n in (2, 3, 5):
        fz = frame_factorization(n)
        assert fz.degree == n * (n - 1)
        assert fz.product() == delta_squared(n)


def _random_full_twist_factorization(rng, n, moves=30):
    fz = frame_factorization(n)
    for _ in range(moves):
        i = rng.randint(1, len(fz) - 1)
        fz = hurwitz_move(fz, i, rng.choice(["left", "right"]))
    return fz


def test_hurwitz_moves_preserve_product(rng):
    for n in (3, 4, 6):
        fz = _random_full_twist_factorization(rng, n)
        assert fz.product() == delta_squared(n)


def test_hurwitz_moves_invert(rng):
    fz = _random_full_twist_factorization(rng, 4, moves=5)
    for i in range(1, len(fz)):
        back = hurwitz_move(hurwitz_move(fz, i, "right"), i, "left")
        assert all(a == b and a.transport == b.transport
                   for a, b in zip(back, fz))


def test_conjugate_preserves_identity(rng):
    g = random_braid(rng, 4)
    fz = frame_factorization(4).conjugate(g)
    assert fz.product() == delta_squared(4)  # the full twist is central


def test_serialization_round_trip(rng):
    fz = _random_full_twist_factorization(rng, 4, moves=10)
    back = Factorization.loads(fz.dumps())
    assert back == fz
    assert all(a.transport == b.transport and a.label == b.label
               for a, b in zip(back, fz))


@pytest.mark.parametrize("name", ["phi8_fz", "regen_fz"])
def test_certificate_round_trip(request, name):
    fz = request.getfixturevalue(name)
    text = fz.dumps()
    back = Factorization.loads(text)
    assert back.dumps() == text
    assert back.strands == fz.strands and len(back) == len(fz)
    for a, b in zip(back, fz):
        assert a.twist == b.twist and a.transport == b.transport
        assert (a.exponent, a.tag, a.label) == (b.exponent, b.tag, b.label)


def test_conj_factorization_preserves_full_twist(rng):
    for n in (2, 3, 5, 8):
        fz = _random_full_twist_factorization(rng, n, moves=15)
        cf = conj_factorization(fz)
        assert cf.product() == delta_squared(n)
        assert sorted(f.degree for f in cf) == sorted(f.degree for f in fz)


def test_conj_factorization_is_an_involution(rng):
    fz = _random_full_twist_factorization(rng, 4, moves=10)
    assert conj_factorization(conj_factorization(fz)) == fz


def test_concatenation():
    a, b = frame_factorization(3), frame_factorization(3)
    assert (a + b).product() == delta_squared(3) ** 2
    with pytest.raises(ValueError):
        a + frame_factorization(4)


@pytest.mark.parametrize("field", ["twist", "transport", "tag", "label"])
def test_from_json_names_a_field_that_is_no_string(field):
    obj = {"twist": "s1", "exp": 1, "tag": "branch", field: 7}
    with pytest.raises(ValueError, match=f"^{field} must be a string, got 7$"):
        Factor.from_json(3, obj)
