"""Arcs in the punctured disk and their half-twists."""

import pytest

from braidforge.arcs import ABOVE, BELOW, PunctureConfig, arc_twist
from braidforge.braid import Braid, artin_gen
from braidforge.factorization import Factor, Factorization, conj_factorization


@pytest.fixture
def cfg():
    return PunctureConfig(range(1, 7))


def test_adjacent_arc_is_artin_generator(cfg):
    for k in range(1, 6):
        assert arc_twist(cfg, str(k), str(k + 1)) == artin_gen(6, k)
        assert arc_twist(cfg, str(k), str(k + 1), side=ABOVE) == artin_gen(6, k)


def test_arc_is_a_half_twist(cfg):
    b = arc_twist(cfg, "1", "4", side=BELOW)
    assert b.degree == 1
    perm = b.permutation()
    assert b.moved_slots() == [0, 3] and perm[0] == 3 and perm[3] == 0


def test_sides_differ_but_agree_on_adjacent(cfg):
    below = arc_twist(cfg, "2", "5", side=BELOW)
    above = arc_twist(cfg, "2", "5", side=ABOVE)
    assert below != above
    assert below.degree == above.degree == 1


def test_arc_twist_is_the_dragged_generator(cfg):
    # T . sigma_1 . T^-1 with the drag T = sigma_3^e sigma_2^e, e = +1 below
    for side, e in ((BELOW, 1), (ABOVE, -1)):
        drag = Braid(6, [3 * e, 2 * e])
        assert (arc_twist(cfg, "1", "4", side=side).word
                == (drag * artin_gen(6, 1) * drag.inverse()).word)
    # the ends may come in either order
    assert arc_twist(cfg, "4", "1") == arc_twist(cfg, "1", "4")


def test_flipped_matches_mixed_crossings(cfg):
    # 2 below, 3 above: the drag is sigma_3^-1 sigma_2
    mixed = Braid(6, [-3, 2])
    want = mixed * artin_gen(6, 1) * mixed.inverse()
    assert arc_twist(cfg, "1", "4", side=BELOW, flipped=("3",)) == want
    assert arc_twist(cfg, "1", "4", side=ABOVE, flipped=("2",)) == want


def test_arc_endpoints_are_checked(cfg):
    with pytest.raises(ValueError):
        arc_twist(cfg, "2", "2")
    with pytest.raises(KeyError):
        arc_twist(cfg, "1", "9")


def test_mirror_swaps_sides(cfg):
    # complex conjugation of a one-factor factorization sends the arc below
    # to the arc above, and back
    below = Factorization(6, [Factor(arc_twist(cfg, "1", "4"), 1, "branch")])
    above = conj_factorization(below)
    assert above[0].twist == arc_twist(cfg, "1", "4", side=ABOVE)
    assert conj_factorization(above)[0].twist == below[0].twist


def test_doubled_labels_config():
    cfg = PunctureConfig(["1", "1'", "2", "2'"])
    assert cfg.n == 4
    assert cfg.position("1'") == 1
    assert cfg.label_at(2) == "2"
