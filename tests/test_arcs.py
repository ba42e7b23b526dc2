"""Arcs in the punctured disk and their half-twists."""

from itertools import combinations

import pytest

from braidforge.arcs import (ABOVE, BELOW, PunctureConfig, _drag, arc_factor,
                             arc_twist, band_full_twist, composite_twist,
                             node_factors)
from braidforge.braid import Braid, artin_gen, block_half_twist, perm_of_word
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
    perm = perm_of_word(6, b.word)
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


def test_above_arc_with_a_flipped_puncture_is_pinned(cfg):
    # 2 and 4 passed above, 3 below: the drag is sigma_4^-1 sigma_3 sigma_2^-1
    f = arc_factor(cfg, "1", "5", 1, "branch", ABOVE, flipped=("3",))
    assert f.core.word == (1,)
    assert f.transport.word == (2, -3, 4)
    assert f.twist.word == (-4, 3, -2, 1, 2, -3, 4)


def test_drag_passes_each_puncture_by_its_own_label(cfg):
    # gathering 1, 3, 5: 3 passes 2 (flipped, so above), then 5 passes 4
    # below and 2 above again, though 2 now sits where 3 started
    assert _drag(cfg, (0, 2, 4), BELOW, {"2"}).word == (-2, 4, -3)
    assert _drag(cfg, (0, 2, 4), ABOVE).word == (-2, -4, -3)


def test_arc_endpoints_are_checked(cfg):
    with pytest.raises(ValueError):
        arc_twist(cfg, "2", "2")
    with pytest.raises(KeyError):
        arc_twist(cfg, "1", "9")


@pytest.mark.parametrize("build", [
    lambda cfg: arc_twist(cfg, "1", "3", "sideways"),
    lambda cfg: band_full_twist(cfg, ("1", "1'"), "3", "sideways"),
    lambda cfg: node_factors(cfg, ("1", "1'"), ("3", "3'"), "sideways")],
    ids=["arc_twist", "band_full_twist", "node_factors"])
def test_a_side_other_than_below_or_above_is_refused(build):
    cfg = PunctureConfig(["1", "1'", "2", "2'", "3", "3'"])
    with pytest.raises(ValueError, match="^bad side 'sideways'$"):
        build(cfg)


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


# ---------------------------------------------------------------------------
# composite and band twists


def _gap_drag_composite(cfg, labels):
    """The composite twist by the reference drag: the first gap inside the
    span is dragged out past its right end by positive crossings, until the
    members are contiguous."""
    n = cfg.n
    member = [False] * (n + 2)
    for lab in labels:
        member[cfg.position(lab) + 1] = True
    word = []
    while True:
        occupied = [i for i in range(1, n + 1) if member[i]]
        gaps = [q for q in range(occupied[0] + 1, occupied[-1]) if not member[q]]
        if not gaps:
            break
        q = gaps[0]
        while any(member[i] for i in range(q + 1, n + 1)):
            word.append(q)
            member[q], member[q + 1] = member[q + 1], member[q]
            q += 1
    block = block_half_twist(n, occupied[0], occupied[-1])
    return block.conjugate(Braid(n, word).inverse())


def test_composite_twist_matches_the_gap_drag():
    # gathering the members leftward below the intruders is the same braid
    # as pushing the intruders rightward past them
    sets = 0
    for n in range(3, 9):
        c = PunctureConfig(range(1, n + 1))
        for k in range(2, n + 1):
            for labels in combinations(c.punctures, k):
                assert (composite_twist(c, labels)
                        == _gap_drag_composite(c, labels)), labels
                sets += 1
    assert sets == 465


def test_composite_twist_refuses_a_repeated_puncture(cfg):
    with pytest.raises(ValueError, match="puncture '1' is named twice"):
        composite_twist(cfg, ["1", "1", "2"])


@pytest.fixture
def cfg6():
    return PunctureConfig(["1", "1'", "2", "2'", "3", "3'"])


BAND_ENDS = [("1", ("3", "3'")), (("1", "1'"), "3"), (("1", "1'"), "2'"),
             (("1", "1'"), ("3", "3'")), (("1", "1'"), ("2", "2'"))]


@pytest.mark.parametrize("side", [BELOW, ABOVE])
@pytest.mark.parametrize("ends", BAND_ENDS)
def test_band_twist_is_symmetric_in_its_ends(cfg6, ends, side):
    a, b = ends
    assert band_full_twist(cfg6, a, b, side) == band_full_twist(cfg6, b, a, side)


@pytest.mark.parametrize("ends", BAND_ENDS)
def test_mirror_swaps_band_sides(cfg6, ends):
    below = Factorization(6, [Factor(band_full_twist(cfg6, *ends), 1,
                                     "composite")])
    assert (conj_factorization(below)[0].twist
            == band_full_twist(cfg6, *ends, side=ABOVE))


def test_band_ends_are_checked(cfg6):
    with pytest.raises(ValueError, match="not a contiguous block"):
        band_full_twist(cfg6, ("1", "2"), "3")
    with pytest.raises(ValueError, match="band ends overlap"):
        band_full_twist(cfg6, ("1", "1'"), "1'")
