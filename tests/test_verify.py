"""Certification toolkit: reports, full-twist checks, BFS, census, relations."""

import json

import pytest

from braidforge import verify
from braidforge.braid import Braid, artin_gen, block_full_twist, delta_squared
from braidforge.factorization import (Factor, Factorization,
                                      frame_factorization, hurwitz_move)
from braidforge.verify import (VerificationReport, artin_census,
                               check_full_twist, emit_relations,
                               hurwitz_equivalent)


def test_expect_names_the_wanted_value_and_what_came():
    rep = VerificationReport()
    rep.expect("total degree", 702, 702)
    rep.expect("vertex degree", 270, 268)
    rep.expect("per-vertex degree", 126, {1: 126, 2: 124, 3: 126})
    rep.expect("per-vertex degree", 126, {1: 126})
    assert rep.checks == [
        {"name": "total degree == 702", "status": "pass", "witness": ""},
        {"name": "vertex degree == 270", "status": "fail",
         "witness": "got 268"},
        {"name": "per-vertex degree == 126", "status": "fail",
         "witness": "off: {2: 124}"},
        {"name": "per-vertex degree == 126", "status": "pass", "witness": ""}]


def test_report_requires_witness_on_failure():
    rep = VerificationReport()
    rep.add("ok", True)
    with pytest.raises(ValueError):
        rep.add("broken", False)
    rep.add("broken", False, witness="details")
    assert not rep.passed
    lines = list(rep.lines())
    assert any("details" in l for l in lines)


def test_check_full_twist_passes_on_frame():
    assert check_full_twist(frame_factorization(5)).passed


def test_check_full_twist_fails_with_witness():
    fz = frame_factorization(4)
    broken = Factorization(4, fz.factors[1:])
    rep = check_full_twist(broken)
    assert not rep.passed
    witnesses = [c["witness"] for c in rep.checks if c["status"] == "fail"]
    assert any("deficit 1" in w for w in witnesses)


def test_a_degree_deficit_skips_the_product_check(monkeypatch):
    """The degree is a homomorphism, so a wrong degree decides the product
    check without building the full twist."""
    def no_full_twist(n):
        raise AssertionError(f"built the full twist of B_{n}")
    monkeypatch.setattr(verify, "delta_squared", no_full_twist)
    fz = Factorization.loads(json.dumps({"format": 2, "strands": 10 ** 6,
                                         "factors": [{"core": "s1", "exp": 1,
                                                      "tag": "branch"}]}))
    rep = check_full_twist(fz)
    assert not rep.passed
    assert [c["status"] for c in rep.checks] == ["fail", "skipped"]
    assert rep.checks[1]["witness"] == \
        f"not computed: degree 1 is not {10 ** 6 * (10 ** 6 - 1)}"


def test_hurwitz_equivalent_yes():
    fz = frame_factorization(3)
    moved = hurwitz_move(hurwitz_move(fz, 1, "right"), 3, "left")
    assert hurwitz_equivalent(fz, moved) == "yes"


def test_hurwitz_equivalent_no_for_different_products():
    a = Factorization(3, [Factor(artin_gen(3, 1), 1, "branch")])
    b = Factorization(3, [Factor(artin_gen(3, 2), 1, "branch")])
    assert hurwitz_equivalent(a, b) == "no"


def test_hurwitz_equivalent_no_by_orbit_exhaustion():
    # B_2 is abelian, so Hurwitz moves only permute the (distinct) factors
    s = artin_gen(2, 1)
    a = Factorization(2, [Factor(s, 1, "branch"), Factor(s, 1, "branch")])
    b = Factorization(2, [Factor(s ** 3, 1, "composite"),
                          Factor(s.inverse(), 1, "composite")])
    assert a.product() == b.product()
    assert hurwitz_equivalent(a, b) == "no"


def test_hurwitz_equivalent_inconclusive_on_tiny_budget():
    fz = frame_factorization(3)
    moved = hurwitz_move(hurwitz_move(fz, 1, "right"), 2, "right")
    assert hurwitz_equivalent(fz, moved, budget=1) == "inconclusive"


def test_artin_census(phi8_fz):
    census = artin_census(phi8_fz)
    assert census["by_exponent"][2] == 216        # parasitic nodes
    assert census["by_exponent"]["composite"] == 9  # vertex block twists
    assert census["by_tag"]["node"] == 216
    assert census["by_tag"]["composite"] == 9


def test_emit_relations_expands_composites(phi8_fz):
    rels = emit_relations(phi8_fz)
    # 216 parasitic nodes + 9 vertices x 30 frame letters
    assert len(rels) == 216 + 270
    kinds = {r["exponent"] for r in rels}
    assert kinds == {1, 2}
    assert all("=" in r["relation"] for r in rels)
    node = next(r for r in rels if r["exponent"] == 2)
    assert node["relation"].startswith("[") and node["relation"].endswith("= 1")


def test_emit_relations_rejects_non_half_twists():
    fz = Factorization(3, [Factor(artin_gen(3, 1) * artin_gen(3, 2), 1,
                                  "composite", label="junk")])
    with pytest.raises(ValueError):
        emit_relations(fz)
    # sigma_1^3 moves two slots, but it is no half-twist
    cube = Factorization(3, [Factor(artin_gen(3, 1) ** 3, 1, "branch")])
    with pytest.raises(ValueError, match=r"^factor 1 .* is not a half twist$"):
        emit_relations(cube)


def test_emit_relations_refuses_a_vertex_composite_squared():
    """Exponent 2 makes a degree-60 factor, not 30 frame letters."""
    fz = Factorization(7, [Factor(block_full_twist(7, 1, 6), 2, "composite",
                                  label="V1:Delta2<1,2,3,4,5,6>")])
    with pytest.raises(ValueError, match="a vertex factor has exponent 1, "
                       "got 2$"):
        emit_relations(fz)
