"""Certification toolkit: reports, full-twist checks, BFS, census, relations."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidforge import braid, verify
from braidforge.braid import (Braid, artin_gen, block_full_twist, cable,
                              delta_squared)
from braidforge.factorization import (Factor, Factorization,
                                      conj_factorization, frame_factorization,
                                      hurwitz_move)
from braidforge.regeneration import DoublingMap, regen_rule2, regenerate
from braidforge.verify import (VerificationReport, artin_census,
                               check_full_twist, check_refinement,
                               emit_relations, hurwitz_equivalent)
from conftest import splice_stage_a


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


def _no_full_twist(n):
    raise AssertionError(f"built the full twist of B_{n}")


def test_a_degree_deficit_skips_the_product_check(monkeypatch):
    """The degree is a homomorphism, so a wrong degree decides the product
    check without building the full twist."""
    monkeypatch.setattr(verify, "delta_squared", _no_full_twist)
    fz = Factorization.loads(json.dumps({"format": 2, "strands": 10 ** 6,
                                         "factors": [{"core": "s1", "exp": 1,
                                                      "tag": "branch"}]}))
    rep = check_full_twist(fz)
    assert not rep.passed
    assert [c["status"] for c in rep.checks] == ["fail", "skipped"]
    assert rep.checks[1]["witness"] == \
        f"not computed: degree 1 is not {10 ** 6 * (10 ** 6 - 1)}"


def test_a_full_twist_is_read_from_the_normal_form(monkeypatch):
    """A degree-correct product is decided from its own normal form, so no
    full twist is built, and a failure's witness is the residual
    Delta^-2.product's, read from that normal form too."""
    fz = frame_factorization(5)
    fs = list(fz.factors)
    # s2 s1 for s1 s2: the degree is kept, the product is not
    broken = Factorization(5, [fs[1], fs[0]] + fs[2:])
    resid = delta_squared(5).inverse() * broken.product()
    inf, facs = resid.normal_form()
    for module in (verify, braid):
        monkeypatch.setattr(module, "delta_squared", _no_full_twist)
    assert check_full_twist(fz).passed
    rep = check_full_twist(broken)
    assert [c["status"] for c in rep.checks] == ["pass", "fail"]
    assert rep.checks[1]["witness"] == (
        f"residual Delta^-2.product has degree {resid.degree}, "
        f"normal form inf {inf} with {len(facs)} factors")


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


# ---------------------------------------------------------------------------
# refinement: the 54-strand certificate against the 27-strand one


def _block_starts(parent, width=1):
    """The 1-based index of each parent factor's first child factor in its
    regeneration (a vertex composite regenerates to 30 frame letters, a
    parasitic factor to `width` factors: 1, or 4 in a Stage A splice), and
    that of the first closing pair twist."""
    starts, j = [], 1
    for f in parent.factors:
        starts.append(j)
        j += 30 if f.tag == "composite" else width
    return starts, j


def _commute(x, y) -> bool:
    return x * y == y * x


def _controls(parent, child, width=1) -> dict:
    """name -> (broken child, the start of the witness it must fail with):
    the parent factor's index and label and the first child factor of the
    bad block.  Each control also changes the product or the degree."""
    starts, tail = _block_starts(parent, width)
    kids = list(child.factors)
    pfs = parent.factors
    s1 = artin_gen(child.strands, 1)

    def edit(fn, i):
        """The child edited by fn, and the witness of parent factor i."""
        out = list(kids)
        fn(out)
        first = starts[i - 1]
        return Factorization(child.strands, out), (
            f"parent factor {i} {pfs[i - 1].label!r}, block from child "
            f"factor {first} {out[first - 1].label!r}")

    out = {}
    # one frame letter of the first vertex block squared
    v = next(i for i, f in enumerate(pfs, 1) if f.tag == "composite")
    j = starts[v - 1] + 4
    f = kids[j - 1]
    out["exponent"] = edit(lambda o: o.__setitem__(
        j - 1, Factor(f.core, 2, "node", f.transport, f.label)), v)
    # the first block factor that sigma_1 moves, conjugated by it (a cabled
    # parasitic factor is pure, so it commutes with sigma_1: a frame letter)
    c, j = next((i, j) for i, f in enumerate(pfs, 1) if f.tag == "composite"
                for j in range(starts[i - 1], starts[i - 1] + 30)
                if not _commute(kids[j - 1].braid(), s1))
    out["conjugated"] = edit(lambda o: o.__setitem__(
        j - 1, kids[j - 1].conjugate(s1)), c)
    # two adjacent parasitic blocks whose parent factors do not commute,
    # swapped (cable is injective, so neither do the blocks' products)
    w = next(i for i in range(1, len(pfs))
             if pfs[i - 1].tag != "composite" and pfs[i].tag != "composite"
             and not _commute(pfs[i - 1].braid(), pfs[i].braid()))
    a, b = starts[w - 1] - 1, starts[w] - 1

    def swap(o):
        o[a:b + width] = o[b:b + width] + o[a:b]
    out["swapped"] = edit(swap, w)
    # the last closing pair twist dropped
    last = len(pfs)
    out["pair twist"] = (Factorization(child.strands, kids[:-1]),
                         f"closing tail after parent factor {last} "
                         f"{pfs[-1].label!r}, from child factor {tail} "
                         f"{kids[tail - 1].label!r}")
    # the last frame letter of a vertex block deleted, and its label given
    # to the factor after it, so the labels still show 30 frame letters
    end = starts[v - 1] + 29

    def mislabel(o):
        g = o.pop(end - 1)
        h = o[end - 1]
        o[end - 1] = Factor(h.core, h.exponent, h.tag, h.transport, g.label)
    out["labels"] = edit(mislabel, v)
    return out


def _witness(rep) -> str:
    (product,) = [c for c in rep.checks if c["name"] == "product == Delta^2"]
    return product["witness"]


def test_refinement_passes_on_the_regeneration(phi8_fz, regen_fz):
    rep = check_refinement(phi8_fz, regen_fz)
    assert list(rep.lines()) == ["[pass   ] degree == n(n-1)",
                                 "[pass   ] product == Delta^2"]
    assert rep.totals == {"degree": 2862}


@pytest.mark.parametrize("name, reason", [
    ("exponent", "its product with cable(t) removed is not cable(core^1)"),
    ("conjugated", "its product with cable(t) removed is not cable(core^1)"),
    ("swapped", "its product with cable(t) removed is not cable(core^2)"),
    ("pair twist", "cable(Delta^2_27) times its product is not Delta^2_54"),
    ("labels", "its 30 factors have degree 124, cable(core^1) has 120")])
def test_refinement_names_the_bad_block(phi8_fz, regen_fz, name, reason):
    broken, where = _controls(phi8_fz, regen_fz)[name]
    rep = check_refinement(phi8_fz, broken)
    assert not rep.passed
    witness = _witness(rep)
    assert witness.startswith(where + ": "), witness
    assert reason in witness
    assert not check_full_twist(broken).passed


def test_the_conjugated_control_names_the_moved_transport(phi8_fz, regen_fz):
    """The moved transport u no longer ends with c = cable(t); read as
    (u . c^-1) . c, its factor breaks its block's one rule, and the witness
    names the block that holds it."""
    broken, where = _controls(phi8_fz, regen_fz)["conjugated"]
    (j, f), = [(j, f) for j, (f, g) in
               enumerate(zip(broken.factors, regen_fz.factors), 1)
               if f.transport.word != g.transport.word]
    starts, _ = _block_starts(phi8_fz)
    first = max(s for s in starts if s <= j)
    assert f", block from child factor {first} " in where and j < first + 30
    assert _witness(check_refinement(phi8_fz, broken)) == (
        f"{where}: its product with cable(t) removed is not cable(core^1)")


def _rule2_refinement():
    """Delta^2_3 = s1^2 . (s2 s1^2 s2^-1) . s2^2, its middle factor written
    with transport s1 s2^-1, and its refinement: each factor's block is rule
    2's four node factors, each transported by h . c with c the cable of
    the parent's transport, and three pair twists close it."""
    s1, s2 = artin_gen(3, 1), artin_gen(3, 2)
    parent = Factorization(3, [
        Factor(s1, 2, "node", label="A12"),
        Factor(s1, 2, "node", s1 * s2.inverse(), "A13"),
        Factor(s2, 2, "node", label="A23")])
    dm = DoublingMap(range(1, 4))
    kids = [Factor(h.core, 2, "node", h.transport * cable(f.transport),
                   f.label)
            for f in parent.factors
            for h in regen_rule2(Factor(f.core, 2, "node"), dm, "both")]
    kids += [Factor(artin_gen(6, k), 2, "node", label=f"Z2[{k}]")
             for k in (1, 3, 5)]
    return parent, kids


def test_a_transport_that_cancels_into_cable_t_keeps_its_block():
    """In the middle block, h = s2^-1 cancels into c, which starts with s2:
    the transport does not end with c as a word, yet u = h . c as braids,
    and the block passes; one core of it altered, it fails at its parent
    factor and its first child factor."""
    parent, kids = _rule2_refinement()
    c = cable(parent.factors[1].transport).word
    assert kids[4].transport.word == (3, 1, 2, -4, -3, -5, -4)
    assert kids[4].transport.word[-len(c):] != c
    assert check_full_twist(parent).passed
    rep = check_refinement(parent, Factorization(6, kids))
    assert rep.passed and check_full_twist(Factorization(6, kids)).passed
    f = kids[5]
    kids[5] = Factor(artin_gen(6, 5), 2, f.tag, f.transport, f.label)
    assert _witness(check_refinement(parent, Factorization(6, kids))) == (
        "parent factor 2 'A13', block from child factor 5 'A13': its product"
        " with cable(t) removed is not cable(core^2)")


def test_hurwitz_moves_inside_a_block_keep_the_refinement(phi8_fz, regen_fz):
    """A move inside a vertex block prepends a frame letter's cable to a
    transport, which the block's product then removes again; the tail
    needs only its product."""
    starts, tail = _block_starts(phi8_fz)
    v = next(i for i, f in enumerate(phi8_fz.factors, 1)
             if f.tag == "composite")
    for i, direction in ((starts[v - 1], "right"), (starts[v - 1] + 7, "left"),
                         (tail, "right")):
        moved = hurwitz_move(regen_fz, i, direction)
        assert moved.factors[i - 1].transport != regen_fz.factors[i - 1].transport \
            or moved.factors[i].transport != regen_fz.factors[i].transport
        assert check_refinement(phi8_fz, moved).passed, (i, direction)


def test_misleading_labels_change_no_verdict(phi8_fz, regen_fz):
    """Labels play no part: every factor given its neighbour's label leaves
    a correct child correct, for both checks."""
    kids = regen_fz.factors
    relabelled = Factorization(54, [
        Factor(f.core, f.exponent, f.tag, f.transport, g.label)
        for f, g in zip(kids, kids[1:] + kids[:1])])
    assert check_full_twist(relabelled).passed
    assert check_refinement(phi8_fz, relabelled).passed


def test_refinement_reads_one_block_per_parent_factor():
    """A child whose blocks match the degrees but not the products fails:
    sigma_1 sigma_2 refines to cable(sigma_1 sigma_2), not to
    cable(sigma_2 sigma_1)."""
    cab = verify.cable
    parent = Factorization(3, [Factor(artin_gen(3, 1), 1, "branch"),
                               Factor(artin_gen(3, 2), 1, "branch")])
    child = Factorization(6, [Factor(cab(artin_gen(3, 2)), 1, "branch"),
                              Factor(cab(artin_gen(3, 1)), 1, "branch")])
    assert _witness(check_refinement(parent, child)) == (
        "parent factor 1 Factor(s1, r=1, branch), block from child factor 1 "
        "Factor(s4 s5 s3 s4, r=1, branch): its product with cable(t) removed"
        " is not cable(core^1)")


def test_refinement_names_a_child_that_ends_early(phi8_fz, regen_fz):
    rep = check_refinement(phi8_fz, Factorization(54, regen_fz.factors[:3]))
    assert _witness(rep) == (f"parent factor 4 {phi8_fz.factors[3].label!r}: "
                             "the child ends before its block")


def test_refinement_needs_twice_the_strands(phi8_fz):
    rep = check_refinement(phi8_fz, phi8_fz)
    assert list(rep.lines()) == [
        "[fail   ] strands == 2n  -- child on 27 strands, parent on 27: "
        "a refinement has 54"]


def test_each_block_identity_is_decided_once(phi8_fz, regen_fz, monkeypatch):
    """Nine vertex blocks, one normal form per distinct core on each side,
    and one for the closing tail; the 216 parasitic blocks are
    word-identical to their cables."""
    calls = []
    real = verify.Braid.normal_form

    def counted(self):
        calls.append(self.n)
        return real(self)
    monkeypatch.setattr(verify.Braid, "normal_form", counted)
    assert check_refinement(phi8_fz, regen_fz).passed
    cores = {f.core.word for f in phi8_fz.factors if f.tag == "composite"}
    assert len(calls) == 2 * len(cores) + 1


_moves = st.lists(st.tuples(st.integers(min_value=1, max_value=224),
                            st.sampled_from(["right", "left"])), max_size=4)


# a splice takes seconds here, most of them the global checks of two
# controls' 24,774-letter products, so only the explicit example splices
@settings(max_examples=4, deadline=None)
@given(_moves, st.booleans(), st.just(False))
@example([(1, "right")], True, True)
def test_refinement_agrees_with_the_global_check(graph, phi8_fz, moves, conj,
                                                 splice):
    """On regenerations of Hurwitz-moved phi8s and of their complex
    conjugates, and on their Stage A splices, both checks pass, and both
    fail on every control."""
    parent = conj_factorization(phi8_fz) if conj else phi8_fz
    for i, direction in moves:
        parent = hurwitz_move(parent, i, direction)
    child = (splice_stage_a if splice else regenerate)(graph, parent)
    assert check_full_twist(child).passed
    assert check_refinement(parent, child).passed
    for name, (broken, where) in _controls(parent, child,
                                           4 if splice else 1).items():
        assert _witness(check_refinement(parent, broken)).startswith(
            where + ": "), name
        assert not check_full_twist(broken).passed, name
