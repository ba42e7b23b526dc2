"""Doubling rules, cabling oracles, splitting identities, and invariance."""

import random
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidforge.arcs import (ABOVE, BELOW, PunctureConfig, _atom_parts,
                             _from_printed, arc_twist, atom_factors,
                             band_full_twist, node_factors, pair_twists,
                             parse_regen_atom)
from braidforge.braid import (Braid, artin_gen, block_full_twist, cable,
                              cable_word, delta_squared, perm_of_word)
from braidforge.data import golden_json, golden_names
from braidforge.factorization import Factor, Factorization, hurwitz_move
from braidforge.factorization import conj_factorization
from braidforge.regeneration import (DoublingMap, conic_identity,
                                     conic_tables, doubled_labels, hv_diff,
                                     hv_paper_factors, regen_rule1,
                                     regen_rule2, regen_rule3)
from braidforge.regeneration import conic_monodromy, regenerate
from braidforge.verify import check_full_twist, hurwitz_equivalent, regen_audit
from conftest import random_braid


# ---------------------------------------------------------------------------
# cabling


def test_cable_word_of_one_crossing():
    assert cable_word(2, [1]) == [2, 3, 1, 2]
    assert cable_word(2, [-1]) == [-2, -1, -3, -2]


def _ref_cable_word(word) -> list:
    """The per-letter definition of the 2-cabling."""
    out = []
    for g in word:
        k = abs(g)
        w = [2 * k, 2 * k + 1, 2 * k - 1, 2 * k]
        out.extend(w if g > 0 else [-x for x in reversed(w)])
    return out


letters27 = st.integers(min_value=-26, max_value=26).filter(lambda k: k != 0)


@given(st.lists(letters27, max_size=30))
def test_cable_word_matches_the_per_letter_definition(u):
    assert cable_word(27, u) == _ref_cable_word(u)
    assert cable(Braid(27, u)).word == tuple(_ref_cable_word(Braid(27, u).word))


def test_cable_word_on_long_words(rng):
    for _ in range(10):
        u = [rng.choice([1, -1]) * rng.randint(1, 26) for _ in range(400)]
        assert cable_word(27, u) == _ref_cable_word(u)
    assert cable_word(27, []) == []
    assert cable_word(27, [-26, 26]) == [-52, -51, -53, -52, 52, 53, 51, 52]


def test_cable_is_a_homomorphism(rng):
    for _ in range(10):
        a, b = random_braid(rng, 4), random_braid(rng, 4)
        assert cable(a * b) == cable(a) * cable(b)
        assert cable(a.inverse()) == cable(a).inverse()


def partial_cable(b: Braid, widths) -> tuple:
    """Cable only some strands: strand k becomes a ribbon of widths[k-1]
    parallel strands.  Returns (image braid, permuted widths).

    A positive crossing of ribbons of widths (a, b) is the positive block
    crossing; a negative one is the exact inverse of the positive block
    crossing of the swapped widths, so the map is well defined on words.
    """
    w = list(widths)
    if len(w) != b.n:
        raise ValueError("one width per strand required")
    out = []
    for g in b.word:
        k, s = abs(g), (1 if g > 0 else -1)
        a, c = w[k - 1], w[k]
        if s < 0:
            a, c = c, a
        start = sum(w[:k - 1]) + 1
        block = [start + a - 1 + j - i for j in range(c) for i in range(a)]
        out.extend(block if s > 0 else [-x for x in reversed(block)])
        w[k - 1], w[k] = w[k], w[k - 1]
    return Braid(sum(widths), out), w


def test_cable_matches_partial_cable(rng):
    b = random_braid(rng, 3)
    assert cable(b) == partial_cable(b, [2, 2, 2])[0]


def test_partial_cable_respects_products(rng):
    for _ in range(15):
        n = rng.randint(2, 4)
        widths = [rng.randint(1, 3) for _ in range(n)]
        a, b = random_braid(rng, n), random_braid(rng, n)
        ia, wa = partial_cable(a, widths)
        ib, wb = partial_cable(b, wa)
        iab, wab = partial_cable(a * b, widths)
        assert iab == ia * ib and wab == wb


def test_partial_cable_full_twist_oracle(rng):
    """Delta^2_N factors as the cabled Delta^2_n times the ribbon twists."""
    for n in (2, 3, 4):
        widths = [rng.randint(1, 3) for _ in range(n)]
        N = sum(widths)
        img, after = partial_cable(delta_squared(n), widths)
        assert after == widths
        tail = Braid(N)
        off = 1
        for w in widths:
            tail = tail * block_full_twist(N, off, off + w - 1)
            off += w
        assert img * tail == delta_squared(N)
        assert tail * img == delta_squared(N)


# ---------------------------------------------------------------------------
# splitting identities (exact, in B_4 on the doubled pair configuration)


@pytest.fixture(scope="module")
def cfg4():
    return PunctureConfig(doubled_labels(["1", "2"]))


def _val(cfg, printed):
    return _from_printed(cfg.n, printed).product()


def test_split_fat_left(cfg4):
    # Z^2_{ii',j} = Z^2_{i'j} Z^2_{ij}
    assert (band_full_twist(cfg4, ("1", "1'"), "2")
            == _val(cfg4, node_factors(cfg4, ("1", "1'"), "2")))


def test_split_fat_right(cfg4):
    # Z^2_{i',jj'} = Z^2_{i'j'} Z^2_{i'j}
    assert (band_full_twist(cfg4, "1'", ("2", "2'"))
            == _val(cfg4, node_factors(cfg4, "1'", ("2", "2'"))))


def test_split_fat_right_inverse(cfg4):
    # Z^-2_{i',jj'} = Z^-2_{i'j} Z^-2_{i'j'}
    rhs = (arc_twist(cfg4, "1'", "2'", BELOW) ** -2
           * arc_twist(cfg4, "1'", "2", BELOW) ** -2)
    assert band_full_twist(cfg4, "1'", ("2", "2'")).inverse() == rhs


def test_split_fat_right_barred_inverse(cfg4):
    # barred: Z~^-2_{i',jj'} = Z~^-2_{i'j'} Z~^-2_{i'j}  (arcs above)
    rhs = (arc_twist(cfg4, "1'", "2", ABOVE) ** -2
           * arc_twist(cfg4, "1'", "2'", ABOVE) ** -2)
    assert band_full_twist(cfg4, "1'", ("2", "2'"), ABOVE).inverse() == rhs


def test_split_fat_left_inverse(cfg4):
    # Z^-2_{ii',j} = Z^-2_{ij} Z^-2_{i'j}
    long_tw = arc_twist(cfg4, "1", "2", BELOW)
    short_tw = arc_twist(cfg4, "1'", "2", BELOW)
    rhs = short_tw ** -2 * long_tw ** -2
    assert band_full_twist(cfg4, ("1", "1'"), "2").inverse() == rhs


def test_split_both_sides(cfg4):
    # Z^2_{ii',jj'} = Z^2_{i',jj'} Z^2_{i,jj'}
    printed = (node_factors(cfg4, "1'", ("2", "2'"))
               + node_factors(cfg4, "1", ("2", "2'")))
    assert band_full_twist(cfg4, ("1", "1'"), ("2", "2'")) == _val(cfg4, printed)


def test_split_both_sides_inverse(cfg4):
    # Z^-2_{ii',jj'} = Z^-2_{i,jj'} Z^-2_{i',jj'}
    vi = _val(cfg4, node_factors(cfg4, "1", ("2", "2'")))
    vip = _val(cfg4, node_factors(cfg4, "1'", ("2", "2'")))
    lhs = band_full_twist(cfg4, ("1", "1'"), ("2", "2'")).inverse()
    assert lhs == vip.inverse() * vi.inverse()


# ---------------------------------------------------------------------------
# rule degree maps on random factors


def _random_half_twist_factor(rng, n, exponent, tag):
    """sigma_k transported by a random g: the twist g^-1 . sigma_k . g."""
    k = rng.randint(1, n - 1)
    g = random_braid(rng, n, length=rng.randint(0, 4))
    return Factor(artin_gen(n, k), exponent, tag, g)


def test_rule_degree_maps_on_1000_random_factors(rng):
    plans = []
    for i in range(1000):
        n = rng.randint(2, 4)
        r = i % 4
        plans.append((n, r))
    for n, r in plans:
        dm = DoublingMap([str(i) for i in range(1, n + 1)])
        if r == 0:
            f = _random_half_twist_factor(rng, n, 1, "branch")
            out = regen_rule1(f, dm)
            assert len(out) == 2 and out.degree == 2
            assert all(x.exponent == 1 for x in out)
        elif r == 1:
            f = _random_half_twist_factor(rng, n, 2, "node")
            side = ("i-side", "j-side")[n % 2]
            out = regen_rule2(f, dm, side)
            assert len(out) == 2 and out.degree == 4
            assert all(x.exponent == 2 for x in out)
        elif r == 2:
            f = _random_half_twist_factor(rng, n, 2, "node")
            out = regen_rule2(f, dm, "both")
            assert len(out) == 4 and out.degree == 8
        else:
            f = _random_half_twist_factor(rng, n, 4, "tangent")
            out = regen_rule3(f, dm)
            assert len(out) == 3 and out.degree == 9
            assert all(x.exponent == 3 for x in out)


def test_rules_on_two_digit_labels():
    """Among the doubled labels of 27 lines, "11'" names a puncture; the
    rules take the ends of sigma_k for every k, two-digit ones included."""
    dm = DoublingMap(range(1, 28))
    for k in range(1, 27):
        i, j = str(k), str(k + 1)
        s = artin_gen(27, k)
        both = regen_rule2(Factor(s, 2, "node"), dm, "both")
        assert both.product() == cable(s ** 2), k
        branch = regen_rule1(Factor(s, 1, "branch"), dm)
        assert all(f.is_half_twist() for f in branch), k
        assert ([{dm.doubled.label_at(p) for p in f.twist.moved_slots()}
                 for f in branch] == [{f"{i}'", j}, {i, f"{j}'"}]), k
        assert regen_rule3(Factor(s, 4, "tangent"), dm).degree == 9, k


def test_each_expanded_factor_is_labelled_by_its_printed_atom():
    """A rule's factors, in composition order, carry the atom each was read
    from: the atom text, Z2[..] for a split node's arcs and Z3[..] with its
    rho conjugation for a cusp; a worked vertex's printed list likewise."""
    dm = DoublingMap(range(1, 4))
    s = artin_gen(3, 2)

    def labels(fz):
        return [f.label for f in fz]
    assert (labels(regen_rule1(Factor(s, 1, "branch"), dm))
            == ["Z1[2',3]", "Z1[2,3']"])
    node = Factor(s, 2, "node")
    assert (labels(regen_rule2(node, dm, "i-side"))
            == ["Z2[2,3]", "Z2[2',3]"])
    assert (labels(regen_rule2(node, dm, "j-side"))
            == ["Z2[2,3]", "Z2[2,3']"])
    assert (labels(regen_rule2(node, dm, "both"))
            == ["Z2[2,3]", "Z2[2,3']", "Z2[2',3]", "Z2[2',3']"])
    assert (labels(regen_rule3(Factor(s, 4, "tangent"), dm))
            == ["Z3[2,3]_rho-", "Z3[2,3]", "Z3[2,3]_rho"])
    hv1 = hv_paper_factors(golden_json("regen/hv1.json"))
    assert (labels(hv1)[:5]
            == ["Z1[1',2]", "Z1[1,2']", "Z3[2',5]_rho-", "Z3[2',5]",
                "Z3[2',5]_rho"])


def test_rules_reject_wrong_exponents():
    dm = DoublingMap(["1", "2"])
    node = Factor(artin_gen(2, 1), 2, "node")
    with pytest.raises(ValueError):
        regen_rule1(node, dm)
    with pytest.raises(ValueError):
        regen_rule3(node, dm)
    with pytest.raises(ValueError):
        regen_rule2(Factor(artin_gen(2, 1), 1, "branch"), dm)
    with pytest.raises(ValueError):
        regen_rule2(node, dm, "sideways")


def test_rules_reject_a_factor_that_is_no_half_twist():
    """sigma_1^3 moves two slots and has degree 3, the degree of no
    half-twist; tagged a branch point it is refused, not read as Z_12."""
    dm = DoublingMap(["1", "2", "3"])
    cube = Factor(artin_gen(3, 1) ** 3, 1, "branch")
    with pytest.raises(ValueError, match="is not a half twist$"):
        regen_rule1(cube, dm)


# ---------------------------------------------------------------------------
# invariance rules (Hurwitz BFS in the doubled B_4)


@pytest.fixture(scope="module")
def dm2():
    return DoublingMap(["1", "2"])


def _pair_rho(cfg, label):
    """Half twist Z_{ll'} of a close pair."""
    return pair_twists(cfg, [(label, f"{label}'")])


def test_invariance_rule_one(dm2):
    """Z_{ij'} . Z_{i'j} is invariant under (Z_{ii'} Z_{jj'})^q."""
    out = regen_rule1(Factor(artin_gen(2, 1), 1, "branch"), dm2)
    eps = _pair_rho(dm2.doubled, "1") * _pair_rho(dm2.doubled, "2")
    for q in (1, 2, -1):
        assert hurwitz_equivalent(out, out.conjugate(eps ** q),
                                  budget=10 ** 5) == "yes"


def test_invariance_rule_two_split(dm2):
    """The one-sided splits are invariant under their own pair twist."""
    node = Factor(artin_gen(2, 1), 2, "node")
    cases = [("i-side", _pair_rho(dm2.doubled, "1")),
             ("j-side", _pair_rho(dm2.doubled, "2"))]
    for side, rho in cases:
        out = regen_rule2(node, dm2, side)
        for q in (1, 2, -1):
            assert hurwitz_equivalent(out, out.conjugate(rho ** q),
                                      budget=10 ** 5) == "yes"


def test_invariance_rule_two_band(dm2):
    """The single-factor ribbon twist commutes with both pair twists."""
    band = band_full_twist(dm2.doubled, ("1", "1'"), ("2", "2'"))
    for p in (-1, 1, 2):
        for q in (-1, 1, 2):
            eps = _pair_rho(dm2.doubled, "1") ** p * _pair_rho(dm2.doubled, "2") ** q
            assert band * eps == eps * band


def test_invariance_rule_three(dm2):
    """The cusp triple is invariant under Z^q_{jj'}."""
    out = regen_rule3(Factor(artin_gen(2, 1), 4, "tangent"), dm2)
    rho = _pair_rho(dm2.doubled, "2")
    for q in (1, 2, -1):
        assert hurwitz_equivalent(out, out.conjugate(rho ** q),
                                  budget=10 ** 5) == "yes"


def _center_moves(fz, times):
    """Apply the Hurwitz action of the k-strand center (full twist) `times`
    times; one application conjugates every factor by the product."""
    k = len(fz)
    seq = [i for _ in range(k) for i in range(1, k)]
    for _ in range(times):
        for i in seq:
            fz = hurwitz_move(fz, i, "right")
    return fz


def test_chakiri_invariance_smoke(rng):
    """100 random 3-factor expressions in B_3: g_1 g_2 g_3 is Hurwitz
    equivalent to its conjugate by (g_1 g_2 g_3)^m, by an explicit
    center-move certificate."""
    for _ in range(100):
        fz = Factorization(3, [Factor(random_braid(rng, 3, rng.randint(0, 5)),
                                      1, "composite") for _ in range(3)])
        g = fz.product()
        for m in (1, 2):
            moved = _center_moves(fz, m)
            want = fz.conjugate(g ** m)
            assert moved.product() == fz.product()
            assert all(a.braid() == b.braid()
                       for a, b in zip(moved, want))


# ---------------------------------------------------------------------------
# one evaluator per printed atom

_ATOM = re.compile(r"Z[ub]?m?\d\[[^\]]+\]")


def _golden_atoms():
    """(labels, atom) for every Z atom printed in the goldens; the far-side
    rows of the tables are labelled by position."""
    out = set()

    def walk(o, labels):
        if isinstance(o, str):
            out.update((labels, a) for a in _ATOM.findall(o))
        elif isinstance(o, list):
            for v in o:
                walk(v, labels)

    for sub in ("tables", "regen"):
        for name in golden_names(sub):
            obj = golden_json(f"{sub}/{name}.json")
            labels = tuple(obj["labels"])
            for key, v in obj.items():
                far = key.startswith("back_")
                walk(v, tuple(map(str, range(1, len(labels) + 1))) if far
                     else labels)
    return sorted(out)


def _pinned_atom_value(cfg, atom):
    """The value of a printed Z atom, written out without `atom_factors`."""
    side, exp, ea, eb = _atom_parts(cfg, atom)
    r = abs(exp)
    if isinstance(ea, str) and isinstance(eb, str):
        # a branch atom passes the partner of its first end above
        flipped = (f"{ea}'",) if r == 1 and side == BELOW else ()
        val = arc_twist(cfg, ea, eb, side, flipped) ** r
    elif r == 2:
        val = band_full_twist(cfg, ea, eb, side)
    else:
        # rho^-1 Z^3 rho . Z^3 . rho Z^3 rho^-1, Z to the near member
        assert r == 3, atom
        pair, near = (ea, (ea[1], eb)) if isinstance(eb, str) else (eb, (ea, eb[0]))
        z3 = arc_twist(cfg, *near, side) ** 3
        rho = pair_twists(cfg, [pair])
        val = z3.conjugate(rho) * z3 * z3.conjugate(rho.inverse())
    return val.inverse() if exp < 0 else val


def test_atom_value_is_the_product_of_its_expansion():
    doubled = tuple(doubled_labels(["1", "2", "3"]))
    cases = _golden_atoms() + [(doubled, a)
                               for a in ("Z1[1,3]", "Z1[1,2']", "Zb1[1,3]")]
    assert len(cases) > 50
    for labels, atom in cases:
        cfg = PunctureConfig(labels)
        assert parse_regen_atom(cfg, atom) == _pinned_atom_value(cfg, atom), atom
    # the branch convention: the partner of the first end is passed above,
    # the other punctures on the printed side
    cfg = PunctureConfig(doubled)
    assert parse_regen_atom(cfg, "Z1[1,3]").word == (4, 3, -2, 1, 2, -3, -4)
    assert parse_regen_atom(cfg, "Zb1[1,3]").word == (-4, -3, -2, 1, 2, 3, 4)


def test_each_atom_is_evaluated_once_per_config(monkeypatch):
    """A worked vertex's printed list names a few atoms in most of its
    conjugators; each is evaluated once, and kept as the value a fresh
    config gives."""
    import braidforge.arcs as arcs
    texts = []
    real = arcs.entry_value

    def counted(cfg, text):
        texts.append(text)
        return real(cfg, text)
    monkeypatch.setattr(arcs, "entry_value", counted)
    obj = golden_json("regen/hv1.json")
    hv_paper_factors(obj)
    assert len(texts) == len(set(texts)) > 10
    cfg = PunctureConfig(obj["labels"])
    for atom in ("Z2[11',2]", "Zm2[55',6]"):
        v = parse_regen_atom(cfg, atom)
        assert parse_regen_atom(cfg, f" {atom}") is v
        assert v == _pinned_atom_value(PunctureConfig(obj["labels"]), atom)


def test_a_composite_atom_that_names_a_puncture_twice_is_refused():
    cfg = PunctureConfig(["1", "2", "3"])
    with pytest.raises(ValueError, match=re.escape("atom 'D2<1,1,2>'")):
        atom_factors(cfg, "D2<1,1,2>")
    assert [f.label for f in atom_factors(cfg, "D2<1,3>")] == ["D2<1,3>"]


def test_a_two_digit_primed_label_is_one_puncture():
    """Among the doubled labels of 11 lines, "11'" names a puncture, not
    the close pair (1, 1'); "22'" names none and stays a close pair."""
    cfg = PunctureConfig(doubled_labels(range(1, 12)))
    fs = atom_factors(cfg, "Z2[11',3]")
    assert [f.label for f in fs] == ["Z2[11',3]"]
    assert fs[0].twist == arc_twist(cfg, "11'", "3")
    assert parse_regen_atom(cfg, "Z2[11',3]") == arc_twist(cfg, "11'", "3") ** 2
    assert ([f.label for f in atom_factors(cfg, "Z2[22',3]")]
            == ["Z2[2',3]", "Z2[2,3]"])


# ---------------------------------------------------------------------------
# doubled local models and the global factorization


def test_conic_identities():
    t0 = time.monotonic()
    tables = conic_tables()
    assert set(tables) == {"fhat_a", "fhat_b", "fhat_c"}
    for name, obj in tables.items():
        assert conic_identity(obj), name
    assert time.monotonic() - t0 < 5


def test_regenerated_audit(regen_fz):
    audit = regen_audit(regen_fz)
    assert audit["total"] == 2862
    assert audit["parasitic"] == 1728
    assert audit["per_vertex"] == {j: 126 for j in range(1, 10)}


def test_regen_audit_matches_the_per_factor_sums(regen_fz):
    def degree(f):
        return sum(1 if k > 0 else -1 for k in f.twist.word) * f.exponent

    per_vertex = {}
    for f in regen_fz:
        if f.label.startswith("V"):
            v = int(f.label[1:].split(":")[0].split("|")[0])
            per_vertex[v] = per_vertex.get(v, 0) + degree(f)
    assert regen_audit(regen_fz) == {
        "total": sum(map(degree, regen_fz)),
        "parasitic": sum(degree(f) for f in regen_fz if f.label.startswith("D")),
        "per_vertex": per_vertex}


def _moved(fz, seed, moves=10):
    """fz after `moves` seeded Hurwitz moves."""
    rng = random.Random(seed)
    for _ in range(moves):
        fz = hurwitz_move(fz, rng.randint(1, len(fz) - 1),
                          rng.choice(["left", "right"]))
    return fz


@pytest.mark.parametrize("seed", [1, 2, 3, "conj"])
def test_regenerate_any_certificate_of_phi8(graph, phi8_fz, seed):
    """Regenerating a Hurwitz move or the complex conjugate of phi8 again
    gives 513 factors of total degree 2862 whose product is Delta^2_54."""
    h = conj_factorization(phi8_fz) if seed == "conj" else _moved(phi8_fz, seed)
    assert h.factors != phi8_fz.factors
    fz = regenerate(graph, h)
    assert len(fz) == 513 and fz.degree == 2862
    assert fz.product() == delta_squared(54)
    # the parasitic factors are those of h, cabled, in h's order
    assert ([f.twist for f in fz if f.label.startswith(("D", "~D"))]
            == [cable(f.twist) for f in h if f.tag != "composite"])


@pytest.mark.parametrize("seed", [None, 2, "conj"])
def test_regenerated_transports_are_cables(graph, phi8_fz, seed):
    """Each transport is cabled from its head and the previous cable, and
    is the cable of its source factor's transport all the same."""
    h = (phi8_fz if seed is None else conj_factorization(phi8_fz)
         if seed == "conj" else _moved(phi8_fz, seed))
    fz = regenerate(graph, h)
    parasitic = [f for f in fz if f.label.startswith(("D", "~D"))]
    assert ([f.transport.word for f in parasitic]
            == [cable(f.transport).word for f in h if f.tag != "composite"])
    src = {f.label: f for f in h if f.tag == "composite"}
    frames = [f for f in fz if "|H" in f.label]
    assert len(frames) == 270
    for f in frames:
        composite = src[f.label.split("|")[0]]
        assert f.transport.word == cable(composite.transport).word


def test_pair_twists_follow_the_transport_rule(graph, phi8_fz):
    """The pair twist of a line t assigned to vertex j is sigma_{2t-1}^2
    with an empty transport, and the 27 pair twists close the certificate.
    Its value is cable(S) . sigma_{2t-1} . cable(S)^-1, squared, with S the
    product of the factors after the composite: S is a pure braid, so
    cable(S) commutes with sigma_{2t-1}."""
    h = _moved(phi8_fz, 1)
    fz = regenerate(graph, h)
    twists = {f.label: f for f in fz}
    pairs = []
    for i, f in enumerate(h):
        if f.tag != "composite":
            continue
        j = int(f.label[1:f.label.index(":")])
        cs = cable(Factorization(27, h.factors[i + 1:]).product())
        for t in graph.lines_into(j):
            pair = twists[f"V{j}:Z2[{t},{t}']"]
            assert pair.exponent == 2
            assert pair.twist == cs * artin_gen(54, 2 * t - 1) * cs.inverse()
            assert pair.transport.word == ()
            assert pair.core.word == (2 * t - 1,)
            pairs.append(pair)
    assert len(pairs) == 27
    assert all(a is b for a, b in zip(fz.factors[-27:], pairs))


def test_each_line_is_closed_once_at_one_of_its_vertices(graph, regen_fz):
    """The closing tail names, under each vertex j, three lines through j,
    and every line exactly once."""
    closed = {}
    for f in regen_fz.factors[-27:]:
        m = re.fullmatch(r"V(\d+):Z2\[(\d+),\2'\]", f.label)
        j, t = int(m[1]), int(m[2])
        assert t in graph.incident_lines(j)
        closed.setdefault(j, []).append(t)
    assert sorted(closed) == list(graph.vertices)
    assert all(len(ts) == 3 for ts in closed.values())
    assert sorted(t for ts in closed.values() for t in ts) == list(range(1, 28))


def _transported_regeneration(graph, h):
    """Each factor of h cabled in full, each composite followed by its pair
    twists transported by cable(S)^-1, S the product of the later factors."""
    out = []
    for i, f in enumerate(h, 1):
        ct = cable(f.transport)
        if f.tag != "composite":
            out.append(Factor(cable(f.core), f.exponent, f.tag, ct, f.label))
            continue
        out.extend(Factor(cable(artin_gen(27, k)), 1, "branch", ct,
                          f"{f.label}|H{k - a + 1}")
                   for a in [min(map(abs, f.core.word))]
                   for _round in range(6) for k in range(a, a + 5))
        j = int(re.match(r"~*V(\d+):", f.label)[1])
        cs = cable(Factorization(27, h.factors[i:]).product())
        out.extend(Factor(artin_gen(54, 2 * t - 1), 2, "node",
                          cs.inverse(), f"V{j}:Z2[{t},{t}']")
                   for t in graph.lines_into(j))
    return out


@pytest.mark.parametrize("seed", [None, 1, 2, 3, "conj"])
def test_pair_twists_move_to_the_end(graph, phi8_fz, seed):
    """Without its last 27 factors, the regeneration is factor by factor
    word-identical to the one that transports each pair twist through the
    cable of the factors after its composite, without its pair twists; each
    pair twist equals that one's of the same label."""
    h = (phi8_fz if seed is None else conj_factorization(phi8_fz)
         if seed == "conj" else _moved(phi8_fz, seed))
    fz = regenerate(graph, h)
    ref = _transported_regeneration(graph, h)
    pairs = {f.label: f for f in ref if re.match(r"V\d+:Z2", f.label)}

    def words(fs):
        return [(f.core.word, f.transport.word, f.exponent, f.tag, f.label)
                for f in fs]
    assert words(fz.factors[:-27]) == words(f for f in ref
                                            if f.label not in pairs)
    assert len(pairs) == 27
    assert all(f == pairs[f.label] for f in fz.factors[-27:])
    _assert_closed_by_pair_twists(fz)


def _assert_closed_by_pair_twists(fz):
    """The last 27 factors are the untransported sigma_{2t-1}^2."""
    for f in fz.factors[-27:]:
        t = int(re.match(r"V\d+:Z2\[(\d+),", f.label)[1])
        assert (f.core.word, f.exponent, f.transport.word) == ((2 * t - 1,), 2, ())


def test_regenerate_an_input_with_impure_factors_after_a_composite(graph,
                                                                   phi8_fz):
    """(C, N = x^2) -> (x, C^x, x) keeps the product; the factors after C^x
    are no longer a pure braid, so pair twists kept in place untransported
    would miss Delta^2_54, but closing the certificate with them does not."""
    fs = phi8_fz.factors
    i = next(i for i, f in enumerate(fs)
             if f.tag == "composite" and fs[i + 1].tag == "node")
    c, node = fs[i], fs[i + 1]
    x = Factor(node.core, 1, "branch", node.transport, node.label)
    h = Factorization(27, fs[:i] + (x, c.conjugate(x.braid()), x) + fs[i + 2:])
    assert check_full_twist(h).passed
    fz = regenerate(graph, h)
    assert len(fz) == 514 and fz.degree == 2862
    assert fz.product() == delta_squared(54)
    _assert_closed_by_pair_twists(fz)
    # the rejected placement: each composite's pair twists right after its
    # 30 frame letters, untransported
    pairs, in_place, frames = fz.factors[-27:], [], 0
    for f in fz.factors[:-27]:
        in_place.append(f)
        if "|H" in f.label:
            frames += 1
            if frames % 30 == 0:        # the composite's last frame letter
                v = frames // 30
                in_place.extend(pairs[3 * v - 3:3 * v])
    assert Factorization(54, in_place).product() != delta_squared(54)


def _relabelled(fz, i, label):
    f = fz.factors[i]
    factors = list(fz.factors)
    factors[i] = Factor(f.core, f.exponent, f.tag, f.transport, label)
    return Factorization(fz.strands, factors)


def _composite(fz, vertex):
    return next(i for i, f in enumerate(fz) if f.label.startswith(f"V{vertex}:"))


def test_regenerate_names_a_composite_without_a_vertex(graph, phi8_fz):
    i = _composite(phi8_fz, 5)
    with pytest.raises(ValueError) as e:
        regenerate(graph, _relabelled(phi8_fz, i, "Delta2<block>"))
    assert str(e.value) == (f"factor {i + 1} 'Delta2<block>': "
                            "composite without a vertex label")


def test_regenerate_names_a_second_composite(graph, phi8_fz):
    i, k = _composite(phi8_fz, 3), _composite(phi8_fz, 4)
    label = "V4:" + phi8_fz[i].label[3:]
    with pytest.raises(ValueError) as e:
        regenerate(graph, _relabelled(phi8_fz, i, label))
    assert str(e.value) == (f"factor {k + 1} {phi8_fz[k].label!r}: second "
                            f"composite of vertex 4, after factor {i + 1} "
                            f"{label!r}")


def test_regenerate_names_the_vertices_without_a_composite(graph, phi8_fz):
    kept = [f for f in phi8_fz if not f.label.startswith(("V2:", "V7:"))]
    with pytest.raises(ValueError, match=r"vertices \[2, 7\]$"):
        regenerate(graph, Factorization(27, kept))


def test_regenerate_names_a_composite_that_is_no_block_twist(graph, phi8_fz):
    i = _composite(phi8_fz, 6)
    f = phi8_fz[i]
    bad = Factorization(27, phi8_fz.factors[:i] + (
        Factor(f.core * artin_gen(27, 1), 1, f.tag, f.transport, f.label),)
        + phi8_fz.factors[i + 1:])
    with pytest.raises(ValueError, match=rf"^factor {i + 1} 'V6:.*': vertex "
                       "factor core is not a six-strand block twist$"):
        regenerate(graph, bad)


def test_regenerate_refuses_a_vertex_composite_squared(graph, phi8_fz):
    """A vertex full twist with exponent 2 has degree 60; it is refused,
    not split into 30 frame letters of degree 30."""
    i = _composite(phi8_fz, 2)
    f = phi8_fz[i]
    bad = Factorization(27, phi8_fz.factors[:i] + (
        Factor(f.core, 2, f.tag, f.transport, f.label),)
        + phi8_fz.factors[i + 1:])
    with pytest.raises(ValueError, match=rf"^factor {i + 1} 'V2:.*': a vertex "
                       "factor has exponent 1, got 2$"):
        regenerate(graph, bad)


def test_regenerated_product(regen_fz):
    t0 = time.monotonic()
    assert regen_fz.product() == delta_squared(54)
    assert time.monotonic() - t0 < 900


def test_worked_vertex_transcriptions():
    """Each printed local table expands to 54 factors of total degree 126,
    short of the full local twist by exactly the six deferred pair twists."""
    for name in ("hv1", "hv4", "hv7"):
        obj = golden_json(f"regen/{name}.json")
        fz = hv_paper_factors(obj)
        assert len(fz) == 54
        assert sum(f.braid().degree for f in fz) == 126
        resid = delta_squared(12).inverse() * fz.product()
        assert resid.degree == -6
        perm = perm_of_word(12, resid.word)
        assert perm == (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10)


def test_printed_factors_are_half_twists(dm2):
    """Every factor built from an arc keeps the arc's drag as its transport,
    so the printed lists and the three rules pass the half-twist check."""
    for name in ("hv1", "hv4", "hv7"):
        fz = hv_paper_factors(golden_json(f"regen/{name}.json"))
        assert all(f.is_half_twist() for f in fz), name
    for name, obj in conic_tables().items():
        assert all(f.is_half_twist() for f in conic_monodromy(obj)), name
    node = Factor(artin_gen(2, 1), 2, "node")
    rules = [regen_rule1(Factor(artin_gen(2, 1), 1, "branch"), dm2),
             regen_rule3(Factor(artin_gen(2, 1), 4, "tangent"), dm2)]
    rules += [regen_rule2(node, dm2, side) for side in ("i-side", "j-side", "both")]
    for out in rules:
        assert out and all(f.is_half_twist() for f in out)


def test_hv_diff_reads_the_labels_of_the_conjugate(graph, phi8_fz):
    """hv_diff picks a vertex's factors by label (`_LABEL`): the 30 frame
    letters and 3 pair twists, also when complex conjugation has prefixed
    the frame letters' labels with ~."""
    plain = regenerate(graph)
    conj = regenerate(graph, conj_factorization(phi8_fz))
    for name in ("hv1", "hv4", "hv7"):
        obj = golden_json(f"regen/{name}.json")
        paper = hv_paper_factors(obj)
        for fz in (plain, conj):
            diff = hv_diff(fz, obj["vertex"], paper)
            assert diff[0] == "factor count: engine 33, printed 54", name


@pytest.mark.parametrize("name", ["fhat_a", "fhat_b", "fhat_c"])
def test_a_conic_identity_without_a_factor_is_false(name):
    """Dropping the first printed factor of F^_1 breaks the identity, so
    the replay of the doubled local models does not pass vacuously."""
    obj = conic_tables()[name]
    obj["fhat1"] = obj["fhat1"][1:]
    assert not conic_identity(obj)
