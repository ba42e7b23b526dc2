"""Acceptance gate: one pass/fail check per criterion.

Each criterion is a single test so that `pytest -v` prints exactly one
PASSED/FAILED line per criterion.
"""

import hashlib
import json
import random
import time

import pytest

import test_regeneration as tr
from braidforge.arcs import PunctureConfig
from braidforge.braid import delta_squared
from braidforge.braid import free_reduce
from braidforge.data import golden_json, golden_names
from braidforge.degeneration import (_marker_text, build_tt, dt_notation,
                                     markers, phi8, tilde_Cj, tilde_Delta2)
from braidforge.factorization import (Factorization, conj_factorization,
                                      frame_factorization, hurwitz_move)
from braidforge.lefschetz import golden_check
from braidforge.regeneration import (DoublingMap, conic_identity,
                                     conic_tables, doubled_labels, hv_diff,
                                     hv_paper_factors, regenerate)
from braidforge.verify import check_full_twist, emit_relations, regen_audit


def test_criterion_1_degenerated_audit():
    t0 = time.monotonic()
    g = build_tt()
    fz = phi8(g)
    c_total = sum(tilde_Cj(g, j).degree for j in range(1, 10))
    d_total = sum(tilde_Delta2(g, j).degree for j in range(1, 10))
    elapsed = time.monotonic() - t0
    assert c_total == 432
    assert d_total == 270
    assert fz.degree == 702
    assert elapsed < 10, f"took {elapsed:.1f}s"


def test_criterion_2_degenerated_identity(phi8_fz):
    t0 = time.monotonic()
    assert phi8_fz.product() == delta_squared(27)
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_3_parasitic_lists_verbatim(graph):
    golden = golden_json("dt_list.json")
    for t in range(1, 28):
        entry = golden[str(t)]
        parts = []
        for p in entry["i"]:
            if t - p == 1:
                parts.append(f"Z2[{p},{t}]")
            else:
                parts.append(f"Zbar2[{p},{t}]" + _marker_text(entry["markers"]))
        expected = " . ".join(parts) if parts else "Id"
        assert dt_notation(graph, t) == expected, f"D_{t}"
        assert [p for p in range(1, t) if graph.disjoint(p, t)] == entry["i"]
        if entry["i"]:
            assert list(markers(graph, t)) == entry["markers"]


def test_criterion_4_local_monodromy_goldens():
    t0 = time.monotonic()
    rows = []
    for name in golden_names("tables"):
        rows += golden_check(golden_json(f"tables/{name}.json"))
    elapsed = time.monotonic() - t0
    assert len(rows) == 76
    bad = [desc for desc, ok in rows if not ok]
    assert not bad, f"mismatched rows: {bad}"
    assert elapsed < 10, f"took {elapsed:.1f}s"


def test_criterion_5_doubled_local_identities():
    t0 = time.monotonic()
    for name, obj in conic_tables().items():
        assert conic_identity(obj), name
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"took {elapsed:.1f}s"


def test_criterion_6_regenerated_audit_and_identity(graph):
    t0 = time.monotonic()
    fz = regenerate(graph)
    audit = regen_audit(fz)
    assert audit["total"] == 2862
    assert audit["parasitic"] == 1728
    assert audit["per_vertex"] == {j: 126 for j in range(1, 10)}
    assert fz.product() == delta_squared(54)
    elapsed = time.monotonic() - t0
    assert elapsed < 900, f"took {elapsed:.1f}s"
    # the worked-vertex tables are reported as a diff only
    for name in ("hv1", "hv4", "hv7"):
        obj = golden_json(f"regen/{name}.json")
        diff = hv_diff(fz, obj["vertex"], hv_paper_factors(obj))
        assert diff[0] == "factor count: engine 33, printed 54"


def test_criterion_7_regeneration_rule_properties():
    rng = random.Random(20260824)
    # rule degree maps (1->2, 2->4/8, 4->9) on 1000 random factors
    tr.test_rule_degree_maps_on_1000_random_factors(rng)
    # exact splitting identities (a)-(g) in B_4
    cfg4 = PunctureConfig(doubled_labels(["1", "2"]))
    tr.test_split_fat_left(cfg4)
    tr.test_split_fat_right(cfg4)
    tr.test_split_fat_right_inverse(cfg4)
    tr.test_split_fat_right_barred_inverse(cfg4)
    tr.test_split_fat_left_inverse(cfg4)
    tr.test_split_both_sides(cfg4)
    tr.test_split_both_sides_inverse(cfg4)
    # invariance rules I-III by Hurwitz BFS
    dm2 = DoublingMap(["1", "2"])
    tr.test_invariance_rule_one(dm2)
    tr.test_invariance_rule_two_split(dm2)
    tr.test_invariance_rule_two_band(dm2)
    tr.test_invariance_rule_three(dm2)
    # Chakiri smoke test on 100 random 3-factor expressions in B_3
    tr.test_chakiri_invariance_smoke(random.Random(20260824))


def test_criterion_8_complex_conjugation(phi8_fz):
    rng = random.Random(20260824)
    for _ in range(50):
        n = rng.randint(2, 8)
        fz = frame_factorization(n)
        for _ in range(20):
            fz = hurwitz_move(fz, rng.randint(1, len(fz) - 1),
                              rng.choice(["left", "right"]))
        assert conj_factorization(fz).product() == delta_squared(n)
    assert conj_factorization(phi8_fz).product() == delta_squared(27)


def test_criterion_8_words_stay_short(phi8_fz):
    """Criterion 8's moves keep every stored word freely reduced and short."""
    def check(fz):
        for f in fz.factors:
            for b in (f.twist, f.transport):
                assert list(b.word) == free_reduce(b.word), f
                assert len(b.word) < 10_000, f

    rng = random.Random(20260824)
    for _ in range(50):
        n = rng.randint(2, 8)
        fz = frame_factorization(n)
        for _ in range(20):
            fz = hurwitz_move(fz, rng.randint(1, len(fz) - 1),
                              rng.choice(["left", "right"]))
            check(fz)
        check(conj_factorization(fz))
    check(conj_factorization(phi8_fz))


def test_criterion_9_negative_controls(phi8_fz):
    rng = random.Random(20260824)
    parasitic = [i for i, f in enumerate(phi8_fz.factors)
                 if f.label.startswith("D")]
    assert len(parasitic) == 216
    for i in rng.sample(parasitic, 10):
        deleted = phi8_fz.factors[i]
        broken = Factorization(27, phi8_fz.factors[:i] + phi8_fz.factors[i + 1:])
        rep = check_full_twist(broken)
        assert not rep.passed, f"deleting {deleted.label} went undetected"
        witnesses = [c["witness"] for c in rep.checks if c["status"] == "fail"]
        assert witnesses and all(witnesses), \
            f"no witness for deleted factor {deleted.label}"
        assert any("deficit 2" in w for w in witnesses), deleted.label


# SHA-256 of A.json (38,549 B), B.json (108,089 B) and rels.json
PINNED = {
    "A.json": "402cb507939c4bbbe58ee858a1e672307f947604113cf5074627a3f8b357998e",
    "B.json": "4bdfdfb3e4f7b854696f6025c6a45fefdf7fdd9dd4c1ea5508c7ec826c264898",
    "rels.json": "f3ef4c0628568e5d204573b4249a55dc2c41674ade75f71a3b89d5b0c70fb4b9",
}


def test_certificates_are_the_pinned_bytes(phi8_fz, regen_fz):
    """`phi8`, its regeneration and its relation templates are written to
    the same bytes as `forge degen phi8 --out A.json`, `forge regen run
    --out B.json` and `forge relations A.json --out rels.json` write.

    A change that alters a certificate on purpose updates its digest here
    and says why in CHANGES.md.
    """
    texts = {"A.json": phi8_fz.dumps(), "B.json": regen_fz.dumps(),
             "rels.json": json.dumps(emit_relations(phi8_fz), indent=2)}
    got = {name: hashlib.sha256(text.encode()).hexdigest()
           for name, text in texts.items()}
    assert got == PINNED
