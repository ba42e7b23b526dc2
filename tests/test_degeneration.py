"""The 27-line arrangement and its degenerated monodromy factorization."""

import time
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul

import pytest

from braidforge.braid import Braid, block_half_twist, delta_squared
from braidforge.data import golden_json
from braidforge.degeneration import (_build_phi8, _events, _marker_text,
                                     _paper_order, _pair_notation,
                                     _realization, build_tt, degree_audit,
                                     dt_notation, markers, tilde_Cj,
                                     tilde_Delta2)
from braidforge.factorization import COMPOSITE_TAG, Factor
from braidforge.regeneration import regenerate


def test_graph_combinatorics(graph):
    assert graph.n_lines == 27
    for v in range(1, 10):
        assert len(graph.incident_lines(v)) == 6
    # every unordered line pair either meets at exactly one vertex or is
    # parasitic in exactly one D_t, that of its larger line
    meet = [pair for v in graph.vertices
            for pair in combinations(graph.incident_lines(v), 2)]
    parasitic = [(p, t) for t in range(1, 28) for p in graph.parasitic(t)]
    assert len(parasitic) == 216
    assert sorted(meet + parasitic) == list(combinations(range(1, 28), 2))


def test_block_degrees(graph):
    c = {j: tilde_Cj(graph, j).degree for j in range(1, 10)}
    d = {j: tilde_Delta2(graph, j).degree for j in range(1, 10)}
    assert sum(c.values()) == 432
    assert sum(d.values()) == 270
    assert all(x == 30 for x in d.values())


def test_total_degree_and_audit(graph, phi8_fz):
    audit = degree_audit(phi8_fz, 27 * 26)
    assert audit["pass"] and audit["total"] == 702


def test_blocks_partition_the_factorization(graph, phi8_fz):
    rebuilt = None
    for j in range(1, 10):
        part = tilde_Cj(graph, j) + tilde_Delta2(graph, j)
        rebuilt = part if rebuilt is None else rebuilt + part
    assert rebuilt == phi8_fz
    assert [f.label for f in rebuilt] == [f.label for f in phi8_fz]


def test_product_is_the_full_twist(phi8_fz):
    t0 = time.monotonic()
    assert phi8_fz.product() == delta_squared(27)
    assert time.monotonic() - t0 < 120


def test_parasitic_factors_are_nodes(graph, phi8_fz):
    for t in range(1, 28):
        dt = [f for f in phi8_fz if f.label.startswith(f"D{t}:")]
        expected = [p for p in range(1, t) if graph.disjoint(p, t)]
        assert len(dt) == len(expected)
        for f in dt:
            assert f.exponent == 2 and f.tag == "node" and f.degree == 2


def _golden_notation(t: int, entry: dict) -> str:
    """Render one transcribed parasitic list in the serialized notation."""
    parts = []
    for p in entry["i"]:
        if t - p == 1:
            parts.append(f"Z2[{p},{t}]")
        else:
            parts.append(f"Zbar2[{p},{t}]" + _marker_text(entry["markers"]))
    return " . ".join(parts) if parts else "Id"


def test_parasitic_notation_matches_transcription(graph):
    golden = golden_json("dt_list.json")
    for t in range(1, 28):
        entry = golden[str(t)]
        assert dt_notation(graph, t) == _golden_notation(t, entry), f"D_{t}"
        assert [p for p in range(1, t) if graph.disjoint(p, t)] == entry["i"]
        if entry["i"]:
            assert list(markers(graph, t)) == entry["markers"], f"D_{t} markers"


def test_determinism():
    """Two builds from two graphs write the same certificate; phi8's cache
    would hand back one object, so the builds bypass it."""
    a, b = build_tt(), build_tt()
    x, y = _build_phi8(a), _build_phi8(b)
    assert x.dumps() == y.dumps()
    assert regenerate(a, x).dumps() == regenerate(b, y).dumps()


def _fraction_events(g):
    """The singular values as exact fractions, nearest the base point (the
    largest) first."""
    a, slope, icept = _realization(g)
    events = [(Fraction(a[j]), "vertex", j) for j in g.vertices]
    events += [(Fraction(icept[t] - icept[p], slope[p] - slope[t]), "cross",
                (p, t))
               for t in range(1, g.n_lines + 1) for p in range(1, t)
               if g.disjoint(p, t)]
    events.sort(key=lambda e: e[0], reverse=True)
    return events


def test_integer_sweep_keys_are_the_scaled_abscissas(graph):
    ref = _fraction_events(graph)
    got = _events(graph)
    assert [e[1:] for e in got] == [e[1:] for e in ref]
    assert len(got) == 225 and len({e[0] for e in got}) == 225
    # one common positive scale: each key is its abscissa times it
    assert all(x != 0 for x, _, _ in ref)
    scales = {Fraction(key) / x for (key, _, _), (x, _, _) in zip(got, ref)}
    assert len(scales) == 1 and scales.pop() > 0


def _reference_phi8(g):
    """The sweep and regroup through the public Factor constructor, with one
    Braid per prefix and its inverse; a reference for `_build_phi8`."""
    n = g.n_lines
    fiber = list(range(1, n + 1))
    W = []
    records = []
    for _x, kind, payload in _events(g):
        lines = (list(g.incident_lines(payload)) if kind == "vertex"
                 else list(payload))
        a0, k = min(fiber.index(l) for l in lines), len(lines)
        records.append((kind, payload, a0, k, list(W)))
        W = W + list(block_half_twist(n, a0 + 1, a0 + k).word)
        fiber[a0:a0 + k] = reversed(fiber[a0:a0 + k])
    cur = []
    for kind, payload, a0, k, w in reversed(records):
        ci = Braid(n, w).inverse()
        if kind == "cross":
            p, t = payload
            f = Factor(Braid(n, [a0 + 1]), 2, "node",
                       label=f"D{t}:{_pair_notation(g, p, t)}").conjugate(ci)
        else:
            lines = g.incident_lines(payload)
            core = block_half_twist(n, a0 + 1, a0 + k) ** 2
            label = ("V" + str(payload) + ":Delta2<"
                     + ",".join(str(t) for t in lines) + ">")
            f = Factor(core, 1, COMPOSITE_TAG, label=label).conjugate(ci)
        cur.append(((kind, payload), f))
    out = []
    for key in _paper_order(g):
        idx = next(i for i, (kk, _) in enumerate(cur) if kk == key)
        prefix = reduce(mul, (h.braid() for _, h in cur[:idx]), Braid(n))
        _, f = cur.pop(idx)
        out.append(f.conjugate(prefix.inverse()) if idx else f)
    return out


def test_phi8_build_matches_the_constructor_reference(graph):
    got = _build_phi8(graph).factors
    ref = _reference_phi8(graph)
    assert len(got) == len(ref) == 225
    for i, (a, b) in enumerate(zip(got, ref), 1):
        assert (a.core.word, a.transport.word, a.exponent, a.tag, a.label) \
            == (b.core.word, b.transport.word, b.exponent, b.tag, b.label), i
