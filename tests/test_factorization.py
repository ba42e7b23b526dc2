"""Factors, factorizations, Hurwitz moves, and complex conjugation."""

import json
import random
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge.braid import (Braid, artin_gen, delta_squared, free_reduce,
                              from_text, to_text)
from braidforge.factorization import (Factor, Factorization,
                                      conj_factorization, frame_factorization,
                                      hurwitz_move)
from braidforge.regeneration import regenerate
from braidforge.verify import check_full_twist
from conftest import random_braid


def test_tag_exponent_contract():
    with pytest.raises(ValueError):
        Factor(artin_gen(3, 1), 3, "node")
    with pytest.raises(ValueError):
        Factor(artin_gen(3, 1), 1, "mystery")
    with pytest.raises(ValueError, match="^transport on 5 strands for a core on 3$"):
        Factor(artin_gen(3, 1), 1, "branch", Braid(5, [4]))
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


def test_frame_factorization_is_delta_squared():
    for n in range(2, 9):
        fz = frame_factorization(n)
        assert len(fz) == n * (n - 1)
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


@pytest.mark.parametrize("field", ["twist", "transport", "tag", "label",
                                   "core", "head"])
def test_from_json_names_a_field_that_is_no_string(field):
    obj = {"core": "s1", "exp": 1, "tag": "branch", field: 7}
    with pytest.raises(ValueError, match=f"^{field} must be a string, got 7$"):
        Factor.from_json(3, obj, Braid(3))


def test_from_json_checks_the_tag_of_a_core():
    with pytest.raises(ValueError, match="requires exponent 1"):
        Factor.from_json(3, {"core": "s1", "exp": 2, "tag": "branch"}, Braid(3))


def test_constructor_derives_the_twist(rng):
    for n in (2, 3, 5):
        c, t = random_braid(rng, n), random_braid(rng, n, 9)
        f = Factor(c, 1, "composite", t)
        assert f.twist == t.inverse() * c * t
        assert f.twist.word == tuple(free_reduce(t.inverse().word + c.word + t.word))
        assert f.degree == c.degree and f.braid() == f.twist
    g = random_braid(rng, 4)
    f = Factor(artin_gen(4, 2), 2, "node", g)
    assert f.twist == artin_gen(4, 2).conjugate(g) and f.is_half_twist()
    assert f.braid().word == (f.twist ** 2).word


def test_constructor_keeps_its_meaning(rng):
    """Factor(core, ..., transport) stores the core and transport as given;
    without a transport the core is the twist, so a caller that passes a
    twist alone gets the factor of that twist."""
    t = random_braid(rng, 4, 8)
    core = artin_gen(4, 3)
    f = Factor(core, 3, "cusp", t)
    assert f.core is core and f.transport is t and f.is_half_twist()
    twist = core.conjugate(t)
    g = Factor(twist, 3, "cusp")
    assert g.core is twist and g.transport.word == () and g.twist == twist
    assert f == g and f.braid() == g.braid() == twist ** 3


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                          st.sampled_from(["left", "right"])), max_size=12),
       st.booleans())
def test_word_is_the_reduced_concatenation(n, moves, conj):
    """word() extends with t^-1, core^e and t; it equals the free reduction
    of the factors' braids written one after another."""
    fz = frame_factorization(n)
    for i, direction in moves:
        fz = hurwitz_move(fz, 1 + i % (len(fz) - 1), direction)
    if conj:
        fz = conj_factorization(fz)
    words = [f.braid().word for f in fz]
    assert fz.word() == free_reduce(chain.from_iterable(words))
    assert words == [(f.twist ** f.exponent).word for f in fz]


def test_word_of_conjugated_phi8(phi8_fz):
    """The same on composites, whose core is a 30-letter block twist."""
    fz = conj_factorization(phi8_fz)
    assert fz.word() == free_reduce(chain.from_iterable(f.braid().word for f in fz))


def test_half_twist_counts(phi8_fz, regen_fz):
    assert sum(f.is_half_twist() for f in phi8_fz) == 216
    assert sum(f.is_half_twist() for f in regen_fz) == 27


def _twist_format(fz: Factorization) -> str:
    """fz as a certificate that writes each factor's twist out as its core,
    with no transport."""
    factors = []
    for f in fz:
        obj = {"core": f.twist.to_text(), "exp": f.exponent, "tag": f.tag}
        if f.label:
            obj["label"] = f.label
        factors.append(obj)
    return json.dumps({"format": 2, "strands": fz.strands, "factors": factors})


@pytest.mark.parametrize("name", ["phi8_fz", "regen_fz"])
def test_twist_format_certificate_loads(request, name):
    fz = request.getfixturevalue(name)
    back = Factorization.loads(_twist_format(fz))
    assert back.strands == fz.strands and len(back) == len(fz)
    for a, b in zip(back, fz):
        assert a.twist.word == b.twist.word and not a.transport.word
        assert (a.exponent, a.tag, a.label) == (b.exponent, b.tag, b.label)
    assert back == fz and back.word() == fz.word()


def test_regenerated_certificate_is_small(graph):
    assert len(regenerate(graph).dumps()) < 3_000_000


def test_regenerated_certificate_writes_transport_heads_only(graph):
    assert len(regenerate(graph).dumps()) < 250_000


def _forbid_twists(monkeypatch):
    """Make reading any factor's twist raise."""
    def twist(f):
        raise AssertionError(f"built the twist of {f.label or 'a factor'}")
    monkeypatch.setattr(Factor, "twist", property(twist))


def test_pipeline_builds_no_twist(phi8_fz, graph, monkeypatch):
    """Loading, regenerating, certifying and writing read cores and
    transports only: no factor's twist is built."""
    text = phi8_fz.dumps()
    _forbid_twists(monkeypatch)
    src = Factorization.loads(text)
    assert check_full_twist(src).passed
    fz = regenerate(graph, src)
    assert check_full_twist(fz).passed
    fz.dumps()


def test_loads_of_one_certificate_compare_equal_without_twists(regen_fz,
                                                              monkeypatch):
    text = regen_fz.dumps()
    _forbid_twists(monkeypatch)
    a, b = Factorization.loads(text), Factorization.loads(text)
    assert a == b


def test_a_new_transport_moves_the_twist():
    """A factor is its fields: reading the twist, then assigning another
    transport, leaves braid() and the twist to follow the new transport."""
    f = Factor(artin_gen(3, 1), 1, "branch")
    assert f.twist == f.braid() == artin_gen(3, 1)
    f.transport = artin_gen(3, 2)
    want = artin_gen(3, 1).conjugate(artin_gen(3, 2))
    assert f.braid().word == f.twist.word == want.word == (-2, 1, 2)


def test_equal_twists_with_other_transports_compare_equal(rng):
    for k in (1, 2, 3):
        t = random_braid(rng, 4, 8)
        f = Factor(artin_gen(4, k), 2, "node", t)
        g = Factor(artin_gen(4, k), 2, "node", artin_gen(4, k) * t)
        assert f.transport.word != g.transport.word
        assert f == g and f.twist == g.twist


def test_a_conjugate_that_moves_the_twist_compares_unequal(phi8_fz):
    # factor 28's twist does not commute with s1
    f = phi8_fz.factors[28]
    moved = f.conjugate(artin_gen(27, 1))
    assert f.core.word == moved.core.word
    assert moved != f and f != moved
    assert f == Factorization.loads(phi8_fz.dumps()).factors[28]


def _payload(n, transports):
    """A certificate that writes each transport in full, as a head with
    keep 0."""
    return json.dumps({"format": 2, "strands": n, "factors": [
        {"core": "s1", "exp": 1, "tag": "branch", "head": t}
        for t in transports]})


@pytest.mark.parametrize("transports", [
    ["s2 s1", "s2 s1", "s2 s1"],                        # identical texts
    ["s2 s1", "s1  s2 s1", "s2\ts1", " s3 s2 s1 ", "s3 s2 s1\n"],
    ["s1 s2", " s1 s2", "s3 s1 s2", " s2", "s3 s2"],    # a leading space
    ["s2 s1", "S2 s2 s1", "s3 s2 s1"],                  # head cancels
    ["s3 s2 s1", "s2 s2 s1", "s1 s3 s2 s1", "s2 s1"],   # one-token head
    ["s1 s2", "s2 s1", "S3 S1", "s2 s3 S1", "s12 s3"],  # no shared token
    ["s2 s1", "s1 S1 s3 s2 s1", "s1 s3 s2 s1", "s3 s2 s1"],
    ["s12 s3", "s2 s12 s3", "s12 s3", "S12 s3", "s12 s12 s3"],
    ["", "s2 ", "s1 s2 ", "", "s3 s2 s1 "],             # after an empty one
])
def test_loads_reads_each_transport_as_from_text(transports):
    n = 13
    fz = Factorization.loads(_payload(n, transports))
    for f, text in zip(fz, transports):
        assert f.transport.word == from_text(n, text).word


@pytest.mark.parametrize("n, transports", [
    (3, ["s2 s1", "x2 s1"]),
    (3, ["s2 s1", "s3 s1"]),
    (3, ["s2 s1", "s2 s1 s0"]),
    (4, ["s2 s1", "s1 s2\ts9 s1"]),
])
def test_loads_raises_what_from_text_raises(n, transports):
    with pytest.raises(ValueError) as want:
        from_text(n, transports[-1])
    with pytest.raises(ValueError) as got:
        Factorization.loads(_payload(n, transports))
    assert str(got.value) == f"factor {len(transports)}: {want.value}"


def _moved_phi8(fz, seed, moves=10):
    rng = random.Random(seed)
    for _ in range(moves):
        fz = hurwitz_move(fz, rng.randint(1, len(fz) - 1),
                          rng.choice(["left", "right"]))
    return fz


def _reduced_concatenation(fz):
    return free_reduce(chain.from_iterable(f.braid().word for f in fz))


@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_word_of_a_regenerated_moved_phi8(graph, phi8_fz, seed):
    """word() walks transport heads only; the word is the reduced
    concatenation of the factors' words all the same."""
    fz = regenerate(graph, _moved_phi8(phi8_fz, seed))
    assert fz.word() == _reduced_concatenation(fz)


@pytest.mark.parametrize("name", ["phi8_fz", "regen_fz"])
def test_word_of_a_loaded_certificate(request, name):
    fz = Factorization.loads(request.getfixturevalue(name).dumps())
    assert fz.word() == _reduced_concatenation(fz)


def _dumps_per_factor(fz):
    """fz with each transport written in full, as format 1 wrote it: a head
    with keep 0."""
    factors = []
    for f in fz:
        obj = {"core": to_text(f.core.word), "exp": f.exponent, "tag": f.tag}
        if f.label:
            obj["label"] = f.label
        if f.transport.word:
            obj["head"] = to_text(f.transport.word)
        factors.append(obj)
    return json.dumps({"format": 2, "strands": fz.strands, "factors": factors},
                      indent=1, sort_keys=True)


def _dumps_head_keep(fz):
    """fz as a certificate of format 2, each factor rendered on its own: the
    suffix its transport shares with the previous one is found letter by
    letter."""
    factors, prev = [], ()
    for f in fz:
        w = f.transport.word
        keep = 0
        while (keep < min(len(w), len(prev))
               and w[len(w) - 1 - keep] == prev[len(prev) - 1 - keep]):
            keep += 1
        obj = {"core": to_text(f.core.word), "exp": f.exponent, "tag": f.tag}
        if f.label:
            obj["label"] = f.label
        if len(w) > keep:
            obj["head"] = to_text(w[:len(w) - keep])
        if keep:
            obj["keep"] = keep
        factors.append(obj)
        prev = w
    return json.dumps({"format": 2, "strands": fz.strands, "factors": factors},
                      indent=1, sort_keys=True)


@pytest.mark.parametrize("case", ["phi8", "phi0", "conj", "moved"])
def test_dumps_matches_the_per_factor_rendering(phi8_fz, regen_fz, case):
    fz = {"phi8": phi8_fz, "phi0": regen_fz,
          "conj": conj_factorization(phi8_fz),
          "moved": _moved_phi8(phi8_fz, 5)}[case]
    assert fz.dumps() == _dumps_head_keep(fz)


def _assert_word_identical(a, b):
    assert a.strands == b.strands and len(a) == len(b)
    for f, g in zip(a, b):
        assert f.core.word == g.core.word
        assert f.transport.word == g.transport.word
        assert (f.exponent, f.tag, f.label) == (g.exponent, g.tag, g.label)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["phi8", "phi0", "conj", "moved", "moved-regen"]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_format_2_round_trip(graph, phi8_fz, regen_fz, case, seed):
    """loads(dumps(x)) has x's words, exponents, tags and labels, and it
    dumps to the same text."""
    if case == "phi8":
        fz = phi8_fz
    elif case == "phi0":
        fz = regen_fz
    elif case == "conj":
        fz = conj_factorization(phi8_fz)
    else:
        fz = _moved_phi8(phi8_fz, seed)
        if case == "moved-regen":
            fz = regenerate(graph, fz)
    text = fz.dumps()
    back = Factorization.loads(text)
    _assert_word_identical(back, fz)
    assert back.dumps() == text


@pytest.mark.parametrize("name", ["phi8_fz", "regen_fz"])
def test_format_1_certificate_loads(request, name):
    fz = request.getfixturevalue(name)
    back = Factorization.loads(_dumps_per_factor(fz))
    _assert_word_identical(back, fz)
    assert back.dumps() == fz.dumps()


def test_a_head_that_cancels_into_the_kept_suffix_is_reduced():
    fz = Factorization.loads(json.dumps({"format": 2, "strands": 4, "factors": [
        {"core": "s1", "exp": 1, "tag": "branch", "head": "s2 s3"},
        {"core": "s1", "exp": 1, "tag": "branch", "head": "s1 S2", "keep": 2},
        {"core": "s1", "exp": 1, "tag": "branch", "keep": 1}]}))
    assert [f.transport.word for f in fz] == [(2, 3), (1, 3), (3,)]


def _format_2(*factors):
    return json.dumps({"format": 2, "strands": 4, "factors": [
        {"core": "s1", "exp": 1, "tag": "branch", "head": "s2 s3"}, *factors]})


@pytest.mark.parametrize("factor, message", [
    ({"keep": 1.0}, "keep must be an integer from 0 to 2, the previous "
                    "transport's length, got 1.0"),
    ({"keep": True}, "keep must be an integer from 0 to 2, the previous "
                     "transport's length, got True"),
    ({"keep": -1}, "keep must be an integer from 0 to 2, the previous "
                   "transport's length, got -1"),
    ({"keep": 3}, "keep must be an integer from 0 to 2, the previous "
                  "transport's length, got 3"),
    ({"transport": "s2 s3"}, "a format 2 factor has no transport"),
    ({"twist": "s1"}, "a format 2 factor has no twist"),
    ({"head": 5}, "head must be a string, got 5"),
    ({"head": "s2 x3"}, "bad braid token 'x3'"),
    ({"head": "s2 s4"}, "letter 4 out of range for B_4"),
    ({"exp": None}, "exponent must be an integer, got None"),
])
def test_format_2_errors_name_the_factor(factor, message):
    entry = {"core": "s1", "exp": 1, "tag": "branch", **factor}
    with pytest.raises(ValueError) as e:
        Factorization.loads(_format_2(entry))
    assert str(e.value) == f"factor 2: {message}"


def test_a_missing_format_2_field_names_the_factor():
    with pytest.raises(ValueError) as e:
        Factorization.loads(_format_2({"exp": 1, "tag": "branch", "keep": 2}))
    assert str(e.value) == "factor 2: missing field 'core'"


@pytest.mark.parametrize("obj, message", [
    ({"format": 1, "strands": 3, "factors": []}, "unknown certificate format 1"),
    ({"format": "2", "strands": 3, "factors": []},
     "unknown certificate format '2'"),
    ({"format": 2, "strands": 1, "factors": []},
     "strand count must be an integer >= 2, got 1"),
    ({"strands": 3, "factors": [{"core": "s1", "exp": 1, "tag": "branch",
                                 "head": "s2"}]},
     "missing field 'format': only format 2 certificates load"),
    ([1, 2, 3], "a certificate must be a JSON object, got list"),
    ({"format": 2, "strands": 3, "factors": "abc"},
     "factors must be a list, got str"),
    ({"format": 2, "strands": 3, "factors": [5]},
     "factor 1: must be a JSON object, got int"),
])
def test_certificate_level_errors(obj, message):
    with pytest.raises(ValueError) as e:
        Factorization.loads(json.dumps(obj))
    assert str(e.value) == message


def test_loading_a_certificate_on_many_strands_is_small():
    text = json.dumps({"format": 2, "strands": 10 ** 5, "factors": [
        {"core": "s1", "exp": 1, "tag": "branch", "head": "s99999 S5"}]})
    tracemalloc.start()
    try:
        fz = Factorization.loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fz.strands == 10 ** 5 and fz.factors[0].transport.word == (99999, -5)
    assert peak < 1_000_000


_tokens = st.sampled_from(["s1", "S1", "s2", "S2", "s3", "S3", "s12", "S12"])
_seps = st.sampled_from([" "] * 6 + ["  ", "\t", "\n"])
_edges = st.sampled_from(["", "", " ", "\t"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.just([]) | st.lists(_tokens, max_size=4),
                          st.sampled_from([0, 0, 1, 2, 3, 6]),
                          st.lists(_seps, min_size=6, max_size=6),
                          _edges, _edges),
                min_size=1, max_size=8))
def test_loads_reads_transports_sharing_suffixes_as_from_text(steps):
    """Transports built from a head and part of the previous one's tokens,
    some empty or with other whitespace, read as from_text reads them."""
    texts, prev = [], []
    for head, keep, seps, lead, trail in steps:
        tokens = head + prev[len(prev) - min(keep, len(prev)):]
        text = "".join(t + s for t, s in zip(tokens, seps + [" "] * 20))
        texts.append(lead + text.rstrip(" ") + trail)
        prev = tokens
    fz = Factorization.loads(_payload(13, texts))
    for f, text in zip(fz, texts):
        assert f.transport.word == from_text(13, text).word
