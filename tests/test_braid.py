"""Group laws, canonical forms, and a sympy Burau-matrix oracle."""

import hashlib
import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge.braid import (Braid, artin_gen, cable, cable_word, delta,
                              delta_squared, from_text, half_twist_word,
                              inversions, perm_of_word, perm_to_word, to_text)
from braidforge.braid import (_overlap, common_suffix, free_reduce,
                              inverse_word, normal_form_of_word)
from braidforge.factorization import SINGULARITY_TAGS, Factor, Factorization

N = 4
letters = st.integers(min_value=-(N - 1), max_value=N - 1).filter(lambda k: k != 0)
words = st.lists(letters, max_size=12)


@given(words, words)
def test_multiplication_concatenates_words(u, v):
    assert Braid(N, u) * Braid(N, v) == Braid(N, u + v)


@given(words)
def test_inverse(u):
    b = Braid(N, u)
    assert (b * b.inverse()).is_identity()
    assert (b.inverse() * b).is_identity()


@given(words)
def test_degree_is_exponent_sum(u):
    assert Braid(N, u).degree == sum(1 if k > 0 else -1 for k in u)


@given(words, st.integers(min_value=-3, max_value=3))
def test_power(u, e):
    b = Braid(N, u)
    expect = Braid(N)
    for _ in range(abs(e)):
        expect = expect * (b if e > 0 else b.inverse())
    assert b ** e == expect


@given(words, words)
def test_conjugate(u, v):
    a, g = Braid(N, u), Braid(N, v)
    assert a.conjugate(g) == g.inverse() * a * g


@given(words)
def test_full_twist_is_central(u):
    b = Braid(N, u)
    z = delta_squared(N)
    assert b * z == z * b


def test_braid_relations():
    s = [artin_gen(N, k) for k in range(1, N)]
    assert s[0] * s[1] * s[0] == s[1] * s[0] * s[1]
    assert s[0] * s[2] == s[2] * s[0]


def test_delta_facts():
    for n in (2, 3, 4, 5):
        assert delta(n) ** 2 == delta_squared(n)
        assert delta_squared(n).degree == n * (n - 1)
        assert len(half_twist_word(n)) == n * (n - 1) // 2
        # delta conjugation flips the frame
        for k in range(1, n):
            assert artin_gen(n, k).conjugate(delta(n)) == artin_gen(n, n - k)


def test_permutation():
    """perm[i] is the end slot of the strand that starts at slot i."""
    assert perm_of_word(3, [1, 2]) == (2, 0, 1)


def test_the_normal_form_of_a_power_of_delta_is_that_power():
    """Delta^k's left-greedy normal form is (k, ()), so `is_full_twist`
    reads Delta^2 from a normal form alone."""
    for n in range(2, 55):
        for k in (1, 2):
            assert normal_form_of_word(n, delta(n).word * k) == (k, ())
        assert delta_squared(n).is_full_twist()
        assert not delta(n).is_full_twist()
        assert not (delta_squared(n) * artin_gen(n, 1)).is_full_twist()


def test_the_inverse_of_each_certificate_is_delta_to_the_minus_2(phi8_fz,
                                                                  regen_fz):
    """Long mixed runs on 27 and 54 strands: the inverse of each
    certificate's product word is Delta^-2."""
    for n, fz in ((27, phi8_fz), (54, regen_fz)):
        assert normal_form_of_word(n, inverse_word(fz.word())) == (-2, ())


# SHA-256 of the repr of the normal forms of `_corpus()`, pinned from the
# normalizer with separate growth rules for positive and negative runs
_CORPUS_DIGEST = ("de5ec3f87258a4a101e6baefcf1a85de"
                  "0c851e778a58d958ef26870cfc522c60")


def _corpus():
    """(n, word) for 300 words on each of 2..9 strands, of up to 60
    letters: all positive, all negative and mixed in turn."""
    rng = random.Random(31)
    for n in range(2, 10):
        for j in range(300):
            letters = [rng.randint(1, n - 1)
                       for _ in range(rng.randint(0, 60))]
            sign = (1, -1, 0)[j % 3]
            yield n, [k * (sign or rng.choice((1, -1))) for k in letters]


def test_normal_forms_of_a_pinned_corpus():
    got = [normal_form_of_word(n, word) for n, word in _corpus()]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == _CORPUS_DIGEST


def test_text_round_trip():
    b = Braid(4, [1, -2, 3, 3, -1])
    assert from_text(4, b.to_text()) == b
    assert to_text([]) == ""


def test_perm_to_word_realizes_the_permutation():
    for a in itertools.permutations(range(4)):
        w = perm_to_word(a)
        assert perm_of_word(4, w) == a
        assert len(w) == inversions(a)
        assert all(k > 0 for k in w)


def _nf_word(b: Braid) -> list:
    """Reconstruct a word from the left-greedy normal form."""
    inf, perms = b.normal_form()
    d = half_twist_word(b.n)
    word = []
    if inf >= 0:
        word += list(d) * inf
    else:
        word += [-x for x in reversed(d)] * (-inf)
    for p in perms:
        word += perm_to_word(list(p))
    return word


@given(words)
@settings(max_examples=50)
def test_normal_form_reconstructs_the_braid(u):
    b = Braid(N, u)
    assert Braid(N, _nf_word(b)) == b


def _burau(n: int, word, t):
    """Unreduced Burau matrix with every entry an expanded Laurent polynomial.

    Expanded Laurent polynomials in t are canonical, so two braids have equal
    Burau matrices iff the returned matrices compare equal.
    """
    m = sympy.eye(n)
    pos = sympy.Matrix([[1 - t, t], [1, 0]])
    neg = sympy.Matrix([[0, 1], [1 / t, 1 - 1 / t]])
    for k in word:
        blk = sympy.eye(n)
        a = abs(k) - 1
        blk[a:a + 2, a:a + 2] = pos if k > 0 else neg
        m = (m * blk).applyfunc(sympy.expand)
    return m


def test_burau_oracle_for_normal_form_equality(rng):
    """If two words have the same canonical form, their Burau matrices agree."""
    t = sympy.Symbol("t")
    for _ in range(15):
        u = [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, 8))]
        b = Braid(4, u)
        assert _burau(4, u, t) == _burau(4, _nf_word(b), t)


def test_burau_oracle_separates_distinct_braids():
    t = sympy.Symbol("t")
    assert _burau(3, [1], t) != _burau(3, [2], t)
    assert _burau(3, [1, 2], t) != _burau(3, [2, 1], t)
    assert Braid(3, [1, 2]) != Braid(3, [2, 1])


def test_hash_consistent_with_equality():
    a = Braid(3, [1, 2, 1])
    b = Braid(3, [2, 1, 2])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# ---------------------------------------------------------------------------
# the stored word is freely reduced, whichever way the braid was built


def _inv(u):
    return [-k for k in reversed(u)]


def _built_right(b: Braid, raw) -> None:
    """b stores the free reduction of raw and is the braid raw spells."""
    assert list(b.word) == free_reduce(raw)
    assert b.normal_form() == normal_form_of_word(b.n, raw)


@given(words)
def test_constructor_reduces(u):
    _built_right(Braid(N, u), u)


@given(words, words)
def test_product_reduces(u, v):
    _built_right(Braid(N, u) * Braid(N, v), u + v)


@given(words)
def test_inverse_reduces(u):
    _built_right(Braid(N, u).inverse(), _inv(u))


@given(words, st.integers(min_value=-4, max_value=4))
def test_power_reduces(u, e):
    base = u if e >= 0 else _inv(u)
    _built_right(Braid(N, u) ** e, base * abs(e))


@given(words, words, st.integers(min_value=-3, max_value=3))
def test_power_of_a_conjugate_reduces(u, v, e):
    # g^-1 a g has a long cyclic overlap, which the power strips once
    b = Braid(N, _inv(v) + u + v)
    base = list(b.word) if e >= 0 else _inv(b.word)
    _built_right(b ** e, base * abs(e))


@given(words, words)
def test_conjugate_reduces(u, v):
    _built_right(Braid(N, u).conjugate(Braid(N, v)), _inv(v) + u + v)


@given(words)
def test_from_text_reduces(u):
    _built_right(from_text(N, to_text(u)), u)


@given(words)
def test_cable_reduces(u):
    _built_right(cable(Braid(N, u)), cable_word(N, u))


@given(st.lists(st.tuples(words, st.sampled_from(sorted(SINGULARITY_TAGS))),
                max_size=5))
def test_factorization_product_reduces(parts):
    fz = Factorization(N, [Factor(Braid(N, u), SINGULARITY_TAGS[tag], tag)
                           for u, tag in parts])
    raw = [k for u, tag in parts for _ in range(SINGULARITY_TAGS[tag]) for k in u]
    _built_right(fz.product(), raw)


def test_letters_out_of_range_raise():
    for word in ([0], [4], [-4], [5, -5], [1, 2, 0, 3]):
        with pytest.raises(ValueError):
            Braid(4, word)
    with pytest.raises(ValueError):
        Braid(1, [1])
    assert Braid(4, [3, -3, -3]).word == (-3,)


# ---------------------------------------------------------------------------
# the table-driven word kernels equal their per-letter definitions

letters54 = st.integers(min_value=-53, max_value=53).filter(lambda k: k != 0)
words54 = st.lists(letters54, max_size=40)


def _ref_to_text(word) -> str:
    return " ".join(f"s{k}" if k > 0 else f"S{-k}" for k in word)


def _ref_letters(text) -> list:
    return [int(t[1:]) if t[0] == "s" else -int(t[1:]) for t in text.split()]


def _ref_overlap(a, b) -> int:
    i, m = 0, min(len(a), len(b))
    while i < m and a[-1 - i] == -b[i]:
        i += 1
    return i


def _ref_degree(word) -> int:
    return sum(1 if k > 0 else -1 for k in word)


@given(words54)
def test_text_kernels_match_the_per_letter_definitions(u):
    text = to_text(u)
    assert text == _ref_to_text(u)
    assert _ref_letters(text) == u
    b = from_text(54, text)
    assert b.word == tuple(free_reduce(u)) and b.n == 54
    assert b.to_text() == _ref_to_text(free_reduce(u))


def test_text_round_trip_on_long_b54_words(rng):
    for _ in range(20):
        u = [rng.choice([1, -1]) * rng.randint(1, 53) for _ in range(500)]
        b = Braid(54, u)
        text = b.to_text()
        assert text == _ref_to_text(b.word)
        assert from_text(54, text).word == b.word
    assert to_text([53, -53, 10, -1]) == "s53 S53 s10 S1"
    assert from_text(54, " s53\tS10\n s1 ").word == (53, -10, 1)


@given(words54, words54)
def test_overlap_matches_the_naive_loop(u, v):
    a, b = tuple(free_reduce(u)), tuple(free_reduce(v))
    # b starting with the inverse of a suffix of a gives long overlaps
    c = tuple(free_reduce(_inv(a[len(a) // 2:]) + list(b)))
    for x, y in ((a, b), (a, c), (c, a), (a, a), (u, v)):
        assert _overlap(x, y) == _ref_overlap(x, y)


def _ref_common_suffix(a, b) -> int:
    i, m = 0, min(len(a), len(b))
    while i < m and a[-1 - i] == b[-1 - i]:
        i += 1
    return i


@given(words54, words54, words54)
def test_common_suffix_matches_the_naive_loop(u, v, s):
    a, b = tuple(u + s), tuple(v + s)
    for x, y in ((a, b), (b, a), (a, a), (a, tuple(a)), (a, tuple(s)),
                 (tuple(s), a), (a, ()), ((), a), (tuple(u), tuple(v))):
        assert common_suffix(x, y) == _ref_common_suffix(x, y)
    text, other = to_text(a), to_text(b)
    assert common_suffix(text, other) == _ref_common_suffix(text, other)


def test_common_suffix_at_each_head_length():
    """The shorter word's last difference from the longer one's tail at
    each position: in its first _HEAD letters, which are walked, and past
    them, where the search bisects."""
    s = tuple(range(1, 25))
    for d in range(1, len(s) + 1):
        for head in ((), (-7, 3)):
            # the d-th letter differs, and the first one too
            b = tuple(-x if i in (0, d - 1) else x for i, x in enumerate(s))
            a = head + s
            assert common_suffix(a, b) == common_suffix(b, a) == len(s) - d
            assert common_suffix(a, b) == _ref_common_suffix(a, b)


def test_common_suffix_edge_cases():
    a = (1, -2, 3, 5)
    assert common_suffix(a, a) == 4                     # the same object
    assert common_suffix(a, tuple(list(a))) == 4        # equal, distinct
    assert common_suffix(a, (7,) + a) == 4              # a suffix of the other
    assert common_suffix((7,) + a, a[1:]) == 3
    assert common_suffix(a, (1, -2, 3, 4)) == 0         # different last letters
    assert common_suffix(a, (2, -2, 3, 5)) == 3
    for x, y in (((), ()), ((), a), (a, ())):           # the empty word
        assert common_suffix(x, y) == 0
    assert common_suffix("s2 s1", "S2 s2 s1") == 5


def test_overlap_edge_cases():
    a = (1, -2, 3, 5)
    assert _overlap(a, tuple(_inv(a))) == 4             # total
    assert _overlap(a, tuple(_inv(a)) + (7,)) == 4      # all of the shorter
    assert _overlap(a[1:], tuple(_inv(a))) == 3
    assert _overlap(a, (-5, -3, 1)) == 2
    assert _overlap(a, (5, -3)) == 0                    # zero
    assert _overlap(a, (-3,)) == 0
    for x, y in (((), ()), ((), a), (a, ())):           # the empty word
        assert _overlap(x, y) == 0


@given(words54)
def test_inverse_matches_the_per_letter_definition(u):
    b = Braid(54, u)
    assert b.inverse().word == tuple(-k for k in reversed(b.word))
    assert b.inverse().inverse().word == b.word


@given(words, words, st.integers(min_value=-3, max_value=3))
def test_degree_is_the_exponent_sum_of_each_result(u, v, e):
    a, g = Braid(N, u), Braid(N, v)
    # read the operands' degrees first, so a result that took its degree from
    # an operand would show
    assert a.degree == _ref_degree(a.word) == _ref_degree(u)
    assert g.degree == _ref_degree(g.word)
    for b in (a * g, g * a, a ** e, (a * g) ** e, a.conjugate(g),
              a.inverse(), g.inverse() * a):
        assert b.degree == _ref_degree(b.word)
        assert b.degree == _ref_degree(b.word)


@pytest.mark.parametrize("tok, message", [
    ("s", "bad braid token 's'"),
    ("S", "bad braid token 'S'"),
    ("x1", "bad braid token 'x1'"),
    ("s0", "letter 0 out of range for B_54"),
    ("s01", "bad braid token 's01'"),
    ("s-1", "bad braid token 's-1'"),
    ("s+1", "bad braid token 's+1'"),
    ("s1.5", "bad braid token 's1.5'"),
    ("s54", "letter 54 out of range for B_54"),
    ("S54", "letter -54 out of range for B_54"),
    ("s\u0661", "bad braid token 's\u0661'"),   # an Arabic-Indic digit one
])
def test_malformed_tokens_raise(tok, message):
    with pytest.raises(ValueError) as e:
        from_text(54, f"s1 {tok} S2")
    assert str(e.value) == message
