"""Exact braid-group arithmetic.

Braids on n strands are words in the Artin generators sigma_1 .. sigma_{n-1},
stored as signed integers (+k / -k).  Equality is decided through the left-greedy
Garside normal form Delta^d . p_1 ... p_m over permutation braids: two words are
equal in B_n iff their normal forms coincide.

Permutation braids are represented as tuples, perm[i] = end position of the
strand starting at position i (0-based).  The product convention is
left-to-right: (a*b) means "do a, then b", so the tuple of a*b sends i to
b[a[i]].  With this convention sigma_k is the transposition of positions k-1,
k, the starting set of a permutation braid is its descent set and the
finishing set is the descent set of its inverse.  This is the package's one
permutation direction: `perm_of_word` reads a word's permutation in it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat
from operator import add, lt, neg


Letter = int  # +k or -k for sigma_k^{+-1}, 1 <= k <= n-1
Perm = tuple  # tuple[int, ...]


# ---------------------------------------------------------------------------
# permutation-braid primitives


def invert(a) -> list:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return out


def flip(a) -> list:
    """Conjugation by Delta: flip(a) = Delta^-1 a Delta."""
    n = len(a)
    return [n - 1 - a[n - 1 - i] for i in range(n)]


def inversions(a: Perm) -> int:
    """Word length of the permutation braid (number of crossings)."""
    n = len(a)
    total = 0
    for i in range(n):
        ai = a[i]
        for j in range(i + 1, n):
            if ai > a[j]:
                total += 1
    return total


def perm_of_word(n: int, word) -> Perm:
    """Underlying permutation of a braid word (signs ignored)."""
    out = list(range(n))
    for k in word:
        i = abs(k) - 1
        out[i], out[i + 1] = out[i + 1], out[i]
    # out as built maps positions through successive swaps applied left-to-right
    # on positions, which is exactly the start->end assignment we want when
    # each letter swaps the *current* occupants of slots i, i+1; invert once.
    return tuple(invert(out))


def perm_to_word(a: Perm) -> list[Letter]:
    """A positive word (1-based letters) realizing the permutation braid.

    The word w has inversions(a) letters and perm_of_word(len(a), w) == a.
    """
    a = list(a)
    n = len(a)
    word: list[Letter] = []
    # bubble-sort a to the identity: a = t_m ... t_1 as functions for the
    # adjacent swaps t_1, ..., t_m, so the swaps in the order they are made
    # spell the word
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if a[i] > a[i + 1]:
                a[i], a[i + 1] = a[i + 1], a[i]
                word.append(i + 1)
                changed = True
    return word


def _left_weight_pair(fA, fB) -> bool:
    """Make the adjacent factor pair left-weighted in place; return "changed".

    Factors are mutable [perm, inverse-perm] pairs.  Uses the descent
    characterization: slide sigma_i from the front of B to the back of A while
    i is a descent of B and not a descent of A^-1.  A single bubble pass with
    one-step backtracking finds every slide (each slide only creates new
    opportunities at the neighbouring indices).
    """
    A, Ainv = fA
    B, Binv = fB
    n1 = len(A) - 1
    changed = False
    i = 0
    while i < n1:
        if B[i] > B[i + 1] and Ainv[i] < Ainv[i + 1]:
            # A <- A * sigma_i: swap values i, i+1 of A (slots of Ainv)
            p, q = Ainv[i], Ainv[i + 1]
            Ainv[i], Ainv[i + 1] = q, p
            A[p], A[q] = A[q], A[p]
            # B <- sigma_i^-1 * B: swap arguments i, i+1 of B (values of Binv)
            u, v = B[i], B[i + 1]
            B[i], B[i + 1] = v, u
            Binv[v], Binv[u] = i, i + 1
            changed = True
            if i:
                i -= 1
        else:
            i += 1
    return changed


class _Normalizer:
    """Streaming left-greedy normalizer.

    Maintains Delta^d . f_1 ... f_m with the f_i left-weighted.  Letters are
    grouped into chunks before entering the factor list (`push_letter`).  A
    lazy flip parity absorbs the Delta^-1 introduced by each negative chunk,
    so negative letters cost the same as positive ones: the stored factor s_i
    represents the actual factor flip^parity(s_i), and flip is an
    automorphism preserving left-weightedness, Delta and the identity.
    A negative run sigma_a^-1 ... sigma_b^-1 spells P^-1, P = sigma_b ...
    sigma_a, and is held as P's reversal sigma_a ... sigma_b, which grows
    on the right as a positive run does and has P^-1's permutation.
    """

    def __init__(self, n: int):
        self.n = n
        self.d = 0
        self.parity = 0
        self.factors: list = []  # mutable [perm-list, inverse-list] pairs
        self._id = list(range(n))
        self._delta = list(range(n - 1, -1, -1))
        # chunk accumulator: a permutation braid under construction, in actual
        # (unflipped) coordinates; sign -1 means a run of negative letters,
        # held as the reversal of the braid it inverts.
        self._acc = None  # [perm, inv] or None
        self._acc_sign = 1

    # -- factor-list maintenance -------------------------------------------

    def _append_perm(self, perm: list, inv: list) -> None:
        """Append a permutation braid on the right and restore normal form."""
        if perm == self._id:
            return
        fs = self.factors
        fs.append([perm, inv])
        j = len(fs) - 2
        while j >= 0 and _left_weight_pair(fs[j], fs[j + 1]):
            j -= 1
        # trim: Deltas surface at the front, identities at the back
        ndrop = 0
        while ndrop < len(fs) and fs[ndrop][0] == self._delta:
            ndrop += 1
        if ndrop:
            del fs[:ndrop]
            self.d += ndrop
        while fs and fs[-1][0] == self._id:
            fs.pop()

    def _flush(self) -> None:
        acc = self._acc
        if acc is None:
            return
        self._acc = None
        perm, inv = acc
        if self._acc_sign < 0:
            # P^-1 = Delta^-1 . (Delta P^-1): one Delta^-1 (a parity toggle)
            # plus the left-complement permutation braid, per chunk
            self.d -= 1
            self.parity ^= 1
            perm = [perm[x] for x in self._delta]  # Delta * P^-1
        if self.parity:
            perm = flip(perm)
        if perm is not acc[0]:  # complemented or flipped
            inv = invert(perm)
        self._append_perm(perm, inv)

    # -- letter stream ------------------------------------------------------

    def push_letter(self, k: Letter) -> None:
        """Add letter k to the chunk, a run of letters of one sign that
        spells a permutation braid or its inverse; a letter that would end
        the run flushes the chunk and starts the next."""
        i = abs(k) - 1
        acc = self._acc
        if acc is not None and k * self._acc_sign > 0:
            perm, inv = acc
            if inv[i] < inv[i + 1]:
                # the chunk extends on the right: acc * sigma_i
                p, q = inv[i], inv[i + 1]
                inv[i], inv[i + 1] = q, p
                perm[p], perm[q] = perm[q], perm[p]
                return
        self._flush()
        perm = list(range(self.n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        self._acc = [perm, list(perm)]
        self._acc_sign = 1 if k > 0 else -1

    def result(self):
        self._flush()
        return self.d, tuple(tuple(flip(p) if self.parity else p)
                             for p, _ in self.factors)


def normal_form_of_word(n: int, word):
    """Left-greedy normal form (inf, permutation factors) of a braid word.

    Reads the word's letters as given, one at a time: the normalizer works
    in the group, so a cancelling pair needs no reduction beforehand.
    """
    nf = _Normalizer(n)
    push = nf.push_letter
    for k in word:
        push(k)
    return nf.result()


def _is_reduced(word) -> bool:
    """No adjacent pair cancels, decided by one C-level scan."""
    # letters are non-zero, so a pair cancels iff it sums to 0
    return len(word) < 2 or 0 not in map(add, word, islice(word, 1, None))


def free_reduce(word):
    """Cancel adjacent sigma sigma^-1 pairs."""
    word = list(word)
    if _is_reduced(word):
        return word
    out: list[Letter] = []
    for k in word:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return out


def _overlap(a, b) -> int:
    """Number of letters that cancel where freely reduced words a, b meet.

    The last i letters of a are the inverse of the first i of b, and a * b
    reduces to a[:len(a) - i] + b[i:].
    """
    # most joins cancel nothing: decide those before any iterator set-up
    if not a or not b or a[-1] != -b[0]:
        return 0
    # letters are non-zero, so a[-1 - i] cancels b[i] iff they sum to 0:
    # the answer is the first index with a non-zero sum
    return next(compress(count(), map(add, reversed(a), b)),
                min(len(a), len(b)))


# the leading letters of the shorter word that `common_suffix` walks
_HEAD = 8


def common_suffix(a, b) -> int:
    """Number of trailing letters the words (or strings) a and b share.

    Consecutive transports of a factorization share most of their letters:
    mostly the shorter one is a suffix of the longer, or only its first few
    letters differ (four for cabled transports, a letter's cable).  So one
    C-level slice comparison tries the whole shorter length, and one all
    but its first _HEAD letters, which are then walked; a longer difference
    is bisected with slice comparisons.
    """
    if a is b:
        return len(a)
    la, lb = len(a), len(b)
    m = min(la, lb)
    if not m or a[-1] != b[-1]:
        return 0
    if a[la - m:] == b[lb - m:]:
        return m
    h = min(_HEAD, m)
    if a[la - m + h:] == b[lb - m + h:]:
        # the last difference is among the first h letters
        i = h - 1
        while a[la - m + i] == b[lb - m + i]:
            i -= 1
        return m - 1 - i
    # lo trailing letters are shared, hi are not
    lo, hi = 1, m - h
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[la - mid:] == b[lb - mid:]:
            lo = mid
        else:
            hi = mid
    return lo


def inverse_word(word) -> tuple:
    """The word of the inverse: the letters reversed and negated."""
    return tuple(map(neg, reversed(word)))


def extend_reduced(out: list, word) -> None:
    """out <- free reduction of out + word, for freely reduced out and word."""
    if out and word and out[-1] == -word[0]:
        i = _overlap(out, word)
        del out[-i:]
        out.extend(islice(word, i, None))
    else:
        out.extend(word)


# ---------------------------------------------------------------------------
# the public Braid value


class Braid:
    """An element of B_n, stored as a freely reduced word with a cached
    normal form.

    `word` never contains an adjacent sigma_k sigma_k^-1 pair.  The public
    constructor validates and reduces its input; the group operations keep
    the invariant with cancellation at the joins only.
    """

    __slots__ = ("n", "word", "_nf")

    def __init__(self, n: int, word=()):
        if n < 1:
            raise ValueError(f"strand count must be >= 1, got {n}")
        word = tuple(word)
        if word:
            if min(word) < 1 - n or max(word) > n - 1 or 0 in word:
                bad = next(k for k in word if not 1 <= abs(k) <= n - 1)
                raise ValueError(f"letter {bad} out of range for B_{n}")
            if not _is_reduced(word):
                word = tuple(free_reduce(word))
        _SET_N(self, n)
        _SET_WORD(self, word)
        _SET_NF(self, None)

    @classmethod
    def _reduced(cls, n: int, word: tuple) -> "Braid":
        """A braid from a tuple of valid letters already freely reduced."""
        b = object.__new__(cls)
        _SET_N(b, n)
        _SET_WORD(b, word)
        _SET_NF(b, None)
        return b

    def __setattr__(self, name, value):
        raise AttributeError("Braid values are immutable")

    # -- group structure ----------------------------------------------------

    def __mul__(self, other: "Braid") -> "Braid":
        if self.n != other.n:
            raise ValueError(f"strand mismatch: B_{self.n} vs B_{other.n}")
        a, b = self.word, other.word
        if a and b and a[-1] == -b[0]:
            i = _overlap(a, b)
            return Braid._reduced(self.n, a[:len(a) - i] + b[i:])
        return Braid._reduced(self.n, a + b)

    def inverse(self) -> "Braid":
        return Braid._reduced(self.n, inverse_word(self.word))

    def __pow__(self, e: int) -> "Braid":
        if e == 1:
            return self
        if e == 0:
            return Braid(self.n)
        w = (self if e > 0 else self.inverse()).word
        # w = u v u^-1 with v cyclically reduced, so w^e = u v^e u^-1 reduced
        j = _overlap(w, w)
        core = w[j:len(w) - j]
        return Braid._reduced(self.n, w[:j] + core * abs(e) + w[len(w) - j:])

    def conjugate(self, g: "Braid") -> "Braid":
        """g^-1 * self * g (the paper's (self)_g = self^g)."""
        return g.inverse() * self * g

    # -- canonical form -----------------------------------------------------

    def normal_form(self):
        nf = self._nf
        if nf is None:
            nf = normal_form_of_word(self.n, self.word)
            _SET_NF(self, nf)
        return nf

    def __eq__(self, other) -> bool:
        if not isinstance(other, Braid):
            return NotImplemented
        if self.n != other.n:
            return False
        # identical words are the same braid; other words need normal forms
        return self.word == other.word or self.normal_form() == other.normal_form()

    def __hash__(self) -> int:
        return hash((self.n, self.normal_form()))

    def is_identity(self) -> bool:
        return self.normal_form() == (0, ())

    def is_full_twist(self) -> bool:
        """Whether this is Delta^2_n, whose normal form is (2, ())."""
        return self.normal_form() == (2, ())

    # -- invariants ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Exponent sum of the word (crossing number with signs)."""
        word = self.word
        # every negative letter counts -1 instead of +1
        return len(word) - 2 * sum(map(lt, word, repeat(0)))

    def moved_slots(self) -> list:
        """The 0-based slots that the permutation moves, ascending."""
        return [j for j, i in enumerate(perm_of_word(self.n, self.word))
                if i != j]

    # -- presentation -------------------------------------------------------

    def __repr__(self) -> str:
        return f"Braid({self.n}, {to_text(self.word)!r})"

    def to_text(self) -> str:
        return to_text(self.word)


# the slot setters, which bypass the immutability guard in __setattr__
_SET_N, _SET_WORD, _SET_NF = (Braid.__dict__[s].__set__
                              for s in Braid.__slots__)


# ---------------------------------------------------------------------------
# text notation: sigma_k^{+1} is `s<k>`, sigma_k^{-1} is `S<k>`, with k a
# canonical decimal (no sign, no leading zero)


class _TokenTable(dict):
    """letter -> token, each entry made on first use."""

    def __missing__(self, k):
        tok = self[k] = f"s{k}" if k > 0 else f"S{-k}"
        return tok


_TOKENS = _TokenTable()


class _LetterTable(dict):
    """token -> letter for every canonical token, each entry made on first
    use; the letter's range is left to the Braid constructor."""

    def __missing__(self, tok):
        if not _CANONICAL.fullmatch(tok):
            raise KeyError(tok)
        k = int(tok[1:])
        k = self[tok] = k if tok[0] == "s" else -k
        return k


_CANONICAL = re.compile(r"[sS](0|[1-9][0-9]*)")
_LETTERS = _LetterTable()


def to_text(word) -> str:
    """`s3` / `S3` text notation for sigma_3^{+1} / sigma_3^{-1}."""
    return " ".join(map(_TOKENS.__getitem__, word))


def from_text(n: int, text: str) -> Braid:
    """The braid of a text word; only canonical tokens of B_n are read."""
    tokens = text.split()
    try:
        word = tuple(map(_LETTERS.__getitem__, tokens))
    except KeyError:
        # name the first token that is malformed or outside 1..n-1
        for tok in tokens:
            try:
                k = _LETTERS[tok]
            except KeyError:
                raise ValueError(f"bad braid token {tok!r}") from None
            Braid(n, (k,))
    return Braid(n, word)


# ---------------------------------------------------------------------------
# standard elements


def artin_gen(n: int, k: int) -> Braid:
    """The elementary braid sigma_k in B_n."""
    if not (1 <= k <= n - 1):
        raise ValueError(f"generator index {k} out of range for B_{n}")
    return Braid(n, (k,))


def half_twist_word(n: int) -> list[Letter]:
    """A positive word for Delta_n: (s1)(s2 s1)...(s_{n-1} ... s1)."""
    word: list[Letter] = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return word


def block_half_twist(n: int, a: int, b: int) -> Braid:
    """Positive half-twist of the contiguous slot block a..b (1-based)."""
    return Braid(n, [l + a - 1 for l in half_twist_word(b - a + 1)])


def block_full_twist(n: int, a: int, b: int) -> Braid:
    """Positive full twist of the contiguous slot block a..b (1-based): the
    block's half-twist word written twice."""
    return Braid(n, block_half_twist(n, a, b).word * 2)


def delta(n: int) -> Braid:
    if n < 2:
        raise ValueError("Delta needs n >= 2")
    return Braid(n, half_twist_word(n))


def delta_squared(n: int) -> Braid:
    """The full twist, generator of the center of B_n; degree n(n-1)."""
    if n < 2:
        raise ValueError("full twist needs n >= 2")
    return block_full_twist(n, 1, n)


# ---------------------------------------------------------------------------
# 2-cabling


@lru_cache(maxsize=None)
def _ribbon_crossings(n: int) -> dict:
    """Letter of B_n -> the four letters of its ribbon crossing in B_2n."""
    table = {}
    for k in range(1, n):
        w = (2 * k, 2 * k + 1, 2 * k - 1, 2 * k)
        table[k] = w
        table[-k] = tuple(-x for x in reversed(w))
    return table


def cable_word(n: int, word) -> list:
    """Image of a braid word of B_n under the 2-cabling into B_2n."""
    return list(chain.from_iterable(map(_ribbon_crossings(n).__getitem__, word)))


def cable(b: Braid) -> Braid:
    """The 2-cabling homomorphism B_n -> B_2n (no internal ribbon twist).

    The cable of a freely reduced word is freely reduced: no letter cancels
    inside a crossing's four letters, and the cables of sigma_k and
    sigma_j^-1 cancel at a join only when j == k.
    """
    return Braid._reduced(2 * b.n, tuple(cable_word(b.n, b.word)))
