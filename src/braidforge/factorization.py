"""Factors and factorizations of braids.

A Factor is a conjugate t^-1 . core . t of a local model, the core, raised
to an Artin exponent r in {1,2,3,4} and tagged with the singularity type it
came from (branch/node/cusp/tangent), or a composite block (e.g. a full twist
Delta^2<...>) with exponent 1 or 2.  A Factorization is an ordered product of
factors, multiplied left to right.
"""

from __future__ import annotations

import json
from operator import neg

from .braid import (Braid, artin_gen, block_full_twist, cable_word,
                    common_suffix, extend_reduced, from_text, inverse_word,
                    to_text)

SINGULARITY_TAGS = {"branch": 1, "node": 2, "cusp": 3, "tangent": 4}
EXP_TAG = {r: tag for tag, r in SINGULARITY_TAGS.items()}
COMPOSITE_TAG = "composite"


def _check_tag(exponent: int, tag: str) -> None:
    if tag in SINGULARITY_TAGS:
        if exponent != SINGULARITY_TAGS[tag]:
            raise ValueError(
                f"tag {tag!r} requires exponent {SINGULARITY_TAGS[tag]}, got {exponent}")
    elif tag != COMPOSITE_TAG:
        raise ValueError(f"unknown provenance tag {tag!r}")
    elif exponent not in (1, 2):
        # a vertex's block full twist, or a Lefschetz row's block half twist
        # squared; no producer writes another, and a large exponent would
        # only blow up the product word
        raise ValueError(f"tag {tag!r} requires exponent 1 or 2, got {exponent}")


class Factor:
    """twist^exponent with provenance, twist = transport^-1 . core . transport.

    Stores two braids, each a freely reduced word: the `core`, a local model,
    and the `transport` t that carries it to its place.  The core is sigma_k
    for a half-twist (checked by `is_half_twist`), the four-letter ribbon
    crossing for a cabled factor and a block full twist for a vertex
    composite (exponent 1, tag "composite").  The `twist` t^-1 . core . t is
    derived on each read; the hot paths never build it.

    The constructor checks that the tag admits the exponent and that core
    and transport lie in one braid group, and stores them as given; without
    a transport the core is the twist.

    In a monodromy factorization every transport is the braid accumulated
    along the sweep, so consecutive factors' transports share most of their
    letters as a common suffix.  A certificate (`Factorization.to_json`)
    therefore writes a transport as its `head`, the letters before the
    suffix it shares with the previous factor's transport, and `keep`, that
    suffix's length: {"core", "exp", "tag", "label", "head", "keep"}, with
    `label` and `head` omitted when empty and `keep` when 0.  Such an entry
    is read against the previous transport, not alone.
    """

    __slots__ = ("core", "exponent", "tag", "transport", "label")

    def __init__(self, core: Braid, exponent: int, tag: str,
                 transport: Braid | None = None, label: str = ""):
        _check_tag(exponent, tag)
        if transport is None:
            transport = Braid(core.n)
        elif transport.n != core.n:
            raise ValueError(f"transport on {transport.n} strands for a core "
                             f"on {core.n}")
        self.core = core
        self.exponent = exponent
        self.tag = tag
        self.transport = transport
        self.label = label

    @property
    def n(self) -> int:
        return self.core.n

    @property
    def twist(self) -> Braid:
        """transport^-1 . core . transport, derived on each read."""
        return self.core.conjugate(self.transport)

    def braid(self) -> Braid:
        """twist^exponent, as t^-1, core^exponent and t."""
        return (self.core ** self.exponent).conjugate(self.transport)

    @property
    def degree(self) -> int:
        return self.core.degree * self.exponent

    def is_half_twist(self) -> bool:
        """Check core == sigma_k for some k, so twist = t^-1 . sigma_k . t."""
        core = self.core
        if core.degree != 1:
            return False
        moved = core.moved_slots()
        if len(moved) != 2 or moved[1] != moved[0] + 1:
            return False
        return core == artin_gen(self.n, moved[0] + 1)

    def conjugate(self, g: Braid) -> "Factor":
        """g^-1 . self . g: the same core, transported by t . g."""
        return Factor(self.core, self.exponent, self.tag,
                      self.transport * g, self.label)

    def __eq__(self, other):
        """Equal exponents and tags, and equal twists: word-identical cores
        and transports decide it without building either twist."""
        if not isinstance(other, Factor):
            return NotImplemented
        if self.exponent != other.exponent or self.tag != other.tag:
            return False
        return ((self.core.word == other.core.word
                 and self.transport.word == other.transport.word)
                or self.twist == other.twist)

    def __repr__(self):
        return f"Factor({self.label or self.twist.to_text()}, r={self.exponent}, {self.tag})"

    def to_json(self, keep: int) -> dict:
        """The format-2 certificate entry of a factor whose transport ends
        with the last `keep` letters of the previous factor's."""
        out = {"core": self.core.to_text(), "exp": self.exponent, "tag": self.tag}
        if self.label:
            out["label"] = self.label
        w = self.transport.word
        if len(w) > keep:
            out["head"] = to_text(w[:len(w) - keep])
        if keep:
            out["keep"] = keep
        return out

    @classmethod
    def from_json(cls, n: int, obj: dict, prev: Braid) -> "Factor":
        """The factor of a certificate entry.

        `prev` is the previous factor's transport (empty for the first
        factor), and the transport is the entry's `head` followed by the
        last `keep` letters of prev, cancelled at the join.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"must be a JSON object, got {type(obj).__name__}")
        if type(obj["exp"]) is not int:
            raise ValueError(f"exponent must be an integer, got {obj['exp']!r}")
        for field in ("core", "twist", "transport", "head", "tag", "label"):
            if not isinstance(obj.get(field, ""), str):
                raise ValueError(f"{field} must be a string, got {obj[field]!r}")
        for field in ("twist", "transport"):
            if field in obj:
                raise ValueError(f"a format 2 factor has no {field}")
        keep, pw = obj.get("keep", 0), prev.word
        if type(keep) is not int or not 0 <= keep <= len(pw):
            raise ValueError(f"keep must be an integer from 0 to {len(pw)}, "
                             f"the previous transport's length, got {keep!r}")
        transport = from_text(n, obj.get("head", ""))
        if keep == len(pw) and not transport.word:
            transport = prev
        elif keep:
            transport = transport * Braid._reduced(n, pw[len(pw) - keep:])
        return cls(from_text(n, obj["core"]), obj["exp"], obj["tag"],
                   transport, obj.get("label", ""))


def _where(i: int, f: Factor) -> str:
    """Names the i-th (1-based) factor of a certificate in a message."""
    return f"factor {i} {f.label or f!r}"


def _vertex_split(f: Factor, i: int) -> list:
    """The i-th factor, a vertex full twist, as 30 frame letters sharing its
    transport."""
    if f.exponent != 1:
        raise ValueError(f"{_where(i, f)}: a vertex factor has exponent 1, "
                         f"got {f.exponent}")
    core = f.core
    inf, perms = core.normal_form()
    # a nonzero inf (a power of Delta) moves every strand
    support = (list(range(f.n)) if inf else
               sorted({s for p in perms for s in range(f.n) if p[s] != s}))
    a0 = support[0] + 1 if support else 0   # the block's first strand
    if (support != list(range(a0 - 1, a0 + 5))
            or core != block_full_twist(f.n, a0, a0 + 5)):
        raise ValueError(f"{_where(i, f)}: vertex factor core is not a "
                         "six-strand block twist")
    return [Factor(artin_gen(f.n, k), 1, "branch", f.transport,
                   f"{f.label}|H{k - a0 + 1}")
            for _round in range(6) for k in range(a0, a0 + 5)]


# ---------------------------------------------------------------------------
# consecutive transports share long suffixes: walk only their heads


class _Product:
    """A left-to-right product of factors as a freely reduced word.

    The last factor's transport t is kept pending: the next factor's
    t'^-1 cancels the suffix that t and t' share without walking it, so a
    push costs the two heads (the letters before that suffix) and the core.
    Free reduction is unique, so `word()` is the reduced concatenation of
    the factors' words.
    """

    __slots__ = ("n", "w", "t")

    def __init__(self, n: int):
        self.n = n
        self.w: list = []   # the product, with the pending transport removed
        self.t: tuple = ()  # the pending transport

    def push(self, f: Factor) -> None:
        """Multiply by f.braid() on the right."""
        t, u = self.t, f.transport.word
        k = common_suffix(t, u)
        w = self.w
        extend_reduced(w, t[:len(t) - k])
        extend_reduced(w, inverse_word(u[:len(u) - k]))
        extend_reduced(w, (f.core ** f.exponent).word)
        self.t = u

    def copy(self) -> "_Product":
        p = _Product(self.n)
        p.w = list(self.w)
        p.t = self.t
        return p

    def word(self) -> list:
        w = list(self.w)
        extend_reduced(w, self.t)
        return w


def transport_heads(factors):
    """(factor, p, k) for each factor in order: p is the previous factor's
    transport word (() for the first) and k the number of trailing letters
    it shares with this factor's transport, whose head is the letters
    before them."""
    pw = ()
    for f in factors:
        w = f.transport.word
        yield f, pw, common_suffix(pw, w)
        pw = w


def cabled_transports(n: int, factors):
    """(factor, cable(t)) for each factor in order, t its transport in B_n.

    Each cable is the cable of the transport's head, then the part of the
    previous cable that the shared suffix maps to (4 letters a letter), and
    a transport equal to the previous one gets the same cable."""
    ct = Braid(2 * n)
    for f, pw, k in transport_heads(factors):
        w = f.transport.word
        if k < len(w) or k < len(pw):
            cw = ct.word
            ct = Braid._reduced(2 * n, tuple(cable_word(n, w[:len(w) - k]))
                                + cw[len(cw) - 4 * k:])
        yield f, ct


class Factorization:
    """An ordered product of factors on `strands` strands.

    Consecutive transports share long suffixes (98 % of the letters of the
    54-strand certificate), and the paths that walk the transports in order
    touch only each transport's head, the letters before the suffix it
    shares with the previous one: the product (`word` and `product`,
    through `_Product`), `to_json` and `regenerate`'s cabling, the last two
    through `transport_heads`.

    A certificate is {"format": 2, "strands", "factors"}: each factor writes
    only its transport's head and the length of the suffix it keeps
    (`Factor.to_json`), so `loads` parses only the heads and a transport
    equal to the previous one is the same braid.  Deleting or reordering
    entries therefore changes the transports after them.  Format 2 is the
    only format that loads.
    """

    __slots__ = ("strands", "factors")

    def __init__(self, strands: int, factors=()):
        factors = tuple(factors)
        for f in factors:
            if f.n != strands:
                raise ValueError(
                    f"factor on {f.n} strands in a B_{strands} factorization")
        self.strands = strands
        self.factors = factors

    @classmethod
    def _of(cls, strands: int, factors: tuple) -> "Factorization":
        """A factorization of factors already known to lie in B_strands."""
        fz = object.__new__(cls)
        fz.strands = strands
        fz.factors = factors
        return fz

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __getitem__(self, i):
        return self.factors[i]

    def __add__(self, other: "Factorization") -> "Factorization":
        if self.strands != other.strands:
            raise ValueError("strand mismatch")
        return Factorization(self.strands, self.factors + other.factors)

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)

    def word(self) -> list:
        """The freely reduced word of the product, cancelling at the joins.

        Each factor adds the heads of t^-1 and of the previous t, and
        core^exponent (`_Product`); no twist is built.
        """
        p = _Product(self.strands)
        for f in self.factors:
            p.push(f)
        return p.word()

    def product(self) -> Braid:
        """Left-to-right product of the factors."""
        return Braid._reduced(self.strands, tuple(self.word()))

    def conjugate(self, g: Braid) -> "Factorization":
        if g.n != self.strands:
            raise ValueError("strand mismatch")
        return Factorization._of(self.strands,
                                 tuple(f.conjugate(g) for f in self.factors))

    def __eq__(self, other):
        if not isinstance(other, Factorization):
            return NotImplemented
        return (self.strands == other.strands and len(self) == len(other)
                and all(a == b for a, b in zip(self.factors, other.factors)))

    def __repr__(self):
        return f"Factorization(B_{self.strands}, {len(self.factors)} factors, deg {self.degree})"

    def to_json(self) -> dict:
        return {"format": 2, "strands": self.strands,
                "factors": [f.to_json(k) for f, _, k in
                            transport_heads(self.factors)]}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, obj: dict) -> "Factorization":
        if not isinstance(obj, dict):
            raise ValueError("a certificate must be a JSON object, got "
                             + type(obj).__name__)
        if "format" not in obj:
            raise ValueError("missing field 'format': only format 2 "
                             "certificates load")
        if type(obj["format"]) is not int or obj["format"] != 2:
            raise ValueError(f"unknown certificate format {obj['format']!r}")
        n = obj["strands"]
        if type(n) is not int or n < 2:
            raise ValueError(f"strand count must be an integer >= 2, got {n!r}")
        if not isinstance(obj["factors"], list):
            raise ValueError("factors must be a list, got "
                             + type(obj["factors"]).__name__)
        factors, t = [], Braid(n)
        for i, f in enumerate(obj["factors"], 1):
            try:
                factors.append(Factor.from_json(n, f, t))
            except ValueError as e:
                raise ValueError(f"factor {i}: {e}") from None
            except KeyError as e:
                raise ValueError(f"factor {i}: missing field {e}") from None
            t = factors[-1].transport
        return cls._of(n, tuple(factors))

    @classmethod
    def loads(cls, text: str) -> "Factorization":
        return cls.from_json(json.loads(text))


def hurwitz_move(f: Factorization, i: int, direction: str = "right") -> Factorization:
    """Elementary Hurwitz move at position i (1-based pair index).

    right: (..., a, b, ...) -> (..., b, b^-1 a b, ...)
    left:  (..., a, b, ...) -> (..., a b a^-1, a, ...)
    Both preserve the product.
    """
    if not 1 <= i < len(f):
        raise ValueError(f"move position {i} out of range for {len(f)} factors")
    fs = f.factors
    a, b = fs[i - 1], fs[i]
    if direction == "right":
        pair = (b, a.conjugate(b.braid()))
    elif direction == "left":
        pair = (b.conjugate(a.braid().inverse()), a)
    else:
        raise ValueError("direction must be left or right")
    # both new factors are conjugates of factors of f, so on f's strands
    return Factorization._of(f.strands, fs[:i - 1] + pair + fs[i + 1:])


def conj_factorization(f: Factorization) -> Factorization:
    """Complex conjugation: mirror every arc and reverse the factor order.

    Mirroring the plane through the real axis sends a half twist along an
    arc to the (still positive) half twist along the mirrored arc; on words
    this is braid reversal (read the twist word backwards, same signs),
    which reverses the core and negates the transport's letters in place.
    Reversal is an anti-automorphism fixing the full twist, so the result is
    again a factorization of Delta^2_n.
    """
    n = f.strands
    out = []
    for fac in reversed(f.factors):
        # reversal and negation keep a word freely reduced
        core = Braid._reduced(n, fac.core.word[::-1])
        tr = Braid._reduced(n, tuple(map(neg, fac.transport.word)))
        out.append(Factor(core, fac.exponent, fac.tag, tr,
                          f"~{fac.label}" if fac.label else ""))
    return Factorization._of(n, tuple(out))


def frame_factorization(n: int) -> Factorization:
    """Delta^2_n written as n(n-1) frame half-twist factors."""
    return Factorization(n, [Factor(artin_gen(n, k), 1, "branch", label=f"H{k}")
                             for _ in range(n) for k in range(1, n)])
