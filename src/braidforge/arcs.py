"""Arcs in the punctured disk and their half-twists.

Punctures sit on the real line (or in conjugate pairs just off it), ordered by
real part.  An arc between two punctures is described by which side (above or
below the real line) it passes each intermediate puncture; its half-twist is
the braid realizing it.  Arcs are identified with their half-twists: two arcs
are equal iff their realized braids are equal.

Conventions (calibrated against the worked monodromy computations):
  - positive half-twists are counterclockwise;
  - the arc from a to b passing *below* all intermediates realizes the
    positive band generator (sigma_{b-1} ... sigma_{a+1}) sigma_a (...)^-1;
    passing above flips the signs of the conjugating letters.
"""

from __future__ import annotations

from .braid import Braid, artin_gen, block_half_twist, invert

BELOW = "below"
ABOVE = "above"


class PunctureConfig:
    """Punctures on the real line, one label per strand position."""

    __slots__ = ("_pos", "_punctures")

    def __init__(self, labels):
        self._punctures = tuple(str(l) for l in labels)
        self._pos = {lab: i for i, lab in enumerate(self._punctures)}
        if len(self._pos) != len(self._punctures):
            raise ValueError("duplicate puncture labels")

    @classmethod
    def reals(cls, labels) -> "PunctureConfig":
        return cls(labels)

    @classmethod
    def standard(cls, n: int) -> "PunctureConfig":
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self._punctures)

    @property
    def punctures(self):
        return self._punctures

    def position(self, label: str) -> int:
        """0-based strand position of a puncture."""
        try:
            return self._pos[str(label)]
        except KeyError:
            raise KeyError(f"no puncture {label!r} in config {self._punctures}")

    def label_at(self, pos: int) -> str:
        return self._punctures[pos]

    def __eq__(self, other):
        return (isinstance(other, PunctureConfig)
                and self._punctures == other._punctures)

    def __repr__(self):
        return f"PunctureConfig({self._punctures})"


class Arc:
    """An arc between two punctures, identified with its half-twist."""

    __slots__ = ("config", "endpoints", "crossings", "realized", "transport_word")

    def __init__(self, config: PunctureConfig, endpoints, realized: Braid,
                 transport_word: Braid, crossings=None):
        self.config = config
        self.endpoints = tuple(endpoints)
        self.crossings = tuple(crossings) if crossings is not None else None
        self.realized = realized
        self.transport_word = transport_word

    def __eq__(self, other):
        if not isinstance(other, Arc):
            return NotImplemented
        return self.realized == other.realized

    def __hash__(self):
        return hash(self.realized)

    def __repr__(self):
        return f"Arc({notation(self) if self.crossings is not None else self.endpoints})"


def arc_from_crossings(cfg: PunctureConfig, a, b, crossings) -> Arc:
    """Arc from puncture a to puncture b with explicit side data.

    crossings lists (label, side) for every puncture strictly between a and b,
    in positional order.  below => positive elementary band letters in the
    transport word, above => negative.
    """
    a, b = str(a), str(b)
    pa, pb = cfg.position(a), cfg.position(b)
    if pa == pb:
        raise ValueError("arc endpoints must be distinct")
    if pa > pb:
        pa, pb = pb, pa
        a, b = b, a
    between = [cfg.label_at(p) for p in range(pa + 1, pb - 1 + 1)]
    sides = {}
    cl = [(str(l), s) for l, s in crossings]
    if [l for l, _ in cl] != between:
        raise ValueError(
            f"crossing list {[l for l, _ in cl]} does not match the punctures "
            f"{between} between {a} and {b}")
    for l, s in cl:
        if s not in (BELOW, ABOVE):
            raise ValueError(f"bad side {s!r}")
        sides[l] = s
    # drag the right endpoint leftward: T = sigma_{pb-1}^e ... sigma_{pa+1}^e
    word = []
    for p in range(pb - 1, pa, -1):
        e = 1 if sides[cfg.label_at(p)] == BELOW else -1
        word.append(e * (p + 1))  # crossing at positions (p, p+1): letter p+1
    Ti = Braid(cfg.n, word).inverse()
    # Factor convention stores twist = transport^-1 sigma transport
    return Arc(cfg, (a, b), artin_gen(cfg.n, pa + 1).conjugate(Ti), Ti,
               crossings=cl)


def frame_arc(cfg: PunctureConfig, a, b) -> Arc:
    """Arc between adjacent punctures (no crossings)."""
    return arc_from_crossings(cfg, a, b, [])


def simple_arc(cfg: PunctureConfig, a, b, side: str = BELOW, flipped=()) -> Arc:
    """Arc passing every intermediate on `side`, except `flipped` opposite."""
    a, b = str(a), str(b)
    pa, pb = sorted((cfg.position(a), cfg.position(b)))
    other = ABOVE if side == BELOW else BELOW
    flipped = {str(x) for x in flipped}
    crossings = []
    for p in range(pa + 1, pb):
        l = cfg.label_at(p)
        crossings.append((l, other if l in flipped else side))
    return arc_from_crossings(cfg, a, b, crossings)


def transport(arc: Arc, d: Braid) -> Arc:
    """Apply a diffeomorphism (right action): realized -> d^-1 realized d."""
    if d.n != arc.config.n:
        raise ValueError("strand mismatch")
    cfg = arc.config
    perm = invert(d.permutation())  # start slot -> end slot under d
    new_eps = tuple(cfg.label_at(perm[cfg.position(l)]) for l in arc.endpoints)
    realized = arc.realized.conjugate(d)
    return Arc(cfg, new_eps, realized, arc.transport_word * d, crossings=None)


def mirror_braid(b: Braid) -> Braid:
    """The complex-conjugation automorphism: every crossing reversed."""
    return Braid(b.n, tuple(-k for k in b.word))


def mirror(arc: Arc) -> Arc:
    """Reflect across the real line; above <-> below.

    The reflected half-twist is the inverse image of the automorphism (the
    reflection reverses orientation, so the positive half-twist along the
    mirrored arc is mirror(realized)^-1).
    """
    realized = mirror_braid(arc.realized).inverse()
    tw = mirror_braid(arc.transport_word)
    crossings = None
    if arc.crossings is not None:
        flip = {BELOW: ABOVE, ABOVE: BELOW}
        crossings = [(l, flip[s]) for l, s in arc.crossings]
    return Arc(arc.config, arc.endpoints, realized, tw, crossings=crossings)


def pair_twists(cfg: PunctureConfig, pairs, power: int = 1) -> Braid:
    """Product, in the given order, of Z_{ab}^power over adjacent pairs (a, b)."""
    g = Braid(cfg.n)
    for a, b in pairs:
        pa, pb = sorted((cfg.position(a), cfg.position(b)))
        if pb != pa + 1:
            raise ValueError(f"pair {(a, b)} is not adjacent")
        g = g * artin_gen(cfg.n, pb) ** power
    return g


def composite_twist(cfg: PunctureConfig, labels) -> Braid:
    """Half-twist of the sub-disk spanned by the named punctures.

    Intruding punctures inside the span are dragged out to its right end by
    positive crossings; the result is the half-twist of the then-contiguous
    block, conjugated back by the drag (g . block . g^-1).
    """
    n = cfg.n
    member = [False] * (n + 2)
    for l in labels:
        member[cfg.position(l) + 1] = True
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


# ---------------------------------------------------------------------------
# notation: z[4',5], zbar[2,4], zu[1,4]


def notation(arc: Arc) -> str:
    if arc.crossings is None:
        raise ValueError("arc has no crossing data (transported); cannot print")
    sides = {s for _, s in arc.crossings}
    a, b = arc.endpoints
    if not sides or sides == {BELOW}:
        return f"zu[{a},{b}]" if arc.crossings else f"z[{a},{b}]"
    if sides == {ABOVE}:
        return f"zbar[{a},{b}]"
    # mixed sides: explicit dump
    marks = ";".join(f"{l}:{s[0]}" for l, s in arc.crossings)
    return f"z[{a},{b}|{marks}]"


def parse_arc(cfg: PunctureConfig, text: str) -> Arc:
    text = text.strip()
    for prefix, side in (("zbar", ABOVE), ("zu", BELOW), ("z", BELOW)):
        if text.startswith(prefix + "["):
            body = text[len(prefix) + 1:-1]
            if "|" in body:
                eps, marks = body.split("|")
                a, b = eps.split(",")
                crossings = []
                for m in marks.split(";"):
                    l, s = m.split(":")
                    crossings.append((l, BELOW if s == "b" else ABOVE))
                return arc_from_crossings(cfg, a, b, crossings)
            a, b = body.split(",")
            return simple_arc(cfg, a, b, side=side)
    raise ValueError(f"bad arc notation {text!r}")
