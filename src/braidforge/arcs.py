"""Arcs in the punctured disk, given by their half-twists.

Punctures sit on the real line (or in conjugate pairs just off it), ordered by
real part, one label per strand slot (`PunctureConfig`).  An arc between two
punctures is fixed by the side (above or below the real line) on which it
passes each puncture between them, and the package only ever uses its
positive half-twist, so an arc *is* that braid: `arc_factor` is the one place
that builds it, as a factor whose core is sigma_k and whose transport is the
inverse drag, and `arc_twist` is that factor's twist.

Side convention (calibrated against the worked monodromy computations):
  - positive half-twists are counterclockwise;
  - the arc from a to b passing *below* all intermediates is the positive
    band generator (sigma_{b-1} ... sigma_{a+1}) sigma_a (...)^-1; passing a
    puncture above negates its letter in the bracket.
Complex conjugation (reflection in the real line, above <-> below) lives in
`factorization.conj_factorization` only.
"""

from __future__ import annotations

from .braid import Braid, artin_gen, block_half_twist
from .factorization import Factor

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


def arc_factor(cfg: PunctureConfig, a, b, exponent: int, tag: str,
               side: str = BELOW, flipped=(), label: str = "") -> Factor:
    """(half-twist along the arc from puncture a to puncture b)^exponent.

    The arc passes every puncture strictly between a and b on `side`,
    except the labels in `flipped`, which it passes on the other side.  The
    half-twist is sigma_a conjugated back by the drag T that brings the right
    end next to the left one: T . sigma_a . T^-1, where T is
    sigma_{b-1}^e ... sigma_{a+1}^e with e = +1 for a puncture passed below
    and -1 for one passed above (1-based slots).  The factor stores the core
    sigma_a and the transport T^-1, so it passes `Factor.is_half_twist`; the
    tag must be one that admits the exponent.
    """
    pa, pb = sorted((cfg.position(a), cfg.position(b)))
    if pa == pb:
        raise ValueError("arc endpoints must be distinct")
    if side not in (BELOW, ABOVE):
        raise ValueError(f"bad side {side!r}")
    flipped = {str(x) for x in flipped}
    word = []
    for p in range(pb - 1, pa, -1):
        below = (side == BELOW) != (cfg.label_at(p) in flipped)
        word.append(p + 1 if below else -(p + 1))
    return Factor(artin_gen(cfg.n, pa + 1), exponent, tag,
                  Braid(cfg.n, word).inverse(), label)


def arc_twist(cfg: PunctureConfig, a, b, side: str = BELOW,
              flipped=()) -> Braid:
    """Positive half-twist along the arc from a to b (see `arc_factor`)."""
    return arc_factor(cfg, a, b, 1, "branch", side, flipped).twist


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
