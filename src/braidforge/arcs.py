"""Arcs and sub-disks in the punctured disk, given by their twists.

Punctures sit on the real line (or in conjugate pairs just off it), ordered by
real part, one label per strand slot (`PunctureConfig`).  Every twist here is
that of a disk reached by a drag (`_drag`): the punctures it gathers move
leftward until they are contiguous, passing the others above or below the
real line.  An arc between two punctures is fixed by the side on which it
passes each puncture between them, and the package only ever uses its
positive half-twist, so an arc *is* that braid: `arc_factor` is the one place
that builds it, as a factor whose core is sigma_k and whose transport is the
inverse drag, and `arc_twist` is that factor's twist.  The composite D<...>
(`composite_twist`) and the band full twist Z^2_{A,B} between two ends of
one or two punctures (`band_full_twist`) conjugate a block twist back by
the same drag.

Side convention (calibrated against the worked monodromy computations):
  - positive half-twists are counterclockwise;
  - the arc from a to b passing *below* all intermediates is the positive
    band generator (sigma_{b-1} ... sigma_{a+1}) sigma_a (...)^-1; passing a
    puncture above negates its letter in the bracket.  `_drag` is the one
    place that turns a side into a letter sign.
Complex conjugation (reflection in the real line, above <-> below) lives in
`factorization.conj_factorization` only.
"""

from __future__ import annotations

from .braid import Braid, artin_gen, block_full_twist, block_half_twist
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


def _drag(cfg: PunctureConfig, slots, side: str = BELOW, flipped=()) -> Braid:
    """The drag that gathers the punctures at the ascending 0-based `slots`.

    From left to right, each of them moves leftward until it sits right after
    the ones before it, passing every puncture in its way on `side` and the
    labels in `flipped` on the other side.  A step from 0-based slot p to
    p - 1 is the letter sigma_p, positive when the puncture it passes is
    passed below: this is the one place that turns a side into a sign.
    """
    e = 1 if side == BELOW else -1
    word, passed = [], ()
    for i in range(1, len(slots)):
        p = slots[i]
        # the punctures between the first slot and p, right to left
        passed = cfg.punctures[slots[i - 1] + 1:p][::-1] + passed
        for lab in passed:
            word.append(-e * p if lab in flipped else e * p)
            p -= 1
    return Braid(cfg.n, word)


def arc_factor(cfg: PunctureConfig, a, b, exponent: int, tag: str,
               side: str = BELOW, flipped=(), label: str = "") -> Factor:
    """(half-twist along the arc from puncture a to puncture b)^exponent.

    The arc passes every puncture strictly between a and b on `side`,
    except the labels in `flipped`, which it passes on the other side.  The
    half-twist is sigma_a conjugated back by the drag T that brings the right
    end next to the left one: T . sigma_a . T^-1, where T is
    sigma_{b-1}^e ... sigma_{a+1}^e with e = +1 for a puncture passed below
    and -1 for one passed above (1-based slots; see `_drag`).  The factor
    stores the core sigma_a and the transport T^-1, so it passes
    `Factor.is_half_twist`; the tag must be one that admits the exponent.
    """
    pa, pb = sorted((cfg.position(a), cfg.position(b)))
    if pa == pb:
        raise ValueError("arc endpoints must be distinct")
    if side not in (BELOW, ABOVE):
        raise ValueError(f"bad side {side!r}")
    drag = _drag(cfg, (pa, pb), side, {str(x) for x in flipped})
    return Factor(artin_gen(cfg.n, pa + 1), exponent, tag, drag.inverse(),
                  label)


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

    The members are dragged together below the punctures between them
    (`_drag`); the result is the half-twist of the then-contiguous block,
    conjugated back by the drag (T . block . T^-1).  A ValueError names a
    puncture that is named twice.
    """
    slots = sorted(map(cfg.position, labels))
    for s, t in zip(slots, slots[1:]):
        if s == t:
            raise ValueError(f"puncture {cfg.label_at(s)!r} is named twice")
    a0 = slots[0] + 1
    block = block_half_twist(cfg.n, a0, a0 + len(slots) - 1)
    return block.conjugate(_drag(cfg, slots).inverse())


def band_full_twist(cfg: PunctureConfig, end_a, end_b,
                    side: str = BELOW) -> Braid:
    """Z^2_{A,B}: full twist of the band joining the two ends.

    An end is a label or a close pair of labels on contiguous slots.  The
    value is the boundary twist of the gathered A u B disk with the internal
    twists of each end removed, transported back by the drag that brings the
    right end next to the left one past the punctures between them on the
    given side (`_drag`).
    """
    ends = []
    for end in (end_a, end_b):
        labels = [end] if isinstance(end, str) else list(end)
        slots = sorted(map(cfg.position, labels))
        if slots != list(range(slots[0], slots[0] + len(slots))):
            raise ValueError(f"end {labels} is not a contiguous block")
        ends.append(slots)
    sa, sb = sorted(ends)
    if sa[-1] >= sb[0]:
        raise ValueError("band ends overlap")
    n, a0, p, q = cfg.n, sa[0] + 1, len(sa), len(sb)
    core = (block_full_twist(n, a0, a0 + p + q - 1)
            * block_full_twist(n, a0, a0 + p - 1).inverse()
            * block_full_twist(n, a0 + p, a0 + p + q - 1).inverse())
    return core.conjugate(_drag(cfg, sa + sb, side).inverse())
