"""Arcs and sub-disks in the punctured disk, and the printed Z/D notation.

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
    place that refuses a side other than below and above, and that turns a
    side into a letter sign.
Complex conjugation (reflection in the real line, above <-> below) lives in
`factorization.conj_factorization` only.

The printed Z/D notation of the regenerated lists and the local monodromy
tables records the side each arc passes each puncture; one parser here reads
it.  Printed lists read RIGHT TO LEFT: [p_1, ..., p_k] is p_k ... p_1, and
`_from_printed` is the one place that reverses one into composition order.
A printed conjugation A^{B C} means g.A.g^-1 = A^(g^-1) with g = C.B; the
parenthesized spelling (A)^{B C} is refused as a bad atom.  A printed entry's
value is the product of its expansion (`entry_value`).
Its sides are frozen, each pinned by the exact splitting identities
(Z^2_{ii',j} = Z^2_{i'j} Z^2_{ij} etc.) that the doubled local models satisfy:
* an atom passes the unrelated punctures below (Z, Zu) or above (Zb);
* a split node's longer arc passes the partner member of its own fat end
  below the line (`node_factors`);
* a cusp's base arc ends on the near member of the fat pair (`cusp_factors`);
* the branch atoms Z1[i,j'] and Z1[i',j] are the long arc i->j' passing i'
  above and j below, and the short arc i'->j; the printed lists drop the
  transported conjugator of the line they regenerate, common to both.
"""

from __future__ import annotations

import re

from .braid import Braid, artin_gen, block_full_twist, block_half_twist
from .factorization import COMPOSITE_TAG, EXP_TAG, Factor, Factorization

BELOW = "below"
ABOVE = "above"


class PunctureConfig:
    """Punctures on the real line, one label per strand position, and the
    values of the printed atoms evaluated on them (`parse_regen_atom`)."""

    __slots__ = ("_atoms", "_pos", "_punctures")

    def __init__(self, labels):
        self._punctures = tuple(str(l) for l in labels)
        self._pos = {lab: i for i, lab in enumerate(self._punctures)}
        self._atoms = {}
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

    def __repr__(self):
        return f"PunctureConfig({self._punctures})"


def _drag(cfg: PunctureConfig, slots, side: str = BELOW, flipped=()) -> Braid:
    """The drag that gathers the punctures at the ascending 0-based `slots`.

    From left to right, each of them moves leftward until it sits right after
    the ones before it, passing every puncture in its way on `side` and the
    labels in `flipped` on the other side.  A step from 0-based slot p to
    p - 1 is the letter sigma_p, positive when the puncture it passes is
    passed below: this is the one place that turns a side into a sign, and
    that refuses a side other than `BELOW` and `ABOVE`.
    """
    if side not in (BELOW, ABOVE):
        raise ValueError(f"bad side {side!r}")
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


# ---------------------------------------------------------------------------
# the split lists that a fat end expands to (printed order)


def node_factors(cfg: PunctureConfig, end_a, end_b,
                 side: str = BELOW) -> list:
    """The node rule's split list, printed order.

    Z^2_{ii',j} -> Z^2_{i'j} . Z^2_{ij}   (fat left:  short printed first)
    Z^2_{i,jj'} -> Z^2_{ij'} . Z^2_{ij}   (fat right: long printed first)
    A fat-fat twist stays one band factor, a thin-thin twist a plain node.
    """
    fat_a = not isinstance(end_a, str)
    fat_b = not isinstance(end_b, str)
    if fat_a and fat_b:
        tw = band_full_twist(cfg, end_a, end_b, side)
        return [Factor(tw, 1, COMPOSITE_TAG,
                       label=f"Z2[{end_a[0]}{end_a[1]},{end_b[0]}{end_b[1]}]")]
    if not fat_a and not fat_b:
        return [arc_factor(cfg, end_a, end_b, 2, "node", side,
                           label=f"Z2[{end_a},{end_b}]")]
    # the longer arc passes the partner member of its fat end below
    if fat_a:
        (i, ip), j = end_a, end_b
        return [arc_factor(cfg, ip, j, 2, "node", side, label=f"Z2[{ip},{j}]"),
                arc_factor(cfg, i, j, 2, "node", side,
                           () if side == BELOW else (ip,),
                           label=f"Z2[{i},{j}]")]
    i, (j, jp) = end_a, end_b
    return [arc_factor(cfg, i, jp, 2, "node", side,
                       () if side == BELOW else (j,),
                       label=f"Z2[{i},{jp}]"),
            arc_factor(cfg, i, j, 2, "node", side, label=f"Z2[{i},{j}]")]


def cusp_factors(cfg: PunctureConfig, end_a, end_b,
                 side: str = BELOW) -> list:
    """The cusp rule's triple, printed order:
    (Z^3)_{rho} . Z^3 . (Z^3)_{rho^-1}, rho the fat pair's half twist.

    The base arc joins the thin end to the near member of the fat pair.
    """
    fat_a = not isinstance(end_a, str)
    if fat_a == (not isinstance(end_b, str)):
        raise ValueError("a cusp triple needs exactly one fat end")
    if fat_a:
        pair, single = end_a, end_b
        a, b = pair[1], single          # near member is the right one
    else:
        pair, single = end_b, end_a
        a, b = single, pair[0]          # near member is the left one
    rho = pair_twists(cfg, [pair])

    def z3(suffix):
        return arc_factor(cfg, a, b, 3, "cusp", side,
                          label=f"Z3[{a},{b}]{suffix}")
    return [z3("_rho").conjugate(rho.inverse()), z3(""),
            z3("_rho-").conjugate(rho)]


# ---------------------------------------------------------------------------
# the printed Z/D notation (regenerated lists and local monodromy tables)
#
# Atom:   Z | Zu (below) | Zb (above), optional m (negative), exponent digit,
#         [END,END] with END = "3" | "3'" | "33'" (close pair); an END that
#         names a puncture is that puncture ("11'" among 11 doubled lines);
#         or D<digit><a,b,c,...>, the composite twist of the named punctures.
# Factor: ATOM or ATOM^{TOK TOK ...}; TOK is an atom, "rho" or "rho-".

_RATOM = re.compile(r"Z(u|b)?(m)?(\d)\[([^,\]]+),([^,\]]+)\]$")
_DATOM = re.compile(r"D(\d)<([^>]+)>$")


def _parse_end(cfg: PunctureConfig, tok: str):
    tok = tok.strip()
    if tok not in cfg.punctures:
        m = re.fullmatch(r"(.+)\1'", tok)
        if m:
            return (m.group(1), f"{m.group(1)}'")
    return tok


def _atom_parts(cfg: PunctureConfig, text: str):
    """(side, exponent, end_a, end_b) of a printed Z atom."""
    m = _RATOM.match(text)
    if not m:
        raise ValueError(f"bad printed atom {text!r}")
    side = ABOVE if m.group(1) == "b" else BELOW
    exp = int(m.group(3)) * (-1 if m.group(2) else 1)
    return side, exp, _parse_end(cfg, m.group(4)), _parse_end(cfg, m.group(5))


def parse_regen_atom(cfg: PunctureConfig, text: str) -> Braid:
    """Value of one printed atom (`entry_value`); an m exponent inverts it.

    A printed list names a few atoms in most of its conjugators, so each
    config evaluates an atom once.
    """
    text = text.strip()
    v = cfg._atoms.get(text)
    if v is None:
        m = _RATOM.match(text)
        if m and m.group(2):
            # the m follows Z, Zu or Zb, so it is the atom's first m
            v = entry_value(cfg, text.replace("m", "", 1)).inverse()
        else:
            v = entry_value(cfg, text)
        cfg._atoms[text] = v
    return v


def atom_factors(cfg: PunctureConfig, text: str) -> list:
    """Expand one printed atom into its factor list (printed order)."""
    text = text.strip()
    m = _DATOM.match(text)
    if m:
        try:
            tw = composite_twist(cfg, m.group(2).split(","))
        except ValueError as err:
            raise ValueError(f"atom {text!r}: {err}") from None
        return [Factor(tw, int(m.group(1)), COMPOSITE_TAG, label=text)]
    side, exp, ea, eb = _atom_parts(cfg, text)
    thin = isinstance(ea, str) and isinstance(eb, str)
    if exp == 1 and thin:
        # a single branch factor; the arc passes the partner of its first end
        # above (the long arc Z_{ij'}) and the other punctures on `side`
        partner = () if side == ABOVE else (f"{ea}'",)
        return [arc_factor(cfg, ea, eb, 1, "branch", side, partner, text)]
    if exp == 2:
        return node_factors(cfg, ea, eb, side)
    if exp == 3 and not thin:
        return cusp_factors(cfg, ea, eb, side)
    if exp in (3, 4):
        return [arc_factor(cfg, ea, eb, exp, EXP_TAG[exp], side,
                           label=text)]
    raise ValueError(f"atom {text!r} cannot stand as a factor")


def _conjugator(cfg: PunctureConfig, tokens, rho: Braid | None) -> Braid:
    """g for a printed ^{B C ...}: the atom values multiplied right to left."""
    g = Braid(cfg.n)
    for tok in tokens:
        if tok in ("rho", "rho-"):
            if rho is None:
                raise ValueError("rho token without a rho braid")
            v = rho if tok == "rho" else rho.inverse()
        else:
            v = parse_regen_atom(cfg, tok)
        g = v * g
    return g


def _split_entry(text: str):
    """(atom, conjugator tokens) of a printed factor ATOM or ATOM^{...}."""
    base, _, conj = text.strip().partition("^")
    return base.strip(), conj.strip().strip("{}").split()


def _from_printed(n: int, printed) -> Factorization:
    """A printed factor list (read right to left) in composition order."""
    return Factorization(n, reversed(printed))


def entry_value(cfg: PunctureConfig, text: str) -> Braid:
    """Value of a printed factor ATOM^{...}: the product of its expansion."""
    return _from_printed(cfg.n, entry_factors(cfg, text)).product()


def entry_factors(cfg: PunctureConfig, text: str,
                  rho: Braid | None = None) -> list:
    """Expand a printed factor ATOM^{...} (printed order)."""
    base, tokens = _split_entry(text)
    factors = atom_factors(cfg, base)
    if not tokens:
        return factors
    gi = _conjugator(cfg, tokens, rho).inverse()
    return [f.conjugate(gi) for f in factors]


def formula_factors(labels, entries, rho_pairs,
                    branch_conj=()) -> Factorization:
    """Expand a printed factor list over doubled labels.

    The returned Factorization is in composition order (printed reversed).
    branch_conj, if given, is the printed conjugator applied to every plain
    degree-1 entry (the printed lists omit it).
    """
    cfg = PunctureConfig(labels)
    rho = pair_twists(cfg, rho_pairs)
    gbi = (_conjugator(cfg, list(branch_conj), rho).inverse()
           if branch_conj else None)
    printed = []
    for e in entries:
        fs = entry_factors(cfg, e, rho)
        if gbi is not None and len(fs) == 1 and fs[0].exponent == 1 and "^" not in e:
            fs = [fs[0].conjugate(gbi)]
        printed.extend(fs)
    return _from_printed(cfg.n, printed)
