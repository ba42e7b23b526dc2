"""Doubling (regeneration) of a line-arrangement monodromy factorization.

Each line of the degenerated arrangement splits into a conic; in the typical
fiber every puncture i is replaced by a close pair i, i' (i' to the right).
On braids this doubling is the 2-cabling homomorphism: each strand becomes a
ribbon of two strands, each crossing a block crossing of two ribbons.

Factors of the degenerated factorization regenerate by local rules:

* branch rule:  a degree-1 factor Z_{ij} becomes Z_{ij'} . Z_{i'j};
* node rule:    a degree-2 factor Z^2_{ij} becomes Z^2_{i'j} . Z^2_{ij}
  (fat left end) or Z^2_{ij'} . Z^2_{ij} (fat right end), or the single
  ribbon full twist Z^2_{ii',jj'} when both branches stay smooth;
* cusp rule:    a degree-4 factor Z^4_{ij} becomes the three cusps
  (Z^3_{ij})_{rho} . Z^3_{ij} . (Z^3_{ij})_{rho^-1} with rho = Z_{jj'}.

Composition convention.  Printed factor lists are read RIGHT TO LEFT: the
value of the list [p_1, ..., p_k] is p_k ... p_2 p_1.  All public
Factorizations returned by this module store their factors in composition
order (so Factorization.product() is the plain left-to-right product); the
printed order is the reverse (`_from_printed`).  A printed conjugation
(A)^{B C} means g.A.g^-1 = A^(g^-1) with g = C.B.  The same parser reads the
local monodromy tables, and a printed entry has one value: the product of
its expansion by `entry_factors` (`entry_value`).

The arcs, the ribbon band twists Z^2_{ii',jj'} and the composites D<...>
are built in `arcs` (`arc_factor`, `band_full_twist`, `composite_twist`),
whose one drag fixes which side gives which letter sign; this module only
chooses the sides.

Arc conventions (frozen; every choice is pinned by the exact splitting
identities Z^2_{ii',j} = Z^2_{i'j} Z^2_{ij} etc., which the doubled local
models satisfy on the nose -- see the cabling oracle in the tests):

* a split node's longer arc passes the partner member of its own fat end
  below the line, and the unrelated punctures on the decorated side
  (below for plain/underlined symbols, above for barred ones);
* a cusp's base arc ends on the near member of the fat pair;
* the two branch factors Z_{ij'} and Z_{i'j}, the printed atoms that rule 1
  reads with `atom_factors`, are the short arc i'->j and the long arc i->j'
  passing i' above and j below; both are conjugated by the transported
  conjugator of the line they regenerate (the printed lists drop this
  common conjugation).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain

from .arcs import (ABOVE, BELOW, PunctureConfig, arc_factor, band_full_twist,
                   composite_twist, pair_twists)
from .braid import Braid, artin_gen, delta_squared
from .data import golden_json
from .degeneration import phi8
from .factorization import (COMPOSITE_TAG, EXP_TAG, Factor, Factorization,
                            _vertex_split, _where, transport_heads)
# the one label pattern, and the audit that reads it (still importable here)
from .verify import _LABEL, regen_audit  # noqa: F401


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


def partial_cable(b: Braid, widths) -> tuple:
    """Cable only some strands: strand k becomes a ribbon of widths[k-1]
    parallel strands.  Returns (image braid, permuted widths).

    A positive crossing of ribbons of widths (a, b) is the positive block
    crossing; a negative one is the exact inverse of the positive block
    crossing of the swapped widths, so the map is well defined on words.
    """
    w = list(widths)
    if len(w) != b.n:
        raise ValueError("one width per strand required")
    out = []
    for g in b.word:
        k, s = abs(g), (1 if g > 0 else -1)
        a, c = w[k - 1], w[k]
        if s < 0:
            a, c = c, a
        start = sum(w[:k - 1]) + 1
        block = [start + a - 1 + j - i for j in range(c) for i in range(a)]
        out.extend(block if s > 0 else [-x for x in reversed(block)])
        w[k - 1], w[k] = w[k], w[k - 1]
    return Braid(sum(widths), out), w


def doubled_labels(labels) -> list:
    out = []
    for l in labels:
        out.append(str(l))
        out.append(f"{l}'")
    return out


# ---------------------------------------------------------------------------
# regeneration rules as factor lists (printed order; reverse to compose)


def node_factors(cfg: PunctureConfig, end_a, end_b,
                 side: str = BELOW, label: str = "") -> list:
    """Second rule, printed order.

    Z^2_{ii',j} -> Z^2_{i'j} . Z^2_{ij}   (fat left:  short printed first)
    Z^2_{i,jj'} -> Z^2_{ij'} . Z^2_{ij}   (fat right: long printed first)
    A fat-fat twist stays one band factor, a thin-thin twist a plain node.
    """
    fat_a = not isinstance(end_a, str)
    fat_b = not isinstance(end_b, str)
    if fat_a and fat_b:
        tw = band_full_twist(cfg, end_a, end_b, side)
        return [Factor(tw, 1, "composite",
                       label=f"{label}Z2[{end_a[0]}{end_a[1]},{end_b[0]}{end_b[1]}]")]
    if not fat_a and not fat_b:
        return [arc_factor(cfg, end_a, end_b, 2, "node", side,
                           label=f"{label}Z2[{end_a},{end_b}]")]
    # the longer arc passes the partner member of its fat end below
    if fat_a:
        (i, ip), j = end_a, end_b
        return [arc_factor(cfg, ip, j, 2, "node", side,
                           label=f"{label}Z2[{ip},{j}]"),
                arc_factor(cfg, i, j, 2, "node", side,
                           () if side == BELOW else (ip,),
                           label=f"{label}Z2[{i},{j}]")]
    i, (j, jp) = end_a, end_b
    return [arc_factor(cfg, i, jp, 2, "node", side,
                       () if side == BELOW else (j,),
                       label=f"{label}Z2[{i},{jp}]"),
            arc_factor(cfg, i, j, 2, "node", side, label=f"{label}Z2[{i},{j}]")]


def cusp_factors(cfg: PunctureConfig, end_a, end_b,
                 side: str = BELOW, label: str = "") -> list:
    """Third rule, printed order:
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
                          label=f"{label}Z3[{a},{b}]{suffix}")
    return [z3("_rho").conjugate(rho.inverse()), z3(""),
            z3("_rho-").conjugate(rho)]


# ---------------------------------------------------------------------------
# rule interface on factors of a base (undoubled) configuration


class DoublingMap:
    """Doubling of a puncture configuration: every i gains a close i'."""

    __slots__ = ("base", "doubled")

    def __init__(self, base_labels):
        self.base = PunctureConfig(base_labels)
        self.doubled = PunctureConfig(doubled_labels(base_labels))


def _factor_ends(dm: DoublingMap, f: Factor):
    """Base labels of the two punctures a half-twist factor exchanges."""
    if not f.is_half_twist():
        raise ValueError(f"factor {f!r} is not a half twist")
    moved = f.twist.moved_slots()
    return dm.base.label_at(moved[0]), dm.base.label_at(moved[1])


def _from_printed(n: int, printed) -> Factorization:
    """A printed factor list (read right to left) in composition order."""
    return Factorization(n, reversed(printed))


def regen_rule1(f: Factor, dm: DoublingMap) -> Factorization:
    """Branch point: Z_{ij} -> Z_{ij'} . Z_{i'j}."""
    if f.exponent != 1:
        raise ValueError(f"rule 1 needs exponent 1, got {f.exponent}")
    i, j = _factor_ends(dm, f)
    return _from_printed(dm.doubled.n,
                         atom_factors(dm.doubled, f"Z1[{i},{j}']")
                         + atom_factors(dm.doubled, f"Z1[{i}',{j}]"))


def regen_rule2(f: Factor, dm: DoublingMap, which: str = "i-side") -> Factorization:
    """Node: one-sided split (2 factors) or both-sides ribbon twist.

    which = "i-side" | "j-side" | "both"; "both" returns the four degree-2
    factors of the fully expanded Z^2_{ii',jj'}.
    """
    if f.exponent != 2:
        raise ValueError(f"rule 2 needs exponent 2, got {f.exponent}")
    i, j = _factor_ends(dm, f)
    ip, jp = f"{i}'", f"{j}'"
    if which == "i-side":
        printed = node_factors(dm.doubled, (i, ip), j)
    elif which == "j-side":
        printed = node_factors(dm.doubled, i, (j, jp))
    elif which == "both":
        printed = (node_factors(dm.doubled, ip, (j, jp))
                   + node_factors(dm.doubled, i, (j, jp)))
    else:
        raise ValueError(f"unknown side {which!r}")
    return _from_printed(dm.doubled.n, printed)


def regen_rule3(f: Factor, dm: DoublingMap) -> Factorization:
    """Tangency: Z^4_{ij} -> (Z^3_{i,jj'} triple), rho = Z_{jj'}."""
    if f.exponent != 4:
        raise ValueError(f"rule 3 needs exponent 4, got {f.exponent}")
    i, j = _factor_ends(dm, f)
    return _from_printed(dm.doubled.n, cusp_factors(dm.doubled, i, (j, f"{j}'")))


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
    """Value of one printed atom (`entry_value`); an m exponent inverts it."""
    text = text.strip()
    m = _RATOM.match(text)
    if m and m.group(2):
        # the m follows Z, Zu or Zb, so it is the atom's first m
        return entry_value(cfg, text.replace("m", "", 1)).inverse()
    return entry_value(cfg, text)


def atom_factors(cfg: PunctureConfig, text: str, label: str = "") -> list:
    """Expand one printed atom into its factor list (printed order)."""
    text = text.strip()
    m = _DATOM.match(text)
    if m:
        try:
            tw = composite_twist(cfg, m.group(2).split(","))
        except ValueError as err:
            raise ValueError(f"atom {text!r}: {err}") from None
        return [Factor(tw, int(m.group(1)), COMPOSITE_TAG,
                       label=f"{label}{text}")]
    side, exp, ea, eb = _atom_parts(cfg, text)
    thin = isinstance(ea, str) and isinstance(eb, str)
    if exp == 1 and thin:
        # a single branch factor; the arc passes the partner of its first end
        # above (the long arc Z_{ij'}) and the other punctures on `side`
        partner = () if side == ABOVE else (f"{ea}'",)
        return [arc_factor(cfg, ea, eb, 1, "branch", side, partner,
                           label=f"{label}{text}")]
    if exp == 2:
        return node_factors(cfg, ea, eb, side, label)
    if exp == 3 and not thin:
        return cusp_factors(cfg, ea, eb, side, label)
    if exp in (3, 4):
        return [arc_factor(cfg, ea, eb, exp, EXP_TAG[exp], side,
                           label=f"{label}{text}")]
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
    """(atom, conjugator tokens) of a printed factor ATOM^{...}."""
    text = text.strip()
    if text.startswith("(") and ")^" in text:
        base, conj = text[1:].rsplit(")^", 1)
    elif "^" in text:
        base, conj = text.split("^", 1)
    else:
        base, conj = text, ""
    return base.strip(), conj.strip().strip("{}").split()


def entry_value(cfg: PunctureConfig, text: str, rho: Braid | None = None) -> Braid:
    """Value of a printed factor ATOM^{...}: the product of its expansion."""
    return _from_printed(cfg.n, entry_factors(cfg, text, rho)).product()


def entry_factors(cfg: PunctureConfig, text: str,
                  rho: Braid | None = None, label: str = "") -> list:
    """Expand a printed factor ATOM^{...} (printed order)."""
    base, tokens = _split_entry(text)
    factors = atom_factors(cfg, base, label)
    if not tokens:
        return factors
    gi = _conjugator(cfg, tokens, rho).inverse()
    return [f.conjugate(gi) for f in factors]


def formula_factors(labels, entries, rho_pairs=None,
                    branch_conj=()) -> Factorization:
    """Expand a printed factor list over doubled labels.

    The returned Factorization is in composition order (printed reversed).
    branch_conj, if given, is the printed conjugator applied to every plain
    degree-1 entry (the printed lists omit it).
    """
    cfg = PunctureConfig(labels)
    rho = pair_twists(cfg, rho_pairs) if rho_pairs else None
    gbi = (_conjugator(cfg, list(branch_conj), rho).inverse()
           if branch_conj else None)
    printed = []
    for e in entries:
        fs = entry_factors(cfg, e, rho)
        if gbi is not None and len(fs) == 1 and fs[0].exponent == 1 and "^" not in e:
            fs = [fs[0].conjugate(gbi)]
        printed.extend(fs)
    return _from_printed(cfg.n, printed)


# ---------------------------------------------------------------------------
# doubled conic monodromy and its full-twist identity


def conic_monodromy(obj) -> Factorization:
    """F^_1 . (F^_1)^{rho^-1} of a doubled two-branch local model (8 strands).

    Factors come back in composition order (printed order reversed).
    """
    f1 = formula_factors(obj["labels"], obj["fhat1"], obj["rho"],
                         obj.get("branch_conj", ()))
    rho = pair_twists(PunctureConfig(obj["labels"]), obj["rho"])
    f2 = f1.conjugate(rho)
    for f in f2:
        f.label += "^rho-"
    return f2 + f1


def conic_identity(obj) -> bool:
    """prod Z^2_{ii'} . product(F^_1 F^_2) == Delta^2 on the doubled strands.

    This is the printed identity Delta^2 = F^_1 F^_2 . prod Z^2_{ii'} read
    right to left (the pair twists commute with each other).
    """
    cfg = PunctureConfig(obj["labels"])
    tail = pair_twists(cfg, obj["infinity"], 2)
    return tail * conic_monodromy(obj).product() == delta_squared(cfg.n)


def conic_tables() -> dict:
    return {name: golden_json(f"regen/{name}.json")
            for name in ("fhat_a", "fhat_b", "fhat_c")}


# ---------------------------------------------------------------------------
# global regeneration of the arrangement factorization


def _branch_assignment(g) -> dict:
    """Orient each line to one endpoint so every vertex receives three lines.

    Found by augmenting paths (each vertex has six lines; a 3-in orientation
    always exists and is certified by the returned assignment).
    """
    assign: dict[int, int] = {}          # line -> chosen vertex
    count = {v: 0 for v in g.vertices}

    def augment(t, seen):
        for v in g.endpoints(t):
            if count[v] < 3:
                assign[t] = v
                count[v] += 1
                return True
        for v in g.endpoints(t):
            for t2, v2 in list(assign.items()):
                if v2 == v and t2 not in seen and augment(t2, seen | {t2}):
                    assign[t] = v
                    return True
        return False

    for t in range(1, g.n_lines + 1):
        if not augment(t, {t}):
            raise ValueError("no balanced line orientation exists")
    lines_of = {v: tuple(sorted(t for t, v2 in assign.items() if v2 == v))
                for v in g.vertices}
    assert all(len(ls) == 3 for ls in lines_of.values())
    return lines_of


def regenerate(g, fz: Factorization | None = None) -> Factorization:
    """The doubled factorization on 54 strands of fz (default `phi8(g)`).

    One forward pass over fz cables each parasitic factor (a ribbon full
    twist, degree 8) and splits the composite labelled V{j}: into thirty
    cabled frame letters (degree 4 each), giving the cable of fz's product.
    The pair twists Z^2_{tt'} = sigma_{2t-1}^2 of the three lines assigned
    to each vertex close the certificate, in the order the composites were
    met, as cable(Delta^2_n) . prod Z^2_{tt'} = Delta^2_2n (`conic_identity`
    checks it locally).  A ValueError names a factorization on another
    number of strands than g has lines, a composite without a vertex label,
    a composite labelled with a vertex g does not have, a vertex's second
    composite, and the vertices without one.
    """
    n = g.n_lines
    fz = phi8(g) if fz is None else fz
    if fz.strands != n:
        raise ValueError(f"a factorization on {fz.strands} strands, but the "
                         f"arrangement has {n} lines")
    lines_of = _branch_assignment(g)
    out, pairs, seen = [], [], {}
    # cable(t) of each transport t: the cable of its head, then the part of
    # the previous cable that the shared suffix maps to (4 letters a letter)
    ct = Braid(2 * n)
    for i, (f, pw, k) in enumerate(transport_heads(fz.factors), 1):
        w = f.transport.word
        if k < len(w) or k < len(pw):
            cw = ct.word
            ct = Braid._reduced(2 * n, tuple(cable_word(n, w[:len(w) - k]))
                                + cw[len(cw) - 4 * k:])
        if f.tag != COMPOSITE_TAG:
            out.append(Factor(cable(f.core), f.exponent, f.tag, ct, f.label))
            continue
        m = _LABEL.match(f.label)
        j = int(m[2]) if m and m[1] == "V" else None
        if j not in lines_of or j in seen:
            raise ValueError(f"{_where(i, f)}: " + (
                "composite without a vertex label" if j is None
                else f"second composite of vertex {j}, after {seen[j]}"
                if j in seen else f"the arrangement has no vertex {j}; "
                f"its vertices are {list(g.vertices)}"))
        seen[j] = _where(i, f)
        out.extend(Factor(cable(h.core), 1, "branch", ct, h.label)
                   for h in _vertex_split(f, i))
        pairs.extend(Factor(artin_gen(2 * n, 2 * t - 1), 2, "node",
                            Braid(2 * n), f"V{j}:Z2[{t},{t}']")
                     for t in lines_of[j])
    missing = [j for j in g.vertices if j not in seen]
    if missing:
        raise ValueError(f"no composite factor for vertices {missing}")
    return Factorization(2 * n, out + pairs)


# ---------------------------------------------------------------------------
# printed local monodromies of the three worked vertices (diff reporting)


def hv_paper_factors(obj) -> Factorization:
    """The printed local monodromy of a worked vertex (composition order)."""
    return formula_factors(obj["labels"], obj["entries"], obj.get("rho"),
                           obj.get("branch_conj", ()))


def hv_diff(engine: Factorization, vertex: int, paper: Factorization) -> list:
    """Factor-by-factor comparison report (strings); empty means identical."""
    mine = [f for f in engine.factors if (m := _LABEL.match(f.label))
            and m[1] == "V" and int(m[2]) == vertex]
    out = []
    if len(mine) != len(paper.factors):
        out.append(f"factor count: engine {len(mine)}, printed {len(paper.factors)}")
    dm = sorted(f.degree for f in mine)
    dp = sorted(f.degree for f in paper.factors)
    if dm != dp:
        out.append(f"degree multiset: engine {dm}, printed {dp}")
    for i in range(min(len(mine), len(paper.factors))):
        a, b = mine[i], paper.factors[i]
        if a.degree != b.degree or a.tag != b.tag:
            out.append(f"factor {i + 1}: engine {a.label} "
                       f"(deg {a.degree}, {a.tag}) vs printed {b.label} "
                       f"(deg {b.degree}, {b.tag})")
    return out
