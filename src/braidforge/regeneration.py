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

The rules read their printed lists, sides and split lists through `arcs`,
whose docstring states those conventions; every Factorization this module
returns is in composition order.
"""

from __future__ import annotations

from .arcs import (PunctureConfig, _from_printed, atom_factors, cusp_factors,
                   formula_factors, node_factors, pair_twists)
# cable_word is still importable here
from .braid import Braid, artin_gen, cable, cable_word  # noqa: F401
from .data import golden_json
from .degeneration import phi8
from .factorization import (COMPOSITE_TAG, Factor, Factorization,
                            _vertex_split, _where, cabled_transports)
# the one label pattern, and the audit that reads it (still importable here)
from .verify import _LABEL, regen_audit  # noqa: F401


def doubled_labels(labels) -> list:
    out = []
    for l in labels:
        out.append(str(l))
        out.append(f"{l}'")
    return out


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
    return (tail * conic_monodromy(obj).product()).is_full_twist()


def conic_tables() -> dict:
    return {name: golden_json(f"regen/{name}.json")
            for name in ("fhat_a", "fhat_b", "fhat_c")}


# ---------------------------------------------------------------------------
# global regeneration of the arrangement factorization


def regenerate(g, fz: Factorization | None = None) -> Factorization:
    """The doubled factorization on 54 strands of fz (default `phi8(g)`).

    One forward pass over fz cables each parasitic factor (a ribbon full
    twist, degree 8) and splits the composite labelled V{j}: into thirty
    cabled frame letters (degree 4 each), giving the cable of fz's product.
    The pair twists Z^2_{tt'} = sigma_{2t-1}^2 close the certificate, one
    per line t, under the vertex t is drawn to (`DegenGraph.lines_into`,
    three per vertex), in the order the composites were met, as
    cable(Delta^2_n) . prod Z^2_{tt'} = Delta^2_2n (`conic_identity` checks
    it locally).  A ValueError names a factorization on another
    number of strands than g has lines, a composite without a vertex label,
    a composite labelled with a vertex g does not have, a vertex's second
    composite, and the vertices without one.
    """
    n = g.n_lines
    fz = phi8(g) if fz is None else fz
    if fz.strands != n:
        raise ValueError(f"a factorization on {fz.strands} strands, but the "
                         f"arrangement has {n} lines")
    out, pairs, seen = [], [], {}
    for i, (f, ct) in enumerate(cabled_transports(n, fz.factors), 1):
        if f.tag != COMPOSITE_TAG:
            out.append(Factor(cable(f.core), f.exponent, f.tag, ct, f.label))
            continue
        m = _LABEL.match(f.label)
        j = int(m[2]) if m and m[1] == "V" else None
        if j not in g.vertices or j in seen:
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
                     for t in g.lines_into(j))
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
