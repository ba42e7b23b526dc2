"""Certification toolkit: product checks (multiplied out, or block by
block against the certificate a regeneration refines), Hurwitz-equivalence
search, factor census, degree audit by label, and van Kampen relation
templates.
"""

from __future__ import annotations

import re
import time
from collections import deque

from .braid import (Braid, cable, common_suffix, delta_squared,
                    extend_reduced, inverse_word)
from .factorization import (COMPOSITE_TAG, Factorization, _vertex_split,
                            _where, cabled_transports)


class VerificationReport:
    """Accumulated check results; every failure carries a witness."""

    def __init__(self):
        self.checks = []          # dicts: name, status, witness
        self.totals = {}
        self.runtime = {}

    def add(self, name: str, ok: bool, witness: str = "", skipped: bool = False):
        status = "skipped" if skipped else ("pass" if ok else "fail")
        if status == "fail" and not witness:
            raise ValueError("a failing check requires a witness")
        self.checks.append({"name": name, "status": status, "witness": witness})

    def expect(self, name: str, want, got):
        """The check "<name> == <want>", witnessed by "got <got>"; a dict
        `got` checks each value and its witness names those that are off."""
        if isinstance(got, dict):
            got = {k: v for k, v in got.items() if v != want}
            ok, witness = not got, f"off: {got}"
        else:
            ok, witness = got == want, f"got {got}"
        self.add(f"{name} == {want}", ok, "" if ok else witness)

    @property
    def passed(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {"checks": self.checks, "totals": self.totals,
                "runtime": self.runtime, "passed": self.passed}

    def lines(self):
        for c in self.checks:
            yield f"[{c['status']:7s}] {c['name']}" + (
                f"  -- {c['witness']}" if c["witness"] else "")


def check_full_twist(f: Factorization) -> VerificationReport:
    """Pass iff product(f) == Delta^2_n and degree(f) == n(n-1); a wrong
    degree skips the product check.  No full twist is built: the verdict,
    and a failure's residual Delta^-2 . product (Delta^2 is central), are
    read from the product's normal form."""
    rep = VerificationReport()
    n = f.strands
    t0 = time.perf_counter()
    want = n * (n - 1)
    if not _check_degree(rep, f):
        # the degree is a homomorphism, so the product is not Delta^2 either
        rep.add("product == Delta^2", False,
                f"not computed: degree {rep.totals['degree']} is not {want}",
                skipped=True)
    elif (prod := f.product()).is_full_twist():
        rep.add("product == Delta^2", True)
    else:
        inf, facs = prod.normal_form()
        rep.add("product == Delta^2", False,
                f"residual Delta^-2.product has degree {prod.degree - want}, "
                f"normal form inf {inf - 2} with {len(facs)} factors")
    rep.runtime["check_full_twist"] = time.perf_counter() - t0
    return rep


def _check_degree(rep: VerificationReport, f: Factorization) -> bool:
    """The check degree(f) == n(n-1), its witness naming the deficit."""
    n = f.strands
    want, got = n * (n - 1), f.degree
    rep.totals["degree"] = got
    rep.add("degree == n(n-1)", got == want,
            "" if got == want else f"degree {got}, expected {want} "
            f"(deficit {want - got})")
    return got == want


def check_refinement(parent: Factorization,
                     child: Factorization) -> VerificationReport:
    """Pass iff the child, on 2n strands, refines the parent, on n, block
    by block; with product(parent) == Delta^2_n, which the caller certifies
    first (`check_full_twist`), that proves product(child) == Delta^2_2n.

    The child is read as one block per parent factor, in order, and a
    closing tail.  The block of a parent factor t^-1 . core^e . t is the
    next child factors up to the degree of cable(core^e), at least one.
    With c = cable(t), each child transport u is read as h . c, where
    h = u . c^-1 is u past its common suffix with c, then the inverse of
    the rest of c.  As u = h . c, the block's product is
    c^-1 . (prod h^-1 . core'^e' . h) . c, so its one rule is that the
    product of the h^-1 . core'^e' . h be cable(core^e), decided once per
    distinct identity by normal form.  The block's product is then the
    cable of the parent factor, as cable is a homomorphism, so the child's
    product is cable(Delta^2_n) times the tail's, which must be Delta^2_2n.

    Labels play no part: a grouping that passes every check proves the
    product, and a wrong one fails a check.  A failure names the parent
    factor (1-based index and label) and the first child factor of the bad
    block.  A child on another number of strands than 2n fails in one
    check.
    """
    rep = VerificationReport()
    n, m = parent.strands, child.strands
    if m != 2 * n:
        rep.add("strands == 2n", False, f"child on {m} strands, parent on "
                f"{n}: a refinement has {2 * n}")
        return rep
    t0 = time.perf_counter()
    _check_degree(rep, child)
    witness = _refinement_witness(parent, child)
    rep.add("product == Delta^2", witness is None, witness or "")
    rep.runtime["check_refinement"] = time.perf_counter() - t0
    return rep


def _refinement_witness(parent: Factorization, child: Factorization):
    """The first failing check of `check_refinement`, or None."""
    n, kids = parent.strands, child.factors
    decided = {}   # (local word, core word, exponent) -> verdict
    j, where = 0, ""
    for i, (pf, ct) in enumerate(cabled_transports(n, parent.factors), 1):
        where = f"parent {_where(i, pf)}"
        if j == len(kids):
            return f"{where}: the child ends before its block"
        block = f"{where}, block from child {_where(j + 1, kids[j])}"
        c, target = ct.word, 4 * pf.degree
        local, deg, start, u = [], 0, j, None
        while j < len(kids) and (j == start or deg < target):
            f = kids[j]
            # a transport shared with the previous factor is split once
            if f.transport.word is not u:
                u = f.transport.word
                s = common_suffix(u, c)
                h = list(u[:len(u) - s])
                extend_reduced(h, inverse_word(c[:len(c) - s]))
            extend_reduced(local, inverse_word(h))
            extend_reduced(local, (f.core ** f.exponent).word)
            extend_reduced(local, h)
            deg += f.degree
            j += 1
        if deg != target:
            return (f"{block}: its {j - start} factors have degree {deg}, "
                    f"cable(core^{pf.exponent}) has {target}")
        key = (tuple(local), pf.core.word, pf.exponent)
        if key not in decided:
            decided[key] = (Braid._reduced(2 * n, key[0])
                            == cable(pf.core ** pf.exponent))
        if not decided[key]:
            return (f"{block}: its product with cable(t) removed is not "
                    f"cable(core^{pf.exponent})")
    tail = kids[j:]
    where = "closing tail" + (f" after {where}" if where else "") + (
        f", from child {_where(j + 1, tail[0])}" if tail else ", empty")
    if not (cable(delta_squared(n))
            * Factorization._of(2 * n, tail).product()).is_full_twist():
        return (f"{where}: cable(Delta^2_{n}) times its product is not "
                f"Delta^2_{2 * n}")
    return None


# a label D<t>: (parasitic, line t) or V<j>: (vertex j), after one ~ per
# complex conjugation (`conj_factorization`)
_LABEL = re.compile(r"~*([DV])(\d+):")


def regen_audit(fz: Factorization) -> dict:
    """Degree bookkeeping by label (`_LABEL`): parasitic, and by vertex."""
    total = parasitic = 0
    per_vertex = {}
    for f in fz.factors:
        d = f.degree
        total += d
        m = _LABEL.match(f.label)
        if m and m[1] == "D":
            parasitic += d
        elif m:
            v = int(m[2])
            per_vertex[v] = per_vertex.get(v, 0) + d
    return {"total": total, "parasitic": parasitic, "per_vertex": per_vertex}


def _state(f: Factorization):
    return tuple(fac.braid() for fac in f.factors)


def _neighbors(state):
    k = len(state)
    for i in range(k - 1):
        a, b = state[i], state[i + 1]
        yield state[:i] + (b, a.conjugate(b)) + state[i + 2:]
        yield state[:i] + (b.conjugate(a.inverse()), a) + state[i + 2:]


def hurwitz_equivalent(f: Factorization, g: Factorization,
                       budget: int = 10 ** 6) -> str:
    """BFS over Hurwitz moves; returns "yes" | "no" | "inconclusive".

    "no" is only returned when the whole orbit fits inside the budget.
    """
    if f.strands != g.strands or len(f) != len(g):
        return "no"
    if f.product() != g.product():
        return "no"
    start, goal = _state(f), _state(g)
    if start == goal:
        return "yes"
    seen = {start}
    frontier = deque([start])
    while frontier:
        cur = frontier.popleft()
        for nxt in _neighbors(cur):
            if nxt in seen:
                continue
            if nxt == goal:
                return "yes"
            if len(seen) >= budget:
                return "inconclusive"
            seen.add(nxt)
            frontier.append(nxt)
    return "no"


def artin_census(f: Factorization) -> dict:
    """Histogram of factors by Artin exponent and by provenance tag."""
    by_r = {1: 0, 2: 0, 3: 0, 4: 0, "composite": 0}
    by_tag = {}
    for fac in f.factors:
        key = "composite" if fac.tag == COMPOSITE_TAG else fac.exponent
        by_r[key] = by_r.get(key, 0) + 1
        by_tag[fac.tag] = by_tag.get(fac.tag, 0) + 1
    return {"by_exponent": by_r, "by_tag": by_tag}


def emit_relations(f: Factorization) -> list:
    """One van Kampen relation template per factor, a vertex composite
    expanded into its frame letters.

    r=1: the two local generators are identified; r=2: they commute;
    r=3: they satisfy the braid relation.  Generators are written as
    conjugates of the puncture generators G1..Gn by the factor's arc word.
    """
    out = []
    for i, factor in enumerate(f.factors, 1):
        for fac in (_vertex_split(factor, i) if factor.tag == COMPOSITE_TAG
                    else [factor]):
            if not fac.is_half_twist():
                raise ValueError(f"{_where(i, fac)} is not a half twist")
            twist = fac.twist
            a, b = (s + 1 for s in twist.moved_slots())
            w = twist.to_text() or "e"
            A, B = f"(G{a})^[{w}]", f"(G{b})^[{w}]"
            if fac.exponent == 1:
                rel = f"{A} = {B}"
            elif fac.exponent == 2:
                rel = f"[{A}, {B}] = 1"
            elif fac.exponent == 3:
                rel = f"{A} {B} {A} = {B} {A} {B}"
            else:
                rel = f"({A} {B})^2 = ({B} {A})^2"
            out.append({"label": fac.label, "exponent": fac.exponent,
                        "relation": rel})
    return out
