"""Certification toolkit: product checks, Hurwitz-equivalence search,
factor census, degree audit by label, and van Kampen relation templates.
"""

from __future__ import annotations

import re
import time
from collections import deque

from .braid import delta_squared
from .factorization import COMPOSITE_TAG, Factorization, _vertex_split, _where


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
    degree skips the product check, so no full twist is built for it."""
    rep = VerificationReport()
    n = f.strands
    t0 = time.perf_counter()
    want = n * (n - 1)
    got = f.degree
    rep.totals["degree"] = got
    rep.add("degree == n(n-1)", got == want,
            "" if got == want else f"degree {got}, expected {want} "
            f"(deficit {want - got})")
    if got != want:
        # the degree is a homomorphism, so the product is not Delta^2 either
        rep.add("product == Delta^2", False,
                f"not computed: degree {got} is not {want}", skipped=True)
    elif (prod := f.product()) == (full := delta_squared(n)):
        rep.add("product == Delta^2", True)
    else:
        resid = full.inverse() * prod
        inf, facs = resid.normal_form()
        rep.add("product == Delta^2", False,
                f"residual Delta^-2.product has degree {resid.degree}, "
                f"normal form inf {inf} with {len(facs)} factors")
    rep.runtime["check_full_twist"] = time.perf_counter() - t0
    return rep


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


def _neighbors(state, n):
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
        for nxt in _neighbors(cur, f.strands):
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
