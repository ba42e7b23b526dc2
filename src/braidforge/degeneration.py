"""The torus-grid line arrangement and its degenerated monodromy factorization.

Nine vertices sit on a 3x3 grid with torus identifications; the 27 lines are
the horizontal, vertical and diagonal edges.  Vertices are numbered
lexicographically; lines are numbered by (larger vertex, smaller vertex)
lexicographically.  Each vertex is a 6-point, each of the 18 triangular planes
meets exactly three others.

The factorization of the full twist on 27 strands (one per line) is computed
from an exact rational realization of the arrangement: the vertices are placed
on a convex curve so that all 225 singular values of the projection (9 vertex
values, 216 crossings of lines disjoint in the arrangement) are distinct and
each singular fiber involves a consecutive block of the current fiber order.
Sweeping the fiber across all singular values yields one conjugated block
twist per singular value, and their product (farthest value first) is exactly
the full twist.  Hurwitz moves then regroup the factors into the standard
order: for each vertex j, first the parasitic blocks D_t of the lines whose
smaller endpoint is j, then the full twist on the six lines through j.
"""

from __future__ import annotations

from math import lcm

from .braid import Braid, block_full_twist, block_half_twist, inverse_word
from .factorization import COMPOSITE_TAG, Factor, Factorization, _Product


class DegenGraph:
    """27 lines over 9 six-points, with lex orders."""

    __slots__ = ("lines", "vertices", "_incident", "_into", "_parasitic")

    def __init__(self, drawn):
        """drawn[t-1] = (start, end): line t as it is drawn, to its end."""
        # lines[t-1] = (alpha, beta), alpha < beta
        self.lines = tuple(tuple(sorted(e)) for e in drawn)
        self.vertices = tuple(range(1, max(b for _, b in self.lines) + 1))
        inc = {v: [] for v in self.vertices}
        into = {v: [] for v in self.vertices}
        for t, (a, b) in enumerate(drawn, start=1):
            inc[a].append(t)
            inc[b].append(t)
            into[b].append(t)
        self._incident = {v: tuple(sorted(ls)) for v, ls in inc.items()}
        self._into = {v: tuple(ls) for v, ls in into.items()}
        self._parasitic = {t: tuple(p for p in range(1, t)
                                    if self.disjoint(p, t))
                           for t in range(1, len(self.lines) + 1)}

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def small_vertex(self, t: int) -> int:
        return self.lines[t - 1][0]

    def large_vertex(self, t: int) -> int:
        return self.lines[t - 1][1]

    def incident_lines(self, v: int):
        """The six lines through vertex v, in increasing global order."""
        return self._incident[v]

    def lines_into(self, v: int):
        """The lines drawn to vertex v, in increasing global order."""
        return self._into[v]

    def disjoint(self, p: int, t: int) -> bool:
        return not set(self.lines[p - 1]) & set(self.lines[t - 1])

    def parasitic(self, t: int):
        """The lines p < t disjoint from line t, in increasing global order:
        the parasitic pairs (p, t) of D_t."""
        return self._parasitic[t]


def build_tt() -> DegenGraph:
    """The unique incidence graph of the degenerated torus-product surface."""
    def vnum(r, c):
        return 3 * (r % 3) + (c % 3) + 1

    # from each vertex (r, c) one line to the right, one down, one diagonal;
    # so (r, c) ends those from (r, c-1), (r-1, c) and (r-1, c-1)
    drawn = [(vnum(r, c), vnum(r + dr, c + dc)) for r in range(3)
             for c in range(3) for dr, dc in ((0, 1), (1, 0), (1, 1))]
    g = DegenGraph(sorted(drawn, key=lambda ab: (max(ab), min(ab))))
    assert len(set(g.lines)) == 27
    assert all(len(g.incident_lines(v)) == 6 for v in g.vertices)
    return g


def markers(g: DegenGraph, t: int):
    """Lines j < t through the larger vertex of L_t (the conjugation marks)."""
    beta = g.large_vertex(t)
    return tuple(j for j in g.incident_lines(beta) if j < t and g.large_vertex(j) == beta)


# ---------------------------------------------------------------------------
# exact realization and fiber sweep


def _realization(g: DegenGraph):
    """Vertices on a convex parabola; line t joins its two vertices.

    Returns the abscissas a of the vertices and the slopes and intercepts of
    the 27 lines, all integers.  The abscissas grow fast enough that the
    slope order (hence the fiber order far to the right) coincides with the
    global line order.
    """
    a = {j: 4 ** j + j * j for j in g.vertices}
    slope, icept = {}, {}
    for t, (al, be) in enumerate(g.lines, start=1):
        # line through (a_al, a_al^2) and (a_be, a_be^2)
        slope[t] = a[al] + a[be]
        icept[t] = -a[al] * a[be]
    order = sorted(slope, key=lambda t: slope[t])
    if order != list(range(1, g.n_lines + 1)):
        raise ValueError("realization does not induce the global line order")
    return a, slope, icept


def _events(g: DegenGraph):
    """All singular values of the projection, nearest the base point first.

    Each event is (x, kind, payload): a vertex event carries the vertex index,
    a crossing event the disjoint pair (p, t).  The base point lies far to the
    right, so events are swept in decreasing x.  A crossing's abscissa is a
    ratio of integers, so x is the abscissa times the lcm of those
    denominators: an exact integer key.
    """
    a, slope, icept = _realization(g)
    # (numerator, positive denominator, (p, t))
    crossings = [(icept[p] - icept[t], slope[t] - slope[p], (p, t))
                 for t in range(1, g.n_lines + 1) for p in g.parasitic(t)]
    scale = lcm(*(den for _, den, _ in crossings))
    events = [(a[j] * scale, "vertex", j) for j in g.vertices]
    events += [(num * (scale // den), "cross", pair)
               for num, den, pair in crossings]
    xs = [e[0] for e in events]
    if len(set(xs)) != len(xs):
        raise ValueError("degenerate realization: coincident singular values")
    events.sort(key=lambda e: e[0], reverse=True)
    return events


def _sweep(g: DegenGraph):
    """Sweep the fiber across all singular values.

    Maintains the current fiber order and W^-1, W the accumulated conjugating
    word, a product of positive half twists and so freely reduced.  Each
    event contributes the factor W . Delta^2<block> . W^-1, where the block is
    the (consecutive) run of lines meeting at the event, so its transport is
    the current W^-1; afterwards W absorbs the half twist H of the block
    (W^-1 gains H^-1 on the left) and the block order reverses.

    Returns the sweep's own factorization as (key, Factor) pairs in product
    order (farthest event first), key the event's (kind, payload): a
    parasitic node for a crossing, a vertex's block full twist for a vertex.
    Their product in this order is the full twist.
    """
    n = g.n_lines
    fiber = list(range(1, n + 1))
    winv: tuple = ()
    out = []
    for _x, kind, payload in _events(g):
        lines = (list(g.incident_lines(payload)) if kind == "vertex"
                 else list(payload))
        pos = sorted(fiber.index(l) for l in lines)
        a0, k = pos[0], len(pos)
        if pos != list(range(a0, a0 + k)):
            raise ValueError(f"event lines {lines} not consecutive in the fiber")
        transport = Braid._reduced(n, winv)
        if kind == "cross":
            p, t = payload
            f = Factor(Braid._reduced(n, (a0 + 1,)), 2, "node", transport,
                       f"D{t}:{_pair_notation(g, p, t)}")
        else:
            f = Factor(block_full_twist(n, a0 + 1, a0 + k), 1, COMPOSITE_TAG,
                       transport, f"V{payload}:Delta2<"
                       + ",".join(str(t) for t in lines) + ">")
        out.append(((kind, payload), f))
        winv = inverse_word(block_half_twist(n, a0 + 1, a0 + k).word) + winv
        fiber[a0:a0 + k] = reversed(fiber[a0:a0 + k])
    out.reverse()
    return out


def _paper_order(g: DegenGraph):
    """Keys of the 225 factors in the standard regrouped order."""
    keys = []
    for j in g.vertices:
        keys += [("cross", (p, t)) for t in range(1, g.n_lines + 1)
                 if g.small_vertex(t) == j for p in g.parasitic(t)]
        keys.append(("vertex", j))
    return keys


def _build_phi8(g: DegenGraph) -> Factorization:
    """Sweep, then regroup by Hurwitz moves into the standard order."""
    n = g.n_lines
    cur = _sweep(g)
    out = []
    prefix = [_Product(n)]  # prefix[i]: product of cur[:i], kept while valid
    for key in _paper_order(g):
        idx = next(i for i, (kk, _) in enumerate(cur) if kk == key)
        while len(prefix) <= idx:
            p = prefix[-1].copy()
            p.push(cur[len(prefix) - 1][1])
            prefix.append(p)
        _, f = cur.pop(idx)
        # pulling a factor left past a prefix conjugates it by the prefix;
        # the products past idx contained it and are rebuilt when needed
        del prefix[idx + 1:]
        out.append(f.conjugate(Braid._reduced(
            n, inverse_word(prefix[idx].word()))) if idx else f)
    return Factorization._of(n, tuple(out))


# ---------------------------------------------------------------------------
# public factorization views


_PHI8_CACHE: dict = {}


def phi8(g: DegenGraph) -> Factorization:
    """The degenerated factorization: product over vertices of C~_j . D~^2_j."""
    if g.lines not in _PHI8_CACHE:
        _PHI8_CACHE[g.lines] = _build_phi8(g)
    return _PHI8_CACHE[g.lines]


def tilde_Cj(g: DegenGraph, j: int) -> Factorization:
    """Product of the D_t over lines whose smaller vertex is j.

    `phi8` already holds these D_t in order of t (`_paper_order`), so one
    filter of it is the product.
    """
    pre = tuple(f"D{t}:" for t in range(1, g.n_lines + 1)
                if g.small_vertex(t) == j)
    return Factorization(g.n_lines,
                         [f for f in phi8(g) if f.label.startswith(pre)])


def tilde_Delta2(g: DegenGraph, j: int) -> Factorization:
    """Full twist on the six punctures of the lines through vertex j."""
    pre = f"V{j}:"
    return Factorization(g.n_lines,
                         [f for f in phi8(g) if f.label.startswith(pre)])


# ---------------------------------------------------------------------------
# notation


def _marker_text(marks) -> str:
    """(4), (6)(7), (17)-(20): runs of four or more are hyphenated."""
    if not marks:
        return ""
    runs = []
    for m in marks:
        if runs and m == runs[-1][1] + 1:
            runs[-1][1] = m
        else:
            runs.append([m, m])
    out = []
    for lo, hi in runs:
        if hi - lo >= 3:
            out.append(f"({lo})-({hi})")
        else:
            out.extend(f"({m})" for m in range(lo, hi + 1))
    return "".join(out)


def _pair_notation(g: DegenGraph, p: int, t: int) -> str:
    """Notation of one parasitic twist: Zbar2[p,t] with conjugation markers.

    The bar (arc passing the intermediate punctures on the far side) is
    vacuous when p and t are adjacent, and is then omitted, as are markers.
    """
    if t - p == 1:
        return f"Z2[{p},{t}]"
    return f"Zbar2[{p},{t}]" + _marker_text(markers(g, t))


def dt_notation(g: DegenGraph, t: int) -> str:
    """Serialized factor list of D_t, 'Id' when empty."""
    parts = [_pair_notation(g, p, t) for p in g.parasitic(t)]
    return " . ".join(parts) if parts else "Id"


# ---------------------------------------------------------------------------
# audits


def degree_audit(f: Factorization, expected: int) -> dict:
    """Per-factor degree table with block subtotals; pass iff total matches."""
    rows = [(x.label or f"#{i}", x.degree) for i, x in enumerate(f.factors, 1)]
    blocks: dict[str, int] = {}
    for label, d in rows:
        key = label.split(":")[0] or "?"
        blocks[key] = blocks.get(key, 0) + d
    total = sum(d for _, d in rows)
    return {"factors": rows, "blocks": blocks, "total": total,
            "expected": expected, "pass": total == expected}
