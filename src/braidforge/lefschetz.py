"""Table-driven braid monodromy of real plane-curve models.

Each singular fiber of the x-projection contributes one table row: a local
vanishing block (lambda), an Artin exponent (1 branch, 2 node, 3 cusp,
4 tangency; width-3 blocks give composite full-twist factors), and a model
diffeomorphism (delta) describing how the fiber changes across the singular
value.  The monodromy factor of a row is the half-twist of its block,
transported to the base fiber through all the deltas between the row and the
base point, raised to the row's exponent.

Branch points of a conic come in two kinds.  Where the two real branches sit
to the right of the branch point (delta kind "i2r"), the row's block is an
ordinary adjacent pair; across the singular value the two punctures leave the
real line as a conjugate pair, which the model keeps (flattened) at the right
end of the configuration.  Where the branches are real to the left
(kind "ri2", block "P2"), the row is evaluated on the left side, so its own
delta participates in its transport.

The two-sided variant evaluates a second table from a far base point on the
other side of the singularities, rotates the resulting skeletons by a half
turn of the whole disk, and conjugates them by the inverse of the product of
the designated pair half-twists; the result is appended to the front factors.

Row values are conjugates x^g = g^-1 x g (`Braid.conjugate`); the golden
replay compares each row with the value of its printed entry,
`regeneration.entry_value`, the product of the entry's expansion.
"""

from __future__ import annotations

from .arcs import PunctureConfig, pair_twists
from .braid import Braid, artin_gen, block_half_twist, delta
from .factorization import COMPOSITE_TAG, EXP_TAG, Factor, Factorization
from .regeneration import entry_value


class LefschetzRow:
    __slots__ = ("j", "block", "eps", "delta_kind", "delta_at")

    def __init__(self, j, block, eps, delta_kind, delta_at):
        self.j = j
        self.block = block          # (a, b) slot block, or "P2"
        self.eps = eps
        self.delta_kind = delta_kind  # half | full | i2r | ri2
        self.delta_at = delta_at      # (a, b) for half/full, slot k otherwise
        if delta_kind in ("half", "full"):
            a, b = delta_at
            if not (a < b <= a + 2):
                raise ValueError(f"row {j}: bad delta block {delta_at}")
        if (block == "P2") != (delta_kind == "ri2"):
            raise ValueError(f"row {j}: P2 blocks go with ri2 deltas only")

    @classmethod
    def from_json(cls, obj) -> "LefschetzRow":
        lam = obj["lambda"]
        block = "P2" if lam == "P2" else tuple(lam)
        d = obj["delta"]
        at = d["at"]
        return cls(obj["j"], block, obj["eps"], d["kind"],
                   tuple(at) if isinstance(at, list) else at)


class LefschetzTable:
    """Rows plus the base-fiber labelling (slot order at the base point)."""

    __slots__ = ("strands", "labels", "rows")

    def __init__(self, strands, labels, rows):
        if len(labels) != strands:
            raise ValueError("one label per strand required")
        self.strands = strands
        self.labels = tuple(str(l) for l in labels)
        self.rows = tuple(rows)

    @classmethod
    def from_json(cls, obj) -> "LefschetzTable":
        return cls(obj["strands"], obj["labels"],
                   [LefschetzRow.from_json(r) for r in obj["rows"]])


def _ascend(n: int, k: int) -> Braid:
    """Real pair at (k, k+1) leaves the real line and hovers at the end.

    The pair is gathered to the right end by dragging the last puncture left
    to slot k and undoing the drag one slot short, so the punctures passed on
    the way end up crossed once positively with one member and once
    negatively with the other.
    """
    word = list(range(n - 1, k - 1, -1))
    word += [-p for p in range(n - 1, k, -1)]
    return Braid(n, word)


def _descend(n: int, k: int) -> Braid:
    """Hovering pair comes back to the real line at slots (k, k+1).

    Each real puncture on the way passes between the two members, under the
    nearer one and over the farther one.
    """
    word = []
    for p in range(k, n - 1):
        word.append(-(p + 1))
        word.append(p)
    return Braid(n, word)


def _delta_braid(n: int, kind: str, at) -> Braid:
    if kind == "half":
        return block_half_twist(n, at[0], at[1])
    if kind == "full":
        return block_half_twist(n, at[0], at[1]) ** 2
    if kind == "ri2":
        return _ascend(n, at)
    if kind == "i2r":
        return _descend(n, at)
    raise ValueError(f"unknown delta kind {kind!r}")


def monodromy_from_table(t: LefschetzTable) -> Factorization:
    n = t.strands
    acc = Braid(n)          # product of the deltas seen so far
    factors = []
    for row in t.rows:
        d = _delta_braid(n, row.delta_kind, row.delta_at)
        if row.block == "P2":
            # evaluated on the far side of the branch point: the pair is
            # still real at (k, k+1) and the row's own delta transports it
            h = artin_gen(n, row.delta_at)
            g = acc * d
        else:
            a, b = row.block
            h = block_half_twist(n, a, b)
            g = acc
        if row.block != "P2" and row.block[1] - row.block[0] > 1:
            tag = COMPOSITE_TAG
        else:
            tag = EXP_TAG[row.eps]
        factors.append(Factor(h, row.eps, tag,
                              label=f"row{row.j}").conjugate(g.inverse()))
        acc = acc * d
    return Factorization(n, factors)


def two_sided_monodromy(front: LefschetzTable, back: LefschetzTable,
                        rho: Braid) -> Factorization:
    """Front factors, then the back factors rotated a half turn and
    conjugated by rho^-1 (the product of the designated pair half-twists)."""
    if front.strands != back.strands:
        raise ValueError("strand mismatch between the two tables")
    # transport by the rotation first, then by rho^-1
    conj = rho.inverse() * delta(front.strands)
    return (monodromy_from_table(front)
            + monodromy_from_table(back).conjugate(conj.inverse()))


def golden_check(obj) -> list:
    """Replay one transcribed table: [(row description, matches?), ...].

    Stages compared braid-by-braid: the front rows against `expected`; if a
    far-side pass is present, its rows against `back_expected_far`, their
    half-turn rotation against `back_expected_rotated`, and the rotated rows
    conjugated by rho^-1 (the tail of the two-sided monodromy) against the
    same strings with a trailing rho^-1.
    """
    front = LefschetzTable.from_json(obj)
    out = []

    labelled = PunctureConfig(front.labels)
    positional = PunctureConfig(range(1, front.strands + 1))

    def compare(stage, factors, texts, cfg, post=None):
        for i, (f, text) in enumerate(zip(factors, texts)):
            want = entry_value(cfg, text)
            if post is not None:
                want = post(want)
            out.append((f"{obj['name']} {stage} row {i + 1}",
                        f.braid() == want))

    compare("front", monodromy_from_table(front), obj["expected"], labelled)
    if obj.get("back_rows"):
        back = LefschetzTable.from_json(
            {"strands": obj["strands"], "labels": obj["labels"],
             "rows": obj["back_rows"]})
        far = monodromy_from_table(back)
        compare("far", far, obj["back_expected_far"], positional)
        compare("rotated", far.conjugate(delta(front.strands).inverse()),
                obj["back_expected_rotated"], positional)
        rho = pair_twists(labelled, obj["rho"])
        final = two_sided_monodromy(front, back, rho).factors[len(front.rows):]
        compare("final", final, obj["back_expected_rotated"], positional,
                post=lambda b: b.conjugate(rho))
    return out
