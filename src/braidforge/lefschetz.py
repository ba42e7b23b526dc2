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

A table is its golden JSON: `monodromy_from_table` reads each row's `j`,
`lambda` (a slot block [a, b], or "P2"), `eps` and `delta` ({"kind": half |
full | i2r | ri2, "at": a block, or a slot k}), and `golden_check` reads
`strands`, `labels`, `rows` and `expected`.

The two-sided variant evaluates a second table (`back_rows`) from a far base
point on the other side of the singularities, rotates the resulting
skeletons by a half turn of the whole disk, and conjugates them by the
inverse of the product of the designated pair half-twists;
`two_sided_monodromy` appends the result to the front factors.  It takes the
two tables' factorizations, so `golden_check` evaluates each table once.

Row values are conjugates x^g = g^-1 x g (`Braid.conjugate`); the golden
replay compares each row with the value of its printed entry,
`arcs.entry_value`, the product of the entry's expansion.
"""

from __future__ import annotations

from .arcs import PunctureConfig, entry_value, pair_twists
from .braid import Braid, artin_gen, block_full_twist, block_half_twist, delta
from .factorization import COMPOSITE_TAG, EXP_TAG, Factor, Factorization


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
        return block_full_twist(n, at[0], at[1])
    if kind == "ri2":
        return _ascend(n, at)
    if kind == "i2r":
        return _descend(n, at)
    raise ValueError(f"unknown delta kind {kind!r}")


def monodromy_from_table(n: int, rows) -> Factorization:
    """The factors of a table's rows (its golden JSON `rows`) on n strands."""
    acc = Braid(n)          # product of the deltas seen so far
    factors = []
    for row in rows:
        j, lam, eps = row["j"], row["lambda"], row["eps"]
        kind, at = row["delta"]["kind"], row["delta"]["at"]
        if kind in ("half", "full") and not at[0] < at[1] <= at[0] + 2:
            raise ValueError(f"row {j}: bad delta block {tuple(at)}")
        if (lam == "P2") != (kind == "ri2"):
            raise ValueError(f"row {j}: P2 blocks go with ri2 deltas only")
        d = _delta_braid(n, kind, at)
        if lam == "P2":
            # evaluated on the far side of the branch point: the pair is
            # still real at (k, k+1) and the row's own delta transports it
            h, g, tag = artin_gen(n, at), acc * d, EXP_TAG[eps]
        else:
            a, b = lam
            h, g = block_half_twist(n, a, b), acc
            tag = COMPOSITE_TAG if b - a > 1 else EXP_TAG[eps]
        factors.append(Factor(h, eps, tag, g.inverse(), f"row{j}"))
        acc = acc * d
    return Factorization(n, factors)


def two_sided_monodromy(front: Factorization, back: Factorization,
                        rho: Braid) -> Factorization:
    """Front factors, then the back factors rotated a half turn and
    conjugated by rho^-1 (the product of the designated pair half-twists)."""
    # transport by the rotation first, then by rho^-1
    conj = rho.inverse() * delta(front.strands)
    return front + back.conjugate(conj.inverse())


def golden_check(obj) -> list:
    """Replay one transcribed table: [(row description, matches?), ...].

    Stages compared braid-by-braid: the front rows against `expected`; if a
    far-side pass is present, its rows against `back_expected_far`, their
    half-turn rotation against `back_expected_rotated`, and the rotated rows
    conjugated by rho^-1 (the tail of the two-sided monodromy) against the
    same strings with a trailing rho^-1.
    """
    n, labels = obj["strands"], obj["labels"]
    if len(labels) != n:
        raise ValueError("one label per strand required")
    out = []

    labelled = PunctureConfig(labels)
    positional = PunctureConfig(range(1, n + 1))

    def compare(stage, factors, texts, cfg, post=None):
        for i, (f, text) in enumerate(zip(factors, texts)):
            want = entry_value(cfg, text)
            if post is not None:
                want = post(want)
            out.append((f"{obj['name']} {stage} row {i + 1}",
                        f.braid() == want))

    front = monodromy_from_table(n, obj["rows"])
    compare("front", front, obj["expected"], labelled)
    if obj.get("back_rows"):
        far = monodromy_from_table(n, obj["back_rows"])
        compare("far", far, obj["back_expected_far"], positional)
        compare("rotated", far.conjugate(delta(n).inverse()),
                obj["back_expected_rotated"], positional)
        rho = pair_twists(labelled, obj["rho"])
        final = two_sided_monodromy(front, far, rho).factors[len(front):]
        compare("final", final, obj["back_expected_rotated"], positional,
                post=lambda b: b.conjugate(rho))
    return out
