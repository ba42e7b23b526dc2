"""Child process of the benchmark.

    worker.py setup       --out F                    import only (pipeline)
    worker.py hurwitz     --seed S --seconds W --out F [--trace] [--setup-only]
    worker.py wordproblem --seed S --seconds W --out F [--trace] [--setup-only]
    worker.py inputs      --seed S --dir D --out F      verify's input files
    worker.py check       --workload W --dir D --out F [--neg-degree N]
                                                     reference checks

hurwitz and wordproblem set up once in this fresh interpreter, then run
batches back to back for W seconds (at least MIN_BATCHES).  With --trace,
every second batch runs with the package instrumented (spans.py); each traced
batch repeats the inputs of the untraced batch before it.

Every mode writes one JSON object to F.  Timestamps are `time.perf_counter`
values, which share one monotonic clock with the parent on Linux.  Reference
answers come from the paper or from how an input was built, never from the
engine under test.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import resource
import sys
import time

clock = time.perf_counter

# ---------------------------------------------------------------------------
# seeded inputs (pure Python: they do not depend on the engine)

HURWITZ_MOVES = 20          # per instance, as in acceptance criterion 8
# Instances per batch.  The two B_2 instances carry most of a batch's time;
# the many small ones (n = 3..8, about a millisecond each) set the median op,
# so that a seed's few cheap or costly move sequences barely move it.
B2_REPS = 2
SMALL_REPS = 8              # per strand count n = 3..8
# Unreduced words grow by a factor of about 2.4 per move on B_2, whose two
# factors take every move, so the letters an instance builds depend on its
# move sequence: from 10^5 to 4*10^7 over 20 moves.  A B_2 sequence is drawn
# until its simulated cost and its longest word lie in these bands, so that
# neither the load nor the peak memory of a batch depends on the seed, and no
# seed can exhaust memory.
B2_COST_BAND = (6_860_000, 7_140_000)
B2_LONGEST_BAND = (800_000, 880_000)
# The instances with n >= 3 set the median op.  Their simulated cost is drawn
# between the 40th and 60th percentile of 20 random moves for each n, so that
# the median op does not move with the seed's cheap or costly sequences.
SMALL_COST_BANDS = {3: (6_847, 10_757), 4: (1_149, 1_489), 5: (620, 720),
                    6: (485, 535), 7: (439, 474), 8: (427, 457)}
MIN_BATCHES = 3             # per run; a traced run needs 2 untraced and 2 traced
BFS_CASES = ((3, 3, 3), (3, 3, 4), (4, 4, 2), (4, 4, 3))  # (n, factors, moves)

WORD_SIZES = ((27, 360), (54, 200))   # (n, letters) of one batch's words
RELATIONS = {1: 270, 2: 216}   # 486 relations of the degenerated curve, by r


def simulated_cost(n, moves):
    """(letters built, longest twist) of a frame instance, without the engine.

    Each move builds a conjugated twist word (twice, counting the inverse of
    the conjugator) and extends one transport word; the final conjugation and
    product copy every twist twice and every transport once.  Words are
    taken unreduced, as the parent commit stores them.
    """
    twist = [1] * (n * (n - 1))
    transport = [0] * (n * (n - 1))
    cost = 0
    for i, direction in moves:
        a, b = i - 1, i
        if direction == "right":
            new_t, new_p = twist[a] + 2 * twist[b], transport[a] + twist[b]
            twist[a], twist[b] = twist[b], new_t
            transport[a], transport[b] = transport[b], new_p
        else:
            new_t, new_p = twist[b] + 2 * twist[a], transport[b] + twist[a]
            twist[a], twist[b] = new_t, twist[a]
            transport[a], transport[b] = new_p, transport[a]
        cost += 2 * new_t + new_p
    return cost + 2 * sum(twist) + sum(transport), max(twist)


def _in_bands(n, moves) -> bool:
    cost, longest = simulated_cost(n, moves)
    if n > 2:
        low, high = SMALL_COST_BANDS[n]
        return low <= cost <= high
    return (B2_COST_BAND[0] <= cost <= B2_COST_BAND[1]
            and B2_LONGEST_BAND[0] <= longest <= B2_LONGEST_BAND[1])


def _draw_moves(rng, n, count):
    k = n * (n - 1)
    return [(rng.randint(1, k - 1), rng.choice(("left", "right")))
            for _ in range(count)]


def hurwitz_inputs(seed):
    rng = random.Random(f"hurwitz:{seed}")
    frames = []
    for n in range(2, 9):
        for _ in range(B2_REPS if n == 2 else SMALL_REPS):
            moves = _draw_moves(rng, n, HURWITZ_MOVES)
            while not _in_bands(n, moves):
                moves = _draw_moves(rng, n, HURWITZ_MOVES)
            frames.append((n, moves))
    rng.shuffle(frames)
    bfs = []
    for n, k, d in BFS_CASES:
        gens = [rng.randint(1, n - 1) for _ in range(k)]
        moves = [(rng.randint(1, k - 1), rng.choice(("left", "right")))
                 for _ in range(d)]
        bfs.append((n, gens, moves))
    return frames, bfs


def _relator(rng, n):
    """A cyclic rotation of a braid relator of B_n, possibly inverted."""
    i = rng.randint(1, n - 2)
    if rng.random() < 0.5:
        r = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    else:
        j = rng.choice([j for j in range(1, n) if abs(j - i) >= 2])
        r = [i, j, -i, -j]
    s = rng.randrange(len(r))
    r = r[s:] + r[:s]
    if rng.random() < 0.5:
        r = [-x for x in reversed(r)]
    return r


def word_inputs(seed, batch):
    """(n, word, other, expected) decisions, the answer fixed by construction.

    `rewrite` inserts braid relators into the word, so it is equal.  Two
    negative controls are never equal: one extra generator changes the
    exponent sum, and the commutator [s_i^2, s_i+1^2] is a non-trivial pure
    braid with every exponent sum 0, which only a word-problem solver tells
    from the identity.
    """
    rng = random.Random(f"wordproblem:{seed}:{batch}")
    out = []
    for n, length in WORD_SIZES:
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
        rewrite = list(word)
        for _ in range(length // 10):
            pos = rng.randint(0, len(rewrite))
            rewrite[pos:pos] = _relator(rng, n)
        extra = rng.choice((1, -1)) * rng.randint(1, n - 1)
        i = rng.randint(1, n - 2)
        commutator = [i, i, i + 1, i + 1, -i, -i, -(i + 1), -(i + 1)]
        out.append((n, word, rewrite, True))
        out.append((n, word, rewrite + [extra], False))
        out.append((n, word, rewrite + commutator, False))
    return out


# ---------------------------------------------------------------------------
# ops


def _imports():
    import braidforge.braid as B
    import braidforge.degeneration as D
    import braidforge.factorization as F
    import braidforge.verify as V
    return B, D, F, V


def more_batches(done, trace, deadline) -> bool:
    """Whether a closed loop that has run `done` batches goes on."""
    return done < (4 if trace else MIN_BATCHES) or clock() < deadline


def _run_ops(ops, tracer):
    """Closed loop over (kind, thunk) ops; a thunk returns True when right."""
    records = []
    t_first = clock()
    for k, (kind, thunk) in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        t0 = clock()
        try:
            ok = bool(thunk())
            err = "" if ok else "wrong verdict"
        except Exception as e:  # counted as a failed op, run continues
            ok, err = False, f"{type(e).__name__}: {e}"
        records.append([kind, t0, clock(), ok, err])
    return t_first, clock(), records


def setup_hurwitz(seed):
    """phi8 and the seed's batch; the same ops run in every batch."""
    B, D, F, V = _imports()
    phi8 = D.phi8(D.build_tt())
    frames, bfs = hurwitz_inputs(seed)

    def frame_op(n, moves):
        fz = F.frame_factorization(n)
        for i, direction in moves:
            fz = F.hurwitz_move(fz, i, direction)
        if len(fz) != n * (n - 1) or fz.degree != n * (n - 1):
            return False
        return F.conj_factorization(fz).product() == B.delta_squared(n)

    def phi8_op():
        c = F.conj_factorization(phi8)
        return (len(c) == 225 and c.degree == 702
                and c.product() == B.delta_squared(27))

    def bfs_op(n, gens, moves):
        f = F.Factorization(n, [F.Factor(B.artin_gen(n, g), 1, "branch")
                                for g in gens])
        g = f
        for i, direction in moves:
            g = F.hurwitz_move(g, i, direction)
        return V.hurwitz_equivalent(f, g) == "yes"

    ops = [(f"frame.n{n}", lambda n=n, m=m: frame_op(n, m)) for n, m in frames]
    ops.append(("phi8.conj", phi8_op))
    ops += [(f"bfs.n{n}", lambda n=n, g=g, m=m: bfs_op(n, g, m))
            for n, g, m in bfs]
    return lambda k: ops


def setup_wordproblem(seed):
    """New seeded words for every batch: a word's normal-form cost varies."""
    B = _imports()[0]

    def decide(n, w, r, expected):
        return (B.Braid(n, w) == B.Braid(n, r)) is expected

    kinds = ("equal", "extra_letter", "commutator") * len(WORD_SIZES)
    made = {}

    def batch(k):
        if k not in made:   # a traced batch repeats the words before it
            made.clear()
            made[k] = [(f"{kind}.n{n}",
                        lambda n=n, w=w, r=r, e=e: decide(n, w, r, e))
                       for kind, (n, w, r, e) in zip(kinds, word_inputs(seed, k))]
        return made[k]
    batch(0)   # the first batch's words are made during set-up
    return batch


def run_library(setup, seed, seconds, trace, setup_only):
    make_batch = setup(seed)
    t_ready = clock()
    if setup_only:
        return {"t_ready": t_ready}
    if trace:
        import spans
    batches = []
    deadline = clock() + seconds
    k = 0
    while more_batches(len(batches), trace, deadline):
        traced = trace and k % 2 == 1
        ops = make_batch(k // 2 if trace else k)
        tracer = None
        if traced:
            tracer = spans.Tracer()
            spans.instrument(tracer)
        try:
            t_first, t_last, records = _run_ops(ops, tracer)
        finally:
            if tracer is not None:
                spans.restore(tracer)
        batch = {"traced": traced, "wall": t_last - t_first, "ops": records}
        if tracer is not None:
            batch["trace"] = tracer.export()
        batches.append(batch)
        k += 1
    return {"t_ready": t_ready, "batches": batches, "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    """This process's own peak RSS.

    VmHWM belongs to the address space, which exec replaces.  ru_maxrss does
    not start again at exec, so it can report the parent's peak instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# set-up helpers and reference checks


def verify_inputs(seed, d):
    """Write phi8.json, phi0.json and the negative control neg.json.

    The control is phi8 with one factor, chosen by the seed, deleted; its
    degree is returned, because the deficit it leaves is known in advance.
    """
    _, D, F, _ = _imports()
    from braidforge.regeneration import regenerate
    g = D.build_tt()
    fz = D.phi8(g)
    i = random.Random(f"verify:{seed}").randrange(len(fz))
    broken = F.Factorization(fz.strands, fz.factors[:i] + fz.factors[i + 1:])
    for name, f in (("phi8", fz), ("phi0", regenerate(g)), ("neg", broken)):
        with open(f"{d}/{name}.json", "w", encoding="utf-8") as fh:
            fh.write(f.dumps())
    return {"degree": fz.factors[i].degree}


def _vertex_of(label):
    """V4:... -> 4 (vertex factors are labelled by their vertex)."""
    m = re.match(r"V(\d+)", label)
    return int(m.group(1)) if m else None


def _check_certificate(F, B, path, strands, factors, degree, parasitic=None,
                       per_vertex=None, product=True):
    """Failures of one certificate file against the paper's counts."""
    with open(path, encoding="utf-8") as fh:
        fz = F.Factorization.loads(fh.read())
    bad = []
    if fz.strands != strands:
        bad.append(f"{path}: {fz.strands} strands, expected {strands}")
    if len(fz) != factors:
        bad.append(f"{path}: {len(fz)} factors, expected {factors}")
    if fz.degree != degree:
        bad.append(f"{path}: degree {fz.degree}, expected {degree}")
    if parasitic is not None:
        got = sum(f.degree for f in fz if f.label.startswith("D"))
        if got != parasitic:
            bad.append(f"{path}: parasitic degree {got}, expected {parasitic}")
    if per_vertex is not None:
        by_v = {}
        for f in fz:
            if f.label.startswith("V"):
                v = _vertex_of(f.label)
                by_v[v] = by_v.get(v, 0) + f.degree
        if by_v != {v: per_vertex for v in range(1, 10)}:
            bad.append(f"{path}: per-vertex degrees {by_v}, expected "
                       f"{per_vertex} on each of 9 vertices")
    if product and fz.product() != B.delta_squared(strands):
        bad.append(f"{path}: product is not the full twist")
    return bad


def reference_check(workload, d, neg_degree):
    B, _, F, _ = _imports()
    if workload == "pipeline":
        return (_check_certificate(F, B, f"{d}/A.json", 27, 225, 702,
                                   parasitic=432, per_vertex=30)
                + _check_certificate(F, B, f"{d}/B.json", 54, 513, 2862,
                                     parasitic=1728, per_vertex=126))
    return (_check_certificate(F, B, f"{d}/phi8.json", 27, 225, 702,
                               parasitic=432, per_vertex=30, product=False)
            + _check_certificate(F, B, f"{d}/phi0.json", 54, 513, 2862,
                                 parasitic=1728, per_vertex=126, product=False)
            + _check_certificate(F, B, f"{d}/neg.json", 27, 224,
                                 702 - neg_degree, product=False)
            + _check_relations(f"{d}/rels.json"))


def _check_relations(path):
    """`forge relations --out` of phi8: 486 relations, by exponent r."""
    try:
        with open(path, encoding="utf-8") as fh:
            rels = json.load(fh)
    except FileNotFoundError:
        return [f"{path}: not written"]
    by_r = {}
    for r in rels:
        by_r[r["exponent"]] = by_r.get(r["exponent"], 0) + 1
    if by_r != RELATIONS:
        return [f"{path}: relations by exponent {by_r}, expected {RELATIONS}"]
    return []


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "hurwitz", "wordproblem",
                                    "inputs", "check"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--workload")
    p.add_argument("--dir")
    p.add_argument("--neg-degree", type=int, default=0)
    a = p.parse_args(argv)
    if a.mode == "setup":
        import braidforge.cli  # noqa: F401  (interpreter start and import)
        out = {"t_ready": clock()}
    elif a.mode in ("hurwitz", "wordproblem"):
        setup = setup_hurwitz if a.mode == "hurwitz" else setup_wordproblem
        out = run_library(setup, a.seed, a.seconds, a.trace, a.setup_only)
    elif a.mode == "inputs":
        out = verify_inputs(a.seed, a.dir)
    else:
        out = {"failures": reference_check(a.workload, a.dir, a.neg_degree)}
    with open(a.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
