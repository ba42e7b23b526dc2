"""braidforge benchmark: one workload, one seed, a fixed measuring window.

    python3 bench/run.py --workload pipeline|verify|hurwitz|wordproblem|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has `src/braidforge`.  The package
is imported from that checkout only (PYTHONPATH=<checkout>/src); nothing is
installed.  This process never imports braidforge: every op runs in a fresh
interpreter (a `forge` CLI child, or a worker that sets up and runs one batch),
so the phi8 cache and cached normal forms start cold, as for a CLI user.

One client runs batches back to back (a closed loop) until the window ends;
there is never more than one child running.  `--workload all` runs the four
workloads in turn, each with its own window.  The last line of standard output
is a JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` untraced and
traced batches alternate and the metrics are the per-layer ones, from spans
recorded around calls into the package (see spans.py).  See BENCHMARK.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import more_batches

clock = time.perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 120   # no single child comes near this; a hung one is killed
SETUPS = 2              # set-ups before and again after the window, at least ...
SETUP_S = 1.0           # ... and for at least this long at each end (median reported)


class BenchError(Exception):
    """The run cannot produce a result (no package, failed set-up)."""


def file_digests(*paths) -> str:
    """SHA-256 of each file, read in chunks.

    The parent must stay small: Linux carries a process's peak RSS across
    exec, so a child's ru_maxrss is never below the parent's peak at spawn.
    """
    out = []
    for p in paths:
        with open(p, "rb") as fh:
            out.append(hashlib.file_digest(fh, "sha256").hexdigest())
    return " ".join(out)


def repeat_setup(once) -> list:
    """Set-up times of `once()`, repeated SETUPS times and for SETUP_S.

    A run sets up both before and after its window: the host's speed drifts
    over tens of seconds, and samples from both ends of the run follow it.
    """
    times = []
    t_end = clock() + SETUP_S
    while len(times) < SETUPS or clock() < t_end:
        times.append(once())
    return times


# ---------------------------------------------------------------------------
# children


class Child:
    __slots__ = ("code", "rss_mb", "t0", "t1", "out")

    def __init__(self, code, rss_mb, t0, t1, out):
        self.code, self.rss_mb, self.t0, self.t1, self.out = code, rss_mb, t0, t1, out

    def text(self) -> str:
        return Path(self.out).read_text(encoding="utf-8", errors="replace")


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self._n = 0

    def path(self, name: str) -> str:
        return str(self.work / name)

    def spawn(self, argv) -> Child:
        """Run one child to completion; its ru_maxrss comes from wait4.

        That ru_maxrss is at least this process's peak (about 20 MB), which
        exec carries over; the `forge` commands measured this way peak near
        200 MB.  Library workers report their own peak instead.
        """
        self._n += 1
        out = self.path(f"child{self._n}.log")
        with open(out, "wb") as fh:
            t0 = clock()
            p = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                 stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
            t1 = clock()
            p.returncode = os.waitstatus_to_exitcode(status)
        return Child(p.returncode, ru.ru_maxrss / 1024, t0, t1, out)

    def forge(self, args, trace_op=None) -> tuple:
        """`forge ARGS` as a user runs it; traced through spans.py if asked."""
        if trace_op is None:
            return self.spawn([sys.executable, "-m", "braidforge.cli", *args]), None
        self._n += 1
        spans = self.path(f"spans{self._n}.json")
        argv = [sys.executable, str(BENCH / "spans.py"), spans, repr(clock()),
                str(trace_op), "--", *args]
        child = self.spawn(argv)
        data = None
        if os.path.exists(spans):
            with open(spans, encoding="utf-8") as fh:
                data = json.load(fh)
        return child, data

    def worker(self, mode, *args) -> tuple:
        self._n += 1
        out = self.path(f"worker{self._n}.json")
        child = self.spawn([sys.executable, str(BENCH / "worker.py"), mode,
                            "--out", out, *args])
        if child.code != 0 or not os.path.exists(out):
            raise BenchError(f"worker {mode} exited {child.code}:\n"
                             + child.text()[-2000:])
        with open(out, encoding="utf-8") as fh:
            return child, json.load(fh)


class Batch:
    """One closed-loop batch: its ops, wall time and traces."""

    def __init__(self, traced):
        self.traced = traced
        self.ops = []        # [kind, seconds, ok, error]
        self.steps = []      # (forge command, seconds) within a pass
        self.wall = 0.0
        self.rss_mb = 0.0
        self.traces = []     # exports of spans.Tracer
        self.output_bytes = 0
        self.digest = None


# ---------------------------------------------------------------------------
# workloads


class CliWorkload:
    """Passes of `forge` children, run by this process in a closed loop."""

    fixed_inputs = True

    def __init__(self, run: Runner, seed: int):
        self.run, self.seed = run, seed

    def measure(self, seconds, trace):
        """Set up repeatedly, then run passes back to back for `seconds`."""
        setups = repeat_setup(self.setup)
        batches = []
        deadline = clock() + seconds
        while more_batches(len(batches), trace, deadline):
            traced = trace and len(batches) % 2 == 1
            batches.append(self.batch(len(batches), traced))
        return setups + repeat_setup(self.setup), batches


class Pipeline(CliWorkload):
    """degen -> regen --in -> goldens, each a `forge` child; one op per pass."""

    name = "pipeline"

    def setup(self) -> float:
        child, data = self.run.worker("setup")
        return data["t_ready"] - child.t0

    def batch(self, k, traced) -> Batch:
        b = Batch(traced)
        a, bb = self.run.path("A.json"), self.run.path("B.json")
        for p in (a, bb):
            if os.path.exists(p):
                os.remove(p)
        steps = (["degen", "phi8", "--audit", "--identity", "--out", a],
                 ["regen", "run", "--in", a, "--audit", "--identity", "--out", bb],
                 ["goldens"])
        t0 = clock()
        errors = []
        for step in steps:
            child, data = self.run.forge(step, k if traced else None)
            b.steps.append((step[0], child.t1 - child.t0))
            b.rss_mb = max(b.rss_mb, child.rss_mb)
            if data is not None:
                b.traces.append(data)
            if child.code != 0:
                errors.append(f"forge {step[0]} exited {child.code}")
        for p in (a, bb):
            if not os.path.exists(p) or os.path.getsize(p) == 0:
                errors.append(f"{os.path.basename(p)} not written")
        t1 = clock()
        b.wall = t1 - t0
        b.ops.append(["pass", t1 - t0, not errors, "; ".join(errors)])
        if not errors:
            b.output_bytes = os.path.getsize(a) + os.path.getsize(bb)
            b.digest = file_digests(a, bb)
        return b

    def final_check(self) -> list:
        _, data = self.run.worker("check", "--workload", "pipeline",
                                  "--dir", str(self.run.work))
        return data["failures"]


class Verify(CliWorkload):
    """verify phi0, verify phi8, relations phi8 and one negative control."""

    name = "verify"
    neg = None

    def setup(self) -> float:
        child, self.neg = self.run.worker("inputs", "--seed", str(self.seed),
                                          "--dir", str(self.run.work))
        return child.t1 - child.t0

    def batch(self, k, traced) -> Batch:
        b = Batch(traced)
        p = self.run.path
        if os.path.exists(p("rels.json")):
            os.remove(p("rels.json"))
        t0 = clock()
        errors = []
        steps = ((["verify", p("phi0.json")], 0),
                 (["verify", p("phi8.json")], 0),
                 (["relations", p("phi8.json"), "--out", p("rels.json")], 0),
                 (["verify", p("neg.json")], 1))
        for args, want in steps:
            child, data = self.run.forge(args, k if traced else None)
            name = f"{args[0]} {os.path.basename(args[1])}"
            b.steps.append((name, child.t1 - child.t0))
            b.rss_mb = max(b.rss_mb, child.rss_mb)
            if data is not None:
                b.traces.append(data)
            if child.code != want:
                errors.append(f"forge {name} exited {child.code}, expected {want}")
            elif want == 1 and "deficit" not in child.text():
                errors.append(f"forge {name}: no deficit witness")
        t1 = clock()
        b.wall = t1 - t0
        b.ops.append(["pass", t1 - t0, not errors, "; ".join(errors)])
        # every pass must write the same relations; the last is checked after
        if not errors:
            b.output_bytes = os.path.getsize(p("rels.json"))
            b.digest = file_digests(p("rels.json"))
        return b

    def final_check(self) -> list:
        _, data = self.run.worker("check", "--workload", "verify",
                                  "--dir", str(self.run.work), "--neg-degree",
                                  str(self.neg["degree"]))
        return data["failures"]


class Library:
    """hurwitz / wordproblem: library calls made by a worker process.

    Set-up runs repeatedly in set-up-only workers before and after the
    worker that measures, and once in that worker, which runs the batches
    itself.
    """

    def __init__(self, name, run: Runner, seed: int):
        self.name, self.run, self.seed = name, run, seed
        # wordproblem draws new words for every batch
        self.fixed_inputs = name == "hurwitz"

    def measure(self, seconds, trace):
        args = ["--seed", str(self.seed)]

        def setup_only():
            child, data = self.run.worker(self.name, *args, "--setup-only")
            return data["t_ready"] - child.t0

        setups = repeat_setup(setup_only)
        child, data = self.run.worker(self.name, *args, "--seconds", repr(seconds),
                                      *(["--trace"] if trace else []))
        setups.append(data["t_ready"] - child.t0)
        setups += repeat_setup(setup_only)
        batches = []
        for d in data["batches"]:
            b = Batch(d["traced"])
            b.wall = d["wall"]
            b.rss_mb = data["peak_rss_mb"]
            b.ops = [[kind, t1 - t0, ok, err] for kind, t0, t1, ok, err in d["ops"]]
            if "trace" in d:
                b.traces.append(d["trace"])
            batches.append(b)
        return setups, batches

    def final_check(self) -> list:
        return []


def make_workload(name, run, seed):
    if name == "pipeline":
        return Pipeline(run, seed)
    if name == "verify":
        return Verify(run, seed)
    return Library(name, run, seed)


WORKLOADS = ("pipeline", "verify", "hurwitz", "wordproblem")


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples).  Below 21 samples that percentile
    would not lie above the median (with 11 it is the minimum), so the
    maximum is reported as percentile 100 instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 20:
        return xs[-1], 100.0, n
    k = n - 10
    return xs[k - 1], 100.0 * k / n, n


def end_to_end(setups, batches):
    lat = [op[1] for b in batches for op in b.ops]
    attempted = len(lat)
    failed = sum(1 for b in batches for op in b.ops if not op[2])
    t, pct, n = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(b.wall for b in batches), "s"),
        "verdict_s": (statistics.median(lat), "s"),
        "verdict_s.tail": (t, "s"),
        "peak_rss_mb": (max(b.rss_mb for b in batches), "MB"),
        "ok_rate": (1.0 - failed / attempted, "ratio"),
    }
    notes = {"verdict_s.tail": f"p{pct:.1f} of {n} ops",
             "error_rate": f"{failed / attempted} ({failed} of {attempted} ops)"}
    out_bytes = [b.output_bytes for b in batches if b.output_bytes]
    if out_bytes:
        notes["output_bytes"] = f"{statistics.median(out_bytes):.0f} B per pass"
    return metrics, notes


# per-layer metric -> (raw per-batch key, unit); the value is the median over
# traced batches.  Counts among them must repeat exactly on the same inputs.
LAYER_SUMS = {
    "braid.stored_letters": ("stored_letters", "letters"),
    "braid.max_word_letters": ("braid.Braid#max", "letters"),
    "braid.free_reduce.s": ("braid.free_reduce#s", "s"),
    "braid.normal_form.s": ("braid.normal_form#s", "s"),
    "braid.normal_form.factors": ("braid.normal_form#out", "count"),
    "factorization.loads.s": ("factorization.loads.s", "s"),
    "factorization.dumps.s": ("factorization.dumps.s", "s"),
    "factorization.dumps.bytes": ("factorization.dumps.bytes", "B"),
    "factorization.eq.s": ("factorization.eq.s", "s"),
    "factorization.product.s": ("factorization.product.s", "s"),
    "factorization.hurwitz_move.s": ("factorization.hurwitz_move#s", "s"),
    "factorization.hurwitz_move.count": ("factorization.hurwitz_move#calls", "count"),
    "factorization.conj_factorization.s": ("factorization.conj_factorization.s", "s"),
    "degeneration.phi8.s": ("degeneration.phi8.s", "s"),
    "degeneration.audit.s": ("degeneration.audit.s", "s"),
    "regeneration.regenerate.s": ("regeneration.regenerate.s", "s"),
    "regeneration.regen_audit.s": ("regeneration.regen_audit.s", "s"),
    "regeneration.conic_identity.s": ("regeneration.conic_identity.s", "s"),
    "lefschetz.golden_check.s": ("lefschetz.golden_check.s", "s"),
    "lefschetz.golden_check.rows": ("lefschetz.golden_check.count", "count"),
    "verify.check_full_twist.s.n27": ("verify.check_full_twist.s.n27", "s"),
    "verify.check_full_twist.s.n54": ("verify.check_full_twist.s.n54", "s"),
    "verify.emit_relations.s": ("verify.emit_relations.s", "s"),
    "verify.emit_relations.count": ("verify.emit_relations.count", "count"),
    "verify.hurwitz_equivalent.s": ("verify.hurwitz_equivalent.s", "s"),
    "verify.hurwitz_equivalent.states": ("verify.hurwitz_equivalent.states#calls", "count"),
}
# rates: (numerator key, denominator key, scale, unit), pooled over traced batches
LAYER_RATES = {
    "braid.free_reduce.ratio": ("braid.free_reduce@factorization#out",
                                "braid.free_reduce@factorization#letters", 1, "ratio"),
    "braid.Braid.letters_per_s": ("braid.Braid#letters", "braid.Braid#s", 1, "letters/s"),
    "braid.normal_form.letters_per_s.n27": ("braid.normal_form.n27#letters",
                                            "braid.normal_form.n27#s", 1, "letters/s"),
    "braid.normal_form.letters_per_s.n54": ("braid.normal_form.n54#letters",
                                            "braid.normal_form.n54#s", 1, "letters/s"),
    "factorization.loads.mb_per_s": ("factorization.loads.bytes",
                                     "factorization.loads.s", 1e6, "MB/s"),
    "regeneration.cable_word.letters_per_s": ("regeneration.cable_word#out",
                                              "regeneration.cable_word#s", 1, "letters/s"),
}
# Only `verify` calls emit_relations, and BENCHMARK.json does not list it: these
# are printed for people but left out of the result line, where they would
# read 0 on every listed workload.
UNLISTED = ("verify.emit_relations.s", "verify.emit_relations.count")
AUDIT_SPANS = ("degeneration.tilde_Cj", "degeneration.tilde_Delta2",
               "degeneration.degree_audit")


def _per_batch(traces):
    """Sums of one batch's span and counter data."""
    s = {}

    def add(key, v):
        s[key] = s.get(key, 0) + v

    for tr in traces:
        spans = tr["spans"]
        for name, t0, t1, parent, _op, _ok, extra in spans:
            if t1 is None:
                continue
            dur = t1 - t0
            extra = extra or {}
            add(name + ".s", dur)
            if name == "verify.check_full_twist":
                add(f"{name}.s.n{extra.get('n')}", dur)
            for field in ("bytes", "count"):
                if field in extra:
                    add(f"{name}.{field}", extra[field])
            # the CLI's own audit, not the same calls made inside regenerate
            if name in AUDIT_SPANS and (
                    parent is None or spans[parent][0].startswith("cli.")):
                add("degeneration.audit.s", dur)
        for name, c in tr["counters"].items():
            for field in ("calls", "s", "letters", "out"):
                add(f"{name}#{field}", c[field])
                if name.startswith("braid.free_reduce@"):
                    add(f"braid.free_reduce#{field}", c[field])
            s[f"{name}#max"] = max(s.get(f"{name}#max", 0), c["max"])
        add("stored_letters", tr["stored_letters"])
        if "startup_s" in tr:
            s.setdefault("startup", []).append(tr["startup_s"])
    return s


def per_layer(batches, fixed_inputs):
    traced = [b for b in batches if b.traced]
    plain = [b for b in batches if not b.traced]
    sums = [_per_batch(b.traces) for b in traced]
    m = {}
    for name, (key, unit) in LAYER_SUMS.items():
        m[name] = (statistics.median(x.get(key, 0) for x in sums), unit)
    for name, (num, den, scale, unit) in LAYER_RATES.items():
        d = sum(x.get(den, 0) for x in sums)
        m[name] = (sum(x.get(num, 0) for x in sums) / d / scale if d else 0.0, unit)
    startup = [v for x in sums for v in x.get("startup", [])]
    m["cli.startup_s"] = (statistics.median(startup) if startup else 0.0, "s")
    m["trace.overhead_s"] = (statistics.median(b.wall for b in traced)
                             - statistics.median(b.wall for b in plain), "s")
    drift = []
    if fixed_inputs:
        for name, (key, unit) in LAYER_SUMS.items():
            vals = sorted({x.get(key, 0) for x in sums})
            if unit != "s" and len(vals) > 1:
                drift.append(f"{name}: {vals}")
    missing = sorted({n for b in traced for tr in b.traces
                      for n in tr.get("missing", [])})
    return m, drift, missing


# ---------------------------------------------------------------------------
# main loop


def run_workload(name, seed, seconds, trace) -> dict:
    """Measure one workload, print its human-readable lines, return its result."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Runner(work)
        wl = make_workload(name, run, seed)
        setups, batches = wl.measure(seconds, trace)
        failures = wl.final_check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = {b.digest for b in batches if b.digest}
    if len(digests) > 1:
        failures.append(f"outputs differ between passes ({len(digests)} "
                        "distinct): the commands are not deterministic")
    # a failed reference check condemns every op whose outputs it covered
    if failures:
        for b in batches:
            for op in b.ops:
                op[2] = False
                op[3] = op[3] or "reference check failed"
    attempted = sum(len(b.ops) for b in batches)
    failed = sum(1 for b in batches for op in b.ops if not op[2])

    print(f"workload {name}  seed {seed}  window {seconds:g} s  "
          f"batches {len(batches)} ({sum(b.traced for b in batches)} traced)  "
          f"python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    kinds = {}
    for b in batches:
        for kind, dt, ok, err in b.ops:
            if not ok:
                print(f"  FAILED op {kind}: {err}")
            if not b.traced:
                kinds.setdefault(kind, []).append(dt)
        for step, dt in b.steps if not b.traced else ():
            kinds.setdefault(f"{step} (step)", []).append(dt)
    for f in failures:
        print(f"  FAILED reference check: {f}")
    for kind, dts in sorted(kinds.items()):
        print(f"  op {kind:22s} n={len(dts):4d}  median {statistics.median(dts):.4f} s"
              f"  max {max(dts):.4f} s")
    if trace:
        metrics, drift, missing = per_layer(batches, wl.fixed_inputs)
        for d in drift:
            print(f"  COUNT DRIFT {d}")
        if missing:
            print(f"  not traced (absent from the package): {', '.join(missing)}")
    else:
        metrics, notes = end_to_end(setups, batches)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:40s} {value:.6g} {unit}")
    if not trace:
        for metric, note in notes.items():
            print(f"  {metric:40s} {note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                        if k not in UNLISTED}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    if not (ROOT / "src" / "braidforge" / "cli.py").is_file():
        print(f"no braidforge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a SIGTERM unwinds like an error: the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = WORKLOADS if a.workload == "all" else (a.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, a.seed, a.seconds, bool(a.trace))
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if a.workload == "all":
        # one line per workload, then their sum under workload-prefixed names
        for name, r in results.items():
            print(f"{name} {json.dumps(r)}")
        rs = results.values()
        result = {"correct": all(r["correct"] for r in rs),
                  "attempted": sum(r["attempted"] for r in rs),
                  "failed": sum(r["failed"] for r in rs),
                  "metrics": {f"{name}.{k}": v for name, r in results.items()
                              for k, v in r["metrics"].items()}}
    else:
        result = results[a.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
