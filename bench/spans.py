"""Spans and counters recorded around calls into braidforge's public functions.

Nothing in the package is edited: `instrument` replaces selected functions and
methods by timing wrappers, both on the module or class that defines them and
in every braidforge module that imported them by name.  Coarse calls become
spans (name, start, end, parent span, op id, ok); calls made millions of times
(`Braid.__init__`, `free_reduce`, ...) only bump counters, so that tracing
stays cheap enough to run a whole batch.

A function that a later version of the package removes or renames is skipped:
its metrics then read 0 and `missing` names it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

clock = time.perf_counter

MODULES = ("braid", "arcs", "factorization", "degeneration", "lefschetz",
           "regeneration", "verify", "cli", "data")

# (module, attribute path, span name) of the coarse calls
SPANS = (
    ("factorization", "Factorization.loads", "factorization.loads"),
    ("factorization", "Factorization.dumps", "factorization.dumps"),
    ("factorization", "Factorization.__eq__", "factorization.eq"),
    ("factorization", "Factorization.product", "factorization.product"),
    ("factorization", "conj_factorization", "factorization.conj_factorization"),
    ("degeneration", "phi8", "degeneration.phi8"),
    ("degeneration", "tilde_Cj", "degeneration.tilde_Cj"),
    ("degeneration", "tilde_Delta2", "degeneration.tilde_Delta2"),
    ("degeneration", "degree_audit", "degeneration.degree_audit"),
    ("regeneration", "regenerate", "regeneration.regenerate"),
    ("regeneration", "regen_audit", "regeneration.regen_audit"),
    ("regeneration", "conic_identity", "regeneration.conic_identity"),
    ("lefschetz", "golden_check", "lefschetz.golden_check"),
    ("verify", "check_full_twist", "verify.check_full_twist"),
    ("verify", "emit_relations", "verify.emit_relations"),
    ("verify", "hurwitz_equivalent", "verify.hurwitz_equivalent"),
)

# results worth sizing: their stored letters feed braid.stored_letters
FACTORIZATION_RESULTS = {"factorization.loads", "factorization.conj_factorization",
                         "degeneration.phi8", "regeneration.regenerate"}


def stored_letters(fz) -> int:
    """Twist plus transport letters over all factors."""
    total = 0
    for f in fz:
        total += len(f.twist.word)
        transport = getattr(f, "transport", None)
        if transport is not None:
            total += len(transport.word)
    return total


class Counter:
    __slots__ = ("calls", "s", "letters", "out", "max")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.letters = 0
        self.out = 0
        self.max = 0

    def to_json(self):
        return {"calls": self.calls, "s": self.s, "letters": self.letters,
                "out": self.out, "max": self.max}


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, op, ok, extra]
        self.stack = []
        self.counters = {}
        self.op = None
        self.missing = []
        self._cached = []    # results of phi8, which returns a cached object
        self.stored_letters = 0
        self.patches = []    # (owner, attribute, original) to restore

    def counter(self, name) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def open(self, name, extra=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, clock(), None, parent, self.op, None, extra])
        self.stack.append(idx)
        return idx

    def close(self, idx, ok) -> None:
        span = self.spans[idx]
        span[2] = clock()
        span[5] = ok
        self.stack.pop()

    def size(self, fz, cached=False) -> None:
        if cached:
            if any(fz is x for x in self._cached):
                return
            self._cached.append(fz)
        self.stored_letters += stored_letters(fz)

    def export(self) -> dict:
        return {"spans": self.spans,
                "counters": {k: c.to_json() for k, c in self.counters.items()},
                "stored_letters": self.stored_letters,
                "missing": self.missing}


def _span_wrapper(tracer, name, fn):
    sized = name in FACTORIZATION_RESULTS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        extra = {}
        if name == "verify.check_full_twist" and args:
            extra["n"] = getattr(args[0], "strands", 0)
        elif name == "factorization.loads" and args:
            extra["bytes"] = len(args[-1])
        idx = tracer.open(name, extra)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, False)
            raise
        tracer.close(idx, True)
        if name == "factorization.dumps":
            extra["bytes"] = len(result)
        elif name in ("lefschetz.golden_check", "verify.emit_relations"):
            extra["count"] = len(result)
        if sized:
            tracer.size(result, cached=name == "degeneration.phi8")
        return result
    return wrapper


def _braid_init(tracer, fn):
    c = tracer.counter("braid.Braid")

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        t0 = clock()
        fn(self, *args, **kwargs)
        c.s += clock() - t0
        c.calls += 1
        n = len(self.word)
        c.letters += n
        if n > c.max:
            c.max = n
    return wrapper


def _normal_form(tracer, fn):
    @functools.wraps(fn)
    def wrapper(n, word):
        t0 = clock()
        result = fn(n, word)
        dt = clock() - t0
        for key in ("braid.normal_form", f"braid.normal_form.n{n}"):
            c = tracer.counter(key)
            c.s += dt
            c.calls += 1
            c.letters += len(word)
            c.out += len(result[1])
        return result
    return wrapper


def _free_reduce(tracer, fn, caller):
    c = tracer.counter(f"braid.free_reduce@{caller}")

    @functools.wraps(fn)
    def wrapper(word):
        t0 = clock()
        result = fn(word)
        c.s += clock() - t0
        c.calls += 1
        c.letters += len(word)
        c.out += len(result)
        return result
    return wrapper


def _counted(tracer, name, fn, letters_out=False):
    c = tracer.counter(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        c.s += clock() - t0
        c.calls += 1
        if letters_out:
            c.out += len(result)
        return result
    return wrapper


def _yield_counter(tracer, name, fn):
    c = tracer.counter(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            c.calls += 1
            yield item
    return wrapper


def _modules():
    out = {}
    for m in MODULES:
        try:
            out[m] = importlib.import_module(f"braidforge.{m}")
        except ImportError:
            pass
    return out


def _resolve(mods, module, path):
    """(owner, attribute, original) or None when the name is gone."""
    owner = mods.get(module)
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p, None)
    if owner is None:
        return None
    fn = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    if fn is None:
        return None
    return owner, parts[-1], fn


def _set(tracer, owner, attr, value):
    tracer.patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _replace(tracer, mods, owner, attr, fn, wrapped):
    """Install `wrapped` on its owner and wherever a module imported `fn`."""
    _set(tracer, owner, attr, wrapped)
    for m in mods.values():
        for k, v in list(vars(m).items()):
            if v is fn and not (m is owner and k == attr):
                _set(tracer, m, k, wrapped)


def restore(tracer: Tracer) -> None:
    """Undo `instrument`: put every original back, last patch first."""
    while tracer.patches:
        owner, attr, original = tracer.patches.pop()
        setattr(owner, attr, original)


def instrument(tracer: Tracer) -> None:
    mods = _modules()

    for module, path, name in SPANS:
        found = _resolve(mods, module, path)
        if found is None:
            tracer.missing.append(f"{module}.{path}")
            continue
        owner, attr, fn = found
        if isinstance(fn, classmethod):
            wrapped = classmethod(_span_wrapper(tracer, name, fn.__func__))
        else:
            wrapped = _span_wrapper(tracer, name, fn)
        _replace(tracer, mods, owner, attr, fn, wrapped)

    found = _resolve(mods, "braid", "Braid.__init__")
    if found:
        owner, attr, fn = found
        _set(tracer, owner, attr, _braid_init(tracer, fn))
    else:
        tracer.missing.append("braid.Braid.__init__")

    found = _resolve(mods, "braid", "normal_form_of_word")
    if found:
        owner, attr, fn = found
        _replace(tracer, mods, owner, attr, fn, _normal_form(tracer, fn))
    else:
        tracer.missing.append("braid.normal_form_of_word")

    # free_reduce gets one counter per calling module, so that the reduction
    # of product words (factorization) is told apart from the normalizer's
    found = _resolve(mods, "braid", "free_reduce")
    if found:
        fn = found[2]
        for mname, m in mods.items():
            for k, v in list(vars(m).items()):
                if v is fn:
                    _set(tracer, m, k, _free_reduce(tracer, fn, mname))
    else:
        tracer.missing.append("braid.free_reduce")

    for module, path, wrap in (
            ("regeneration", "cable_word", lambda fn: _counted(
                tracer, "regeneration.cable_word", fn, letters_out=True)),
            ("factorization", "hurwitz_move", lambda fn: _counted(
                tracer, "factorization.hurwitz_move", fn)),
            ("verify", "_neighbors", lambda fn: _yield_counter(
                tracer, "verify.hurwitz_equivalent.states", fn))):
        found = _resolve(mods, module, path)
        if found is None:
            tracer.missing.append(f"{module}.{path}")
            continue
        owner, attr, fn = found
        _replace(tracer, mods, owner, attr, fn, wrap(fn))


def main_cli(argv) -> int:
    """Run `forge ARGS` traced: `spans.py SPANS_FILE SPAWN_T OP -- ARGS...`."""
    spans_path, spawn_t, op = argv[0], float(argv[1]), int(argv[2])
    args = argv[argv.index("--") + 1:]
    cli = importlib.import_module("braidforge.cli")
    t_imported = clock()
    tracer = Tracer()
    instrument(tracer)
    tracer.op = op
    root = tracer.open(f"cli.{args[0]}")
    code = 1
    try:
        code = cli.main(args)
    finally:
        tracer.close(root, code in (0, 1))
        data = tracer.export()
        data["startup_s"] = t_imported - spawn_t
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main_cli(sys.argv[1:]))
