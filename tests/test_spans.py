"""The benchmark's traced names must exist in the package.

bench/spans.py wraps functions by (module, attribute path); a name that no
longer resolves is skipped silently there and its per-layer metric reads 0.
"""

import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

COUNTED = (("regeneration", "cable_word"), ("factorization", "hurwitz_move"),
           ("verify", "_neighbors"), ("braid", "Braid.__init__"),
           ("braid", "normal_form_of_word"), ("braid", "free_reduce"))


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    spans = _spans()
    mods = spans._modules()
    assert set(mods) == set(spans.MODULES)
    names = [(m, p) for m, p, _ in spans.SPANS] + list(COUNTED)
    missing = [f"{m}.{p}" for m, p in names
               if spans._resolve(mods, m, p) is None]
    assert not missing

