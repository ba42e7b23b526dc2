"""Command-line front door: build, regenerate, verify, audit, export.

Subcommands: degen, regen, table, verify, relations, goldens.
JSON is the only interchange format, and all runs are deterministic; a
--report writes the VerificationReport with a RunManifest of the files read
and written.

Each command imports the engines it runs, because every `forge` call is a
fresh interpreter that would otherwise load and compile all of them first.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .factorization import Factorization
from .verify import (VerificationReport, check_full_twist, check_refinement,
                     emit_relations, regen_audit)


class RunManifest:
    """The command, engine version, wall time, and the SHA-256 of each file
    read or written, hashed only when a --report asks for them."""

    def __init__(self, command: str):
        self.data = {"command": command, "engine_version": __version__,
                     "inputs": {}, "outputs": {}, "wall_time_s": None}
        self._texts = {"inputs": {}, "outputs": {}}
        self._t0 = time.perf_counter()

    def add_input(self, path: str, text: str):
        self._texts["inputs"][path] = text

    def add_output(self, path: str, text: str):
        self._texts["outputs"][path] = text

    def finish(self) -> dict:
        from hashlib import sha256
        self.data["wall_time_s"] = round(time.perf_counter() - self._t0, 3)
        for key, texts in self._texts.items():
            self.data[key] = {p: sha256(t.encode()).hexdigest()
                              for p, t in texts.items()}
        return self.data


class UsageError(Exception):
    """Bad input: reported in one line with exit code 2."""


def _load(path: str, manifest: RunManifest) -> Factorization:
    """Read a factorization certificate; malformed input is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        fz = Factorization.loads(text)
    except KeyError as e:
        raise UsageError(f"{path}: missing field {e}") from None
    except RecursionError:
        raise UsageError(f"{path}: nested deeper than the recursion "
                         "limit") from None
    except (OSError, ValueError, TypeError, AttributeError) as e:
        raise UsageError(f"{path}: {e}") from None
    manifest.add_input(path, text)
    return fz


def _write(path: str, text: str, manifest: RunManifest):
    """Write an artifact; an unwritable path is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"{path}: {e.strerror}") from None
    manifest.add_output(path, text)


def _emit_report(rep: VerificationReport, args, manifest: RunManifest,
                 fz: Factorization | None = None) -> int:
    """Print the checks and write --report; a certificate fz is written to
    --out."""
    if fz is not None and args.out:
        _write(args.out, fz.dumps(), manifest)
    for line in rep.lines():
        print(line)
    if args.report:
        payload = rep.to_json()
        payload["manifest"] = manifest.finish()
        _write(args.report, json.dumps(payload, indent=2, sort_keys=True), manifest)
    return 0 if rep.passed else 1


def cmd_degen(args) -> int:
    from .degeneration import build_tt, phi8
    manifest = RunManifest("degen")
    fz = phi8(build_tt())
    rep = VerificationReport()
    if args.audit:
        a = regen_audit(fz)
        rep.totals = t = {"parasitic": a["parasitic"], "total": a["total"],
                          "vertex": sum(a["per_vertex"].values())}
        for key, want in (("parasitic", 432), ("vertex", 270), ("total", 702)):
            rep.expect(f"{key} degree", want, t[key])
        print(f"totals: parasitic {t['parasitic']}, vertex {t['vertex']}, "
              f"total {t['total']}")
    if args.identity:
        rep.extend(check_full_twist(fz))
    return _emit_report(rep, args, manifest, fz)


def _gate(fz: Factorization) -> str | None:
    """None when fz's product is Delta^2, else the witnesses of the failed
    checks in one line: the input gate of `regen run` and `verify
    --refines`, which `check_refinement` relies on."""
    rep = check_full_twist(fz)
    if rep.passed:
        return None
    return "; ".join(c["witness"] for c in rep.checks if c["status"] == "fail")


def cmd_regen(args) -> int:
    from .data import golden_json
    from .degeneration import build_tt, phi8
    from .regeneration import hv_diff, hv_paper_factors, regenerate
    manifest = RunManifest("regen")
    g = build_tt()
    src = _load(args.infile, manifest) if args.infile else phi8(g)
    try:
        if (bad := _gate(src)) is not None:
            raise ValueError(f"input factorization differs from Delta^2: {bad}")
        fz = regenerate(g, src)
    except ValueError as e:
        print(f"forge regen: {e}", file=sys.stderr)
        return 1
    rep = VerificationReport()
    if args.audit:
        a = regen_audit(fz)
        rep.totals = a
        rep.expect("total degree", 2862, a["total"])
        rep.expect("parasitic degree", 1728, a["parasitic"])
        rep.expect("per-vertex degree", 126, a["per_vertex"])
        print(f"totals: {a['total']} (parasitic {a['parasitic']}, "
              f"per-vertex {sorted(a['per_vertex'].values())})")
        # worked-vertex diffs (informational)
        for name in ("hv1", "hv4", "hv7"):
            obj = golden_json(f"regen/{name}.json")
            diff = hv_diff(fz, obj["vertex"], hv_paper_factors(obj))
            status = "identical" if not diff else "; ".join(diff[:3])
            print(f"local monodromy V{obj['vertex']} diff: {status}")
    if args.identity:
        rep.extend(check_refinement(src, fz))
    return _emit_report(rep, args, manifest, fz)


def cmd_table(args) -> int:
    from .data import golden_json, golden_names
    from .lefschetz import golden_check
    manifest = RunManifest("table")
    names = golden_names("tables")
    if args.name not in names:
        raise UsageError(f"unknown table {args.name!r}; the tables are "
                         + ", ".join(names))
    obj = golden_json(f"tables/{args.name}.json")
    rep = VerificationReport()
    rows = golden_check(obj)
    bad = [d for d, ok in rows if not ok]
    for desc, ok in rows:
        print(f"{'ok  ' if ok else 'DIFF'} {desc}")
    rep.add(f"{len(rows)} rows match the transcription braid-by-braid",
            not bad, "" if not bad else f"mismatched: {bad}")
    return _emit_report(rep, args, manifest)


def cmd_verify(args) -> int:
    manifest = RunManifest("verify")
    fz = _load(args.path, manifest)
    if args.refines is None:
        return _emit_report(check_full_twist(fz), args, manifest)
    parent = _load(args.refines, manifest)
    if (bad := _gate(parent)) is None:
        rep = check_refinement(parent, fz)
    else:
        rep = VerificationReport()
        rep.add("parent product == Delta^2", False, f"{args.refines}: {bad}")
    return _emit_report(rep, args, manifest)


def cmd_relations(args) -> int:
    manifest = RunManifest("relations")
    fz = _load(args.path, manifest)
    try:
        rels = emit_relations(fz)
    except ValueError as e:
        print(f"forge relations: {e}", file=sys.stderr)
        return 1
    out = json.dumps(rels, indent=2)
    if args.out:
        _write(args.out, out, manifest)
    else:
        print(out)
    return 0


def cmd_goldens(args) -> int:
    from .data import golden_json, golden_names
    from .degeneration import build_tt, markers
    from .lefschetz import golden_check
    from .regeneration import conic_identity, conic_tables
    manifest = RunManifest("goldens")
    rep = VerificationReport()
    g = build_tt()
    # parasitic factor lists, string-level
    dt = golden_json("dt_list.json")
    bad = [t for t in range(1, g.n_lines + 1)
           if list(g.parasitic(t)) != dt[str(t)]["i"]
           or (dt[str(t)]["i"]
               and list(markers(g, t)) != dt[str(t)]["markers"])]
    rep.add("parasitic index sets and markers match transcription (27 lists)",
            not bad, "" if not bad else f"mismatched lines: {bad}")
    # local monodromy tables, braid-by-braid
    for name in golden_names("tables"):
        rows = golden_check(golden_json(f"tables/{name}.json"))
        bad = [d for d, ok in rows if not ok]
        rep.add(f"table {name}: {len(rows)} rows match", not bad,
                "" if not bad else f"mismatched: {bad}")
    # doubled local models
    for name, obj in conic_tables().items():
        ok = conic_identity(obj)
        rep.add(f"doubled local identity {name}", ok,
                "" if ok else "full-twist identity fails")
    return _emit_report(rep, args, manifest)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="forge",
                                description="exact braid-monodromy engine")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("degen", help="build the degenerated factorization")
    d.add_argument("target", choices=["phi8"])
    d.set_defaults(fn=cmd_degen)

    r = sub.add_parser("regen", help="double the factorization (27 -> 54)")
    rs = r.add_subparsers(dest="subcommand", required=True)
    rr = rs.add_parser("run")
    rr.add_argument("--in", dest="infile")
    rr.set_defaults(fn=cmd_regen)
    for q in (d, rr):
        q.add_argument("--audit", action="store_true")
        q.add_argument("--identity", action="store_true",
                       help="also certify the full-twist product (regen: "
                       "block by block against its gated input)")
        q.add_argument("--out")
        q.add_argument("--report")

    t = sub.add_parser("table", help="print one local monodromy table")
    t.add_argument("name")
    t.add_argument("--report")
    t.set_defaults(fn=cmd_table)

    v = sub.add_parser("verify", help="certify a factorization file")
    v.add_argument("path")
    v.add_argument("--refines", metavar="PARENT",
                   help="certify the file block by block as a regeneration "
                   "of the certificate PARENT (on half the strands), whose "
                   "product is checked first")
    v.add_argument("--report")
    v.set_defaults(fn=cmd_verify)

    rel = sub.add_parser("relations", help="emit van Kampen relation templates")
    rel.add_argument("path")
    rel.add_argument("--out")
    rel.set_defaults(fn=cmd_relations)

    go = sub.add_parser("goldens", help="replay the transcribed parasitic "
                        "lists, Lefschetz tables and doubled local identities"
                        " (regen run --audit diffs the worked vertices)")
    go.add_argument("--report")
    go.set_defaults(fn=cmd_goldens)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"forge {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
