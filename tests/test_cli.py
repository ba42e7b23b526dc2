"""CLI behavior: exit codes, artifacts, reports, determinism."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import braidforge
from braidforge.braid import Braid, artin_gen, delta_squared
from braidforge.cli import main
from braidforge.data import golden_names
from braidforge.degeneration import build_tt, phi8
from braidforge.factorization import Factor
from braidforge.factorization import Factorization, frame_factorization
from braidforge.factorization import conj_factorization, hurwitz_move


def test_usage_error_exits_2():
    assert main(["definitely-not-a-command"]) == 2
    assert main([]) == 2


def test_help_and_usage_errors_name_all_six_commands(capsys):
    """-h lists all six commands with their help, and a usage error's usage
    line names all six."""
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    for name, help_ in (("degen", "build the degenerated"),
                        ("regen", "double the factorization"),
                        ("table", "print one local"), ("verify", "certify a"),
                        ("relations", "emit van Kampen"),
                        ("goldens", "replay the transcribed")):
        assert re.search(rf"^    {name} +{help_}", out, re.M), name
    usage = "usage: forge [-h] {degen,regen,table,verify,relations,goldens} ..."
    assert main(["degen", "phi8", "--bogus"]) == 2
    assert capsys.readouterr().err == (
        f"{usage}\nforge: error: unrecognized arguments: --bogus\n")


def test_degen_audit(capsys):
    assert main(["degen", "phi8", "--audit"]) == 0
    out = capsys.readouterr().out
    assert "totals: parasitic 432, vertex 270, total 702" in out
    assert "[pass" in out


def test_degen_out_and_report(tmp_path):
    out = tmp_path / "phi8.json"
    report = tmp_path / "report.json"
    assert main(["degen", "phi8", "--audit", "--out", str(out),
                 "--report", str(report)]) == 0
    fz = Factorization.loads(out.read_text())
    assert fz.strands == 27 and fz.degree == 702
    rep = json.loads(report.read_text())
    assert rep["passed"]
    assert rep["manifest"]["outputs"]
    assert rep["manifest"]["command"] == "degen"


def test_reports_keep_the_identity_checks_totals_and_runtimes(tmp_path):
    """--identity adds its check's degree total and runtime to the report,
    next to the --audit totals."""
    a = tmp_path / "A.json"
    degen, regen = tmp_path / "degen.json", tmp_path / "regen.json"
    assert main(["degen", "phi8", "--audit", "--identity", "--out", str(a),
                 "--report", str(degen)]) == 0
    rep = json.loads(degen.read_text())
    assert rep["totals"] == {"parasitic": 432, "vertex": 270, "total": 702,
                             "degree": 702}
    assert set(rep["runtime"]) == {"check_full_twist"}
    assert main(["regen", "run", "--in", str(a), "--identity",
                 "--report", str(regen)]) == 0
    rep = json.loads(regen.read_text())
    assert rep["totals"] == {"degree": 2862}
    assert set(rep["runtime"]) == {"check_refinement"}


def test_degen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["degen", "phi8", "--out", str(a)]) == 0
    assert main(["degen", "phi8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_passes_trivially_on_frame_square(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(frame_factorization(2).dumps())
    assert main(["verify", str(path)]) == 0


def test_verify_fails_with_witness(tmp_path, capsys):
    fz = frame_factorization(3)
    broken = Factorization(3, fz.factors[:-1])
    path = tmp_path / "broken.json"
    path.write_text(broken.dumps())
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "deficit" in out


def test_table_command(capsys):
    assert main(["table", "v1_conic_a"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 6


@pytest.mark.parametrize("name", ["nosuch", "../x", "../regen/hv1"])
def test_table_names_only_the_shipped_tables(capsys, name):
    assert main(["table", name]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and repr(name) in err[0]
    assert "v1_conic_a, v1_conic_b, v1_hyperbola" in err[0]


def test_relations_command(tmp_path):
    src = tmp_path / "frame.json"
    src.write_text(frame_factorization(3).dumps())
    dst = tmp_path / "rels.json"
    assert main(["relations", str(src), "--out", str(dst)]) == 0
    rels = json.loads(dst.read_text())
    assert len(rels) == 6


def test_regen_rejects_mismatched_input(tmp_path, capsys):
    path = tmp_path / "wrong.json"
    path.write_text(frame_factorization(27).dumps())
    assert main(["regen", "run", "--in", str(path)]) == 1


def test_regen_names_a_strand_count_other_than_the_lines(tmp_path, capsys):
    path = tmp_path / "frame3.json"
    path.write_text(frame_factorization(3).dumps())
    assert main(["regen", "run", "--in", str(path)]) == 1
    assert capsys.readouterr().err == (
        "forge regen: a factorization on 3 strands, but the arrangement has "
        "27 lines\n")


def _phi8_with(tmp_path, i, factor):
    """The engine's phi8 certificate with factor i replaced."""
    factors = list(phi8(build_tt()).factors)
    original, factors[i] = factors[i], factor
    assert len(factors) == 225 and factor.degree == original.degree
    path = tmp_path / "phi8.json"
    path.write_text(Factorization(27, factors).dumps())
    return original, path


def test_regen_accepts_another_word_for_the_same_braid(tmp_path):
    f = phi8(build_tt()).factors[28]
    # append the relator s1 s2 s1 (s2 s1 s2)^-1 to the core word
    core = Braid(27, f.core.word + (1, 2, 1, -2, -1, -2))
    _, path = _phi8_with(tmp_path, 28, Factor(core, f.exponent, f.tag,
                                              f.transport, f.label))
    loaded = Factorization.loads(path.read_text()).factors[28]
    assert loaded.twist.word != f.twist.word and loaded == f
    assert main(["regen", "run", "--in", str(path)]) == 0


def test_regen_rejects_a_factor_conjugated_by_s1(tmp_path, capsys):
    # factor 28's twist does not commute with s1: same length and degrees,
    # one different braid, which only a normal form can tell
    f = phi8(build_tt()).factors[28]
    moved = f.conjugate(artin_gen(27, 1))
    original, path = _phi8_with(tmp_path, 28, moved)
    assert moved != original
    assert main(["regen", "run", "--in", str(path)]) == 1
    assert "differs" in capsys.readouterr().err


def test_regen_regenerates_a_moved_certificate(tmp_path):
    fz = phi8(build_tt())
    for i in (5, 60, 150, 224):
        fz = hurwitz_move(fz, i)
    path = tmp_path / "moved.json"
    path.write_text(fz.dumps())
    assert main(["regen", "run", "--in", str(path), "--identity"]) == 0


def test_regen_of_phi8_file_matches_the_default(tmp_path):
    src, x, y = (tmp_path / n for n in ("phi8.json", "x.json", "y.json"))
    assert main(["degen", "phi8", "--out", str(src)]) == 0
    assert main(["regen", "run", "--in", str(src), "--out", str(x)]) == 0
    assert main(["regen", "run", "--out", str(y)]) == 0
    assert x.read_bytes() == y.read_bytes()


def test_regen_names_a_relabelled_composite(tmp_path, capsys):
    fz = phi8(build_tt())
    i = next(k for k, f in enumerate(fz) if f.label.startswith("V3:"))
    f = fz.factors[i]
    label = "V4:" + f.label[3:]
    _, path = _phi8_with(tmp_path, i, Factor(f.core, f.exponent, f.tag,
                                             f.transport, label))
    assert main(["regen", "run", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"factor {i + 1} {label!r}" in err


def test_regen_names_a_vertex_the_arrangement_lacks(tmp_path, capsys):
    fz = phi8(build_tt())
    i = next(k for k, f in enumerate(fz) if f.label.startswith("V9:"))
    f = fz.factors[i]
    label = "V10:" + f.label[3:]
    _, path = _phi8_with(tmp_path, i, Factor(f.core, f.exponent, f.tag,
                                             f.transport, label))
    assert main(["verify", str(path)]) == 0
    assert main(["regen", "run", "--in", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"forge regen: factor {i + 1} {label!r}: the arrangement has no "
        "vertex 10; its vertices are [1, 2, 3, 4, 5, 6, 7, 8, 9]\n")


def test_regen_audit(tmp_path, capsys):
    out = tmp_path / "phi0.json"
    assert main(["regen", "run", "--audit", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "2862" in text
    fz = Factorization.loads(out.read_text())
    assert fz.strands == 54 and fz.degree == 2862


def test_regen_audit_reads_complex_conjugated_labels(tmp_path, capsys):
    """The complex conjugate labels its factors ~D<t>: and ~V<j>:; the
    audit reads them as the regeneration does."""
    path = tmp_path / "conj.json"
    path.write_text(conj_factorization(phi8(build_tt())).dumps())
    assert main(["regen", "run", "--in", str(path), "--audit",
                 "--identity"]) == 0
    assert ("totals: 2862 (parasitic 1728, per-vertex [126, 126, 126, 126, "
            "126, 126, 126, 126, 126])\n") in capsys.readouterr().out


_ENGINE_DEGREES = [2] * 3 + [4] * 30
_PRINTED_DEGREES = [1] * 6 + [2] * 24 + [3] * 24


def _hv_line(j, engine, printed):
    return (f"local monodromy V{j} diff: factor count: engine 33, printed 54; "
            f"degree multiset: engine {_ENGINE_DEGREES}, printed "
            f"{_PRINTED_DEGREES}; factor 1: engine V{j}:Delta2<{engine}>|H1 "
            f"(deg 4, branch) vs printed {printed}")


# the whole stdout of `forge goldens`
_GOLDENS_OUT = [
    "[pass   ] parasitic index sets and markers match transcription (27 lists)",
    "[pass   ] table v1_conic_a: 6 rows match",
    "[pass   ] table v1_conic_b: 6 rows match",
    "[pass   ] table v1_hyperbola: 20 rows match",
    "[pass   ] table v4_conic_a: 6 rows match",
    "[pass   ] table v4_conic_b: 6 rows match",
    "[pass   ] table v7_conic_a: 6 rows match",
    "[pass   ] table v7_conic_b: 6 rows match",
    "[pass   ] table v7_hyperbola: 20 rows match",
    "[pass   ] doubled local identity fhat_a",
    "[pass   ] doubled local identity fhat_b",
    "[pass   ] doubled local identity fhat_c",
]


def test_goldens_replay(capsys):
    assert main(["goldens"]) == 0
    assert capsys.readouterr().out.splitlines() == _GOLDENS_OUT


def test_regen_audit_diffs_the_worked_vertices(tmp_path, capsys):
    """The whole stdout of `regen run --in A.json --audit`: the diff lines
    hold the degrees of the printed local monodromies, which the
    printed-notation evaluator computes, and stay informational (exit 0)."""
    path = tmp_path / "A.json"
    path.write_text(phi8(build_tt()).dumps())
    assert main(["regen", "run", "--in", str(path), "--audit"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "totals: 2862 (parasitic 1728, per-vertex [126, 126, 126, 126, 126, "
        "126, 126, 126, 126])",
        _hv_line(1, "1,2,4,6,13,22", "Z1[1',2] (deg 1, branch)"),
        _hv_line(4, "4,5,8,11,15,19", "Z2[1,5] (deg 2, node)"),
        _hv_line(7, "13,14,15,16,21,26", "Z1[5',6] (deg 1, branch)"),
        "[pass   ] total degree == 2862",
        "[pass   ] parasitic degree == 1728",
        "[pass   ] per-vertex degree == 126"]


def _certificates(tmp_path):
    """A.json and B.json, as `degen phi8 --out` and `regen run --in` write
    them."""
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    assert main(["degen", "phi8", "--out", str(a)]) == 0
    assert main(["regen", "run", "--in", str(a), "--out", str(b)]) == 0
    return a, b


def test_regen_identity_certifies_by_refinement(tmp_path, capsys,
                                                monkeypatch):
    """`regen run --identity` checks the 54-strand output block by block
    against its gated input, with or without --in: the only full-twist
    check multiplies out the 27-strand input."""
    import braidforge.cli as cli
    a, _ = _certificates(tmp_path)
    capsys.readouterr()
    sizes = []
    real = cli.check_full_twist

    def counted(fz):
        sizes.append(fz.strands)
        return real(fz)
    monkeypatch.setattr(cli, "check_full_twist", counted)
    for argv in (["--in", str(a)], []):
        assert main(["regen", "run", "--identity"] + argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[pass   ] degree == n(n-1)", "[pass   ] product == Delta^2"]
    assert sizes == [27, 27]


def test_verify_refines(tmp_path, capsys):
    a, b = _certificates(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(b), "--refines", str(a)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[pass   ] degree == n(n-1)", "[pass   ] product == Delta^2"]


def test_verify_refines_names_two_swapped_blocks(tmp_path, capsys):
    """B.json's first two factors, the blocks of A.json's first two
    parasitic factors, swapped."""
    a, b = _certificates(tmp_path)
    child = Factorization.loads(b.read_text())
    fs = list(child.factors)
    fs[0], fs[1] = fs[1], fs[0]
    b.write_text(Factorization(54, fs).dumps())
    parent = Factorization.loads(a.read_text())
    capsys.readouterr()
    assert main(["verify", str(b), "--refines", str(a)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "[pass   ] degree == n(n-1)"
    assert out[1].startswith(
        f"[fail   ] product == Delta^2  -- parent factor 1 "
        f"{parent.factors[0].label!r}, block from child factor 1 "
        f"{fs[0].label!r}: ")
    assert main(["verify", str(b)]) == 1


def test_verify_refines_a_parent_that_is_not_delta2(tmp_path, capsys):
    a, b = _certificates(tmp_path)
    parent = Factorization.loads(a.read_text())
    a.write_text(Factorization(27, parent.factors[1:]).dumps())
    capsys.readouterr()
    assert main(["verify", str(b), "--refines", str(a)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"[fail   ] parent product == Delta^2  -- {a}: degree 700, "
        "expected 702 (deficit 2)"]


def test_verify_refines_needs_twice_the_strands(tmp_path, capsys):
    a, _ = _certificates(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(a), "--refines", str(a)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[fail   ] strands == 2n  -- child on 27 strands, parent on 27: "
        "a refinement has 54"]


def test_verify_refines_an_unreadable_file_is_a_usage_error(tmp_path,
                                                             capsys):
    a, b = _certificates(tmp_path)
    bad = tmp_path / "truncated.json"
    bad.write_text(a.read_text()[:40])
    for argv in ([b, "--refines", tmp_path / "absent.json"],
                 [b, "--refines", bad], [bad, "--refines", a]):
        capsys.readouterr()
        assert main(["verify"] + [str(x) for x in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("forge verify: ") and err.count("\n") == 1


def _golden_runs(capsys):
    """The table names, and the exit code and output of `goldens` and
    `table v1_hyperbola`."""
    out = [golden_names("tables")]
    for argv in (["goldens"], ["table", "v1_hyperbola"]):
        code = main(argv)
        out.append((argv, code, capsys.readouterr()))
    return out


def test_goldens_ignore_the_environment(tmp_path, monkeypatch, capsys):
    """The goldens are the packaged ones: a FORGE_GOLDENS_DIR naming an
    empty directory, or a copy whose v1_hyperbola keeps two rows, changes
    no output and no exit code."""
    want = _golden_runs(capsys)
    assert [code for _, code, _ in want[1:]] == [0, 0]
    empty = tmp_path / "empty"
    empty.mkdir()
    copy = tmp_path / "copy"
    shutil.copytree(resources.files("braidforge") / "goldens", copy)
    table = copy / "tables" / "v1_hyperbola.json"
    obj = json.loads(table.read_text())
    obj.update(rows=obj["rows"][:2], expected=obj["expected"][:2], back_rows=[])
    table.write_text(json.dumps(obj))
    for base in (empty, copy):
        monkeypatch.setenv("FORGE_GOLDENS_DIR", str(base))
        assert _golden_runs(capsys) == want, base.name


def _child_env() -> dict:
    """The environment, with a PYTHONPATH that starts with the directory of
    the braidforge this test imported, so a child Python imports it too."""
    src = str(Path(braidforge.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(frame_factorization(2).dumps())
    proc = subprocess.run([sys.executable, "-m", "braidforge.cli",
                           "verify", str(path)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "[pass" in proc.stdout


def _entry(**fields):
    """A format-2 certificate entry: s1 as a branch factor, with `fields`
    added or replaced."""
    return {"core": "s1", "exp": 1, "tag": "branch", **fields}


def _keep_error(top, got):
    return (f"factor 2: keep must be an integer from 0 to {top}, the previous "
            f"transport's length, got {got}")


# (certificate, the one message it is refused with): each reaches the check
# it was written for, and none passes for a reason of its own; a string is
# the certificate's text
_MALFORMED = [
    ({"format": 2, "strands": 3}, "missing field 'factors'"),
    ({"format": 2, "strands": 3, "factors": [{"exp": 1, "tag": "branch"}]},
     "factor 1: missing field 'core'"),
    ({"format": 2, "strands": 3, "factors": [{"core": "s1", "tag": "branch"}]},
     "factor 1: missing field 'exp'"),
    ({"format": 2, "strands": 3, "factors": [{"core": "s1", "exp": 1}]},
     "factor 1: missing field 'tag'"),
    ({"format": 2, "strands": 3, "factors": [_entry(core="s1 s3")]},
     "factor 1: letter 3 out of range for B_3"),
    ({"format": 2, "strands": 3.0, "factors": [_entry()]},
     "strand count must be an integer >= 2, got 3.0"),
    ({"format": 2, "strands": 3, "factors": [_entry(exp=1.5, tag="composite")]},
     "factor 1: exponent must be an integer, got 1.5"),
    ([1, 2, 3], "a certificate must be a JSON object, got list"),
    ({"format": 2, "strands": 3, "factors": [_entry(core="s")]},
     "factor 1: bad braid token 's'"),
    ({"format": 2, "strands": 3, "factors": [_entry(core="S")]},
     "factor 1: bad braid token 'S'"),
    ({"format": 2, "strands": 3, "factors": [_entry(core="x1")]},
     "factor 1: bad braid token 'x1'"),
    ({"format": 2, "strands": 3, "factors": [
        {"twist": "s1", "exp": 1, "tag": "branch"}]},
     "factor 1: a format 2 factor has no twist"),
    ({"format": 2, "strands": 3, "factors": [_entry(transport=5)]},
     "factor 1: transport must be a string, got 5"),
    ({"format": 2, "strands": 3, "factors": [_entry(tag=["branch"])]},
     "factor 1: tag must be a string, got ['branch']"),
    ({"format": 2, "strands": 3, "factors": [_entry(label=7)]},
     "factor 1: label must be a string, got 7"),
    ({"format": 2, "strands": 3, "factors": [_entry(core=5)]},
     "factor 1: core must be a string, got 5"),
    ({"format": 2, "strands": 3, "factors": [_entry(twist="s1")]},
     "factor 1: a format 2 factor has no twist"),
    ({"format": 2, "strands": 3, "factors": [
        {"exp": 1, "tag": "branch", "transport": "s2"}]},
     "factor 1: a format 2 factor has no transport"),
    ({"format": 2, "strands": 3, "factors": [_entry(head="s1 x2")]},
     "factor 1: bad braid token 'x2'"),
    ({"format": 2, "strands": 3, "factors": [_entry(exp=2)]},
     "factor 1: tag 'branch' requires exponent 1, got 2"),
    ({"format": 2, "strands": 3, "factors": [_entry(head="s2 s1"),
                                             _entry(head="x2 s1")]},
     "factor 2: bad braid token 'x2'"),
    ({"format": 2, "strands": 3, "factors": [_entry(head="s2 s1"),
                                             _entry(head="s3 s1")]},
     "factor 2: letter 3 out of range for B_3"),
    ({"format": 2, "strands": 0, "factors": []},
     "strand count must be an integer >= 2, got 0"),
    ({"format": 2, "strands": 1, "factors": []},
     "strand count must be an integer >= 2, got 1"),
    ({"format": 2, "strands": -2, "factors": []},
     "strand count must be an integer >= 2, got -2"),
    *(({"format": 2, "strands": 3, "factors": [_entry(head="s2 s1"),
                                               _entry(**bad)]}, message)
      for bad, message in (
          ({"keep": "1"}, _keep_error(2, "'1'")),
          ({"keep": True}, _keep_error(2, "True")),
          ({"keep": -1}, _keep_error(2, "-1")),
          ({"keep": 3}, _keep_error(2, "3")),
          ({"transport": "s2 s1"}, "factor 2: a format 2 factor has no transport"),
          ({"head": 5}, "factor 2: head must be a string, got 5"),
          ({"head": "s2 x1"}, "factor 2: bad braid token 'x1'"))),
    ({"format": 3, "strands": 3, "factors": []}, "unknown certificate format 3"),
    ({"format": 2, "strands": 3, "factors": [_entry(keep=1)]},
     "factor 1: keep must be an integer from 0 to 0, the previous "
     "transport's length, got 1"),
    # a degree-0 composite to the power 10^8 and six frame letters: degree
    # 6 = n(n-1), so the product check would build a word of 4*10^8 letters
    ({"format": 2, "strands": 3, "factors": [
        {"core": "s1 s2 S1 S2", "exp": 10 ** 8, "tag": "composite"},
        *({"core": f"s{k}", "exp": 1, "tag": "branch"}
          for _ in range(3) for k in (1, 2))]},
     "factor 1: tag 'composite' requires exponent 1 or 2, got 100000000"),
    # a well-formed certificate of the retired formats, without "format"
    ({"strands": 3, "factors": [_entry(transport="s2")]},
     "missing field 'format': only format 2 certificates load"),
    ({"format": 2, "strands": 3, "factors": "abc"},
     "factors must be a list, got str"),
    ({"format": 2, "strands": 3, "factors": [5]},
     "factor 1: must be a JSON object, got int"),
    ({"format": 2, "factors": []}, "missing field 'strands'"),
    # text, since json.dumps cannot nest this deep: json.loads raises
    # RecursionError
    ("[" * 200000 + "]" * 200000,
     "nested deeper than the recursion limit"),
]


@pytest.mark.parametrize("payload, message", _MALFORMED,
                         ids=[f"payload{i}" for i in range(len(_MALFORMED))])
@pytest.mark.parametrize("command", [["verify"], ["relations"],
                                     ["regen", "run", "--in"]])
def test_malformed_certificate_is_a_usage_error(tmp_path, capsys, payload,
                                                message, command):
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert main(command + [str(path)]) == 2
    assert capsys.readouterr().err == f"forge {command[0]}: {path}: {message}\n"


@pytest.mark.parametrize("exp", [0, -1, 3, 10 ** 8])
def test_a_composite_exponent_other_than_1_or_2_is_a_usage_error(
        tmp_path, capsys, exp):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"format": 2, "strands": 3, "factors": [
        {"core": "s1 s2 S1 S2", "exp": exp, "tag": "composite"}]}))
    assert main(["verify", str(path)]) == 2
    assert (f"factor 1: tag 'composite' requires exponent 1 or 2, got {exp}"
            in capsys.readouterr().err)


def test_unreadable_certificate_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text(frame_factorization(3).dumps()[:40])
    assert main(["verify", str(path)]) == 2
    assert main(["verify", str(tmp_path / "absent.json")]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 2


@pytest.mark.parametrize("command, option", [
    (["degen", "phi8"], "--out"), (["degen", "phi8"], "--report"),
    (["regen", "run", "--in", "{cert}"], "--out"),
    (["regen", "run", "--in", "{cert}"], "--report"),
    (["table", "v1_conic_a"], "--report"), (["verify", "{cert}"], "--report"),
    (["relations", "{cert}"], "--out"), (["goldens"], "--report")])
def test_an_unwritable_output_is_a_usage_error(tmp_path, capsys, phi8_fz,
                                               command, option):
    cert = tmp_path / "phi8.json"
    cert.write_text(phi8_fz.dumps())
    bad = tmp_path / "no-such-dir" / "out.json"
    argv = [a.format(cert=cert) for a in command] + [option, str(bad)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"forge {command[0]}: {bad}: "
                                       "No such file or directory\n")


def test_relations_on_regenerated_certificate_names_the_factor(
        tmp_path, capsys, regen_fz):
    path = tmp_path / "phi0.json"
    path.write_text(regen_fz.dumps())
    assert main(["relations", str(path)]) == 1
    err = capsys.readouterr().err
    first = regen_fz.factors[0]
    assert "factor 1 " in err and first.label in err
    assert "not a half twist" in err


def test_relations_refuses_a_cube_tagged_branch(tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text('{"format": 2, "strands": 3, "factors": '
                    '[{"core": "s1 s1 s1", "exp": 1, "tag": "branch"}]}')
    assert main(["relations", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("forge relations: factor 1 ")
    assert captured.err.endswith(" is not a half twist\n")


def test_relations_on_a_six_strand_vertex(tmp_path):
    """On six strands the vertex full twist is Delta^2_6, whose normal form
    is inf 2 with no factors; it still splits into 30 frame letters."""
    path, out = tmp_path / "v6.json", tmp_path / "rels.json"
    path.write_text(Factorization(6, [Factor(
        delta_squared(6), 1, "composite",
        label="V1:Delta2<1,2,3,4,5,6>")]).dumps())
    assert main(["verify", str(path)]) == 0
    assert main(["relations", str(path), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 30


def test_dead_flags_are_gone():
    assert main(["--jobs", "2", "goldens"]) == 2
    assert main(["verify", "x.json", "--hurwitz-budget", "5"]) == 2


# run in a fresh interpreter: the modules a forge command adds to the ones
# the interpreter started with, printed as the last line
_LOADED = """
import json, sys
before = set(sys.modules)
from braidforge.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def _fresh_run(tmp_path, args):
    proc = subprocess.run([sys.executable, "-c", _LOADED, *args], cwd=tmp_path,
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    return set(loaded)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_commands_load_only_the_engines_they_run(tmp_path):
    """Each forge call is a fresh interpreter: without --report none hashes,
    nothing reads exact fractions, degen loads no regeneration or Lefschetz
    engine, regen no Lefschetz engine and table neither the regeneration nor
    the degeneration engine."""
    never = {"hashlib", "fractions"}
    steps = (["degen", "phi8", "--out", "A.json"],
             ["regen", "run", "--in", "A.json", "--out", "B.json"],
             ["verify", "B.json"],
             ["table", "v1_conic_a"],
             ["goldens"])
    loaded = {args[0]: _fresh_run(tmp_path, args) for args in steps}
    for cmd, mods in loaded.items():
        assert not mods & never, cmd
    assert not loaded["degen"] & {"braidforge.regeneration",
                                  "braidforge.lefschetz"}
    assert not loaded["table"] & {"braidforge.regeneration",
                                  "braidforge.degeneration"}
    assert "braidforge.lefschetz" not in loaded["regen"]
    assert "braidforge.regeneration" in loaded["regen"]


def test_report_digests_are_the_files_sha256(tmp_path):
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    runs = ((["degen", "phi8", "--out", str(a)], {}, {str(a)}),
            (["regen", "run", "--in", str(a), "--out", str(b)], {str(a)},
             {str(b)}),
            (["verify", str(b)], {str(b)}, {}),
            (["goldens"], {}, {}))
    for args, inputs, outputs in runs:
        report = tmp_path / f"{args[0]}.report.json"
        assert main(args + ["--report", str(report)]) == 0
        manifest = json.loads(report.read_text())["manifest"]
        assert manifest["command"] == args[0]
        assert manifest["inputs"] == {p: _sha256(p) for p in inputs}
        assert manifest["outputs"] == {p: _sha256(p) for p in outputs}
