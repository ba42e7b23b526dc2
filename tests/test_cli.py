"""CLI behavior: exit codes, artifacts, reports, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from braidforge.braid import Braid, artin_gen
from braidforge.cli import main
from braidforge.degeneration import build_tt, phi8
from braidforge.factorization import Factor
from braidforge.factorization import Factorization, frame_factorization
from braidforge.factorization import conj_factorization, hurwitz_move


def test_usage_error_exits_2():
    assert main(["definitely-not-a-command"]) == 2
    assert main([]) == 2


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
    # append the relator s1 s2 s1 (s2 s1 s2)^-1 to the twist word
    twist = Braid(27, f.twist.word + (1, 2, 1, -2, -1, -2))
    _, path = _phi8_with(tmp_path, 28, Factor(twist, f.exponent, f.tag,
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
    _, path = _phi8_with(tmp_path, i, Factor(f.twist, f.exponent, f.tag,
                                             f.transport, label))
    assert main(["regen", "run", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"factor {i + 1} {label!r}" in err


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


def test_goldens_replay():
    assert main(["goldens"]) == 0


def test_module_entry_point(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(frame_factorization(2).dumps())
    proc = subprocess.run([sys.executable, "-m", "braidforge.cli",
                           "verify", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[pass" in proc.stdout


@pytest.mark.parametrize("payload", [
    {"strands": 3},
    {"strands": 3, "factors": [{"exp": 1, "tag": "branch"}]},
    {"strands": 3, "factors": [{"twist": "s1", "tag": "branch"}]},
    {"strands": 3, "factors": [{"twist": "s1", "exp": 1}]},
    {"strands": 3, "factors": [{"twist": "s1 x2", "exp": 1, "tag": "branch"}]},
    {"strands": 3.0, "factors": [{"twist": "s1", "exp": 1, "tag": "branch"}]},
    {"strands": 3, "factors": [{"twist": "s1", "exp": 1.5, "tag": "composite"}]},
    [1, 2, 3],
    {"strands": 3, "factors": [{"twist": "s", "exp": 1, "tag": "branch"}]},
    {"strands": 3, "factors": [{"twist": "S", "exp": 1, "tag": "branch"}]},
    {"strands": 3, "factors": [{"twist": "x1", "exp": 1, "tag": "branch"}]},
    {"strands": 3, "factors": [{"twist": 5, "exp": 1, "tag": "branch"}]},
    {"strands": 3, "factors": [{"twist": "s1", "exp": 1, "tag": "branch",
                                "transport": 5}]},
    {"strands": 3, "factors": [{"twist": "s1", "exp": 1, "tag": ["branch"]}]},
    {"strands": 3, "factors": [{"twist": "s1", "exp": 1, "tag": "branch",
                                "label": 7}]},
    {"strands": 3, "factors": [{"core": 5, "exp": 1, "tag": "branch"}]},
    {"strands": 3, "factors": [{"core": "s1", "twist": "s1", "exp": 1,
                                "tag": "branch"}]},
    {"strands": 3, "factors": [{"exp": 1, "tag": "branch", "transport": "s2"}]},
    {"strands": 3, "factors": [{"core": "s1 x2", "exp": 1, "tag": "branch"}]},
    {"strands": 3, "factors": [{"core": "s1", "exp": 2, "tag": "branch"}]},
    {"strands": 3, "factors": [
        {"core": "s1", "exp": 1, "tag": "branch", "transport": "s2 s1"},
        {"core": "s1", "exp": 1, "tag": "branch", "transport": "x2 s1"}]},
    {"strands": 3, "factors": [
        {"core": "s1", "exp": 1, "tag": "branch", "transport": "s2 s1"},
        {"core": "s1", "exp": 1, "tag": "branch", "transport": "s3 s1"}]},
    {"strands": 0, "factors": []},
    {"strands": 1, "factors": []},
    {"strands": -2, "factors": []},
    *({"format": 2, "strands": 3, "factors": [
        {"core": "s1", "exp": 1, "tag": "branch", "head": "s2 s1"},
        {"core": "s1", "exp": 1, "tag": "branch", **bad}]}
      for bad in ({"keep": "1"}, {"keep": True}, {"keep": -1}, {"keep": 3},
                  {"transport": "s2 s1"}, {"head": 5}, {"head": "s2 x1"})),
    {"format": 3, "strands": 3, "factors": []},
    {"strands": 3, "factors": [{"core": "s1", "exp": 1, "tag": "branch",
                                "keep": 1}]},
    # a degree-0 composite to the power 10^8 and six frame letters: degree
    # 6 = n(n-1), so the product check would build a word of 4*10^8 letters
    {"format": 2, "strands": 3, "factors": [
        {"core": "s1 s2 S1 S2", "exp": 10 ** 8, "tag": "composite"},
        *({"core": f"s{k}", "exp": 1, "tag": "branch"}
          for _ in range(3) for k in (1, 2))]},
])
@pytest.mark.parametrize("command", [["verify"], ["relations"],
                                     ["regen", "run", "--in"]])
def test_malformed_certificate_is_a_usage_error(tmp_path, capsys, payload,
                                                command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(command + [str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(path) in err


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


def test_relations_on_regenerated_certificate_names_the_factor(
        tmp_path, capsys, regen_fz):
    path = tmp_path / "phi0.json"
    path.write_text(regen_fz.dumps())
    assert main(["relations", str(path)]) == 1
    err = capsys.readouterr().err
    first = regen_fz.factors[0]
    assert "factor 1 " in err and first.label in err
    assert "not a half twist" in err


def test_dead_flags_are_gone():
    assert main(["--jobs", "2", "goldens"]) == 2
    assert main(["verify", "x.json", "--hurwitz-budget", "5"]) == 2


SRC = Path(__file__).resolve().parents[1] / "src"

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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    return set(loaded)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_commands_load_only_the_engines_they_run(tmp_path):
    """Each forge call is a fresh interpreter: without --report none hashes,
    nothing reads exact fractions, degen loads no regeneration or Lefschetz
    engine and regen no Lefschetz engine."""
    never = {"hashlib", "fractions"}
    steps = (["degen", "phi8", "--out", "A.json"],
             ["regen", "run", "--in", "A.json", "--out", "B.json"],
             ["verify", "B.json"],
             ["goldens"])
    loaded = {args[0]: _fresh_run(tmp_path, args) for args in steps}
    for cmd, mods in loaded.items():
        assert not mods & never, cmd
    assert not loaded["degen"] & {"braidforge.regeneration",
                                  "braidforge.lefschetz"}
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
