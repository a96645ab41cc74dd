import json

import pytest

from hopfkit.bundles import parse_hopf, parse_module, serialize_hopf, serialize_module
from hopfkit.cli import main, resolve_hopf, resolve_inclusion, resolve_module
from hopfkit.errors import BundleParseError
from hopfkit.hopf_core import verify_hopf


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_builtin_h8(capsys):
    code, out = run(["verify", "builtin:h8"], capsys)
    assert code == 0
    assert "result: OK" in out


def test_verify_taft(capsys):
    code, out = run(["verify", "builtin:taft?l=3"], capsys)
    assert code == 0


def test_verify_json_deterministic(capsys):
    code1, out1 = run(["verify", "builtin:group?table=klein", "--report", "json"], capsys)
    code2, out2 = run(["verify", "builtin:group?table=klein", "--report", "json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["ok"] is True
    assert all(c["status"] == "pass" for c in data["checks"])


def test_bundle_roundtrip(h8, tmp_path):
    text = serialize_hopf(h8)
    H2 = parse_hopf(text)
    assert H2.mult == h8.mult
    assert H2.comult == h8.comult
    assert H2.unit == h8.unit
    assert H2.counit == h8.counit
    assert H2.antipode_cols == h8.antipode_cols
    assert verify_hopf(H2).ok
    # byte-identical re-serialization
    assert serialize_hopf(H2) == text


def test_bundle_file_verify(tmp_path, capsys, h8):
    p = tmp_path / "h8.bundle"
    p.write_text(serialize_hopf(h8))
    code, out = run(["verify", str(p)], capsys)
    assert code == 0


def test_corrupt_bundle_exit_2(tmp_path, capsys, h8):
    text = serialize_hopf(h8).replace("\n0 0 0 1\n", "\n0 0 99 1\n", 1)
    p = tmp_path / "bad.bundle"
    p.write_text(text)
    code = main(["verify", str(p)])
    assert code == 2


def _verify_bundle_error(text, tmp_path, capsys):
    p = tmp_path / "bad.bundle"
    p.write_text(text)
    code = main(["verify", str(p)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("conductor", ["0", "-3", "100001"])
def test_bundle_rejects_conductor_out_of_range(tmp_path, capsys, h8, conductor):
    text = serialize_hopf(h8).replace("\nconductor 1\n", "\nconductor %s\n" % conductor, 1)
    code, err = _verify_bundle_error(text, tmp_path, capsys)
    assert code == 2
    assert "line 4: conductor must be between 1 and" in err


@pytest.mark.parametrize("dim", ["0", "-1", "1000000000"])
def test_bundle_rejects_dim_out_of_range(tmp_path, capsys, h8, dim):
    text = serialize_hopf(h8).replace("\ndim 8\n", "\ndim %s\n" % dim, 1)
    code, err = _verify_bundle_error(text, tmp_path, capsys)
    assert code == 2
    assert "line 3: dim must be between 1 and" in err


@pytest.mark.parametrize("section, entry", [("MULT", "1 1 0 1"), ("COUNIT", "0 1"), ("ANTIPODE", "3 3 1")])
def test_bundle_rejects_duplicate_entry(tmp_path, capsys, h8, section, entry):
    lines = serialize_hopf(h8).splitlines()
    at = lines.index(entry, lines.index("BEGIN %s" % section))
    lines.insert(at + 1, entry.rsplit(" ", 1)[0] + " 2")
    code, err = _verify_bundle_error("\n".join(lines) + "\n", tmp_path, capsys)
    assert code == 2
    assert "line %d: duplicate entry %s in section %s" % (at + 2, entry.rsplit(" ", 1)[0], section) in err


def test_bundle_rejects_duplicate_section(tmp_path, capsys, h8):
    text = serialize_hopf(h8) + "BEGIN UNIT\n0 1\nEND\n"
    code, err = _verify_bundle_error(text, tmp_path, capsys)
    assert code == 2
    assert "duplicate section UNIT" in err


def test_bad_scalar_on_two_lines_names_the_first(tmp_path, capsys, h8):
    # parsed scalars are shared by text across sections; a bad text is not
    lines = serialize_hopf(h8).splitlines()
    first = lines.index("0 0 0 1")
    second = lines.index("0 0 1", lines.index("BEGIN ANTIPODE"))
    lines[first] = "0 0 0 1.0"
    lines[second] = "0 0 1.0"
    code, err = _verify_bundle_error("\n".join(lines) + "\n", tmp_path, capsys)
    assert code == 2
    assert "line %d: bad scalar in '0 0 0 1.0'" % (first + 1) in err


def test_scalar_text_shared_across_sections(tmp_path, capsys, taft3):
    # "1*z^1" and "-1 + -1*z^1" occur in MULT and ANTIPODE, "1" in every section
    H = taft3[0]
    text = serialize_hopf(H)
    H2 = parse_hopf(text)
    assert (H2.mult, H2.comult, H2.unit, H2.counit, H2.antipode_cols) == (
        H.mult, H.comult, H.unit, H.counit, H.antipode_cols)
    p = tmp_path / "taft3.bundle"
    p.write_text(text)
    code, out = run(["verify", str(p)], capsys)
    code2, out2 = run(["verify", "builtin:taft?l=3"], capsys)
    assert code == code2 == 0
    # the first two lines name the input
    assert out.splitlines()[2:] == out2.splitlines()[2:]


def _cli_exit_code(argv, seconds):
    """Exit code of the CLI run in a fresh interpreter, killed after ``seconds``."""
    import os
    import subprocess
    import sys

    import hopfkit

    src = os.path.dirname(os.path.dirname(hopfkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "hopfkit.cli"] + argv, env=env,
                          capture_output=True, timeout=seconds).returncode


def test_huge_exponent_scalar_exits_2_quickly(tmp_path, h8):
    # Fraction("1e999999999") would build a billion-digit integer
    text = serialize_hopf(h8).replace("BEGIN COUNIT\n0 1\n", "BEGIN COUNIT\n0 1e999999999\n", 1)
    p = tmp_path / "huge.bundle"
    p.write_text(text)
    assert _cli_exit_code(["verify", str(p)], 10) == 2
    assert _cli_exit_code(["check-functor", "builtin:h8",
                           "--module", "builtin:kchar?act=1e999999999,1,1,1",
                           "--frobenius-monoidal"], 10) == 2


def test_module_bundle_rejects_duplicate_entry(h8_incl):
    from conftest import kchar

    text = serialize_module(kchar(h8_incl.K, 1, -1), "K").replace("0 0 1\n", "0 0 1\n0 0 -1\n", 1)
    with pytest.raises(BundleParseError, match="duplicate entry 0 0 in section ACTION 0"):
        parse_module(text, lambda ref: h8_incl.K)


def test_module_bundle_roundtrip(h8_incl, tmp_path):
    from conftest import kchar

    V = kchar(h8_incl.K, 1, -1)
    text = serialize_module(V, "K")
    V2 = parse_module(text, lambda ref: h8_incl.K)
    assert V2.action == tuple(m for m in V.action)


def test_analyze_h8(capsys):
    code, out = run(["analyze", "builtin:h8", "--expect-frobenius", "true",
                     "--expect-central", "true"], capsys)
    assert code == 0
    assert "frobenius" in out


def test_analyze_taft_expectations(capsys):
    code, _ = run(["analyze", "builtin:taft?l=3", "--expect-frobenius", "false"], capsys)
    assert code == 0
    code, _ = run(["analyze", "builtin:taft?l=3", "--expect-frobenius", "true"], capsys)
    assert code == 1


def test_analyze_borel_plus_not_frobenius(capsys):
    # "+" in a spec is literal: sub=borel+ is the positive Borel subalgebra
    code, out = run(["analyze", "builtin:uqsl2?l=3&sub=borel+", "--expect-frobenius", "false"], capsys)
    assert code == 0, out
    assert "frobenius=False" in out


def test_analyze_uqsl2_cartan(capsys):
    code, out = run(["analyze", "builtin:uqsl2?l=3&sub=cartan",
                     "--expect-frobenius", "true", "--expect-central", "false"], capsys)
    assert code == 0


def test_check_functor_h8(capsys):
    code, out = run([
        "check-functor", "builtin:h8",
        "--module", "builtin:kchar?act=1,1,1,1",
        "--module", "builtin:kchar?act=1,-1,-1,1&deg=x&name=linex",
        "--frobenius-monoidal", "--separable", "--braided",
    ], capsys)
    assert code == 0, out
    assert "separable" in out and "braided" in out


def test_check_functor_braided_skipped_on_noncentral(capsys):
    code, out = run([
        "check-functor", "builtin:uqsl2?l=3&sub=cartan",
        "--module", "builtin:trivial",
        "--frobenius-monoidal", "--braided",
    ], capsys)
    assert code == 0
    assert "SKIPPED" in out and "not central" in out


def test_frob_objects_cmd(capsys):
    code, out = run([
        "frob-objects", "builtin:h8", "--separable-normalized",
        "--object", "builtin:unit",
        "--object", "builtin:etale?n=x&ex=1&ey=-1",
    ], capsys)
    assert code == 0, out
    assert "commutative" in out


def test_frob_objects_refuses_non_central(capsys):
    code, out = run(["frob-objects", "builtin:uqsl2?l=3&sub=cartan"], capsys)
    assert code == 1
    assert "central" in out


@pytest.mark.parametrize("obj,named", [
    ("builtin:wat", "builtin:wat"),
    ("builtin:etale?n=q", "n='q'"),
    ("builtin:etale?ex=5", "ex must be"),
    ("builtin:etale?ex=0", "ex must be"),
    ("builtin:etale?ey=-2", "ey must be"),
])
def test_frob_objects_bad_object_spec(obj, named, capsys):
    code = main(["frob-objects", "builtin:h8", "--object", obj])
    assert code == 2
    assert named in capsys.readouterr().err


def test_frob_objects_bad_object_spec_on_non_central_inclusion(capsys):
    # the object specs are read before the inclusion is found not central
    code = main(["frob-objects", "builtin:uqsl2?l=3&sub=cartan", "--object", "builtin:wat"])
    assert code == 2


def test_scan_sl2_l3(capsys):
    code, out = run(["scan-sl2", "--l", "3"], capsys)
    assert code == 0


def test_cartan_check(capsys):
    code, out = run(["cartan-check", "--types", "A1,A2,G2", "--l", "5,7"], capsys)
    assert code == 0
    code, out = run(["cartan-check", "--types", "A2", "--l", "3"], capsys)
    assert code == 0
    assert "witness" in out


@pytest.mark.parametrize("argv, token", [
    (["cartan-check", "--types", "A"], "--types A"),
    (["cartan-check", "--types", "A0"], "--types A0"),
    (["cartan-check", "--types", "A9"], "--types A9"),
    (["cartan-check", "--types", "Ax"], "--types Ax"),
    (["cartan-check", "--types", "g3"], "--types g3"),
    (["cartan-check", "--types", "X3"], "--types X3"),
    (["cartan-check", "--types", "D2"], "--types D2"),
    (["cartan-check", "--types", "A1,,G2"], "--types  rank"),
    (["cartan-check", "--l", "abc"], "'abc'"),
    (["cartan-check", "--l", "5,"], "''"),
    (["cartan-check", "--l", "1"], "got 1"),
    (["cartan-check", "--l", "10001"], "got 10001"),
    (["scan-sl2", "--l", "abc"], "'abc'"),
    (["scan-sl2", "--l", "2"], "got 2"),
    (["scan-sl2", "--l", "9"], "got 9"),
])
def test_bad_scan_argument_exits_2(argv, token, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and token in err


def test_resolver_errors():
    with pytest.raises(BundleParseError):
        resolve_hopf("builtin:nope")
    with pytest.raises(BundleParseError):
        resolve_inclusion("builtin:uqsl2?l=3&sub=parabolic")


def test_dump_roundtrip(capsys):
    code, out = run(["dump", "builtin:taft?l=3"], capsys)
    assert code == 0
    H = parse_hopf(out)
    assert verify_hopf(H).ok


def test_yd_module_bundle_verify(tmp_path, h8_incl, capsys):
    from conftest import kline
    from hopfkit.bundles import serialize_module

    L = kline(h8_incl.K, "x", 1, -1)
    text = serialize_module(L.module, "builtin:group?table=klein", coaction=L.coaction)
    p = tmp_path / "line.bundle"
    p.write_text(text)
    code, out = run(["verify", str(p)], capsys)
    assert code == 0
    assert "yd-compatibility" in out


_KLEIN_CHARS = ("1,1,1,1", "1,-1,-1,1", "1,1,-1,-1", "1,-1,1,-1")


def _check_functor_argv(spec, chars, deg):
    argv = ["check-functor", spec]
    for char in chars:
        argv += ["--module", "builtin:kchar?act=%s&deg=%s" % (char, deg)]
    return argv + ["--frobenius-monoidal", "--separable", "--braided"]


# exit code and report sha256 of each report, recorded at the commit before
# Matrix.lincomb and the induction memo: a changed report byte fails here
GOLDEN_REPORTS = [
    (_check_functor_argv("builtin:h8", _KLEIN_CHARS, "y"), 0,
     "d6139eae339b2ec2089fda75a5e7a6f1bc1ea74213a5577c5105965ad5504b15"),
    (_check_functor_argv("builtin:double?of=builtin:group?table=klein", _KLEIN_CHARS[:2], "xy"), 0,
     "409a3847f6ee75587946cd8cfb4f16bfd90aff5787bf2c5cdbefc4cb7a3472e3"),
    (["frob-objects", "builtin:h8", "--separable-normalized",
      "--object", "builtin:etale?n=x&ex=1&ey=-1",
      "--object", "builtin:etale?n=y&ex=-1&ey=-1",
      "--object", "builtin:etale?n=xy&ex=1&ey=1"], 1,
     "63cee6875bfcefa36d483c61fd3f8c4422b38fccd719b0d458d209cd1c88d8db"),
    # the paper's application: induction from the Cartan part of u_q(sl2),
    # recorded while Matrix still stored dense rows
    (["check-functor", "builtin:uqsl2?l=3&sub=cartan",
      "--module", "builtin:kchar?act=1,z,z^2&cond=3", "--frobenius-monoidal"], 0,
     "c6fc7e8ec916f728731eb197beba7ebbc58b55302c061fad85c9437dcbf5ffa6"),
    # kC3 < D(kC3) over Q with the two zeta_3 characters: braided and separable
    # ended in a traceback before z_induce and rescale_frobenius_data lifted
    # their scalars, so this digest was recorded once they did; every line is PASS
    (["check-functor", "builtin:double?of=builtin:group?table=c3",
      "--module", "builtin:kchar?act=1,z,z^2&deg=g1&cond=3",
      "--module", "builtin:kchar?act=1,z^2,z&deg=g2&cond=3",
      "--frobenius-monoidal", "--separable", "--braided"], 0,
     "ffcec9154ac156e2c30f6d388f1b5276237be936e1a561fedc968749c6857a17"),
    # analyze reports, recorded while FrobeniusData still carried Lambda, lamH,
    # lam0, bq and scale and make_frobenius_data ran check_integral_type
    (["analyze", "builtin:h8"], 0,
     "8f28e79a13746bdaba5e4e087466ca0a4153084b2715b0031b93b734ab92f400"),
    (["analyze", "builtin:unit?of=builtin:h8"], 0,
     "899281284812ed1040ade580f53dda52501e5160db4f5203f3d6b461bf8df249"),
    (["analyze", "builtin:trivial?of=builtin:h8"], 0,
     "34f031e6da5c24dd10ba655bee190215ea51e6209e4bfe2ef5dde15b8b3e5a36"),
    (["analyze", "builtin:uqsl2?l=3&sub=cartan"], 0,
     "142f6714a74122ee9928dfe4fa00c29082e0f123b9594786265c3fd1665a979c"),
    (["analyze", "builtin:double?of=builtin:group?table=c2"], 0,
     "7d316892d6708524a759ed359a8cafc69f23f8be25283b4df0f44c2f3d8b6e99"),
    (["analyze", "builtin:double?of=builtin:group?table=c3"], 0,
     "9376375247f6d716dd510c3503f73b8e563d3ca972e301e9bcbe12c61bae8032"),
    (["analyze", "builtin:double?of=builtin:group?table=klein"], 0,
     "00f4055b96e76d41c0ed34d24d749e15077875dc6718562b6b634ba82ffa21ee"),
    (["analyze", "builtin:taft?l=3"], 0,
     "5f610196e330608588c957c5d11b343122f9584d8ea6ecbf9f3b5e1f12148191"),
]


@pytest.mark.parametrize("argv, rc, sha256", GOLDEN_REPORTS,
                         ids=["h8-y4", "dkk-xy2", "frob-h8-3", "uqsl2-l3-cartan", "dc3-zeta3",
                              "analyze-h8", "analyze-unit-h8", "analyze-trivial-h8",
                              "analyze-uqsl2-l3-cartan", "analyze-dc2", "analyze-dc3",
                              "analyze-dkk", "analyze-taft3"])
def test_report_bytes_are_golden(capsys, argv, rc, sha256):
    import hashlib

    code, out = run(argv, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (rc, sha256), out


def test_check_integral_type_runs_once_per_analyze(monkeypatch, capsys):
    # the integral-type element feeds only analyze's report line; the
    # Frobenius data that check-functor builds does not solve for it
    import hopfkit.extension as ext

    calls = []
    real = ext.check_integral_type

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ext, "check_integral_type", counted)
    code, _ = run(["check-functor", "builtin:h8", "--module", "builtin:kchar?act=1,-1,-1,1",
                   "--frobenius-monoidal", "--separable"], capsys)
    assert (code, len(calls)) == (0, 0)
    code, _ = run(["analyze", "builtin:h8"], capsys)
    assert (code, len(calls)) == (0, 1)
