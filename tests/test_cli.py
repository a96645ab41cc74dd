import json

import pytest

from conftest import CATALOGUE, readme_cli_commands
from hopfkit.bundles import parse_hopf, parse_module, serialize_hopf, serialize_module
from hopfkit.cli import main, resolve_hopf, resolve_inclusion
from hopfkit.errors import BundleParseError
from hopfkit.hopf_core import verify_hopf
from hopfkit.module_theory import HModule


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


def test_entry_lines_in_any_order_give_the_same_tables(h8, uq3, taft5):
    # serialize_hopf writes each section in index order; reversed or
    # shuffled, every row must still come out sorted
    import random

    rng = random.Random(0)
    for H in (h8, uq3, taft5[0]):
        for order in (lambda section: section[::-1], lambda section: rng.sample(section, len(section))):
            out, section = [], []
            for line in serialize_hopf(H).splitlines():
                if line[:1].isdigit():
                    section.append(line)
                    continue
                out += order(section) + [line]
                section = []
            H2 = parse_hopf("\n".join(out) + "\n")
            assert (H2.mult, H2.comult, H2.unit, H2.counit, H2.antipode_cols) == (
                H.mult, H.comult, H.unit, H.counit, H.antipode_cols)


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


def _cli_process(argv, seconds):
    """The CLI run in a fresh interpreter, killed after ``seconds``."""
    import os
    import subprocess
    import sys

    import hopfkit

    src = os.path.dirname(os.path.dirname(hopfkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "hopfkit.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=seconds)


def test_huge_exponent_scalar_exits_2_quickly(tmp_path, h8):
    # Fraction("1e999999999") would build a billion-digit integer
    text = serialize_hopf(h8).replace("BEGIN COUNIT\n0 1\n", "BEGIN COUNIT\n0 1e999999999\n", 1)
    p = tmp_path / "huge.bundle"
    p.write_text(text)
    assert _cli_process(["verify", str(p)], 10).returncode == 2
    assert _cli_process(["check-functor", "builtin:h8",
                         "--module", "builtin:kchar?act=1e999999999,1,1,1",
                         "--frobenius-monoidal"], 10).returncode == 2


# --module is an append option: a parser shared across calls must not carry
# the modules of one call into the next
REPEATED_CALLS = [
    ["check-functor", "builtin:h8", "--module", "builtin:kchar?act=1,-1,-1,1",
     "--module", "builtin:trivial", "--frobenius-monoidal"],
    ["check-functor", "builtin:h8", "--module", "builtin:kchar?act=1,1,-1,-1", "--separable"],
    ["check-functor", "builtin:h8", "--frobenius-monoidal"],
    ["frob-objects", "builtin:double?of=builtin:group?table=c2",
     "--object", "builtin:etale?n=x&ex=1&ey=1"],
    ["frob-objects", "builtin:double?of=builtin:group?table=c2"],
]


def test_main_called_repeatedly_matches_separate_processes(capsys):
    in_process = [run(argv, capsys) for argv in REPEATED_CALLS + REPEATED_CALLS[:1]]
    separate = [_cli_process(argv, 120) for argv in REPEATED_CALLS]
    for (code, out), proc in zip(in_process, separate + separate[:1]):
        assert (code, out) == (proc.returncode, proc.stdout)


@pytest.mark.parametrize("spec", CATALOGUE)
def test_verify_of_a_dump_matches_verify_of_the_builtin(spec, tmp_path, capsys):
    code, text = run(["dump", spec], capsys)
    assert code == 0
    p = tmp_path / "dumped.bundle"
    p.write_text(text)
    code1, out1 = run(["verify", str(p)], capsys)
    code2, out2 = run(["verify", spec], capsys)
    assert code1 == code2 == 0
    # the first two lines name the input
    assert out1.splitlines()[2:] == out2.splitlines()[2:]
    assert len(out1.splitlines()) == 14


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


def test_analyze_expect_frobenius_maybe_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "builtin:taft?l=3", "--expect-frobenius", "maybe"])
    assert exc.value.code == 2
    assert "expected true/false" in capsys.readouterr().err


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


def test_check_functor_braided_says_when_no_input_is_yetter_drinfeld(capsys):
    # kK < H8 is central, but a plain module gives --braided nothing to check
    code, out = run(["check-functor", "builtin:h8", "--module", "builtin:trivial", "--braided"],
                    capsys)
    assert code == 0
    assert ["braided", "SKIPPED", "[no", "Yetter-Drinfeld", "module", "among", "the", "inputs]",
            "(braided)"] in map(str.split, out.splitlines())


def test_check_functor_names_the_failing_check_of_a_yd_input(tmp_path, monkeypatch, capsys):
    # delta(v) = (2x - 1) (x) v is counital but not coassociative at v = e_0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.bundle").write_text(
        "hopf-module v1\nover K\ndim 1\nconductor 1\nname bad\n"
        + "".join("BEGIN ACTION %d\n0 0 1\nEND\n" % i for i in range(4))
        + "BEGIN COACTION\n0 0 -1\n1 0 2\nEND\n")
    code, out = run(["check-functor", "builtin:h8", "--module", "bad.bundle", "--braided"], capsys)
    assert code == 1
    assert ["yd-input[bad]", "FAIL", "witness=0", "[comodule-coassociative]"] in map(
        str.split, out.splitlines())
    assert "braided-frobenius" not in out


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
    text = serialize_module(L, "builtin:group?table=klein")
    p = tmp_path / "line.bundle"
    p.write_text(text)
    code, out = run(["verify", str(p)], capsys)
    assert code == 0
    assert "yd-compatibility" in out


def test_verify_routes_a_module_bundle_that_opens_with_a_comment(tmp_path, h8_incl, capsys):
    # the header is the first line that is neither blank nor a comment
    from conftest import kline

    L = kline(h8_incl.K, "x", 1, -1)
    text = serialize_module(L, "builtin:group?table=klein")
    p = tmp_path / "line.bundle"
    p.write_text("# a comment\n\n" + text)
    code, out = run(["verify", str(p)], capsys)
    assert code == 0, out
    assert "yd-compatibility" in out
    plain = HModule(L.H, L.action, name=L.name)
    p.write_text("# a comment\n" + serialize_module(plain, "builtin:group?table=klein"))
    code, out = run(["verify", str(p)], capsys)
    assert code == 0, out
    assert "action-multiplicative" in out


def test_a_module_bundle_may_declare_a_conductor_its_algebra_does_not_divide(tmp_path, capsys):
    # the module lives over Q(zeta_lcm(declared, algebra's)), as an inclusion
    # bundle does, so declaring conductor 3 over the Taft algebra at 5 is no error
    from hopfkit.module_theory import trivial_module

    text = serialize_module(trivial_module(resolve_hopf("builtin:taft?l=5")), "builtin:taft?l=5")
    assert "conductor 5\n" in text
    outs = []
    for conductor in (5, 3):
        p = tmp_path / ("one-%d.bundle" % conductor)
        p.write_text(text.replace("conductor 5\n", "conductor %d\n" % conductor))
        code, out = run(["verify", str(p)], capsys)
        assert code == 0, out
        # the first two lines name the input
        outs.append(out.splitlines()[2:])
    assert outs[0] == outs[1]
    assert "action-multiplicative  PASS  (module-axioms)" in outs[1]


@pytest.mark.parametrize("argv", [["analyze"],
                                  ["check-functor", "--module", "builtin:kchar?act=1,-1,-1,1",
                                   "--frobenius-monoidal"],
                                  ["frob-objects", "--object", "builtin:etale?n=x&ex=1&ey=-1"]],
                         ids=["analyze", "check-functor", "frob-objects"])
def test_inclusion_bundle_is_read_once(argv, tmp_path, h8_incl, monkeypatch, capsys):
    # the report hashes the bytes the parser reads; its checks are those of the builtin
    import builtins
    import hashlib

    from hopfkit.bundles import serialize_inclusion

    p = tmp_path / "incl.bundle"
    p.write_text(serialize_inclusion(h8_incl, "builtin:group?table=klein", "builtin:h8"))
    data = p.read_bytes()
    cmd, *flags = argv
    code, want = run([cmd, "builtin:h8"] + flags, capsys)
    opened = []
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        if str(file) == str(p):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    got = run([cmd, str(p)] + flags, capsys)
    monkeypatch.undo()
    assert len(opened) == 1
    lines = got[1].splitlines()
    assert lines[1] == "input %s sha256=%s" % (p, hashlib.sha256(data).hexdigest())
    assert (got[0], lines[2:]) == (code, want.splitlines()[2:])


def test_inclusion_references_resolve_against_the_working_directory(h8_incl, tmp_path,
                                                                   monkeypatch):
    # the sub and big references of an inclusion bundle are specs read from
    # the working directory, not from the directory of the inclusion bundle
    from hopfkit.bundles import serialize_inclusion

    work, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
    work.mkdir()
    elsewhere.mkdir()
    (work / "h8.bundle").write_text(serialize_hopf(h8_incl.H))
    path = elsewhere / "incl.bundle"
    path.write_text(serialize_inclusion(h8_incl, "builtin:group?table=klein", "h8.bundle"))
    (elsewhere / "h8.bundle").write_text("not a bundle\n")
    monkeypatch.chdir(work)
    incl = resolve_inclusion(str(path))
    assert (incl.H.mult, incl.embed) == (h8_incl.H.mult, h8_incl.embed)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(BundleParseError, match="^no such file: h8.bundle$"):
        resolve_inclusion(str(path))


_KLEIN_CHARS = ("1,1,1,1", "1,-1,-1,1", "1,1,-1,-1", "1,-1,1,-1")


def _check_functor_argv(spec, chars, deg):
    argv = ["check-functor", spec]
    for char in chars:
        argv += ["--module", "builtin:kchar?act=%s&deg=%s" % (char, deg)]
    return argv + ["--frobenius-monoidal", "--separable", "--braided"]


# exit code and report sha256 of each report, recorded before module actions
# were summed in one pass and before the induction memo: a changed report
# byte fails here
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
    # the unscaled lambda, bq and scale, and make_frobenius_data ran
    # check_integral_type
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
    # the paper's application at l = 7, recorded before the Frobenius data,
    # alpha and normality of a catalogue-built H were checked on generating sets
    (["analyze", "builtin:uqsl2?l=7&sub=cartan"], 0,
     "7fe3ec153b2457b036b3261b84db6a005ae4844aadf6d7018df0e7da7b7f2961"),
    (["check-functor", "builtin:uqsl2?l=7&sub=cartan",
      "--module", "builtin:kchar?act=1,1,1,1,1,1,1", "--frobenius-monoidal"], 0,
     "511dbddf7a269fd63030ab77794f9d5943cba702a6b6f8c2af20e2afe5430063"),
    # the paper's application at l = 5 with two characters, recorded before
    # the lax structure constants were built once per induction context
    (["check-functor", "builtin:uqsl2?l=5&sub=cartan",
      "--module", "builtin:kchar?act=1,1,1,1,1",
      "--module", "builtin:kchar?act=1,z,z^2,z^3,z^4&cond=5",
      "--frobenius-monoidal", "--separable"], 1,
     "31bffa7d145c6ff7dd425422d7e1cb1ba037bdb7e46f0fc550a6c0ac4043d865"),
    # the paper's application at l = 7 with two characters, recorded while
    # the Frobenius squares still formed lax x id and id x oplax
    (["check-functor", "builtin:uqsl2?l=7&sub=cartan",
      "--module", "builtin:kchar?act=1,1,1,1,1,1,1",
      "--module", "builtin:kchar?act=1,z,z^2,z^3,z^4,z^5,z^6&cond=7",
      "--frobenius-monoidal"], 0,
     "a0e8afe0b742354be58754f03b9e1cfad1a16be913993d8c487afde55339b911"),
    # the scans, recorded while each command added its rows along two branches
    # (l <= 3 and l > 3)
    (["scan-sl2", "--l", "3"], 0,
     "12a733bb8751e1ee5dbcac39bc19dc6c49bceadcbd71a48d9cbcc11e35e346a9"),
    (["scan-sl2", "--l", "5"], 0,
     "e87a8c1218297dd8ca75aa492191e40535ea71bbda1cfb4f8ba8dccdc1313a26"),
    # the paper's scan at l = 7, recorded before the extension pipeline
    # solved its linear conditions on generating sets
    (["scan-sl2", "--l", "7"], 0,
     "e5e27df59b51c6e0f9a4217164b9bec034206659c7c633303b52839a722bb1f2"),
    (["cartan-check"], 0,
     "660f3913e10e572cfaa5027713a5b21f2f570bbfbe2c260a9ff2ffbc49edc598"),
    (["cartan-check", "--types", "A2", "--l", "3"], 0,
     "e70b20845a8edf0c825545ef4781a5ab01681a5890f680b9c4c7ca2c975e1bd4"),
    # analyze reports of the extension benchmark's doubles, Taft algebras and
    # Borel, recorded before the inclusion's K-linear identities were decided
    # on a K-basis of H and the double's table was built per right factor
    (["analyze", "builtin:double?of=builtin:taft?l=2"], 0,
     "d46a61fe615ec5ff3e2116827a0fa37e072ef1292a3322ab73d7a556aa194749"),
    (["analyze", "builtin:double?of=builtin:taft?l=3"], 0,
     "b1ace2b221c480c5f6cdf68073f490572c8582a25e6c33849e6dffa041f1f7f9"),
    (["analyze", "builtin:taft?l=5"], 0,
     "2b777d8a38825b48cc4987efc4f756a84e9b233869a1cc2e032941bd2ab4d84f"),
    (["analyze", "builtin:taft?l=7"], 0,
     "130d4c37385106fcc536378a6a01afabd91b78b45f24665191de5842f0007bf2"),
    (["analyze", "builtin:uqsl2?l=3&sub=borel-"], 0,
     "7fa7a29313de1587b03068cdb4954104eaff8616744b1af5ebeac0c2b43d05d3"),
    # the paper's application at l = 5 and the Borels at l = 7, recorded while
    # small_quantum_sl2 still wrote all l^6 products before any was read
    (["analyze", "builtin:uqsl2?l=5&sub=cartan"], 0,
     "00f6de54c10e5b35f5158ae15a52f6f384512b2f17c2b44666dcad13deb45ef3"),
    (["analyze", "builtin:uqsl2?l=5&sub=borel+"], 0,
     "ac64c98431c55655f21a4ee3aa6f986f573d26396a5ed3fbf75ef89ef6446f0b"),
    (["analyze", "builtin:uqsl2?l=5&sub=borel-"], 0,
     "1c1d928336101942631bea05eb2e2852be0c3329fd60f947076b8a092790af72"),
    (["analyze", "builtin:uqsl2?l=7&sub=borel+"], 0,
     "dee5a667ceaadd6547d746798aee31d5bb176ce18520a09c9ac643b80279e04a"),
    (["analyze", "builtin:uqsl2?l=7&sub=borel-"], 0,
     "0cc748fcedfe27a98461b61e610042137aacc523a906f5e541d288d40efb2b9e"),
    # braided induction over D(H8) from H8, whose K is not a group algebra,
    # recorded before the scalar kernel was one module
    (["check-functor", "builtin:double?of=builtin:h8",
      "--module", "builtin:kchar?act=1,1,1,-1,1,-1,-1,-1&deg=1", "--braided"], 0,
     "93abd530ac3c638ce97ab324b15634e4a077db6e6b774b5815a10b0173482cf9"),
    # kC3 < T3 is no Frobenius extension: both commands stop at their
    # frobenius-extension line
    (["check-functor", "builtin:taft?l=3", "--frobenius-monoidal"], 1,
     "62fda72072ed9047fd0aeeb6020b83b5ae96b5a21922b9145077a9ef46631e7d"),
    (["frob-objects", "builtin:taft?l=3"], 1,
     "a15b98cdfa9d9c1d62bae80f8da8776e1b3ca89cb5bc6caafed5f6bffd1c043a"),
]


@pytest.mark.parametrize("argv, rc, sha256", GOLDEN_REPORTS,
                         ids=["h8-y4", "dkk-xy2", "frob-h8-3", "uqsl2-l3-cartan", "dc3-zeta3",
                              "analyze-h8", "analyze-unit-h8", "analyze-trivial-h8",
                              "analyze-uqsl2-l3-cartan", "analyze-dc2", "analyze-dc3",
                              "analyze-dkk", "analyze-taft3", "analyze-uqsl2-l7-cartan",
                              "uqsl2-l7-cartan", "uqsl2-l5-cartan-2chars",
                              "uqsl2-l7-cartan-2chars", "scan-sl2-l3", "scan-sl2-l5",
                              "scan-sl2-l7", "cartan-check", "cartan-check-a2-l3",
                              "analyze-dt2", "analyze-dt3", "analyze-taft5", "analyze-taft7",
                              "analyze-uqsl2-l3-borel-minus", "analyze-uqsl2-l5-cartan",
                              "analyze-uqsl2-l5-borel-plus", "analyze-uqsl2-l5-borel-minus",
                              "analyze-uqsl2-l7-borel-plus", "analyze-uqsl2-l7-borel-minus",
                              "dh8-braided", "check-functor-taft3", "frob-objects-taft3"])
def test_report_bytes_are_golden(capsys, argv, rc, sha256):
    import hashlib

    code, out = run(argv, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (rc, sha256), out


def _doubled(text, section):
    """The bundle text with one entry of the middle basis element e_m,
    m = dim // 2, doubled: the middle one of the section's entry lines of
    e_m * e_j, Delta(e_m) or S(e_m)."""
    from hopfkit.exact_math import format_scalar, parse_scalar

    lines = text.splitlines()
    header = dict(line.split(" ", 1) for line in lines[1:lines.index("BEGIN MULT")])
    begin = lines.index("BEGIN " + section)
    field = 1 if section == "ANTIPODE" else 0
    choices = [i for i in range(begin + 1, lines.index("END", begin))
               if int(lines[i].split()[field]) == int(header["dim"]) // 2]
    at = choices[len(choices) // 2]
    head, scalar = lines[at].rsplit(" ", 1)
    lines[at] = "%s %s" % (head, format_scalar(parse_scalar(scalar, int(header["conductor"])) * 2))
    return "\n".join(lines) + "\n"


# exit code and report sha256 of `verify` on the bundles of the seven
# algebras the axiom benchmark reads, as dumped and with one MULT, COMULT or
# ANTIPODE entry doubled, recorded before one-term table rows took a short
# path in the parser and the axiom scans
VERIFY_ALGEBRAS = {
    "h8": "builtin:h8",
    "dkc3": "builtin:double?of=builtin:group?table=c3",
    "dkk": "builtin:double?of=builtin:group?table=klein",
    "uqsl2-3": "builtin:uqsl2?l=3",
    "taft5": "builtin:taft?l=5&q=2",
    "taft7": "builtin:taft?l=7&q=3",
    "dt2": "builtin:double?of=builtin:taft?l=2",
}
GOLDEN_VERIFY = {
    "h8.bundle": (0, "133c0a79740d532d70dd7418be22ed4f5f3cbb3ec9571f0d1bcaae8fd970ff03"),
    "h8-mult.bundle": (1, "050e81d8911f25c316a5704590e24913bbae2930cd979f3d88b536c95327c504"),
    "h8-comult.bundle": (1, "17e483061630550dbef9bed201ff8d2d3a0952541d3c8f72ce1969054533d1d2"),
    "h8-antipode.bundle": (1, "237381971d8a9fd5587dae4c89cc0c9bdc3707ae32a4c6170454072fa7b56cc6"),
    "dkc3.bundle": (0, "1f2711bfde9a8004e884ff01d9bae5ea700e001cadf37c3f7784e7ac7d679e23"),
    "dkc3-mult.bundle": (1, "0766062c8ee88a8910e612a3e2e38b4c50d15995c5f59ab71528732b73d9ead1"),
    "dkc3-comult.bundle": (1, "701c2d56f2cf836e5807566f75b910446ba01112f78cf44d7853708ce9668404"),
    "dkc3-antipode.bundle": (1, "c854d9b8055546ebc0b1ed534f6a282c4b0f93fbca772a4b5a556ab4c4a27fab"),
    "dkk.bundle": (0, "5bf5e260e809ebc9c2cc8c768018f12ada0f08938f56e8555178fc4d2fc56895"),
    "dkk-mult.bundle": (1, "269c5d624cc488d767771c7840247317e2d4cfd2d414c28262b605fe032fa3b7"),
    "dkk-comult.bundle": (1, "d688c1eea46bfd683f975d930e759a9eacca2b78f2da8b270829e98faa2bcd07"),
    "dkk-antipode.bundle": (1, "854e50b31c885cba5abdfeec0948481fb96a6c6e57fc7ce958d07cebd82d1aad"),
    "uqsl2-3.bundle": (0, "faa5c10ec9f8867a71d8ef18cc0f1480a5671fd26e7fbfdf616829a1f3d70e2e"),
    "uqsl2-3-mult.bundle": (1, "0b316e9edea3e662621829db6ee4c5b456a89a2be9b44a77d074e7caaeae9a2f"),
    "uqsl2-3-comult.bundle": (1, "9b17f467a1a86a963e5557a8b716d5d78170e9e5e4b2d4c09a911c35b287a82c"),
    "uqsl2-3-antipode.bundle": (1, "fa1a567ad8e9be7a286e2368db5d7f787ba9fef545ca17872a3b009fd0b22707"),
    "taft5.bundle": (0, "7a8308f69a940832470946e03cbb4ef3e6230a22fd6097a542e2783c92262854"),
    "taft5-mult.bundle": (1, "ad911269aa02b2c4587f9450d2f81c1e1c3e48de4a454a02797b95f10386b9a7"),
    "taft5-comult.bundle": (1, "c1579359961afc90c5f4c8f638c56d759e203635d36870ff409f7d090ffd2675"),
    "taft5-antipode.bundle": (1, "f813c2d732f53857a71a55771dfb0153a8914f6fa65f80517916b88e48883f5f"),
    "taft7.bundle": (0, "40a910efeb98bb29a0a2a951d84240e839286ec8db8f322a8876ee8a86d8ac2a"),
    "taft7-mult.bundle": (1, "5010ba04f2cb92f266c297df84b20b1520208df5a71f75f08fece0b9e4977b7b"),
    "taft7-comult.bundle": (1, "e3001947622b9800e956821dc96a9e0b165992ac82e443f3981e35e3e36ce2b1"),
    "taft7-antipode.bundle": (1, "86c608281bb2ac83dacd9620bf6cd1f604c9ef9c19e18b0f529580b897048f66"),
    "dt2.bundle": (0, "b7348d90915698c292c5dc2e47074d680f1c943aa4caeaeb85cf7642e38ea2db"),
    "dt2-mult.bundle": (1, "bbbf505ab1301c487a49f2db0a4c836564e81a74dc2e5b08f422d8a543bd6bc1"),
    "dt2-comult.bundle": (1, "fe1dbd0b8cc43bbec9f547c0234c66f515490cdfbd4b8d9ca0e434de6b7508cc"),
    "dt2-antipode.bundle": (1, "f514e5fb0f4564322da406e4c4685b28dbaee48d4cd41988985706e46d33fc0a"),
}


@pytest.mark.parametrize("name, section", [(name, section) for name in VERIFY_ALGEBRAS
                                           for section in ("", "MULT", "COMULT", "ANTIPODE")])
def test_verify_report_bytes_are_golden(capsys, monkeypatch, tmp_path, name, section):
    import hashlib

    text = serialize_hopf(resolve_hopf(VERIFY_ALGEBRAS[name]))
    path = "%s%s.bundle" % (name, section and "-" + section.lower())
    (tmp_path / path).write_text(_doubled(text, section) if section else text)
    monkeypatch.chdir(tmp_path)
    code, out = run(["verify", path], capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_VERIFY[path], out


def test_no_kronecker_product_with_an_identity_is_formed(monkeypatch, capsys):
    # products with an identity factor go through IdKron; Matrix.kron is left
    # for products of two maps.  The reports are those recorded while the
    # identity factors were formed.
    import hashlib

    from conftest import kchar, kline
    from hopfkit.exact_math import Matrix
    from hopfkit.induction import (
        induce, induction_context, lax_pair, oplax_pair, projection_morphisms, verify_lax_coherence,
    )
    from hopfkit.module_theory import restrict, tensor_modules
    from hopfkit.yetter_drinfeld import yd_hexagons, z_induce

    real = Matrix.kron

    def guarded(A, B):
        if A.is_identity() or B.is_identity():
            raise AssertionError("a Kronecker product with an identity factor was formed")
        return real(A, B)

    monkeypatch.setattr(Matrix, "kron", guarded)
    # check-functor over H8 with four kchar modules and every flag, and one frob-objects op
    for argv, rc, sha256 in (GOLDEN_REPORTS[0], GOLDEN_REPORTS[2]):
        code, out = run(argv, capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (rc, sha256), out

    incl = resolve_inclusion("builtin:h8")
    frob = induction_context(incl)
    V, U = kchar(incl.K, 1, 1), kchar(incl.K, -1, -1)
    reports = [verify_lax_coherence(frob, [V, U]),
               projection_morphisms(frob, induce(frob, kchar(incl.K, 1, -1)), U).report]
    assert [hashlib.sha256(r.to_text().encode()).hexdigest() for r in reports] == [
        "a0ad31eb8220415761427ed4e8222165d0b3e1a13e7980686102394a487a483c",
        "61f0e0b0b5b62c82f38977c262a6c2fd2bdcbfd01235e7631fcb37ddaf2c8b81",
    ]
    lines = [kline(incl.K, g, ex, ey) for g, ex, ey in (("x", 1, -1), ("y", -1, 1), ("xy", -1, -1))]
    assert yd_hexagons(*(z_induce(frob, L) for L in lines))

    # tensor products and the lax/oplax maps form no Kronecker product at all
    def refused(A, B):
        raise AssertionError("Matrix.kron was called")

    monkeypatch.setattr(Matrix, "kron", refused)
    R = restrict(incl, induce(frob, kchar(incl.K, 1, -1)))  # two-dimensional
    assert tensor_modules(R, R).dim == 4
    assert (lax_pair(frob, R, V).rows, oplax_pair(frob, R, R).cols) == (2 * 2, 2 * 4)


def test_verify_of_a_yd_bundle_checks_the_module_too(tmp_path, monkeypatch, capsys):
    # x and y act trivially but xy by -1, so the action is not multiplicative;
    # the report stops there, before the comodule and YD checks
    import hashlib

    from hopfkit.yetter_drinfeld import yd_line

    monkeypatch.chdir(tmp_path)
    K = resolve_hopf("builtin:group?table=klein")
    for acts, rc in (([1, 1, -1, -1], 0), ([1, 1, 1, -1], 1)):
        L = yd_line(K, 1, acts)
        (tmp_path / "line.bundle").write_text(
            serialize_module(L, "builtin:group?table=klein"))
        code, out = run(["verify", "line.bundle"], capsys)
        assert code == rc, out
        # the refusal names verify_module's failing check and its witness x*y
        assert ("module-input[line]  FAIL  witness=(1, 2)  [action-multiplicative]"
                in out.splitlines()) == (rc == 1)
        assert ("yd-compatibility        PASS" in out) == (rc == 0)
        if rc == 0:
            # a valid bundle's report is the one recorded before the module check ran
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "bb81a6d30edbac88a1cef5384febbee2d25d509d5f5b86df39f59690fa93c8e0")


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


def test_readme_cli_commands_run_as_written(capsys):
    commands = readme_cli_commands()
    assert len(commands) == 7
    operators = set("();<>|&")
    for tokens in commands:
        assert tokens[0] == "hopfkit", tokens
        # a shell runs the line as one command: no control operator but a
        # final redirect of stdout to a file
        if tokens[-2:-1] == [">"]:
            tokens = tokens[:-2]
        assert not [t for t in tokens if set(t) <= operators], tokens
        assert main(tokens[1:]) == 0, tokens
        capsys.readouterr()
