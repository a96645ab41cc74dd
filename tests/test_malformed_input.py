"""Malformed bundle text, specs and scan arguments: the parsers return or
raise a HopfkitError, and ``cli.main`` exits 0, 1 or 2 without a traceback.

Bundles are small valid bundles with random line edits.  Numbers in the drawn
tokens and spec values stay small, so that an input which still parses is
cheap to check; values just past each documented size limit are drawn too,
and so are number forms outside the scalar grammar, which the parser rejects
before it reads their value.
``scan-sl2 --l`` is drawn only from values its bound rejects, because an
accepted l builds u_q(sl2) of dim l^3.  A valid builtin spec with one key its
kind does not read, or with a key given twice, exits exactly 2.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.builders import cyclic_table, group_algebra, klein_table, taft
from hopfkit.bundles import (
    parse_hopf,
    parse_inclusion,
    parse_module,
    serialize_hopf,
    serialize_inclusion,
    serialize_module,
)
from hopfkit.cli import MAX_CARTAN_RANK, UQSL2_L_RANGE, main, resolve_hopf, resolve_inclusion
from hopfkit.errors import BundleParseError, HopfkitError
from hopfkit.module_theory import HModule
from hopfkit.yetter_drinfeld import yd_line

KLEIN = group_algebra(klein_table(), name="kK", labels=["1", "x", "y", "xy"])
_LINE = yd_line(KLEIN, 1, [1, 1, -1, -1], name="line")

BASES = {
    "hopf": serialize_hopf(group_algebra(cyclic_table(2), name="kC2")),
    "inclusion": serialize_inclusion(taft(2)[1], "builtin:group?table=c2", "builtin:taft?l=2"),
    "module": serialize_module(HModule(_LINE.H, _LINE.action, name=_LINE.name), "K"),
    "yd": serialize_module(_LINE, "builtin:group?table=klein"),
}

# Numbers that Fraction or int would read but the bundle grammar (p, p/q,
# p/q*z^k) does not allow: exponent, decimal and underscore forms.  Their
# values stay small; tests/test_cli.py runs the billion-digit exponent in a
# subprocess under a timeout.
OFF_GRAMMAR = ["1e9", "1e99", "2E3", "1.0", ".5", "1_0", "1/2_0", "1e2*z", "z^1_0"]

TOKENS = st.one_of(
    st.sampled_from([
        "0", "1", "2", "3", "-1", "1/2", "1/0", "z", "z^1", "z^-1", "2*z^3", "1 + z", "x", "",
        *OFF_GRAMMAR,
        "BEGIN", "END", "BEGIN MULT", "BEGIN COMULT", "BEGIN UNIT", "BEGIN COUNIT",
        "BEGIN ANTIPODE", "BEGIN EMBED", "BEGIN ACTION 0", "BEGIN ACTION 9", "BEGIN COACTION",
        "hopf-bundle v1", "hopf-module v1", "dim", "dim 513", "conductor", "conductor 0",
        "labels", "labels 1,x", "sub", "big", "over", "name", "K", "#", "builtin:h8",
        "builtin:taft?l=x", "builtin:double?of=builtin:uqsl2?l=3", "\t", "é", "²",
    ]),
    st.text(max_size=6),
)
LINES = st.lists(TOKENS, max_size=5).map(" ".join)
EDITS = st.lists(
    st.tuples(st.sampled_from(["delete", "duplicate", "replace", "insert", "token", "truncate"]),
              st.integers(0, 10 ** 4), st.integers(0, 10 ** 4), LINES),
    min_size=1,
    max_size=4,
)


def _edit(text, edits):
    lines = text.splitlines()
    for op, at, pos, line in edits:
        if op == "truncate":
            text = "\n".join(lines)
            lines = text[: pos % (len(text) + 1)].splitlines()
            continue
        i = at % (len(lines) + 1)
        if op == "insert":
            lines.insert(i, line)
        elif i < len(lines):
            if op == "delete":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            elif op == "replace":
                lines[i] = line
            else:
                words = lines[i].split(" ")
                words[pos % len(words)] = line
                lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def _run(argv):
    """cli.main's exit code; argparse's own rejection counts as its exit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as e:
            return e.code


def _resolve_module_ref(ref):
    return KLEIN if ref == "K" else resolve_hopf(ref)


def _parse(kind, text):
    """Parse one bundle directly; a HopfkitError is a rejection."""
    try:
        if kind == "hopf":
            parse_hopf(text)
        elif kind == "inclusion":
            parse_inclusion(text, resolve_hopf)
        else:
            parse_module(text, _resolve_module_ref)
    except HopfkitError:
        pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(BASES)), edits=EDITS)
def test_malformed_bundle_exits_cleanly(workdir, kind, edits):
    text = _edit(BASES[kind], edits)
    _parse(kind, text)
    path = workdir / ("%s.bundle" % kind)
    path.write_text(text, encoding="utf-8")
    argv = {
        "hopf": ["verify", str(path)],
        "inclusion": ["analyze", str(path)],
        "module": ["check-functor", "builtin:h8", "--module", str(path), "--frobenius-monoidal"],
        "yd": ["verify", str(path)],
    }[kind]
    assert _run(argv) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(token=st.sampled_from(OFF_GRAMMAR), at=st.integers(0, 10 ** 4))
def test_off_grammar_scalar_is_rejected_with_its_line(token, at):
    lines = BASES["hopf"].splitlines()
    entries = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    i = entries[at % len(entries)]
    lines[i] = lines[i].rsplit(" ", 1)[0] + " " + token
    with pytest.raises(BundleParseError, match="^line %d: bad scalar" % (i + 1)):
        parse_hopf("\n".join(lines) + "\n")


# Edits lines[start:stop] = new of the kC2 bundle, and the error parse_hopf
# raises.  Line 8 is the MULT entry "0 1 1 1", lines 19-22 are the COUNIT
# section, line 21 is its entry "1 1", lines 23-26 are the ANTIPODE section
# and line 26 is the last END.
_KC2 = BASES["hopf"].splitlines()
PARSE_ERRORS = {
    "wrong index count": (7, 8, ["0 1 1"], "line 8: expected 3 indices and a scalar: '0 1 1'"),
    "non-integer index": (7, 8, ["0 x 1 1"], "line 8: bad index in '0 x 1 1'"),
    "index out of range": (7, 8, ["0 1 2 1"], "line 8: index out of range in '0 1 2 1'"),
    "negative index": (7, 8, ["0 -1 1 1"], "line 8: index out of range in '0 -1 1 1'"),
    "duplicate entry": (8, 8, ["0 1 1 0"], "line 9: duplicate entry 0 1 1 in section MULT"),
    # the parser tracks keys only once they stop increasing; a duplicate
    # found later, or of a zero entry read while they still increased, must
    # name the same line as one found at once
    "duplicate after the keys stop increasing": (
        10, 10, ["0 1 0 0", "1 0 1 2"], "line 12: duplicate entry 1 0 1 in section MULT"),
    "duplicate of a zero entry after the keys stop increasing": (
        7, 10, ["0 0 1 0", "0 1 1 1", "1 0 1 1", "1 1 0 1", "1 0 0 0", "0 0 1 5"],
        "line 13: duplicate entry 0 0 1 in section MULT"),
    "duplicate of a key above every key before the drop": (
        6, 10, ["0 1 1 1", "0 0 0 1", "1 0 1 1", "1 1 0 1", "1 0 1 2"],
        "line 11: duplicate entry 1 0 1 in section MULT"),
    "duplicate of a zero entry": (7, 10, ["0 0 1 0", "0 0 1 3"],
                                  "line 9: duplicate entry 0 0 1 in section MULT"),
    "duplicate with a leading zero": (9, 10, ["1 1 1 1", "01 1 1 1"],
                                      "line 11: duplicate entry 1 1 1 in section MULT"),
    # every index is decoded before any is range-checked
    "bad index after an index out of range": (7, 8, ["0 x 99 1"], "line 8: bad index in '0 x 99 1'"),
    "bad index before an index out of range": (7, 8, ["0 99 x 1"], "line 8: bad index in '0 99 x 1'"),
    "bad scalar": (20, 21, ["1 1/0"], "line 21: bad scalar in '1 1/0' (Fraction(1, 0))"),
    "off-grammar scalar": (20, 21, ["1 1.0"],
                           "line 21: bad scalar in '1 1.0' (bad token '1.0' in scalar '1.0')"),
    "duplicate section": (26, 26, ["BEGIN UNIT", "0 1", "END"], "line 27: duplicate section UNIT"),
    "missing section": (18, 22, [], "line 22: missing section COUNIT"),
    "missing section before comments": (18, 22, ["# note", ""], "line 24: missing section COUNIT"),
    "EOF before END": (25, 26, [], "line 26: unexpected end of file"),
    "EOF before END after a blank": (25, 26, [""], "line 27: unexpected end of file"),
    "text between sections": (11, 11, ["junk"], "line 12: expected BEGIN <section>, got 'junk'"),
    "comments and blanks count": (7, 8, ["# c", "", "0 x 1 1"], "line 10: bad index in '0 x 1 1'"),
    # two errors: section structure is checked before any entry, and entries
    # section by section in the order MULT, COMULT, UNIT, COUNIT, ANTIPODE
    "missing section after a bad index": (7, 22, ["0 x 1 1"] + _KC2[8:18],
                                          "line 22: missing section COUNIT"),
    "bad MULT scalar after a bad ANTIPODE scalar": (
        5, 26, ["BEGIN ANTIPODE", "0 0 1/0", "1 1 1", "END", "BEGIN MULT", "0 0 0 1/0"] + _KC2[7:22],
        "line 11: bad scalar in '0 0 0 1/0' (Fraction(1, 0))"),
}


@pytest.mark.parametrize("start, stop, new, message", PARSE_ERRORS.values(), ids=list(PARSE_ERRORS))
def test_parse_error_names_its_line(start, stop, new, message):
    lines = BASES["hopf"].splitlines()
    lines[start:stop] = new
    with pytest.raises(BundleParseError) as info:
        parse_hopf("\n".join(lines) + "\n")
    assert str(info.value) == message


KINDS = ["h8", "group", "taft", "uqsl2", "double", "trivial", "unit", "kchar", "etale", "nope", ""]
KEYS = ["l", "q", "table", "of", "sub", "act", "deg", "cond", "name", "n", "ex", "ey"]
VALUES = st.one_of(
    st.sampled_from([
        "-1", "0", "1", "2", "3", "4", "9", "23", "10001", "100000", "abc", "", "1.5", "²",
        "1,1,1,1", "1,-1,-1,1", "1,1", "1,1,1,x", "1/0,1,1,1", "z,1,1,1", "x", "xy", "q",
        *("%s,1,1,1" % t for t in OFF_GRAMMAR),
        "cartan", "borel+", "borel-", "c2", "c3", "c0", "c513", "c²", "klein",
        "builtin:group?table=c2", "builtin:taft?l=2", "builtin:double?of=builtin:group?table=c2",
        "builtin:double?of=builtin:taft?l=2", "builtin:uqsl2?l=3", "builtin:nope", "nofile",
        "/", "%zz", "[",
    ]),
    st.text(max_size=6),
)
SPECS = st.one_of(
    st.builds(
        lambda kind, params: "builtin:%s?%s" % (kind, "&".join("%s=%s" % kv for kv in params)),
        st.one_of(st.sampled_from(KINDS), st.text(max_size=4)),
        st.lists(st.tuples(st.sampled_from(KEYS), VALUES), max_size=3),
    ),
    st.sampled_from(["builtin://[", "builtin:", "", "/", "\x00", "builtin:h8?l=%zz"]),
    st.text(max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["verify", "dump", "analyze", "check-functor", "frob-objects"]),
       spec=SPECS)
def test_malformed_spec_exits_cleanly(command, spec):
    if command == "check-functor":
        argv = [command, "builtin:h8", "--module", spec, "--frobenius-monoidal", "--braided"]
    elif command == "frob-objects":
        argv = [command, "builtin:h8", "--object", spec]
    else:
        argv = [command, spec]
    assert _run(argv) in (0, 1, 2)


# A valid spec of each builtin kind, as fields, and the command that reads it.
# Each kind reads exactly the keys of its fields; of= comes last, since it
# takes the rest of the spec.
STRICT_BASES = [
    (["verify"], "group", ["table=c2"]),
    (["analyze"], "h8", []),
    (["analyze"], "taft", ["l=2", "q=1"]),
    (["analyze"], "uqsl2", ["l=3", "sub=cartan"]),
    (["analyze"], "double", ["of=builtin:group?table=c2"]),
    (["analyze"], "trivial", ["of=builtin:taft?l=2"]),
    (["analyze"], "unit", ["of=builtin:h8"]),
    (["check-functor", "builtin:h8", "--module"], "trivial", []),
    (["check-functor", "builtin:h8", "--module"], "kchar",
     ["act=1,-1,-1,1", "deg=x", "cond=4", "name=m"]),
    (["frob-objects", "builtin:h8", "--object"], "unit", []),
    (["frob-objects", "builtin:h8", "--object"], "etale", ["n=x", "ex=1", "ey=-1"]),
]


def _strict_argv(argv, kind, fields):
    return argv + ["builtin:%s?%s" % (kind, "&".join(fields))]


@st.composite
def strict_violations(draw):
    """A valid spec of STRICT_BASES with one key its kind does not read, or
    with one of its fields repeated, put before any of=."""
    argv, kind, fields = draw(st.sampled_from(STRICT_BASES))
    reads = [f.split("=", 1)[0] for f in fields]
    if reads and draw(st.booleans()):
        field = draw(st.sampled_from(fields))
    else:
        key = draw(st.sampled_from(KEYS + ["L", "tabel", "Sub", "x"]).filter(
            lambda k: k not in reads))
        field = "%s=%s" % (key, draw(st.sampled_from(["1", "3", "cartan", "c2", "builtin:h8"])))
    fields = list(fields)
    fields.insert(draw(st.integers(0, len(fields) - (reads[-1:] == ["of"]))), field)
    return _strict_argv(argv, kind, fields)


def _run_err(argv):
    """cli.main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("argv, kind, fields", STRICT_BASES,
                         ids=["%s-%s" % (b[0][-1], b[1]) for b in STRICT_BASES])
def test_strict_bases_are_read(argv, kind, fields):
    assert _run(_strict_argv(argv, kind, fields)) in (0, 1)


@settings(max_examples=100, deadline=None)
@given(argv=strict_violations())
def test_unread_or_repeated_key_exits_2(argv):
    code, err = _run_err(argv)
    assert code == 2
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_a_nested_spec_keeps_its_own_keys():
    assert resolve_hopf("builtin:double?of=builtin:taft?l=3&q=2").name == "Drin(T3(z^2))"
    incl = resolve_inclusion("builtin:trivial?of=builtin:double?of=builtin:group?table=c3")
    assert (incl.K.name, incl.H.name, incl.H.dim) == ("Drin(kC3)", "Drin(kC3)", 9)


def _outside_uqsl2_range(raw):
    try:
        value = int(raw)
    except ValueError:
        return True
    return not UQSL2_L_RANGE[0] <= value <= UQSL2_L_RANGE[1]


SMALL = st.one_of(
    st.sampled_from(["", "-1", "0", "1", "2", "x", "1.5", "²", str(MAX_CARTAN_RANK),
                     str(MAX_CARTAN_RANK + 1), "10000", "10001", "10**9"]),
    st.text(max_size=3),
)
CARTAN_TYPES = st.lists(
    st.tuples(st.sampled_from("ABCDEFGHabgz"), SMALL).map("".join), min_size=1, max_size=3
).map(",".join)
SL2_REJECTED = st.one_of(
    st.sampled_from(["", "abc", "1.5", "²", "-1", "0", str(UQSL2_L_RANGE[0] - 1),
                     str(UQSL2_L_RANGE[1] + 1), "10**9"]),
    st.text(max_size=4).filter(_outside_uqsl2_range),
)


@settings(max_examples=120, deadline=None)
@given(types=CARTAN_TYPES, ls=st.lists(SMALL, min_size=1, max_size=3).map(",".join))
def test_malformed_cartan_check_exits_cleanly(types, ls):
    assert _run(["cartan-check", "--types", types, "--l", ls]) in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(l=SL2_REJECTED)
def test_scan_sl2_rejects_l_outside_its_bound(l):
    assert _run(["scan-sl2", "--l", l]) == 2


@pytest.mark.parametrize("spec", [
    "builtin:taft?l=23", "builtin:taft?l=x", "builtin:uqsl2?l=9", "builtin:group?table=c513",
    "builtin:group?table=c²", "builtin:double?of=builtin:double?of=builtin:h8", "builtin://[",
])
def test_spec_out_of_range_is_malformed_input(spec):
    with pytest.raises(BundleParseError):
        resolve_hopf(spec)


# Builtin parameters inside their numeric bounds that name no algebra: an even
# l for u_q(sl2), and a power q of zeta_l that is no primitive l-th root.
INVALID_BUILTIN_PARAMETERS = [
    (["analyze", "builtin:uqsl2?l=4"], "small_quantum_sl2 needs odd l >= 3"),
    (["verify", "builtin:uqsl2?l=6"], "small_quantum_sl2 needs odd l >= 3"),
    (["scan-sl2", "--l", "4"], "small_quantum_sl2 needs odd l >= 3"),
    (["analyze", "builtin:taft?l=4&q=2"], "q = zeta_4^2 is not a primitive root of unity"),
    (["analyze", "builtin:taft?l=3&q=0"], "q = zeta_3^0 is not a primitive root of unity"),
]


# Spellings accepted before every key had to be read: repeated, unread and
# mistyped keys, aliases, case variants and a default of=.
STRICT_REFUSALS = [
    (["verify", "builtin:taft?l=3&l=5"], "builtin:taft repeats key 'l'"),
    (["verify", "builtin:h8?l=3"], "builtin:h8 takes no key 'l'"),
    (["analyze", "builtin:uqsl2?L=7&sub=cartan"], "builtin:uqsl2 takes no key 'L'"),
    (["analyze", "builtin:double?q=2&of=builtin:taft?l=3"], "builtin:double takes no key 'q'"),
    (["verify", "builtin:h8?l"], "builtin:h8: 'l' is not key=value"),
    (["verify", "builtin:taft?l=3&"], "builtin:taft: '' is not key=value"),
    (["verify", "builtin:taft?l="], "l='' is not an integer"),
    (["analyze", "builtin:trivial"], "builtin:trivial needs of=<spec>"),
    (["analyze", "builtin:unit"], "builtin:unit needs of=<spec>"),
    (["verify", "builtin:group?table=k4"], "unknown group table 'k4'"),
    (["verify", "builtin:group?table=c2xc2"], "unknown group table 'c2xc2'"),
    (["verify", "builtin:group?table=Klein"], "unknown group table 'Klein'"),
    (["verify", "builtin:group?table=C3"], "unknown group table 'C3'"),
    (["analyze", "builtin:uqsl2?l=3&sub=borelplus"], "unknown uqsl2 subalgebra 'borelplus'"),
    (["analyze", "builtin:uqsl2?l=3&sub=borelminus"], "unknown uqsl2 subalgebra 'borelminus'"),
    (["verify", "builtin:trivial?of=builtin:h8"],
     "builtin:trivial names an inclusion, not a Hopf algebra"),
    (["analyze", "builtin:group?table=c2"], "builtin:group names a Hopf algebra, not an inclusion"),
    (["check-functor", "builtin:h8", "--module", "builtin:trivial?deg=x"],
     "builtin:trivial takes no key 'deg'"),
    (["check-functor", "builtin:h8", "--module", "builtin:trivial?yd=1"],
     "builtin:trivial takes no key 'yd'"),
    (["frob-objects", "builtin:h8", "--object", "builtin:etale?n=x&m=y"],
     "builtin:etale takes no key 'm'"),
]


# A kchar module with no action, or with one value too few for kK.
KCHAR_REFUSALS = [
    (["check-functor", "builtin:h8", "--module", "builtin:kchar"],
     "builtin:kchar needs act=v1,v2,..."),
    (["check-functor", "builtin:h8", "--module", "builtin:kchar?act=1,1"],
     "act needs 4 values for kK"),
]


@pytest.mark.parametrize("argv, message",
                         INVALID_BUILTIN_PARAMETERS + STRICT_REFUSALS + KCHAR_REFUSALS)
def test_invalid_builtin_parameter_exits_2(argv, message):
    assert _run_err(argv) == (2, "input error: %s\n" % message)


# An etale object is built on K as soon as the inclusion is read, and a K
# without the Klein labels 1, x, y, xy is refused before the Frobenius data
# are built, Frobenius extension or not.
@pytest.mark.parametrize("spec", ["builtin:double?of=builtin:group?table=c2", "builtin:taft?l=3"])
def test_etale_object_that_does_not_fit_k_exits_2(spec):
    assert _run_err(["frob-objects", spec, "--object", "builtin:etale"]) == (
        2, "input error: expected a Klein-four group algebra with labels 1,x,y,xy\n")


@pytest.mark.parametrize("module", [
    "builtin:kchar?act=1,1,1,x", "builtin:kchar?act=1/0,1,1,1", "builtin:kchar?act=1,1,1,1&cond=0",
    "builtin:kchar?act=1,1,1,1&cond=abc", "builtin:kchar?act=1,1,1,1&deg=q",
])
def test_bad_module_spec_exits_2(module):
    assert _run(["check-functor", "builtin:h8", "--module", module, "--braided"]) == 2


def test_unreadable_bundle_exits_2(tmp_path):
    (tmp_path / "bin.bundle").write_bytes(b"\xff\xfe\x00")
    assert _run(["verify", str(tmp_path)]) == 2
    assert _run(["verify", str(tmp_path / "bin.bundle")]) == 2


# Each builtin inclusion with a kchar module, with characters that need a
# larger field than the inclusion's (z^k at cond=3 or 4), and lists that are
# not characters at every conductor (1,z,z^2,z^3 at cond=3).
KCHAR_INCLUSIONS = [
    ("builtin:h8", "1,-1,-1,1", "x"),
    ("builtin:h8", "1,z,z^2,z^3", "y"),
    ("builtin:double?of=builtin:group?table=klein", "1,-1,1,-1", "xy"),
    ("builtin:double?of=builtin:group?table=c3", "1,z,z^2", "g1"),
    ("builtin:double?of=builtin:group?table=c3", "1,z^2,z", "g2"),
]


@pytest.mark.parametrize("cond", [1, 3, 4])
@pytest.mark.parametrize("spec, act, deg", KCHAR_INCLUSIONS)
def test_kchar_at_any_conductor_exits_cleanly(spec, act, deg, cond):
    err = io.StringIO()
    argv = ["check-functor", spec, "--module", "builtin:kchar?act=%s&deg=%s&cond=%d" % (act, deg, cond),
            "--braided", "--separable"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# kchar lists that are no character of K: x -> i on the Klein group (x^2 = 1),
# and zeta_3 values for elements of order 2.  check-functor stops at the input
# check instead of passing every line, failing inside z_induce, or reporting a
# frobenius-monoidal FAIL that blames the functor.
NOT_K_MODULES = [
    ("builtin:double?of=builtin:group?table=klein", "act=1,z,z,z^2&deg=x&cond=4",
     ["--braided", "--separable"]),
    ("builtin:h8", "act=1,z,z^2,z^3&deg=y&cond=3", ["--braided"]),
    ("builtin:h8", "act=1,z,z,z^2&cond=4", ["--frobenius-monoidal"]),
]


@pytest.mark.parametrize("spec, act, flags", NOT_K_MODULES)
def test_check_functor_rejects_a_non_module_input(spec, act, flags):
    out, err = io.StringIO(), io.StringIO()
    argv = ["check-functor", spec, "--module", "builtin:kchar?" + act] + flags
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 1
    # each act value list fails rho(x)rho(x) = rho(x^2) at x, index 1
    assert ("module-input[kchar]  FAIL  witness=(1, 1)  [action-multiplicative]"
            in out.getvalue().splitlines())
    assert "Traceback" not in err.getvalue() and not err.getvalue()
