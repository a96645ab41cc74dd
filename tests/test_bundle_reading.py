"""How bundle sections are read: any layout of a bundle's entry lines parses
to the tables of its canonical text, a parse fault is reported with the same
exit code, message and line wherever it sits in a section, and an index text
is decoded (``bundles._index``) only on the first line that spells it."""

import contextlib
import functools
import io
import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfkit import bundles
from hopfkit.bundles import (
    parse_hopf,
    parse_inclusion,
    parse_module,
    serialize_inclusion,
    serialize_module,
)
from hopfkit.cli import main, resolve_hopf, resolve_inclusion, resolve_module
from hopfkit.induction import induction_context
from hopfkit.yetter_drinfeld import z_induce

# the bundles of the axioms benchmark workload
AXIOM_SPECS = [
    "builtin:h8",
    "builtin:double?of=builtin:group?table=c3",
    "builtin:double?of=builtin:group?table=klein",
    "builtin:uqsl2?l=3",
    "builtin:taft?l=5&q=2",
    "builtin:taft?l=7&q=3",
    "builtin:double?of=builtin:taft?l=2",
]


def _run(argv):
    """(exit code, stdout, stderr) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@functools.cache
def _dump(spec):
    rc, out, _ = _run(["dump", spec])
    assert rc == 0
    return out


@functools.cache
def _bundle(name):
    """(kind, canonical text) of a bundle of the layout test."""
    if name == "kK<H8":
        incl = resolve_inclusion("builtin:h8")
        return "inclusion", serialize_inclusion(incl, "builtin:group?table=klein", "builtin:h8")
    if name == "ZInd(kchar) over H8":
        incl = resolve_inclusion("builtin:h8")
        L = resolve_module("builtin:kchar?act=1,-1,1,-1&deg=x", incl.K)
        return "module", serialize_module(z_induce(induction_context(incl), L), "builtin:h8")
    return "hopf", _dump(name)


def _tables(kind, text):
    if kind == "hopf":
        H = parse_hopf(text)
        return H.mult, H.comult, H.unit, H.counit, H.antipode_cols
    if kind == "inclusion":
        return parse_inclusion(text, resolve_hopf).embed.srows
    mod = parse_module(text, resolve_hopf)
    return [a.srows for a in mod.action], mod.coaction.srows


ARITY = {"MULT": 3, "COMULT": 3, "UNIT": 1, "COUNIT": 1}
LAYOUTS = ["comments", "whitespace", "padding", "zeros", "reversed", "shuffled"]


def _relayout(text, layouts, rng):
    """text with the entry lines of each section written in other layouts."""
    out = []
    entries = None
    for line in text.splitlines():
        if entries is None:
            out.append(line)
            if line.startswith("BEGIN "):
                arity = ARITY.get(line[6:], 2)
                entries = []
        elif line == "END":
            out.extend(_relayout_entries(entries, arity, layouts, rng))
            out.append(line)
            entries = None
        else:
            entries.append(line.split(" ", arity))
    if "comments" in layouts:
        for _ in range(rng.randint(1, 8)):
            out.insert(rng.randint(0, len(out)),
                       rng.choice(["", "\t", "#", "# note", "  # 0 1 2 1", "#0 0 0 1"]))
    return "\n".join(out) + "\n"


def _relayout_entries(entries, arity, layouts, rng):
    if "zeros" in layouts and entries:
        # 1-5 explicit zeros at index tuples the section leaves out, drawn
        # from the indices it uses, so that a section with a gap changes
        present = {tuple(e[:arity]) for e in entries}
        values = [sorted({e[t] for e in entries}) for t in range(arity)]
        absent = sorted(set(itertools.product(*values)) - present)
        for idx in rng.sample(absent, min(len(absent), rng.randint(1, 5))):
            entries.append([*idx, "0"])
        entries.sort(key=lambda e: tuple(map(int, e[:arity])))
    if "padding" in layouts:
        entries = [[("0" * rng.randint(0, 2)) + t for t in e[:arity]] + e[arity:] for e in entries]
    if "reversed" in layouts:
        entries.reverse()
    elif "shuffled" in layouts:
        before = list(entries)
        rng.shuffle(entries)
        # a shuffle that leaves the order as it was is turned once, so that
        # a section of two or more entries always changes
        if len(entries) > 1 and entries == before:
            entries.append(entries.pop(0))
    if "whitespace" not in layouts:
        return [" ".join(e) for e in entries]
    lines = []
    for e in entries:
        line = rng.choice(["", " ", "\t"]) + e[0]
        for t in e[1:]:
            line += rng.choice([" ", "  ", "\t", " \t ", "\t\t"]) + t
        lines.append(line + rng.choice(["", " ", "\t"]))
    return lines


LAYOUT_BUNDLES = ["builtin:h8", "builtin:uqsl2?l=3", "builtin:taft?l=5&q=2",
                  "builtin:double?of=builtin:group?table=klein", "kK<H8", "ZInd(kchar) over H8"]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(LAYOUT_BUNDLES), layouts=st.sets(st.sampled_from(LAYOUTS), min_size=1),
       seed=st.integers(0, 2 ** 32))
@example(name="kK<H8", layouts={"zeros"}, seed=49508503)
@example(name="ZInd(kchar) over H8", layouts={"shuffled"}, seed=439)
def test_every_layout_parses_to_the_tables_of_the_canonical_text(name, layouts, seed):
    kind, text = _bundle(name)
    variant = _relayout(text, layouts, random.Random(seed))
    assert variant != text
    assert _tables(kind, variant) == _tables(kind, text)


def test_the_relayout_keeps_every_section_and_entry():
    text = _bundle("builtin:h8")[1]
    variant = _relayout(text, {"whitespace", "padding", "shuffled"}, random.Random(1))
    lines = text.splitlines()
    assert len(variant.splitlines()) == len(lines)
    assert sorted(map(str.split, variant.splitlines())) != sorted(map(str.split, lines))
    unpadded = [[str(int(t)) if t.isdigit() else t for t in line.split()] for line in variant.splitlines()]
    assert sorted(unpadded) == sorted(map(str.split, lines))


# Faults placed as the first and as the last entry line of the MULT section
# of u3(sl2) (lines 8-1024 of its dump), each with the error recorded from
# the reader that read every line the careful way.  The first MULT line is
# "0 0 0 1" and the last "26 26 26 1/3*z^1"; no entry has indices 1 0 0.
FAULTS = {
    "too few tokens": "1 0 0",
    "too few tokens and a space": "1 0 0 ",
    "too many tokens": "1 0 0 1 2",
    "index out of range": "1 27 0 1",
    "non-integer index": "1 x 0 1",
    "bad scalar": "1 0 0 1/0",
}
RECORDED = {
    ("first", "too few tokens"): "line 8: expected 3 indices and a scalar: '1 0 0'",
    ("first", "too few tokens and a space"): "line 8: expected 3 indices and a scalar: '1 0 0'",
    ("first", "too many tokens"): "line 8: bad scalar in '1 0 0 1 2' (bad token '1 2' in scalar '1 2')",
    ("first", "index out of range"): "line 8: index out of range in '1 27 0 1'",
    ("first", "non-integer index"): "line 8: bad index in '1 x 0 1'",
    ("first", "bad scalar"): "line 8: bad scalar in '1 0 0 1/0' (Fraction(1, 0))",
    ("first", "duplicate entry"): "line 1025: duplicate entry 26 26 26 in section MULT",
    ("first", "duplicate spelled 01"): "line 1025: duplicate entry 26 26 26 in section MULT",
    ("last", "too few tokens"): "line 1025: expected 3 indices and a scalar: '1 0 0'",
    ("last", "too few tokens and a space"): "line 1025: expected 3 indices and a scalar: '1 0 0'",
    ("last", "too many tokens"):
        "line 1025: bad scalar in '1 0 0 1 2' (bad token '1 2' in scalar '1 2')",
    ("last", "index out of range"): "line 1025: index out of range in '1 27 0 1'",
    ("last", "non-integer index"): "line 1025: bad index in '1 x 0 1'",
    ("last", "bad scalar"): "line 1025: bad scalar in '1 0 0 1/0' (Fraction(1, 0))",
    ("last", "duplicate entry"): "line 1025: duplicate entry 0 0 0 in section MULT",
    ("last", "duplicate spelled 01"): "line 1025: duplicate entry 0 0 0 in section MULT",
}


@pytest.mark.parametrize("where, fault", list(RECORDED), ids=[" ".join(k) for k in RECORDED])
def test_a_fault_is_reported_alike_first_or_last_in_a_long_section(tmp_path, where, fault):
    lines = _dump("builtin:uqsl2?l=3").splitlines()
    begin = lines.index("BEGIN MULT") + 1
    end = lines.index("END", begin)
    assert (begin, end) == (7, 1024)
    # a duplicate repeats the entry at the other end of the section
    other = lines[end - 1] if where == "first" else lines[begin]
    line = {"duplicate entry": other, "duplicate spelled 01": "0" + other}.get(fault) or FAULTS[fault]
    lines.insert(begin if where == "first" else end, line)
    path = tmp_path / "uq3.bundle"
    path.write_text("\n".join(lines) + "\n")
    assert _run(["verify", str(path)]) == (2, "", "input error: %s\n" % RECORDED[where, fault])


def _index_lines(text):
    """The indices of the lines parse_hopf(text) sends to ``bundles._index``."""
    decoded = []
    index = bundles._index

    def spy(p, at, *args):
        decoded.append(at)
        return index(p, at, *args)

    with mock.patch.object(bundles, "_index", spy):
        parse_hopf(text)
    return decoded


@pytest.mark.parametrize("spec", AXIOM_SPECS + ["builtin:uqsl2?l=5"])
def test_a_dumped_bundle_never_decodes_an_index(spec):
    assert _index_lines(_dump(spec)) == []


def test_a_comment_line_is_skipped_without_decoding_an_index():
    lines = _dump("builtin:h8").splitlines()
    lines.insert(lines.index("BEGIN MULT") + 5, "# 0 0 0 1")
    assert _index_lines("\n".join(lines) + "\n") == []


def test_a_padded_index_text_is_decoded_on_its_first_line_only():
    text = _dump("builtin:h8")
    lines = text.splitlines()
    begin = lines.index("BEGIN MULT") + 1
    end = lines.index("END", begin)
    assert lines[begin] == "0 0 0 1"
    # index 0 spelled "00" at every position of every MULT line: the first
    # line meets it at all three positions, and later lines look it up
    for at in range(begin, end):
        *idxs, scalar = lines[at].split(" ")
        lines[at] = " ".join(["00" if t == "0" else t for t in idxs] + [scalar])
    padded = "\n".join(lines) + "\n"
    assert _index_lines(padded) == [begin]
    assert _tables("hopf", padded) == _tables("hopf", text)
