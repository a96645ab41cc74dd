"""Every bundle is verified where it is read.

``resolve_hopf`` runs ``verify_hopf`` on a Hopf algebra bundle and the
inclusion reader runs ``verify_inclusion`` on an inclusion bundle; a failure
stops the command with exit 1 and an ``error:`` line that names the first
failing check.  The derived checks then rest on H being a Hopf algebra and
the inclusion a Hopf algebra map."""

import random

import pytest

import hopfkit._kernel as K
from hopfkit import hopf_core, induction
from hopfkit.builders import kac_paljutkin
from hopfkit.bundles import serialize_hopf, serialize_inclusion
from hopfkit.cli import main, resolve_inclusion
from hopfkit.exact_math import Matrix
from hopfkit.extension import HopfInclusion
from hopfkit.hopf_core import FinHopf


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _bundles(tmp_path, incl, big=None, sub=None):
    """Paths of K, H and inclusion bundles of incl, with big (sub) written
    in place of H (K) when given."""
    paths = {key: tmp_path / ("%s.bundle" % key) for key in ("sub", "big", "incl")}
    paths["sub"].write_text(sub or serialize_hopf(incl.K))
    paths["big"].write_text(big or serialize_hopf(incl.H))
    paths["incl"].write_text(serialize_inclusion(incl, paths["sub"], paths["big"]))
    return {key: str(p) for key, p in paths.items()}


def _doubled_table_entry(H, table, row, entry=0):
    """A copy of H with entry ``entry`` of row ``row`` of its "mult" or
    "antipode_cols" table doubled."""
    rows = [list(r) for r in getattr(H, table)]
    k, s = rows[row][entry]
    rows[row][entry] = (k, K.s_add(H.ctx, s, s))
    fields = {"mult": H.mult, "antipode_cols": H.antipode_cols}
    fields[table] = tuple(tuple(r) for r in rows)
    return FinHopf(H.name, H.basis_labels, H.N, fields["mult"], H.unit, H.comult, H.counit,
                   fields["antipode_cols"], convention=H.convention)


def _refused(code, out, err, message):
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_the_cartan_repro_is_refused(tmp_path, capsys):
    # u_q(sl2) at l = 3 with MULT row 119 = (4, 11), entry 0, doubled: verify
    # reports the associativity defect, and analyze and check-functor, which
    # used to print every line PASS and exit 0, refuse the bundle, as does dump
    incl = resolve_inclusion("builtin:uqsl2?l=3&sub=cartan")
    bad = _doubled_table_entry(incl.H, "mult", 119)
    paths = _bundles(tmp_path, incl, big=serialize_hopf(bad))
    code, out, _ = run(["verify", paths["big"]], capsys)
    assert code == 1 and "mult-associative       FAIL  witness=(1, 3, 11)" in out
    message = "u3(sl2) is not a Hopf algebra: mult-associative FAIL witness=(1, 3, 11)"
    _refused(*run(["analyze", paths["incl"]], capsys), message)
    _refused(*run(["check-functor", paths["incl"], "--frobenius-monoidal"], capsys), message)
    _refused(*run(["dump", paths["big"]], capsys), message)


# the antipode entries (row i, column j) of H8 whose doubling analyze and
# check-functor --frobenius-monoidal used to pass
H8_ANTIPODE_DEFECTS = [(3, 3), (6, 5), (5, 6), (7, 7)]


@pytest.mark.parametrize("i, j", H8_ANTIPODE_DEFECTS)
def test_the_h8_antipode_defects_that_used_to_pass_are_refused(i, j, tmp_path, capsys):
    H8, incl = kac_paljutkin()
    entry = [k for k, _ in H8.antipode_cols[j]].index(i)
    bad = _doubled_table_entry(H8, "antipode_cols", j, entry)
    paths = _bundles(tmp_path, incl, big=serialize_hopf(bad))
    code, out, _ = run(["verify", paths["big"]], capsys)
    first = next(l for l in out.splitlines() if "FAIL" in l).split()
    assert code == 1
    message = "H8 is not a Hopf algebra: %s FAIL %s" % (first[0], first[2])
    _refused(*run(["analyze", paths["incl"]], capsys), message)
    _refused(*run(["check-functor", paths["incl"], "--frobenius-monoidal"], capsys), message)


@pytest.mark.parametrize("argv", [["check-functor", "--frobenius-monoidal"], ["frob-objects"]],
                         ids=["check-functor", "frob-objects"])
def test_an_embedding_that_is_not_multiplicative_is_refused_before_induction(
        argv, tmp_path, monkeypatch, capsys):
    # x is sent to 2x: embed(x x) = 1 but embed(x) embed(x) = 4
    H8, incl = kac_paljutkin()
    scale = [[2 if r == c == 1 else int(r == c) for c in range(4)] for r in range(4)]
    bad = HopfInclusion(incl.K, H8, incl.embed * Matrix.from_rows(scale))
    path = tmp_path / "incl.bundle"
    path.write_text(serialize_inclusion(bad, "builtin:group?table=klein", "builtin:h8"))
    built = []
    real = induction.induction_context
    monkeypatch.setattr(induction, "induction_context",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    cmd, *flags = argv
    _refused(*run([cmd, str(path)] + flags, capsys),
             "kK -> H8 is not a Hopf algebra map: mult-intertwines FAIL witness=(1, 1)")
    assert built == []


def _doubled_entries(text):
    """(section, copy) for each entry line of a Hopf bundle, with the
    scalar of that line doubled."""
    from hopfkit.exact_math import format_scalar, parse_scalar

    lines = text.split("\n")
    conductor = int(next(l for l in lines if l.startswith("conductor ")).split()[1])
    section = None
    for i, line in enumerate(lines):
        if line.startswith("BEGIN "):
            section = line.split()[1]
        elif line == "END":
            section = None
        elif section is not None:
            head, scalar = line.rsplit(" ", 1)
            out = list(lines)
            out[i] = "%s %s" % (head, format_scalar(parse_scalar(scalar, conductor) * 2))
            yield section, "\n".join(out)


def test_a_bundle_that_verify_fails_never_passes_analyze(tmp_path, capsys):
    # a seeded sample of doubled structure entries of H or K in three
    # inclusions; every one fails verify, and analyze refuses it
    rng = random.Random("doubled-entries")
    cases = []
    for spec in ("builtin:h8", "builtin:uqsl2?l=3&sub=cartan",
                 "builtin:double?of=builtin:group?table=c3"):
        incl = resolve_inclusion(spec)
        for which, H in (("big", incl.H), ("sub", incl.K)):
            cases.extend((incl, which, section, text)
                         for section, text in _doubled_entries(serialize_hopf(H)))
    failed = 0
    for incl, which, section, text in rng.sample(cases, 24):
        paths = _bundles(tmp_path, incl, **{which: text})
        code, out, _ = run(["verify", paths[which]], capsys)
        if "FAIL" in out:
            failed += 1
            assert run(["analyze", paths["incl"]], capsys)[0] != 0, (incl, which, section)
    assert failed == 24


def test_verify_of_a_bundle_runs_verify_hopf_once(tmp_path, monkeypatch, capsys):
    H8 = kac_paljutkin()[0]
    path = tmp_path / "h8.bundle"
    path.write_text(serialize_hopf(H8))
    calls = []
    real = hopf_core.verify_hopf
    monkeypatch.setattr(hopf_core, "verify_hopf", lambda H: calls.append(H.name) or real(H))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0 and calls == ["H8"]


def test_analyze_of_an_inclusion_bundle_runs_verify_inclusion_once(tmp_path, monkeypatch, capsys):
    # the reader's check and the report's inclusion/ lines share one run of
    # the intertwining loops, kept in the inclusion's cache
    import hashlib
    from pathlib import Path

    from hopfkit import extension

    titles = []

    class Counted(extension.Report):
        def __init__(self, title, *args, **kw):
            titles.append(title)
            super().__init__(title, *args, **kw)

    monkeypatch.setattr(extension, "Report", Counted)
    monkeypatch.chdir(tmp_path)
    paths = _bundles(Path("."), kac_paljutkin()[1])
    code, out, _ = run(["analyze", paths["incl"]], capsys)
    assert code == 0 and titles.count("verify-inclusion kK -> H8") == 1
    # the report recorded while the inclusion was verified twice
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "501b3c4b8261d71e7b5a400de15935cfce4c39cb5a2171ef192acb498916d595")
