"""Modules are checked where they enter; the for-all-h checks run on generators.

``ModuleMap.intertwines``, ``hom_space``, the module part of
``invariant_space_dim`` and the Yetter-Drinfeld scan of ``verify_yd`` run on
``algebra_generators(H)``.  That is exact when every action is an algebra
map, so the command line runs ``verify_module`` on each module it reads, and
every other module is one by construction.  Every result must equal the full
scan's: the references below run the same checks with every basis element of
H in place of the generators (``_all_of_h``).
"""

from contextlib import contextmanager
from unittest import mock

import pytest

import hopfkit.frob_objects as frob_objects
import hopfkit.module_theory as module_theory
import hopfkit.yetter_drinfeld as yd
from conftest import kchar, kline
from hopfkit.builders import cyclic_table, drinfeld_double, group_algebra, kac_paljutkin, klein_table
from hopfkit.bundles import serialize_module
from hopfkit.cli import main, resolve_hopf
from hopfkit.exact_math import Matrix, root_of_unity
from hopfkit.frob_objects import (
    build_group_etale, direct_b_algebra, invariant_space_dim, push_frobenius,
    verify_frobenius_object,
)
from hopfkit.hopf_core import FinHopf, algebra_generators
from hopfkit.induction import induction_context
from hopfkit.module_theory import HModule, ModuleMap, hom_space, verify_module
from hopfkit.yetter_drinfeld import (
    YDModule, is_yd_map, verify_yd, yd_as_double_module, yd_braiding, yd_line, yd_tensor,
    z_induce,
)

ETALE = [(n, ex, ey) for n in ("x", "y", "xy") for ex in (1, -1) for ey in (1, -1)]


def _klein():
    return group_algebra(klein_table(), name="kK", labels=["1", "x", "y", "xy"])


def _module(M):
    """M, after the check an input module gets where it enters."""
    assert verify_module(M).ok
    return M


@contextmanager
def _all_of_h():
    """The for-all-h checks scan every basis element of H instead of
    ``algebra_generators(H)``: the full scans the generator scans must match."""
    def every(H):
        return range(H.dim)

    with mock.patch.object(module_theory, "algebra_generators", every), \
            mock.patch.object(frob_objects, "algebra_generators", every), \
            mock.patch.object(yd, "algebra_generators", every):
        yield


def _on_all_of_h(f, *args):
    with _all_of_h():
        return f(*args)


def _checks(rep):
    return [(c.name, c.status, c.witness) for c in rep.checks]


# ---------------------------------------------------------------------------
# the premise: a generator scan is exact only on modules
# ---------------------------------------------------------------------------


def _broken():
    """A kK "module" that is the trivial character on x and y (G(kK) = {x, y})
    but sends xy to -1."""
    kK = _klein()
    assert algebra_generators(kK) == (1, 2)
    broken = HModule(kK, [Matrix.from_rows([[v]]) for v in (1, 1, 1, -1)], name="broken")
    assert not verify_module(broken).ok
    return broken


def test_check_functor_stops_at_an_input_that_is_not_a_module(capsys):
    # on the broken "module" the generator scans miss the defect at xy, and
    # only the full scans see it: this is why an input is checked first
    broken, one = _broken(), Matrix.identity(1)
    chi = kchar(broken.H, 1, 1)
    assert ModuleMap(broken, chi, one).intertwines() and invariant_space_dim(broken) == 1
    assert not _on_all_of_h(ModuleMap(broken, chi, one).intertwines)
    assert _on_all_of_h(invariant_space_dim, broken) == 0
    code = main(["check-functor", "builtin:h8", "--module", "builtin:kchar?act=1,1,1,-1",
                 "--frobenius-monoidal", "--separable"])
    out = capsys.readouterr().out
    assert code == 1
    assert "module-input[kchar]  FAIL  witness=(1, 2)  [action-multiplicative]" in out.splitlines()
    assert "frobenius-extension" not in out and "frobenius-monoidal" not in out


def test_verify_of_a_yd_bundle_stops_at_an_action_that_is_not_a_module(tmp_path, capsys):
    K = resolve_hopf("builtin:group?table=klein")
    L = yd_line(K, 1, [1, 1, 1, -1], name="broken")
    assert verify_yd(L).ok  # the comodule and YD checks alone pass on it
    path = tmp_path / "broken.bundle"
    path.write_text(serialize_module(L, "builtin:group?table=klein"))
    code = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "module-input[broken]  FAIL  witness=(1, 2)  [action-multiplicative]" in out.splitlines()
    assert "yd-compatibility" not in out and "comodule-" not in out


def test_constructed_modules_pass_verify_module(h8_frob):
    for params in ETALE:
        assert verify_module(build_group_etale(h8_frob.incl.K, *params).carrier).ok
        assert verify_module(direct_b_algebra(h8_frob, *params).carrier).ok
    C2 = group_algebra(cyclic_table(2), name="kC2")
    D = drinfeld_double(C2)[0]
    for g in (0, 1):
        for sign in (1, -1):
            assert verify_module(yd_as_double_module(D, C2, yd_line(C2, g, [1, sign]))).ok


def _twist_indices(monkeypatch, M):
    seen = set()
    real = FinHopf.yd_twist

    def counted(self, i, g):
        seen.add(i)
        return real(self, i, g)

    monkeypatch.setattr(FinHopf, "yd_twist", counted)
    assert verify_yd(M).ok
    monkeypatch.setattr(FinHopf, "yd_twist", real)
    return seen


def test_verify_yd_scans_generators_and_the_reference_all_of_h(monkeypatch):
    kK = _klein()
    M = _module(kline(kK, "x", 1, -1))
    assert _twist_indices(monkeypatch, M) == set(algebra_generators(kK))
    assert _on_all_of_h(_twist_indices, monkeypatch, M) == set(range(kK.dim))


# ---------------------------------------------------------------------------
# parity with the full scans
# ---------------------------------------------------------------------------


def _klein_lines(K):
    return [_module(kline(K, g, ex, ey))
            for g in ("1", "x", "y", "xy") for ex in (1, -1) for ey in (1, -1)]


def _zeta_lines(K):
    z = root_of_unity(3)
    return [_module(yd_line(K, g, [z ** (k * a) for a in range(3)], name="chi%d@%d" % (k, g)))
            for k in (1, 2) for g in range(3)]


@pytest.fixture(scope="module", params=["kK<H8", "kK<D(kK)", "kC3<D(kC3)"])
def case(request):
    """The Frobenius data of a parity case and its YD lines over K."""
    if request.param == "kK<H8":
        incl, lines = kac_paljutkin()[1], _klein_lines
    elif request.param == "kK<D(kK)":
        incl, lines = drinfeld_double(_klein())[1], _klein_lines
    else:
        incl, lines = drinfeld_double(group_algebra(cyclic_table(3), name="kC3"))[1], _zeta_lines
    return induction_context(incl), lines(incl.K)


def _scans(M, N):
    """verify_yd, the invariants, hom_space and intertwines on the YD modules
    M and N, and intertwines of the braiding and the identity between their
    tensor products (the identity is a module map only where the actions
    agree)."""
    homs = [h.matrix for h in hom_space(M, N)]
    maps = homs + ([Matrix.identity(M.dim)] if M.dim == N.dim else [])
    src, tgt = yd_tensor(M, N), yd_tensor(N, M)
    return (
        _checks(verify_yd(M)),
        invariant_space_dim(M),
        invariant_space_dim(HModule(M.H, M.action, name=M.name)),
        homs,
        [ModuleMap(M, N, f).intertwines() for f in maps],
        [ModuleMap(src, tgt, f).intertwines()
         for f in (yd_braiding(M, N), Matrix.identity(src.dim))],
    )


def _assert_parity(M, N):
    got = _scans(M, N)
    assert got[-1][0]  # the braiding is a module map
    assert got == _on_all_of_h(_scans, M, N)


def test_generator_scans_match_the_full_scans_on_induced_yd_modules(case):
    frob, lines = case
    ind = [z_induce(frob, M) for M in lines]
    for M in ind:
        _assert_parity(M, M)
    for M, N in zip(ind, ind[1:] + ind[:1]):
        _assert_parity(M, N)


def test_braiding_of_induced_yd_modules_is_an_invertible_yd_map(case):
    # the YD category is braided; check-functor --braided reads this theorem
    # for ZInd(M) and ZInd(N) instead of checking it per pair
    frob, lines = case
    ind = [z_induce(frob, M) for M in lines]
    for M, N in zip(ind, ind[1:] + ind[:1]):
        psi = yd_braiding(M, N)
        assert psi.inverse() is not None
        MN, NM = yd_tensor(M, N), yd_tensor(N, M)
        assert is_yd_map(MN.H, (MN.action, MN.coaction), (NM.action, NM.coaction), psi)


def test_a_yd_defect_keeps_the_full_scan_witness(case):
    frob, lines = case
    M = z_induce(frob, lines[1])
    # add e_0 (x) v_0 to the coaction of v_1: the YD condition fails at some (i, a)
    bump = Matrix.from_rows([[int(r == 0 and a == 1) for a in range(M.dim)]
                             for r in range(M.coaction.rows)])
    bad = YDModule(HModule(M.H, M.action, name="bad"), M.coaction + bump.lift(M.N))
    with mock.patch.object(yd, "_yd_defect", wraps=yd._yd_defect) as scan:
        got = verify_yd(bad)
    # the scan on G finds the defect; the full scan names its first witness
    assert [call.args[1:] for call in scan.call_args_list] == [(algebra_generators(M.H),), ()]
    assert got["yd-compatibility"].status == "fail"
    assert got["yd-compatibility"].witness == yd._yd_defect(bad)


def test_pushed_etale_objects_match_the_full_scans(h8_frob):
    def scans(B):
        return (_checks(verify_frobenius_object(B)), invariant_space_dim(B.carrier),
                _checks(verify_yd(B.carrier)))

    for params in ETALE:
        B = push_frobenius(h8_frob, build_group_etale(h8_frob.incl.K, *params))
        assert scans(B) == _on_all_of_h(scans, B)
