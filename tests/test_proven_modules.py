"""The ``proven`` bit of HModule and the generator scans it allows.

A module is proven when its action is known to be an algebra map: a
passing ``verify_module``, or a construction from such modules.  Only then do ``ModuleMap.intertwines``, ``hom_space``, the module
part of ``invariant_space_dim`` and the Yetter-Drinfeld scan of ``verify_yd``
run on ``algebra_generators(H)``.  Every result must equal the full scan's:
the references below are the same checks on copies with the bit off, which
scan every basis element (``test_verify_yd_scans_all_of_h_on_an_unproven_module``).
"""

import pytest

from conftest import kchar, kline
from hopfkit.builders import cyclic_table, drinfeld_double, group_algebra, kac_paljutkin, klein_table
from hopfkit.bundles import parse_hopf, parse_inclusion, serialize_hopf, serialize_inclusion
from hopfkit.exact_math import Matrix, root_of_unity
from hopfkit.extension import HopfInclusion
from hopfkit.frob_objects import (
    FrobObject, build_group_etale, invariant_space_dim, push_frobenius, verify_frobenius_object,
)
from hopfkit.hopf_core import FinHopf, algebra_generators
from hopfkit.induction import coinduce, induce, induction_context
from hopfkit.module_theory import (
    HModule, ModuleMap, direct_sum, hom_space, restrict, tensor_modules, trivial_module,
    verify_module,
)
from hopfkit.yetter_drinfeld import (
    YDModule, verify_yd, yd_braiding, yd_line, yd_morphism_check, yd_tensor, z_induce,
)

ETALE = [(n, ex, ey) for n in ("x", "y", "xy") for ex in (1, -1) for ey in (1, -1)]


def _klein():
    return group_algebra(klein_table(), name="kK", labels=["1", "x", "y", "xy"])


def _proven(M):
    """M after a passing ``verify_module``, which marks it proven."""
    assert verify_module(M.module if isinstance(M, YDModule) else M).ok
    return M


def _unproven(M):
    """A copy of M (a module, YD module or Frobenius object) with the bit off."""
    if isinstance(M, FrobObject):
        return FrobObject(_unproven(M.carrier), M.mult, M.unit, M.comult, M.counit, name=M.name)
    if isinstance(M, YDModule):
        return YDModule(_unproven(M.module), M.coaction, name=M.name)
    return HModule(M.H, list(M.action), name=M.name, N=M.N)


def _checks(rep):
    return [(c.name, c.status, c.witness) for c in rep.checks]


# ---------------------------------------------------------------------------
# the premise: a reduced scan is exact only on modules
# ---------------------------------------------------------------------------


def _broken_and_chi():
    """A kK "module" that is the trivial character on x and y but sends xy to
    -1, and the trivial character itself, proven."""
    kK = _klein()
    assert algebra_generators(kK) == (1, 2)
    broken = HModule(kK, [Matrix.from_rows([[v]]) for v in (1, 1, 1, -1)], name="broken")
    assert not verify_module(broken).ok
    return broken, _proven(kchar(kK, 1, 1))


def test_checks_against_an_unproven_non_module_scan_all_of_h():
    broken, chi = _broken_and_chi()
    assert not broken.proven and chi.proven
    one = Matrix.identity(1)
    assert not ModuleMap(broken, chi, one).intertwines()
    assert not ModuleMap(chi, broken, one).intertwines()
    assert hom_space(broken, chi) == [] and hom_space(chi, broken) == []
    assert invariant_space_dim(broken) == 0
    # with the bit forced on, the generator scans miss the defect at xy: the
    # premise, not the scan, is what keeps these answers exact
    broken.proven = True
    assert ModuleMap(broken, chi, one).intertwines()
    assert len(hom_space(broken, chi)) == 1
    assert invariant_space_dim(broken) == 1


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


def test_verify_yd_scans_all_of_h_on_an_unproven_module(monkeypatch):
    kK = _klein()
    M = kline(kK, "x", 1, -1)
    assert not M.module.proven
    assert _twist_indices(monkeypatch, M) == set(range(kK.dim))
    _proven(M)
    assert _twist_indices(monkeypatch, M) == set(algebra_generators(kK))


# ---------------------------------------------------------------------------
# how the bit propagates
# ---------------------------------------------------------------------------


def test_the_bit_is_set_by_a_passing_verify_module_only():
    kK = _klein()
    chi = kchar(kK, 1, -1)
    assert not chi.proven
    verify_module(chi)
    assert chi.proven
    broken, _ = _broken_and_chi()
    assert not broken.proven
    # the algebra of a module is a Hopf algebra wherever it was read, so only
    # the module's own check decides
    parsed = parse_hopf(serialize_hopf(kK))
    over_parsed = kchar(parsed, 1, -1)
    assert not over_parsed.proven
    assert verify_module(over_parsed).ok and over_parsed.proven
    assert trivial_module(kK).proven and trivial_module(parsed).proven


def test_constructions_give_the_and_of_their_inputs():
    H8, incl = kac_paljutkin()
    K = incl.K
    p = _proven(kchar(K, 1, -1))
    u = kchar(K, -1, 1)  # a character, but not proven
    for build in (tensor_modules, direct_sum):
        assert build(p, p).proven
        assert not build(p, u).proven and not build(u, p).proven
    ictx = induction_context(incl)
    for build in (induce, coinduce):
        assert build(ictx, p).proven and not build(ictx, u).proven
    assert restrict(incl, induce(ictx, p)).proven
    assert not restrict(incl, induce(ictx, u)).proven
    # an inclusion parsed or built directly is a Hopf algebra map as well
    # (the command line verifies an inclusion bundle where it reads it), so
    # only the modules decide
    parsed = parse_inclusion(serialize_inclusion(incl, "sub", "big"),
                             {"sub": incl.K, "big": H8}.get)
    direct = HopfInclusion(incl.K, H8, incl.embed)
    for other in (parsed, direct):
        assert restrict(other, induce(ictx, p)).proven
        assert not restrict(other, induce(ictx, u)).proven
        assert induce(induction_context(other), p).proven
        assert not induce(induction_context(other), u).proven
    # the YD module re-lift to the coaction's conductor keeps the bit
    coact = kline(K, "x", 1, -1).coaction.lift(4)
    for mod, bit in ((p, True), (u, False)):
        lifted = YDModule(mod, coact).module
        assert lifted is not mod and lifted.N == 4 and lifted.proven is bit


def test_etale_carriers_are_proven():
    _, incl = kac_paljutkin()
    for params in ETALE:
        assert build_group_etale(incl.K, *params).carrier.module.proven


# ---------------------------------------------------------------------------
# parity with the full scans
# ---------------------------------------------------------------------------


def _klein_lines(K):
    return [_proven(kline(K, g, ex, ey))
            for g in ("1", "x", "y", "xy") for ex in (1, -1) for ey in (1, -1)]


def _zeta_lines(K):
    z = root_of_unity(3)
    return [_proven(yd_line(K, g, [z ** (k * a) for a in range(3)], name="chi%d@%d" % (k, g)))
            for k in (1, 2) for g in range(3)]


@pytest.fixture(scope="module", params=["kK<H8", "kK<D(kK)", "kC3<D(kC3)"])
def case(request):
    """The induction context of a parity case and its proven YD lines over K."""
    if request.param == "kK<H8":
        incl, lines = kac_paljutkin()[1], _klein_lines
    elif request.param == "kK<D(kK)":
        incl, lines = drinfeld_double(_klein())[1], _klein_lines
    else:
        incl, lines = drinfeld_double(group_algebra(cyclic_table(3), name="kC3"))[1], _zeta_lines
    return induction_context(incl), lines(incl.K)


def _assert_parity(M, N):
    """intertwines, hom_space, invariants and verify_yd on the proven YD
    modules M and N equal the full scans of their unproven copies."""
    assert M.module.proven and N.module.proven
    uM, uN = _unproven(M), _unproven(N)
    assert _checks(verify_yd(M)) == _checks(verify_yd(uM))
    assert invariant_space_dim(M) == invariant_space_dim(uM)
    assert invariant_space_dim(M.module) == invariant_space_dim(uM.module)
    homs = hom_space(M.module, N.module)
    assert [h.matrix for h in homs] == [h.matrix for h in hom_space(uM.module, uN.module)]
    maps = [h.matrix for h in homs]
    if M.dim == N.dim:
        maps.append(Matrix.identity(M.dim))
    for f in maps:
        assert ModuleMap(M.module, N.module, f).intertwines() == \
            ModuleMap(uM.module, uN.module, f).intertwines()
    # the braiding is a module map between the tensor products; the identity
    # is one only where their actions agree
    src, tgt = yd_tensor(M, N), yd_tensor(N, M)
    assert src.module.proven and tgt.module.proven
    psi = yd_braiding(M, N)
    assert ModuleMap(src.module, tgt.module, psi).intertwines()
    for f in (psi, Matrix.identity(src.dim)):
        assert ModuleMap(src.module, tgt.module, f).intertwines() == \
            ModuleMap(_unproven(src.module), _unproven(tgt.module), f).intertwines()


def test_generator_scans_match_the_full_scans_on_induced_yd_modules(case):
    ictx, lines = case
    ind = [z_induce(ictx, M) for M in lines]
    for M in ind:
        _assert_parity(M, M)
    for M, N in zip(ind, ind[1:] + ind[:1]):
        _assert_parity(M, N)


def test_braiding_of_induced_yd_modules_is_an_invertible_yd_map(case):
    # the YD category is braided; check-functor --braided reads this theorem
    # for ZInd(M) and ZInd(N) instead of checking it per pair
    ictx, lines = case
    ind = [z_induce(ictx, M) for M in lines]
    for M, N in zip(ind, ind[1:] + ind[:1]):
        psi = yd_braiding(M, N)
        assert psi.inverse() is not None
        assert yd_morphism_check(yd_tensor(M, N), yd_tensor(N, M), psi)


def test_a_yd_defect_keeps_the_full_scan_witness(case):
    from unittest import mock

    import hopfkit.yetter_drinfeld as yd

    ictx, lines = case
    M = z_induce(ictx, lines[1])
    # add e_0 (x) v_0 to the coaction of v_1: the YD condition fails at some (i, a)
    bump = Matrix.from_rows([[int(r == 0 and a == 1) for a in range(M.dim)]
                             for r in range(M.coaction.rows)])
    bad = YDModule(M.module, M.coaction + bump.lift(M.N), name="bad")
    assert bad.module.proven
    with mock.patch.object(yd, "_yd_defect", wraps=yd._yd_defect) as scan:
        got = verify_yd(bad)
    # the scan on G finds the defect; the full scan names its first witness
    assert [call.args[1:] for call in scan.call_args_list] == [(algebra_generators(M.H),), ()]
    assert got["yd-compatibility"].status == "fail"
    assert _checks(got) == _checks(verify_yd(_unproven(bad)))


def test_pushed_etale_objects_match_the_full_scans(h8_ictx):
    for params in ETALE:
        B = push_frobenius(h8_ictx, build_group_etale(h8_ictx.incl.K, *params), verify=False)
        assert B.carrier.module.proven
        uB = _unproven(B)
        assert _checks(verify_frobenius_object(B)) == _checks(verify_frobenius_object(uB))
        assert invariant_space_dim(B.carrier) == invariant_space_dim(uB.carrier)
        assert _checks(verify_yd(B.carrier)) == _checks(verify_yd(uB.carrier))
