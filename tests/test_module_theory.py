import itertools
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fold_sum, h8_v1, h8_v2, kchar, scalar_at
from hopfkit import _kernel as K
from hopfkit import module_theory
from hopfkit.builders import cyclic_table, group_algebra
from hopfkit.exact_math import Cyclotomic, Matrix, root_of_unity
from hopfkit.module_theory import (
    HModule,
    direct_sum,
    hom_space,
    is_isomorphic,
    restrict,
    tensor_modules,
    trivial_module,
    verify_module,
)


def test_trivial_module(h8):
    assert verify_module(trivial_module(h8)).ok


def test_v1_v2_verify(h8):
    i = root_of_unity(4)
    for b in (1, -1, i, -i):
        assert verify_module(h8_v1(h8, b)).ok
    assert verify_module(h8_v2(h8)).ok


def test_v2_sign_flip_fails(h8):
    V2 = h8_v2(h8)
    mats = list(V2.action)
    mats[1] = -mats[1]  # flip the x action
    bad = HModule(h8, mats, name="bad")
    rep = verify_module(bad)
    assert not rep.ok
    assert rep["action-multiplicative"].witness is not None


def test_tensor_unit_identification(h8):
    V2 = h8_v2(h8)
    one = trivial_module(h8)
    T = tensor_modules(one, V2)
    assert T.action == V2.action  # strict unit under index identification
    T2 = tensor_modules(V2, one)
    assert T2.action == V2.action


def test_tensor_v1_squares(h8):
    # z is not grouplike, so the z-eigenvalue is not multiplicative: the four
    # one-dimensional simples form a Klein-four fusion ring and every line
    # squares to the unit object (z acts by +1 on V1(i) x V1(i))
    i = root_of_unity(4)
    V = h8_v1(h8, i)
    T = tensor_modules(V, V)
    assert T.action[3] == Matrix.from_rows([[1]])
    assert is_isomorphic(T, trivial_module(h8)).status == "iso"


def test_tensor_associativity_strict(h8):
    V2 = h8_v2(h8)
    A = tensor_modules(tensor_modules(V2, V2), V2)
    B = tensor_modules(V2, tensor_modules(V2, V2))
    assert A.action == B.action


def test_restrict(h8, h8_incl):
    V2 = h8_v2(h8)
    R = restrict(h8_incl, V2)
    assert verify_module(R).ok
    target = direct_sum(kchar(h8_incl.K, 1, -1), kchar(h8_incl.K, -1, 1))
    iso = is_isomorphic(R, target)
    assert iso.status == "iso"
    assert iso.map.intertwines()
    # restriction of the trivial module is trivial
    assert restrict(h8_incl, trivial_module(h8)).action == trivial_module(h8_incl.K).action


def test_restrict_tensor_commutes(h8, h8_incl):
    V2 = h8_v2(h8)
    V1 = h8_v1(h8, root_of_unity(4))
    lhs = restrict(h8_incl, tensor_modules(V2, V1))
    rhs = tensor_modules(restrict(h8_incl, V2), restrict(h8_incl, V1))
    assert lhs.action == rhs.action


def test_hom_space(h8):
    V2 = h8_v2(h8)
    homs = hom_space(V2, V2)
    assert len(homs) == 1  # V2 is simple
    assert homs[0].matrix.is_scalar_multiple_of_identity() is not None
    a = h8_v1(h8, 1)
    b = h8_v1(h8, -1)
    assert hom_space(a, b) == []


def test_hom_dimension_iso_invariant(h8):
    i = root_of_unity(4)
    V = h8_v1(h8, i)
    W = h8_v1(h8, -i)
    S = direct_sum(V, W)
    S2 = direct_sum(W, V)
    assert len(hom_space(S, S2)) == len(hom_space(S, S))


def test_is_isomorphic_identity(h8):
    V2 = h8_v2(h8)
    iso = is_isomorphic(V2, V2)
    assert iso.status == "iso"


def test_is_isomorphic_none_cases(h8):
    i = root_of_unity(4)
    assert is_isomorphic(h8_v1(h8, i), h8_v1(h8, -i)).status == "none"
    assert is_isomorphic(h8_v1(h8, 1), h8_v2(h8)).status == "none"  # dim mismatch


def test_intertwiner_kron_is_intertwiner(h8):
    # bifunctoriality of the tensor product
    V2 = h8_v2(h8)
    homs = hom_space(V2, V2)
    f = homs[0].matrix
    T = tensor_modules(V2, V2)
    ff = f.kron(f)
    for idx in range(h8.dim):
        assert ff * T.action[idx] == T.action[idx] * ff


def _singular_hom_pair(h8):
    # equal dimensions and a nonzero hom space, but no invertible intertwiner
    M = direct_sum(h8_v1(h8, 1), h8_v1(h8, 1))
    N = direct_sum(h8_v1(h8, 1), h8_v1(h8, -1))
    assert len(hom_space(M, N)) == 2
    return M, N


def test_is_isomorphic_singular_hom_space_is_none(h8):
    # det(t1 h1 + t2 h2) has degree <= 2 in each t_i and vanishes on the full
    # 3 x 3 grid, so it is the zero polynomial: no isomorphism exists
    assert is_isomorphic(*_singular_hom_pair(h8)).status == "none"


def test_is_isomorphic_undetermined(h8, monkeypatch):
    # a grid cut short decides nothing; the full grid has side d + 1 = 3, 9 points
    M, N = _singular_hom_pair(h8)
    monkeypatch.setattr(module_theory, "GRID_LIMIT", 8)
    assert is_isomorphic(M, N).status == "undetermined"
    monkeypatch.setattr(module_theory, "GRID_LIMIT", 9)
    assert is_isomorphic(M, N).status == "none"


def test_is_isomorphic_finds_an_iso_on_the_grid(h8):
    # three trivial summands: the hom basis is the nine matrix units, and no
    # unit nor prefix sum of them is invertible, so the grid finds the map
    M = direct_sum(direct_sum(h8_v1(h8, 1), h8_v1(h8, 1)), h8_v1(h8, 1))
    homs = [h.matrix for h in hom_space(M, M)]
    prefixes = [fold_sum(3, 3, M.N, ((h, 1) for h in homs[:k])) for k in range(1, 10)]
    assert len(homs) == 9 and all(h.rank() < 3 for h in homs + prefixes)
    iso = is_isomorphic(M, M)
    assert iso.status == "iso" and iso.map.is_invertible() and iso.map.intertwines()
    # the first grid point in product order whose sum is invertible
    coeffs = [0, 1, -1, 2, -2]
    first = next(c for c in itertools.product(coeffs, repeat=9)
                 if fold_sum(3, 3, M.N, zip(homs, c)).rank() == 3)
    assert iso.map.matrix == fold_sum(3, 3, M.N, zip(homs, first))


def test_the_grid_reads_negative_coefficients(h8, monkeypatch):
    # every matrix intertwines three trivial summands; on the hom basis
    # A = diag(1, 1, 0), B = diag(0, -1, 1), A and B and A + B are singular,
    # and A - B is the first grid point whose sum is invertible
    M = direct_sum(direct_sum(h8_v1(h8, 1), h8_v1(h8, 1)), h8_v1(h8, 1))
    A = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    B = Matrix.from_rows([[0, 0, 0], [0, -1, 0], [0, 0, 1]])
    monkeypatch.setattr(module_theory, "hom_space",
                        lambda *_: [module_theory.ModuleMap(M, M, A), module_theory.ModuleMap(M, M, B)])
    iso = is_isomorphic(M, M)
    assert iso.status == "iso" and iso.map.matrix == A - B


def test_is_isomorphic_is_decisive_above_dimension_six(h8):
    # d = 7 with a 2-dimensional hom space, spanned by the two maps from the
    # trivial summands of M; the grid has side 9 = d + 2
    i = root_of_unity(4)

    def sum_of(*chars):
        out = h8_v1(h8, chars[0])
        for b in chars[1:]:
            out = direct_sum(out, h8_v1(h8, b))
        return out

    M = sum_of(1, 1, i, i, i, i, i)
    N = sum_of(1, -1, -i, -i, -i, -i, -i)
    assert M.dim == 7 and len(hom_space(M, N)) == 2
    assert is_isomorphic(M, N).status == "none"


@st.composite
def _action_case(draw):
    """A module over kC_n, n <= 3, with arbitrary d x d action matrices
    (``act_alg_vec`` reads no axiom) and a sparse algebra vector written at
    Nv whose entries are often zero or one."""
    conductors = st.sampled_from([1, 4, 8])
    n, d, NM, Nv = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(conductors), draw(conductors)
    mats = [Matrix(NM, [[draw(scalar_at(NM)).data for _ in range(d)] for _ in range(d)])
            for _ in range(n)]
    M = HModule(group_algebra(cyclic_table(n)), mats, N=draw(conductors))
    hvec = {x: draw(scalar_at(Nv)).data for x in draw(st.sets(st.integers(0, n - 1)))}
    return M, hvec, Nv


@settings(max_examples=80, deadline=None)
@given(_action_case())
def test_act_alg_vec_equals_fold(case):
    M, hvec, Nv = case
    N = lcm(M.N, Nv)
    fold = fold_sum(M.dim, M.dim, N, ((M.action[x], Cyclotomic(Nv, c)) for x, c in hvec.items()))
    got = M.act_alg_vec(hvec, Nv)
    # the same canonical entries at the same conductor, so reports keep their bytes
    assert (got.N, got.raw()) == (fold.N, fold.raw())
    assert all(not K.s_is_zero(x) for row in got.srows for x in row.values())
    # c*A + B - c*A cancels to B, storing no zero
    x = next(iter(hvec), None)
    if x is not None:
        minus = (-Cyclotomic(Nv, hvec[x])).data
        got = M.act_blocks((1, 1), [(0, 0, hvec), (0, 0, {x: minus}), (0, 0, {x: hvec[x]})], Nv)
        assert (got.N, got.key()) == (fold.N, fold.key())


def test_act_blocks_of_no_entries_is_zero(h8):
    M = h8_v2(h8)
    assert M.act_blocks((2, 3), [], 4) == Matrix.zeros(2 * M.dim, 3 * M.dim, 4)
    assert M.act_blocks((1, 1), [(0, 0, {})], 1) == Matrix.zeros(M.dim, M.dim, M.N)


def _action_scans(M):
    """verify_module's report on M and the lefts of each action scan it ran
    (None for a full scan)."""
    from unittest import mock

    with mock.patch.object(module_theory, "_action_defect", wraps=module_theory._action_defect) as scan:
        rep = verify_module(M)
    return rep, [call.args[1] if len(call.args) > 1 else None for call in scan.call_args_list]


def test_action_scan_on_generators_keeps_the_full_scan_witness(h8):
    from hopfkit.hopf_core import FinHopf, algebra_generators

    gens = algebra_generators(h8)
    rep, scans = _action_scans(h8_v2(h8))
    assert rep.ok and scans == [gens]
    mats = list(h8_v2(h8).action)
    mats[1] = -mats[1]
    bad = HModule(h8, mats, name="bad")
    rep, scans = _action_scans(bad)
    # the scan on G finds the defect; the full scan names its first witness
    assert scans == [gens, None]
    assert rep["action-multiplicative"].witness == module_theory._action_defect(bad)
    # a module over an algebra built directly is scanned the same way
    plain = FinHopf(h8.name, h8.basis_labels, h8.N, h8.mult, h8.unit, h8.comult, h8.counit,
                    h8.antipode_cols)
    assert _action_scans(HModule(plain, mats, name="bad"))[1] == [algebra_generators(plain), None]
    # 1 not acting as the identity gets the full scan
    mats[0] = -mats[0]
    rep, scans = _action_scans(HModule(h8, mats, name="bad"))
    assert scans == [None] and rep["unit-acts-as-identity"].status == "fail"
