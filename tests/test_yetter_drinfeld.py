import pytest


from conftest import fold_sum, kline, uqsl2_sub
from hopfkit.builders import cyclic_table, drinfeld_double, group_algebra, small_quantum_sl2
from hopfkit.errors import PipelineError
from hopfkit.exact_math import Matrix
from hopfkit.extension import HopfInclusion, is_central_extension
from hopfkit.frob_objects import push_frobenius, trivial_frobenius, verify_frobenius_object
from hopfkit.hopf_core import subhopf_from_basis
from hopfkit.induction import (
    basis_parts,
    induce,
    induction_context,
    lax_pair,
    verify_frobenius_monoidal,
    verify_lax_coherence,
)
from hopfkit.module_theory import HModule, verify_module
from hopfkit.yetter_drinfeld import (
    YDModule,
    is_yd_map,
    trivial_yd,
    verify_braided_frobenius,
    verify_yd,
    yd_as_double_module,
    yd_braiding,
    yd_braiding_natural,
    yd_hexagons,
    yd_line,
    yd_tensor,
    z_induce,
)


def test_trivial_yd(h8, h8_incl):
    assert verify_yd(trivial_yd(h8)).ok
    assert verify_yd(trivial_yd(h8_incl.K)).ok


def test_all_klein_lines_are_yd(h8_incl):
    for g in ("1", "x", "y", "xy"):
        for ex in (1, -1):
            for ey in (1, -1):
                assert verify_yd(kline(h8_incl.K, g, ex, ey)).ok


def test_zone_h_object_is_yd(h8, h8_frob):
    A = push_frobenius(h8_frob, trivial_frobenius(h8_frob.incl.K))
    assert verify_frobenius_object(A).ok
    assert verify_yd(A.carrier).ok
    # trivial coaction means Psi is the plain swap; in particular a x a -> a x a
    psi = yd_braiding(A.carrier, A.carrier)
    sw = [[0] * 4 for _ in range(4)]
    for a in range(2):
        for b in range(2):
            sw[b * 2 + a][a * 2 + b] = 1
    assert psi == Matrix.from_rows(sw)


def test_yd_tensor(h8_incl):
    A = kline(h8_incl.K, "x", 1, -1)
    B = kline(h8_incl.K, "y", -1, 1)
    T = yd_tensor(A, B)
    assert verify_yd(T).ok
    # degrees multiply
    assert list(T.coaction_terms(0)) == [(h8_incl.K.label_index("xy"), 0)]


def test_yd_braiding_values(h8_incl):
    # two graded lines: the braiding is the swap times the action of the first degree
    A = kline(h8_incl.K, "x", 1, -1)
    B = kline(h8_incl.K, "y", -1, 1)
    psi = yd_braiding(A, B)
    # deg(A) = x acts on B by -1
    assert psi == Matrix.from_rows([[-1]])
    psi2 = yd_braiding(B, A)
    # deg(B) = y acts on A by -1
    assert psi2 == Matrix.from_rows([[-1]])
    # trivial coactions give the plain swap
    t1 = trivial_yd(h8_incl.K)
    assert yd_braiding(t1, t1) == Matrix.identity(1, t1.N)


def test_yd_braiding_invertible_and_morphism(h8_incl):
    A = kline(h8_incl.K, "x", -1, -1)
    B = kline(h8_incl.K, "xy", 1, -1)
    psi = yd_braiding(A, B)
    assert psi.inverse() is not None
    AB, BA = yd_tensor(A, B), yd_tensor(B, A)
    assert is_yd_map(AB.H, (AB.action, AB.coaction), (BA.action, BA.coaction), psi)


def test_yd_hexagons(h8_incl):
    A = kline(h8_incl.K, "x", 1, 1)
    B = kline(h8_incl.K, "y", -1, 1)
    C = kline(h8_incl.K, "xy", -1, -1)
    assert yd_hexagons(A, B, C)


def test_yd_braiding_naturality(h8_incl):
    A = kline(h8_incl.K, "x", 1, -1)
    ident = Matrix.identity(1, A.N)
    assert yd_braiding_natural(A, A, A, A, ident, ident.scale(3))


def test_z_induce_coaction_table(h8, h8_incl, h8_frob):
    wcase = {(1, 1): "1", (1, -1): "y", (-1, 1): "x", (-1, -1): "xy"}
    swap = {"1": "1", "x": "y", "y": "x", "xy": "xy"}
    words = {"1": (0, 0), "x": (1, 0), "y": (0, 1), "xy": (1, 1)}
    inv = {v: k for k, v in words.items()}

    def wmul(a, b):
        wa, wb = words[a], words[b]
        return inv[(wa[0] ^ wb[0], wa[1] ^ wb[1])]

    for g in ("1", "x", "y", "xy"):
        for ex in (1, -1):
            for ey in (1, -1):
                L = kline(h8_incl.K, g, ex, ey)
                Z = z_induce(h8_frob, L)
                assert verify_yd(Z).ok
                # delta(1 x v) = deg(v) x (1 x v)
                assert list(Z.coaction_terms(0)) == [(h8.label_index(g), 0)]
                # delta(z x v) follows the swapped-degree four-case table
                expected = wmul(swap[g], wcase[(ex, ey)])
                assert list(Z.coaction_terms(1)) == [(h8.label_index(expected), 1)]


def test_z_induce_trivial_inclusion(h8):
    from hopfkit.extension import trivial_inclusion

    frob = induction_context(trivial_inclusion(h8))
    M = trivial_yd(h8)
    Z = z_induce(frob, M)
    assert Z.action == M.action
    assert Z.coaction == M.coaction


def test_z_induce_refuses_non_central(h8_frob):
    uq = small_quantum_sl2(3)
    frob = induction_context(uqsl2_sub(uq, "cartan"))
    assert is_central_extension(frob.incl) is False
    M = trivial_yd(frob.incl.K)
    for _ in range(2):  # nothing is cached by a refusal
        with pytest.raises(PipelineError):
            z_induce(frob, M)
    assert not [key for key in frob._cache if key[0] == "z_induce"]
    # central Frobenius data keeps what z_induce builds under that name
    z_induce(h8_frob, trivial_yd(h8_frob.incl.K))
    assert [key for key in h8_frob._cache if key[0] == "z_induce"]


def test_z_induce_module_part_is_induce(h8_frob):
    L = kline(h8_frob.incl.K, "x", -1, 1)
    Z = z_induce(h8_frob, L)
    assert Z.action == induce(h8_frob, L).action


# ZInd(M) is a YD module whenever K is a Hopf subalgebra of H and M a YD
# module over K: neither the Frobenius data nor centrality enter the proof
# (notes/decisions.md, "ZInd(M) is a Yetter-Drinfeld module by theorem").
# The Cartan inclusions of u_q(sl2) are not central, so z_induce is let past
# its guard there.
_NON_CENTRAL_LINES = {
    "builtin:uqsl2?l=3&sub=cartan": ["act=1,z,z^2&deg=k", "act=1,z^2,z&deg=k^2",
                                     "act=1,z,z^2&deg=k^2"],
    "builtin:uqsl2?l=5&sub=cartan": ["act=1,z,z^2,z^3,z^4&deg=k",
                                     "act=1,z^2,z^4,z,z^3&deg=k^3"],
}


def test_induced_yd_modules_are_yd_modules_by_theorem(h8_frob, monkeypatch):
    from hopfkit import yetter_drinfeld
    from hopfkit.cli import resolve_inclusion, resolve_module

    def check(frob, M):
        rep = verify_yd(z_induce(frob, M))
        assert rep.ok, (frob.incl.H.name, M.name, rep.failures())

    dkk = induction_context(resolve_inclusion("builtin:double?of=builtin:group?table=klein"))
    for frob in (h8_frob, dkk):
        for g in ("1", "x", "y", "xy"):
            for ex, ey in _SIGNS:
                check(frob, kline(frob.incl.K, g, ex, ey))
    dc3 = induction_context(resolve_inclusion("builtin:double?of=builtin:group?table=c3"))
    for spec in ("builtin:kchar?act=1,z,z^2&deg=g1&cond=3",
                 "builtin:kchar?act=1,z^2,z&deg=g2&cond=3"):
        check(dc3, resolve_module(spec, dc3.incl.K))
    # the dh8-braided golden's character: K = H8 is not a group algebra
    dh8 = induction_context(resolve_inclusion("builtin:double?of=builtin:h8"))
    check(dh8, resolve_module("builtin:kchar?act=1,1,1,-1,1,-1,-1,-1&deg=1", dh8.incl.K))

    monkeypatch.setattr(yetter_drinfeld, "is_central_extension", lambda incl: True)
    for spec, lines in _NON_CENTRAL_LINES.items():
        frob = induction_context(resolve_inclusion(spec))
        assert is_central_extension(frob.incl) is False
        for act in lines:
            check(frob, resolve_module("builtin:kchar?" + act, frob.incl.K))


def test_z_induce_does_not_verify_its_output(monkeypatch):
    from hopfkit import yetter_drinfeld
    from hopfkit.cli import resolve_inclusion

    calls = []
    monkeypatch.setattr(yetter_drinfeld, "verify_yd", lambda M: calls.append(M))
    frob = induction_context(resolve_inclusion("builtin:h8"))
    Z = z_induce(frob, kline(frob.incl.K, "x", -1, 1))
    assert Z.dim == frob.rank
    assert calls == []


def test_braided_frobenius_pairs(h8_frob):
    chars = [kline(h8_frob.incl.K, "1", ex, ey) for ex in (1, -1) for ey in (1, -1)]
    for a in chars:
        for b in chars:
            rep = verify_braided_frobenius(h8_frob, a, b)
            assert rep.ok, (a.name, b.name, rep.failures())


def test_braided_frobenius_group_case():
    # C2 = <x> inside the Klein four group: group-algebra central Frobenius extension
    KG = group_algebra(
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        name="kK",
        labels=["1", "x", "y", "xy"],
    )
    sub, embed = subhopf_from_basis(KG, [0, 1], name="kC2")
    incl = HopfInclusion(sub, KG, embed)
    frob = induction_context(incl)
    assert is_central_extension(incl)
    lines = [
        yd_line(sub, 0, [1, 1], name="triv"),
        yd_line(sub, 1, [1, -1], name="sgn@x"),
        yd_line(sub, 1, [1, 1], name="1@x"),
    ]
    for a in lines:
        for b in lines:
            rep = verify_braided_frobenius(frob, a, b)
            assert rep.ok
    # the induced coaction is conjugation by group elements (group-theoretic induction)
    Z = z_induce(frob, lines[1])
    for col in range(Z.dim):
        terms = Z.coaction_terms(col)
        assert len(terms) == 1  # grouplike coaction


def test_yd_to_double_module():
    C2 = group_algebra(cyclic_table(2), name="kC2")
    D, dincl = drinfeld_double(C2)
    # a graded line over kC2: degree g, sign action
    L = yd_line(C2, 1, [1, -1], name="sgn@g")
    assert verify_yd(L).ok
    M = yd_as_double_module(D, C2, L)
    assert verify_module(M).ok

    # the canonical element reproduces the YD braiding on pairs of lines
    from hopfkit.builders import double_r_matrix
    from hopfkit.exact_math import Cyclotomic

    R = double_r_matrix(C2)
    nn = D.dim
    for L1 in (L, yd_line(C2, 1, [1, 1], name="1@g"), yd_line(C2, 0, [1, -1], name="sgn")):
        for L2 in (L, yd_line(C2, 0, [1, 1], name="triv")):
            M1 = yd_as_double_module(D, C2, L1)
            M2 = yd_as_double_module(D, C2, L2)
            conductor = max(D.N, L1.N, L2.N)
            # Psi_R = swap o (R1 . kron R2 .); all carriers are one-dimensional
            acc = Matrix.zeros(1, 1, conductor)
            for key, c in R.items():
                d1, d2 = divmod(key, nn)
                a1 = M1.action[d1].lift(conductor)
                a2 = M2.action[d2].lift(conductor)
                acc = acc + a1.kron(a2).scale(Cyclotomic(D.N, c))
            psi = yd_braiding(L1, L2)
            assert acc.lift(psi.N) == psi.lift(acc.N), (L1.name, L2.name)


def test_z_induce_is_built_once_per_yd_value(h8_incl):
    frob = induction_context(h8_incl)
    Z = z_induce(frob, kline(h8_incl.K, "x", -1, 1, name="L"))
    assert z_induce(frob, kline(h8_incl.K, "x", -1, 1, name="L")) is Z
    # another coaction on the same module, under the same name, is another YD module
    other = z_induce(frob, kline(h8_incl.K, "y", -1, 1, name="L"))
    assert other is not Z and other == Z
    assert other.coaction != Z.coaction


# ---------------------------------------------------------------------------
# the twist table h_1 g S(h_3) x h_2 against the per-term formula
# ---------------------------------------------------------------------------


def _reference_zind_coaction(frob, M):
    """The coaction of ZInd(M), evaluating h_1 g S(h_3) for every Delta^2 term,
    coaction term and K-part of h_2 anew (no twist table)."""
    from hopfkit import _kernel as K
    from hopfkit.exact_math import Cyclotomic

    incl = frob.incl
    ind = induce(frob, M)
    H = ind.H
    conductor = ind.N
    ctx = K.make_ctx(conductor)
    d, r, n = M.dim, frob.rank, H.dim
    dim = r * d
    coact = M.coaction.lift(conductor).transpose().srows
    embed = incl.embed.lift(conductor)
    rows = [{} for _ in range(n * dim)]
    for i in range(r):
        for a in range(d):
            for (p, q, rr), s in H.comult2(frob.free[i]):
                for row, v in coact[a].items():
                    g, a0 = divmod(row, d)
                    u = H.mult_vec(H.mult_vec({p: s}, embed.col(g)), H.antipode_vec(H.basis_vec(rr)))
                    for t, kv in enumerate(basis_parts(frob.right_decomp, q)):
                        if not kv:
                            continue
                        blk = fold_sum(d, d, conductor, (
                            (M.action[b], Cyclotomic(incl.N, c)) for b, c in kv.items()
                        ))
                        for b, w in blk.col(a0).items():
                            for hu, cu in u.items():
                                val = K.s_mul(ctx, K.s_mul(ctx, cu, v), w)
                                key = hu * dim + t * d + b
                                rows[key][i * d + a] = K.s_add(
                                    ctx, rows[key].get(i * d + a, K.s_zero(ctx)), val
                                )
    rows = [{c: x for c, x in row.items() if not K.s_is_zero(x)} for row in rows]
    return Matrix.from_sparse(conductor, dim, rows)


def _reference_yd_witness(M):
    """The first (i, a) where delta(e_i v_a) differs from the per-term
    evaluation of h_1 v_(-1) S(h_3) x h_2 v_(0), or None."""
    from hopfkit import _kernel as K

    H, n, d = M.H, M.H.dim, M.dim
    ctx = K.make_ctx(M.N)

    def accumulate(acc, key, x):
        acc[key] = K.s_add(ctx, acc.get(key, K.s_zero(ctx)), x)

    for i in range(n):
        for a in range(d):
            lhs, rhs = {}, {}
            for b, cb in M.action[i].col(a).items():
                for key, v in M.coaction_terms(b).items():
                    accumulate(lhs, key, K.s_mul(ctx, cb, v))
            for (p, q, rr), s in H.comult2(i):
                for (g, a0), v in M.coaction_terms(a).items():
                    u = H.mult_vec(H.mult_vec({p: s}, {g: v}), H.antipode_vec(H.basis_vec(rr)))
                    for b, vb in M.action[q].col(a0).items():
                        for hu, cu in u.items():
                            accumulate(rhs, (hu, b), K.s_mul(ctx, cu, vb))
            nonzero = lambda acc: {k: x for k, x in acc.items() if not K.s_is_zero(x)}
            if nonzero(lhs) != nonzero(rhs):
                return (i, a)
    return None


def _double_entry(Z, pick):
    """Z with the coaction entry pick(nonzero (row, col) list) doubled."""
    from hopfkit import _kernel as K
    from hopfkit.yetter_drinfeld import YDModule

    rows = [dict(row) for row in Z.coaction.srows]
    r, c = pick([(r, c) for r, row in enumerate(rows) for c in sorted(row)])
    rows[r][c] = K.s_add(K.make_ctx(Z.N), rows[r][c], rows[r][c])
    bad = HModule(Z.H, Z.action, name="bad")
    return YDModule(bad, Matrix.from_sparse(Z.N, Z.coaction.cols, rows))


_ETALE = [(n, ex, ey) for n in ("x", "y", "xy") for ex in (1, -1) for ey in (1, -1)]
_SIGNS = [(ex, ey) for ex in (1, -1) for ey in (1, -1)]


def _assert_yd_parity(M):
    rep = verify_yd(M)
    ref = _reference_yd_witness(M)
    assert rep["yd-compatibility"].witness == ref
    assert (rep["yd-compatibility"].status == "pass") == (ref is None)


@pytest.mark.parametrize("n, ex, ey", _ETALE)
def test_twist_table_matches_per_term_formula_on_etale_carriers(h8_frob, n, ex, ey):
    from hopfkit.frob_objects import build_group_etale

    M = build_group_etale(h8_frob.incl.K, n, ex, ey).carrier
    Z = z_induce(h8_frob, M)
    assert Z.coaction == _reference_zind_coaction(h8_frob, M)
    for Y in (M, Z, _double_entry(Z, min), _double_entry(Z, max)):
        _assert_yd_parity(Y)


@pytest.mark.parametrize("spec", ["builtin:h8", "builtin:double?of=builtin:group?table=klein"])
def test_twist_table_matches_per_term_formula_on_klein_lines(spec):
    from hopfkit.cli import resolve_inclusion

    frob = induction_context(resolve_inclusion(spec))
    for g in ("1", "x", "y", "xy"):
        for ex, ey in _SIGNS:
            M = kline(frob.incl.K, g, ex, ey)
            Z = z_induce(frob, M)
            assert Z.coaction == _reference_zind_coaction(frob, M), (spec, g, ex, ey)
            _assert_yd_parity(M)
            _assert_yd_parity(Z)
    _assert_yd_parity(_double_entry(Z, max))


def test_twist_table_at_a_larger_module_conductor():
    # kC3 < D(kC3) is defined over Q; the characters need zeta_3
    from hopfkit.cli import resolve_inclusion, resolve_module

    frob = induction_context(resolve_inclusion("builtin:double?of=builtin:group?table=c3"))
    for spec in ("builtin:kchar?act=1,z,z^2&deg=g1&cond=3", "builtin:kchar?act=1,z^2,z&deg=g2&cond=3"):
        M = resolve_module(spec, frob.incl.K)
        assert M.N % frob.incl.N == 0 and M.N != frob.incl.N
        Z = z_induce(frob, M)
        assert Z.coaction == _reference_zind_coaction(frob, M)
        _assert_yd_parity(Z)


def _adjoint_yd(H):
    """H as a YD module over itself: h.v = h_1 v S(h_2), delta = Delta."""
    from hopfkit import _kernel as K
    from hopfkit.yetter_drinfeld import YDModule

    n = H.dim
    mats = []
    for i in range(n):
        cols = []
        for j in range(n):
            col = {}
            for x, s in H.comult[i]:
                a, b = divmod(x, n)
                u = H.mult_vec(H.mult_vec({a: s}, H.basis_vec(j)), H.antipode_vec(H.basis_vec(b)))
                for k, c in u.items():
                    col[k] = K.s_add(H.ctx, col.get(k, K.s_zero(H.ctx)), c)
            cols.append({k: c for k, c in col.items() if not K.s_is_zero(c)})
        mats.append(Matrix.from_sparse(H.N, n, cols).transpose())
    rows = [{} for _ in range(n * n)]
    for a in range(n):
        for x, s in H.comult[a]:
            rows[x][a] = s
    return YDModule(HModule(H, mats, name="ad"), Matrix.from_sparse(H.N, n, rows))


@pytest.mark.parametrize("spec", ["builtin:h8", "builtin:taft?l=3", "builtin:double?of=builtin:group?table=c3"])
def test_twist_table_matches_per_term_formula_on_adjoint_modules(spec):
    # neither H8 nor the Taft algebra is cocommutative, so the legs of
    # Delta^2 cannot be exchanged without changing the twist
    from hopfkit.cli import resolve_hopf

    M = _adjoint_yd(resolve_hopf(spec))
    assert verify_yd(M).ok
    for Y in (M, _double_entry(M, min), _double_entry(M, max)):
        _assert_yd_parity(Y)


def test_yd_compatibility_witness_on_a_doubled_coaction_entry(h8_frob):
    # recorded before the twist table: ZInd of the etale carrier A_x(1,-1)
    # with one coaction entry doubled
    from hopfkit.frob_objects import build_group_etale

    Z = z_induce(h8_frob, build_group_etale(h8_frob.incl.K, "x", 1, -1).carrier)
    first = verify_yd(_double_entry(Z, min))
    assert [(c.name, c.status, c.witness) for c in first.checks] == [
        ("comodule-counital", "fail", None),
        ("comodule-coassociative", "fail", 0),
        ("yd-compatibility", "fail", (3, 0)),
    ]
    assert verify_yd(_double_entry(Z, max))["yd-compatibility"].witness == (3, 1)


def test_braided_check_builds_no_zind_tensor(monkeypatch, capsys):
    # the braiding of ZInd(M) and ZInd(N) is a YD isomorphism by theorem, so
    # the braided squares read it without forming ZInd(M) (x) ZInd(N)
    from hopfkit import yetter_drinfeld
    from hopfkit.cli import main

    built = []
    real = yetter_drinfeld.yd_tensor

    def counting(M, N_mod):
        if M.name.startswith("Ind("):
            built.append((M.name, N_mod.name))
        return real(M, N_mod)

    monkeypatch.setattr(yetter_drinfeld, "yd_tensor", counting)
    argv = ["check-functor", "builtin:h8", "--braided"]
    for name, act in (("a", "1,1,1,1"), ("b", "1,-1,-1,1"), ("c", "1,1,-1,-1")):
        argv += ["--module", "builtin:kchar?act=%s&deg=x&name=%s" % (act, name)]
    assert main(argv) == 0
    assert built == []
    assert capsys.readouterr().out.count("braided-frobenius[") == 9


def _refused(name, check, witness):
    return "error: %s is not a Hopf algebra: %s FAIL witness=%s" % (name, check, witness)


# check-functor --braided over kK < H8 read from bundles, with one entry of the
# middle basis element (e_4 of H8, e_2 of kK) doubled in one section: the
# error of each run.  The bundle is no Hopf algebra, so it is refused where it
# is read, naming the first failing check of verify_hopf and its witness.
DEFECT_PROBE = {
    ("big", "MULT"): [_refused("H8", "mult-associative", (1, 2, k)) for k in range(8)],
    ("big", "COMULT"): [_refused("H8", "comult-counital", 4)],
    ("big", "ANTIPODE"): [_refused("H8", "antipode-left", 4)],
    ("sub", "MULT"): [_refused("kK", "mult-associative", (1, 2, k)) for k in range(4)],
    ("sub", "COMULT"): [_refused("kK", "comult-counital", 2)],
    ("sub", "ANTIPODE"): [_refused("kK", "antipode-left", 2)],
}


def _doubled_entries(text, section):
    """Copies of a Hopf bundle, one per entry of the middle basis element in
    section, with that entry doubled."""
    from hopfkit.exact_math import format_scalar, parse_scalar

    lines = text.split("\n")
    header = dict(l.split(" ", 1) for l in lines[1:lines.index("BEGIN MULT")])
    conductor, middle = int(header["conductor"]), int(header["dim"]) // 2
    begin = lines.index("BEGIN " + section)
    field = 1 if section == "ANTIPODE" else 0
    for i in range(begin + 1, lines.index("END", begin)):
        if int(lines[i].split()[field]) == middle:
            head, scalar = lines[i].rsplit(" ", 1)
            out = list(lines)
            out[i] = "%s %s" % (head, format_scalar(parse_scalar(scalar, conductor) * 2))
            yield "\n".join(out)


@pytest.mark.parametrize("which, section", sorted(DEFECT_PROBE))
def test_check_functor_refuses_a_doubled_structure_entry_where_it_is_read(
        which, section, h8_incl, tmp_path, capsys):
    from hopfkit.bundles import serialize_hopf, serialize_inclusion
    from hopfkit.cli import main

    texts = {"big": serialize_hopf(h8_incl.H), "sub": serialize_hopf(h8_incl.K)}
    paths = {key: tmp_path / ("%s.bundle" % key) for key in texts}
    incl_path = tmp_path / "incl.bundle"
    incl_path.write_text(serialize_inclusion(h8_incl, paths["sub"], paths["big"]))
    argv = ["check-functor", str(incl_path), "--braided",
            "--module", "builtin:kchar?act=1,-1,-1,1&deg=x",
            "--module", "builtin:kchar?act=1,1,-1,-1&deg=x"]
    first = []
    for bad in _doubled_entries(texts[which], section):
        for key, text in texts.items():
            paths[key].write_text(bad if key == which else text)
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        first.append(out.err.strip())
    assert first == DEFECT_PROBE[which, section]


def test_reports_are_the_same_for_a_module_lifted_to_a_larger_conductor(h8_frob):
    # the checks multiply maps at different conductors and leave the alignment
    # to Matrix; lifting is an injective ring map, so no verdict may move
    K = h8_frob.incl.K
    a, b = kline(K, "x", 1, -1), kline(K, "y", -1, 1)
    a12 = YDModule(HModule(K, a.action, name=a.name, N=12), a.coaction)
    assert a.N != 12 and lax_pair(h8_frob, a12, b).N == 12
    reports = []
    for x in (a, a12):
        reports.append([
            verify_lax_coherence(h8_frob, [x, b]),
            verify_frobenius_monoidal(h8_frob, x, b, x),
            verify_braided_frobenius(h8_frob, x, b),
        ])
    own, lifted = reports
    assert all(rep.ok for rep in own), [rep.failures() for rep in own]
    assert [rep.to_text() for rep in lifted] == [rep.to_text() for rep in own]
