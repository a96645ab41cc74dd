import hashlib
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fold_sum, h8_v1, h8_v2, kchar, key_parts, regular_module, uqsl2_sub
from hopfkit import _kernel as K
from hopfkit.builders import (cyclic_table, drinfeld_double, group_algebra, kac_paljutkin, klein_table,
                              trivial_hopf)
from hopfkit.exact_math import Cyclotomic, Matrix, _add, _scale, _tensor, root_of_unity
from hopfkit.extension import (is_central_extension, rescale_frobenius_data, trivial_inclusion,
                               unit_inclusion)
from hopfkit.induction import (
    _assemble,
    adjunction_maps,
    basis_parts,
    coinduce,
    comult_terms,
    delta_parts,
    ind_parts,
    induce,
    induction_context,
    is_separable_functor,
    lax_pair,
    lax_table,
    oplax_pair,
    projection_morphisms,
    sigma,
    tau,
    theta_iso,
    unit_maps,
    verify_frobenius_monoidal,
    verify_lax_coherence,
)
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


@pytest.fixture(scope="module")
def kmods(h8_incl):
    return {s: kchar(h8_incl.K, *s) for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)]}


def test_induce_verifies_and_decomposes(h8, h8_frob, kmods):
    i = root_of_unity(4)
    ind = induce(h8_frob, kmods[(1, 1)])
    assert verify_module(ind).ok
    assert ind.dim == 2
    assert is_isomorphic(ind, direct_sum(h8_v1(h8, 1), h8_v1(h8, -1))).status == "iso"
    assert is_isomorphic(induce(h8_frob, kmods[(1, -1)]), h8_v2(h8)).status == "iso"
    assert is_isomorphic(induce(h8_frob, kmods[(-1, 1)]), h8_v2(h8)).status == "iso"
    assert (
        is_isomorphic(induce(h8_frob, kmods[(-1, -1)]), direct_sum(h8_v1(h8, i), h8_v1(h8, -i))).status
        == "iso"
    )


def test_hom_dim_ind_to_v2(h8, h8_frob, kmods):
    ind = induce(h8_frob, kmods[(1, -1)])
    assert len(hom_space(ind, h8_v2(h8))) == 1


def test_induce_trivial_inclusion_is_identity(h8):
    frob = induction_context(trivial_inclusion(h8))
    V = h8_v2(h8)  # any H-module is a K-module here
    ind = induce(frob, V)
    assert ind.action == V.action


def test_induce_from_ground_field_is_regular(h8):
    frob = induction_context(unit_inclusion(h8, trivial_hopf()))
    ind = induce(frob, trivial_module(frob.incl.K))
    assert ind.dim == 8
    assert verify_module(ind).ok
    # the regular module: action of e_i in the free-basis coordinates
    # is conjugate to left multiplication; check dimension + faithfulness via rank
    for i in range(8):
        assert ind.action[i].rank() == 8


def test_coinduce_and_theta(h8_frob, kmods):
    for s, V in kmods.items():
        ind, coind, th, thinv = theta_iso(h8_frob, V)
        assert verify_module(coind).ok
        assert th.intertwines()


def test_theta_ground_field_c2():
    C2 = group_algebra(cyclic_table(2), name="kC2")
    frob = induction_context(unit_inclusion(C2, trivial_hopf()))
    ind, coind, th, thinv = theta_iso(frob, trivial_module(frob.incl.K))
    # H = H* as left H-modules, realized by theta
    assert th.matrix.inverse() is not None
    assert th.intertwines()


def test_adjunction_triangles(h8, h8_frob, kmods):
    rep, maps = adjunction_maps(h8_frob, kmods[(1, 1)], h8_v2(h8))
    assert rep.ok, rep.failures()
    # counit^{F-|G} is surjective: Ind Res V2 ->> V2
    assert maps["counit_FG"].rank() == 2


def test_lax_values_h8(h8_frob, kmods):
    V = kmods[(1, 1)]
    lax, lax0 = lax_pair(h8_frob, V, V), unit_maps(h8_frob)[0]
    # canonical normalization: lax_0 = (1+z)/2 x 1
    assert [str(lax0.entry(i, 0)) for i in range(2)] == ["1/2", "1/2"]
    # mixed 1/z terms are killed
    assert all(lax.entry(i, 1).is_zero() for i in range(2))
    assert all(lax.entry(i, 2).is_zero() for i in range(2))
    # (1xv)(1xu) and (zxv)(zxu) land on 1x(vu), zx(vu) with the forced scalar 2
    assert str(lax.entry(0, 0)) == "2" and lax.entry(1, 0).is_zero()
    assert str(lax.entry(1, 3)) == "2" and lax.entry(0, 3).is_zero()


def test_oplax_values_h8(h8_frob, kmods):
    V = kmods[(1, 1)]
    oplax, oplax0 = oplax_pair(h8_frob, V, V), unit_maps(h8_frob)[1]
    # oplax_0(h x 1) = eps(h); on the free basis (1, z) this is (1, 1)
    assert [str(oplax0.entry(0, i)) for i in range(2)] == ["1", "1"]
    # oplax(1 x (v x u)) = (1 x v) x (1 x u)
    col = [oplax.entry(r, 0) for r in range(4)]
    assert str(col[0]) == "1" and all(c.is_zero() for c in col[1:])


def test_lax_coherence(h8_frob, kmods):
    rep = verify_lax_coherence(h8_frob, [kmods[(1, 1)], kmods[(-1, -1)]])
    assert rep.ok, rep.failures()


def test_frobenius_monoidal_all_triples(h8_frob, kmods):
    mods = list(kmods.values())
    for a in mods:
        for b in mods:
            for c in mods:
                rep = verify_frobenius_monoidal(h8_frob, a, b, c)
                assert rep.ok, (a.name, b.name, c.name)


def test_frobenius_monoidal_trivial_inclusion(h8):
    frob = induction_context(trivial_inclusion(h8))
    V = h8_v2(h8)
    one = trivial_module(h8)
    rep = verify_frobenius_monoidal(frob, V, one, V)
    assert rep.ok


def test_separability(h8_frob, kmods):
    mods = list(kmods.values())
    pairs = [(a, b) for a in mods for b in mods]
    sep = is_separable_functor(h8_frob, pairs)
    assert sep["separable"] is True
    assert str(sep["scalar"]) == "2"
    # the witness: lax o oplax = id at the normalization lambda / scalar
    r = rescale_frobenius_data(h8_frob, 1 / sep["scalar"])
    assert all((lax_pair(r, V, U) * oplax_pair(r, V, U)).is_identity() for V, U in pairs)
    assert set(sep) == {"separable", "scalar", "strict_at_current_scale"}
    # at the canonical normalization the composite is 2*id, not id
    assert sep["strict_at_current_scale"] is False


def test_separability_trivial_inclusion(h8):
    frob = induction_context(trivial_inclusion(h8))
    one = trivial_module(h8)
    sep = is_separable_functor(frob, [(one, one)])
    assert sep["separable"] and str(sep["scalar"]) == "1"
    assert sep["strict_at_current_scale"] is True


def test_projection_morphisms_h8(h8, h8_frob, kmods):
    pm = projection_morphisms(h8_frob, h8_v2(h8), kmods[(1, 1)])
    assert pm.report.ok, pm.report.failures()
    assert pm.report["lproj-pair-mutually-inverse"].status == "pass"


def test_projection_morphisms_trivial(h8):
    frob = induction_context(trivial_inclusion(h8))
    one = trivial_module(h8)
    pm = projection_morphisms(frob, h8_v2(h8), one)
    assert pm.report.ok


def test_lax_naturality(h8_frob, kmods):
    # naturality in V: for f: V -> V' an intertwiner, the lax square commutes
    V = kmods[(1, -1)]
    homs = hom_space(V, V)
    f = homs[0].matrix
    U = kmods[(1, 1)]
    lax1 = lax_pair(h8_frob, V, U)
    lax2 = lax_pair(h8_frob, V, U)
    from hopfkit.induction import ind_morphism

    Ff = ind_morphism(h8_frob, f)
    VU = tensor_modules(V, U)
    f_id = f.kron(Matrix.identity(1))
    F_fid = ind_morphism(h8_frob, f_id)
    N = lcm(lax1.N, Ff.N)
    idU = Matrix.identity(2, N)
    lhs = F_fid.lift(N) * lax1.lift(N)
    rhs = lax2.lift(N) * Ff.lift(N).kron(idU * 0 + Matrix.identity(2, N))
    assert lhs == rhs


@pytest.mark.parametrize("case", ["kK<H8", "cartan3", "kC3<D(kC3)"])
def test_the_regular_triple_passes_the_frobenius_squares(case, h8_incl, uq3):
    # every module is a quotient of a free one, so the squares on (K, K, K)
    # hold exactly when they hold on every triple of modules
    incl = {
        "kK<H8": lambda: h8_incl,
        "cartan3": lambda: uqsl2_sub(uq3, "cartan"),
        "kC3<D(kC3)": lambda: drinfeld_double(group_algebra(cyclic_table(3), name="kC3"))[1],
    }[case]()
    R = regular_module(incl.K)
    assert verify_module(R).ok
    rep = verify_frobenius_monoidal(induction_context(incl), R, R, R)
    assert rep.ok, rep.failures()
    assert [c.name for c in rep.checks] == ["frobenius-square-1", "frobenius-square-2"]


@pytest.mark.parametrize("case", ["kK<H8", "cartan3"])
def test_the_regular_triple_agrees_with_every_triple_of_characters(case, h8_incl, uq3):
    # K is commutative and split semisimple here, so the regular module is
    # the sum of its characters, and the squares, additive in each variable,
    # hold on (K, K, K) exactly when they hold on every triple of characters
    if case == "kK<H8":
        frob = induction_context(h8_incl)
        chars = [kchar(h8_incl.K, *s) for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)]]
    else:
        frob, chars = _uq_cartan_case(uq3)
    R = regular_module(frob.incl.K)
    assert len(chars) == R.dim

    def verdicts(V, U, W):
        return {c.name: c.status == "pass" for c in verify_frobenius_monoidal(frob, V, U, W).checks}

    every = [verdicts(V, U, W) for V in chars for U in chars for W in chars]
    assert verdicts(R, R, R) == {name: all(v[name] for v in every) for name in every[0]}


def test_scale_robustness_functor(h8_incl, kmods):
    frob1 = induction_context(h8_incl)
    frob7 = rescale_frobenius_data(frob1, Cyclotomic.promote(7))
    mods = list(kmods.values())
    rep = verify_frobenius_monoidal(frob7, mods[0], mods[1], mods[3])
    assert rep.ok
    sep = is_separable_functor(frob7, [(mods[0], mods[0])])
    assert sep["separable"] and str(sep["scalar"]) == "14"
    # lax scales by exactly 7
    assert lax_pair(frob7, mods[0], mods[0]) == lax_pair(frob1, mods[0], mods[0]).scale(7)
    assert unit_maps(frob7)[0] == unit_maps(frob1)[0].scale(root_of_unity(1) / 7)


def test_theta_natural_in_v(h8_frob, kmods):
    # CoInd(f) o theta_V = theta_V' o Ind(f) for a sampled intertwiner f
    from hopfkit.induction import ind_morphism

    V = kmods[(1, -1)]
    f = hom_space(V, V)[0].matrix  # scalar multiple of the identity
    f = f.scale(3)
    _, _, thV, _ = theta_iso(h8_frob, V)
    _, _, thV2, _ = theta_iso(h8_frob, V)
    Ff = ind_morphism(h8_frob, f)  # same block-diagonal shape for Ind and CoInd
    N = lcm(thV.matrix.N, Ff.N)
    assert Ff.lift(N) * thV.matrix.lift(N) == thV2.matrix.lift(N) * Ff.lift(N)


def test_lax_coherence_uq_cartan(uq3):
    from hopfkit.exact_math import root_of_unity

    cart = uqsl2_sub(uq3, "cartan")
    frob = induction_context(cart)
    z3 = root_of_unity(3)
    chi = HModule(cart.K, [Matrix.from_rows([[z3 ** a]]) for a in range(3)], name="chi1")
    rep = verify_lax_coherence(frob, [chi])
    assert rep.ok, rep.failures()


def test_lax_pair_is_built_once_per_module_value(h8_incl):
    frob = induction_context(h8_incl)
    Kk = h8_incl.K
    V = kchar(Kk, 1, -1)

    def UW():
        # a fresh tensor product on every call, as verify_frobenius_monoidal builds it
        return tensor_modules(kchar(Kk, -1, 1), kchar(Kk, -1, -1))

    first = lax_pair(frob, V, UW())
    assert lax_pair(frob, V, UW()) is first
    assert oplax_pair(frob, V, UW()) is oplax_pair(frob, V, UW())
    uncached = lax_pair(rescale_frobenius_data(frob, 1), V, UW())
    assert (uncached.N, uncached.raw()) == (first.N, first.raw())
    assert induce(frob, kchar(Kk, 1, -1)) is induce(frob, V)


def test_rescaled_context_has_its_own_cache(h8_incl):
    frob = induction_context(h8_incl)
    Kk = h8_incl.K
    V, U = kchar(Kk, 1, -1), kchar(Kk, -1, 1)
    lax = lax_pair(frob, V, U)
    rescaled = rescale_frobenius_data(frob, 5)
    assert rescaled is not frob and rescaled._cache is not frob._cache
    # lax scales with the Frobenius morphism, so a shared cache would be wrong
    assert lax_pair(rescaled, V, U) == lax.scale(5)
    assert lax_pair(frob, V, U) is lax


# ---------------------------------------------------------------------------
# the lax/oplax tables of Frobenius data against the per-pair formulas
# ---------------------------------------------------------------------------


def _act(M, kvec, N):
    """The action on M of a sparse K-vector whose scalars are written at N,
    summed by the fold of ``fold_sum``."""
    terms = ((M.action[b], Cyclotomic(N, c)) for b, c in kvec.items())
    return fold_sum(M.dim, M.dim, lcm(M.N, N), terms)


def _place(ctx, out, blk, rows, cols):
    """out[rows[b]][cols[a]] += blk[b][a] over the nonzero entries of blk."""
    for b, row in enumerate(blk.srows):
        for a, v in row.items():
            _add(ctx, out[rows[b]], cols[a], v)


def _block(t, d):
    return range(t * d, (t + 1) * d)


def _pairs(i, dV, j, dU, rU):
    """The indices of (i*dV + a) x (j*dU + b) in Ind V x Ind U, rU = rank."""
    return [(i * dV + a) * (rU * dU) + j * dU + b for a in range(dV) for b in range(dU)]


def _reference_lax(frob, V, U):
    """lax_{V,U} and lax_0 (at the inclusion's conductor) as built per pair:
    sigma_{l,i,j} summed over Delta(h_l) for every (l, i, j), with
    tr(e_p h_i) formed on the spot."""
    incl = frob.incl
    H = incl.H
    r, n, m = frob.rank, H.dim, incl.K.dim
    dV, dU = V.dim, U.dim
    conductor = lcm(incl.N, V.N, U.N)
    ctx = K.make_ctx(conductor)
    VU = tensor_modules(V, U)

    def tr(p, i):
        return frob.tr_vec(H.mult_vec(H.basis_vec(p), H.basis_vec(frob.free[i])))

    out = [{} for _ in range(r * dV * dU)]
    for l in range(r):
        parts = frob.right_decomp(frob.deltas[l])
        for i in range(r):
            for j in range(r):
                acc = {}
                for x, s in H.comult[frob.free[l]]:
                    p, q = divmod(x, n)
                    _tensor(incl.ctx, acc, _scale(incl.ctx, tr(p, i), s), tr(q, j), m)
                if not acc:
                    continue
                mat = fold_sum(
                    dV * dU, dV * dU, conductor,
                    ((V.action[x // m].kron(U.action[x % m]), Cyclotomic(incl.N, c))
                     for x, c in acc.items()),
                )
                for t, kv in enumerate(parts):
                    if kv:
                        blk = _act(VU, kv, incl.N) * mat
                        _place(ctx, out, blk, _block(t, dV * dU), _pairs(i, dV, j, dU, r))
    lax = Matrix.from_sparse(conductor, (r * dV) * (r * dU), out)
    w = {}
    for i in range(r):
        for k, v in frob.deltas[i].items():
            w[k] = K.s_add(incl.ctx, w.get(k, K.s_zero(incl.ctx)),
                           K.s_mul(incl.ctx, H.counit[frob.free[i]], v))
    col = []
    for kv in frob.right_decomp(w):
        acc = K.s_zero(incl.ctx)
        for b, c in kv.items():
            acc = K.s_add(incl.ctx, acc, K.s_mul(incl.ctx, incl.K.counit[b], c))
        col.append([acc])
    return lax, Matrix(incl.N, col)


def _reference_oplax(frob, V, U):
    """oplax_{V,U} and oplax_0 (at the inclusion's conductor) as built per
    pair, with right_decomp({p: s})."""
    incl = frob.incl
    H = incl.H
    r, n = frob.rank, H.dim
    dV, dU = V.dim, U.dim
    conductor = lcm(incl.N, V.N, U.N)
    ctx = K.make_ctx(conductor)
    one = K.s_one(incl.ctx)
    out = [{} for _ in range((r * dV) * (r * dU))]
    for i in range(r):
        for x, s in H.comult[frob.free[i]]:
            p, q = divmod(x, n)
            for t, kvp in enumerate(frob.right_decomp({p: s})):
                if not kvp:
                    continue
                for u, kvq in enumerate(frob.right_decomp({q: one})):
                    if kvq:
                        blk = _act(V, kvp, incl.N).kron(_act(U, kvq, incl.N))
                        _place(ctx, out, blk, _pairs(t, dV, u, dU, r), _block(i, dV * dU))
    oplax = Matrix.from_sparse(conductor, r * dV * dU, out)
    oplax0 = Matrix(incl.N, [[H.counit[t] for t in frob.free]])
    return oplax, oplax0


def _zeta_chars(Kk, ell):
    """The ell characters of the cyclic group algebra Kk = k<g>, g^ell = 1."""
    z = root_of_unity(ell)
    return [HModule(Kk, [Matrix.from_rows([[z ** (k * a)]]) for a in range(ell)], name="chi%d" % k)
            for k in range(ell)]


def _klein_double_case():
    KG = group_algebra(klein_table(), name="kK", labels=["1", "x", "y", "xy"])
    incl = drinfeld_double(KG)[1]
    V, U = kchar(incl.K, 1, -1), kchar(incl.K, -1, -1)
    return induction_context(incl), [V, U, direct_sum(V, kchar(incl.K, -1, 1))]


def _c3_double_case():
    incl = drinfeld_double(group_algebra(cyclic_table(3), name="kC3"))[1]
    return induction_context(incl), _zeta_chars(incl.K, 3)[1:]


def _h8_double_case():
    incl = drinfeld_double(kac_paljutkin()[0])[1]
    return induction_context(incl), [h8_v1(incl.K, root_of_unity(4)), h8_v2(incl.K)]


def _uq_cartan_case(uq):
    frob = induction_context(uqsl2_sub(uq, "cartan"))
    return frob, _zeta_chars(frob.incl.K, frob.incl.K.dim)


def _h8_cases(h8_incl, rescale):
    frob = induction_context(h8_incl)
    if rescale:
        frob = rescale_frobenius_data(frob, 5)
    Kk = h8_incl.K
    chars = [kchar(Kk, *s) for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)]]
    wide = tensor_modules(direct_sum(chars[1], chars[2]), chars[3])
    return frob, chars + [wide]


@pytest.mark.parametrize("case", ["h8", "h8-rescaled", "h8-zeta12", "kK<D(kK)", "kC3<D(kC3)",
                                  "H8<D(H8)", "uq3-cartan", "uq5-cartan"])
def test_lax_oplax_match_the_per_pair_formulas(case, h8_incl, uq3, uq5):
    if case.startswith("h8"):
        frob, mods = _h8_cases(h8_incl, case == "h8-rescaled")
        if case == "h8-zeta12":
            # lax acts on modules over a larger field than the inclusion's
            mods = [_at_conductor(mods[1], 12), mods[2], _at_conductor(mods[4], 12)]
    else:
        frob, mods = {"kK<D(kK)": _klein_double_case, "kC3<D(kC3)": _c3_double_case,
                      "H8<D(H8)": _h8_double_case,
                      "uq3-cartan": lambda: _uq_cartan_case(uq3),
                      "uq5-cartan": lambda: _uq_cartan_case(uq5)}[case]()
    pairs = [(a, b) for a in mods for b in mods]
    if case == "uq3-cartan":
        # the reference visits r^3 |Delta| terms per pair, r = 9 here
        pairs = [(a, b) for a in mods[:2] for b in mods[:2]][:3]
    elif case == "uq5-cartan":
        # and r = 25 here: one pair of nontrivial characters, chi1 x chi2
        pairs = [(mods[1], mods[2])]
    for V, U in pairs:
        lax0, oplax0 = unit_maps(frob)
        got = (lax_pair(frob, V, U), lax0, oplax_pair(frob, V, U), oplax0)
        want = _reference_lax(frob, V, U) + _reference_oplax(frob, V, U)
        assert [(m.N, m.key()) for m in got] == [(m.N, m.key()) for m in want], (V.name, U.name)


def _scaled(table, N, c):
    """The entries (..., vec) of a table of sparse K-vectors written at N,
    with each scalar of vec as a Cyclotomic multiplied by c."""
    return [(*key, {x: Cyclotomic(N, v) * c for x, v in vec.items()}) for *key, vec in table]


@pytest.mark.parametrize("case", ["kK<H8", "uq3-cartan", "kC3<D(kC3)", "H8<D(H8)"])
def test_rescaling_shares_the_free_basis_tables_and_scales_the_rest(case, h8_incl, uq3):
    # tr -> c tr keeps the free basis, so the tables read off it alone are
    # the source's own objects, while sigma, Lambda and the delta-parts scale
    # by c^2, c and 1/c (notes/decisions.md, "Rescaling is covariance")
    frob = {"kK<H8": lambda: induction_context(h8_incl),
            "uq3-cartan": lambda: _uq_cartan_case(uq3)[0],
            "kC3<D(kC3)": lambda: _c3_double_case()[0],
            "H8<D(H8)": lambda: _h8_double_case()[0]}[case]()
    N, c = frob.incl.N, Cyclotomic.promote(7)
    r = rescale_frobenius_data(frob, c)
    dec, rdec = frob.right_decomp, r.right_decomp
    assert tau(rdec) is tau(dec) and ind_parts(rdec) is ind_parts(dec)
    assert comult_terms(rdec) is comult_terms(dec)
    assert all(basis_parts(rdec, q) is basis_parts(dec, q) for q in range(frob.incl.H.dim))
    assert _scaled(sigma(r), N, 1) == _scaled(sigma(frob), N, c * c)
    assert _scaled(lax_table(r), N, 1) == _scaled(lax_table(frob), N, c)
    for i in range(frob.rank):
        assert _scaled(enumerate(delta_parts(r, i)), N, 1) == \
            _scaled(enumerate(delta_parts(frob, i)), N, 1 / c)


def test_check_functor_separable_rescales_nothing(monkeypatch):
    # lax o oplax = c id already decides separability; the witness at
    # lambda / c holds by the scaling, so no second Frobenius data is built
    import contextlib
    import io
    import sys

    from hopfkit import extension
    from hopfkit.cli import main

    real, calls = extension.rescale_frobenius_data, []

    def spy(frob, c):
        calls.append(c)
        return real(frob, c)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hopfkit") and getattr(mod, "rescale_frobenius_data", None) is real:
            monkeypatch.setattr(mod, "rescale_frobenius_data", spy)
    argv = ["check-functor", "builtin:h8", "--module", "builtin:kchar?act=1,-1,1,-1"]

    def rescales(*flags):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv + list(flags)) == 0
        return len(calls), out.getvalue()

    # the one call is make_frobenius_data's normalization of a fresh inclusion
    assert rescales()[0] == 1
    n, text = rescales("--separable")
    assert n == 1 and "separable            PASS  [scalar=2]  (separability)" in text.splitlines()


def test_lax_structure_constants_are_built_once_per_context(h8_incl, monkeypatch):
    import hopfkit.induction as induction
    from hopfkit.extension import FrobeniusData

    builds, prods = [], []
    real_tr = FrobeniusData.tr_vec

    def counted_sigma(frob):
        if ("sigma",) not in frob._cache:
            builds.append(frob)
        return sigma(frob)

    def tr_vec(self, hvec):
        prods.append(self)
        return real_tr(self, hvec)

    monkeypatch.setattr(induction, "sigma", counted_sigma)
    monkeypatch.setattr(FrobeniusData, "tr_vec", tr_vec)
    # uncached data: the inclusion's own keeps what other tests built from it
    frob = rescale_frobenius_data(induction_context(h8_incl), 1)
    Kk = h8_incl.K
    V, U, W = kchar(Kk, 1, -1), kchar(Kk, -1, 1), kchar(Kk, -1, -1)
    for a, b in [(V, U), (U, V), (V, W), (W, direct_sum(V, U))]:
        lax_pair(frob, a, b)
    assert sum(1 for key in frob._cache if key[0] == "lax_pair") == 4
    assert builds == [frob]
    # each row tr(e_p h_i), i < rank, is formed once, for at most dim H rows p
    rows = sum(1 for key in frob._cache if key[0] == "tr_row")
    assert len(prods) == rows * frob.rank <= h8_incl.H.dim * frob.rank

    rescaled = rescale_frobenius_data(frob, 5)
    lax_pair(rescaled, V, U)
    assert builds == [frob, rescaled]
    # sigma is bilinear in tr, which scales by 5
    N = h8_incl.N
    assert [(l, i, j, {x: Cyclotomic(N, c) * 25 for x, c in sig.items()})
            for l, i, j, sig in sigma(frob)] == \
        [(l, i, j, {x: Cyclotomic(N, c) for x, c in sig.items()})
         for l, i, j, sig in sigma(rescaled)]


def test_structure_constants_act_without_a_matrix_per_block(h8_incl, monkeypatch):
    # Lambda and tau act on V x U by summing into the assembled rows: neither
    # pair forms the action of a K-vector or V x U, and lax_pair forms as many
    # matrices whatever the number of sigma entries
    import hopfkit.induction as induction

    Kk = h8_incl.K
    V, U = direct_sum(kchar(Kk, 1, -1), kchar(Kk, -1, 1)), kchar(Kk, -1, -1)
    frob = rescale_frobenius_data(induction_context(h8_incl), 1)
    table = sigma(frob)
    assert len(table) > 1
    tensor_modules(V, U)  # kept on V, so neither count below includes it
    calls = []
    real_act = HModule.act_blocks
    real_from_sparse, real_init = Matrix.from_sparse.__func__, Matrix.__init__

    def act_blocks(self, *args):
        calls.append("act_blocks")
        return real_act(self, *args)

    def from_sparse(cls, *args):
        calls.append("formed")
        return real_from_sparse(cls, *args)

    def init(self, *args):
        calls.append("formed")
        real_init(self, *args)

    monkeypatch.setattr(HModule, "act_blocks", act_blocks)
    monkeypatch.setattr(Matrix, "from_sparse", classmethod(from_sparse))
    monkeypatch.setattr(Matrix, "__init__", init)
    real_tensor = induction.tensor_modules

    def tensor(*args):
        calls.append("tensor_modules")
        return real_tensor(*args)

    monkeypatch.setattr(induction, "tensor_modules", tensor)
    per_block = {"act_blocks", "tensor_modules"}
    calls.clear()
    oplax_pair(frob, V, U)
    assert not per_block & set(calls)

    def formed_by_lax(consts):
        fresh = rescale_frobenius_data(frob, 1)
        fresh._cache[("sigma",)] = consts
        assert sigma(fresh) is consts
        calls.clear()
        lax_pair(fresh, V, U)
        assert not per_block & set(calls)
        return calls.count("formed")

    assert formed_by_lax(table) == formed_by_lax(table * 3)


def test_coinduce_reads_the_left_coordinates_off_the_dual_bases(h8_incl, kmods, monkeypatch):
    # the left K-coordinates of x = h_j e_g are tr(x delta_i), read off the
    # dual bases, and they do not change under tr -> c tr, delta_i -> delta_i / c
    import hopfkit.extension as extension

    def refused(*args, **kwargs):
        raise AssertionError("coinduce built a Decomposer")

    # uncached data: the inclusion's own keeps what other tests built from it
    frob = rescale_frobenius_data(induction_context(h8_incl), 1)
    monkeypatch.setattr(extension, "Decomposer", refused)
    for V in (kmods[(1, 1)], kmods[(1, -1)]):
        coind = coinduce(frob, V)
        assert verify_module(coind).ok
        assert coinduce(rescale_frobenius_data(frob, 7), V) == coind


def _at_conductor(V, N):
    """The module V with its action written over Q(zeta_N)."""
    return HModule(V.H, list(V.action), name=V.name, N=N)


def _digest(m):
    """The digest of (N, key()) of a module or Matrix, each raw scalar read
    as its canonical tuple, the form the digests were recorded in."""
    key = key_parts(m) if isinstance(m, Matrix) else (m.H.name, m.N, tuple(map(key_parts, m.action)))
    return hashlib.sha256(repr((m.N, key)).encode()).hexdigest()[:16]


# (N, key()) digests of lproj^{G-|F}, lproj^{F-|G}, rproj^{G-|F} and rproj^{F-|G},
# recorded from the block-loop construction the lax/oplax composites replaced
PROJECTION_DIGESTS = {
    "uq3-cartan": ["1f4bc204e689cb30", "da46c58eec50a60a", "201c9f7d34f8349d", "1786278201002231"],
    "kC3<D(kC3)": ["720480777fc7850f", "0157693618794004", "22a0bac94b82ba67", "5e0db97cd18ac724"],
}


def _projection_case(case, uq3):
    """(frob, W, V) of the recorded digests."""
    if case == "uq3-cartan":
        # W = Ind(chi1) is not central: the lproj pair is not inverse, so
        # no invertibility check constrains lproj^{G-|F} there
        frob = induction_context(uqsl2_sub(uq3, "cartan"))
        chi1 = _zeta_chars(frob.incl.K, 3)[1]
        return frob, induce(frob, chi1), chi1
    incl = drinfeld_double(group_algebra(cyclic_table(3), name="kC3"))[1]
    frob = induction_context(incl)
    return frob, induce(frob, trivial_module(incl.K)), _at_conductor(_zeta_chars(incl.K, 3)[1], 12)


@pytest.mark.parametrize("case", sorted(PROJECTION_DIGESTS))
def test_projection_maps_match_the_recorded_digests(case, uq3):
    frob, W, V = _projection_case(case, uq3)
    pm = projection_morphisms(frob, W, V)
    got = [_digest(m) for m in (pm.lproj_GF, pm.lproj_FG, pm.rproj_GF, pm.rproj_FG)]
    assert got == PROJECTION_DIGESTS[case]
    rep = pm.report
    assert rep["lproj-pair-mutually-inverse"].status == ("pass" if is_central_extension(frob.incl) else "fail")
    assert all(c.ok for c in rep.checks if c.name != "lproj-pair-mutually-inverse"), rep.failures()


def test_projection_inverse_checks_form_one_product_per_pair(uq3, monkeypatch):
    # the maps of each inverse check are square of one size, so A B = I gives
    # B A = I: forming both products in the three checks that reach the second
    # product (the lproj pair fails at the first) made 86 products here.  Only
    # the products formed inside the four checks are counted, so building the
    # maps themselves another way does not move the count.
    import hopfkit.induction as induction
    import hopfkit.module_theory as module_theory

    frob, W, V = _projection_case("uq3-cartan", uq3)
    real_mul, real_check = Matrix.__mul__, induction._mutually_inverse
    per_check = []
    inside = [False]

    def counted_mul(a, b):
        if inside[0]:
            per_check[-1] += 1
        return real_mul(a, b)

    def counted_check(A, B):
        per_check.append(0)
        inside[0] = True
        try:
            return real_check(A, B)
        finally:
            inside[0] = False

    monkeypatch.setattr(Matrix, "__mul__", counted_mul)
    monkeypatch.setattr(induction, "_mutually_inverse", counted_check)
    rep = projection_morphisms(frob, W, V).report
    assert per_check == [1, 1, 1, 1]
    assert [c.name for c in rep.checks if not c.ok] == ["lproj-pair-mutually-inverse"]


# (N, key()) digests of the other structure maps on the same cases, recorded
# from the per-map block loops the insertion map replaced: Ind V and CoInd V
# (all action matrices), theta and theta^-1, the four adjunction maps at
# (V, W), the closed-form inverses of lproj^{F-|G} and rproj^{F-|G}, and, on
# the central kC3 < D(kC3), the coaction of ZInd(M) for a zeta_3 character
# M of degree g1, written over Q(zeta_3) and over Q(zeta_12)
STRUCTURE_DIGESTS = {
    "uq3-cartan": {
        "induce": "175d0f22d9ae1b26", "coinduce": "15a5c32953a14ad9",
        "theta": "eb935f375210f05b", "theta_inv": "87bbfb4d9a5aa411",
        "unit_GF": "25f3686d895c985b", "counit_GF": "92edc28e91394ed9",
        "unit_FG": "e13e30f5ee20dd01", "counit_FG": "972ce07d6b95a51f",
        "lproj_FG_inv": "18ef467bce9a7e37", "rproj_FG_inv": "201c9f7d34f8349d",
    },
    "kC3<D(kC3)": {
        "W": "dbb57d664e78d8a9",
        "induce": "3860562995c279e3", "coinduce": "3860562995c279e3",
        "theta": "4a47d3bc2cdd79ee", "theta_inv": "4a47d3bc2cdd79ee",
        "unit_GF": "cc7d137c0d0609b2", "counit_GF": "148075ca647390af",
        "unit_FG": "13b814f085138d09", "counit_FG": "61fd02a3bf0229e3",
        "lproj_FG_inv": "720480777fc7850f", "rproj_FG_inv": "22a0bac94b82ba67",
        "zind": "891aabaf2c41e629", "zind12": "48db477b2e1a108a",
    },
}


@pytest.mark.parametrize("case", sorted(STRUCTURE_DIGESTS))
def test_structure_maps_match_the_recorded_digests(case, uq3):
    from hopfkit.cli import resolve_module
    from hopfkit.yetter_drinfeld import YDModule, z_induce

    frob, W, V = _projection_case(case, uq3)
    got = {"induce": _digest(induce(frob, V)), "coinduce": _digest(coinduce(frob, V))}
    if case != "uq3-cartan":  # there W is Ind V
        got["W"] = _digest(W)
    _, _, th, thinv = theta_iso(frob, V)
    got["theta"], got["theta_inv"] = _digest(th.matrix), _digest(thinv.matrix)
    rep, maps = adjunction_maps(frob, V, W)
    assert rep.ok, rep.failures()
    got.update((name, _digest(m)) for name, m in maps.items())
    pm = projection_morphisms(frob, W, V)
    got["lproj_FG_inv"], got["rproj_FG_inv"] = _digest(pm.lproj_FG_inv), _digest(pm.rproj_FG_inv)
    if is_central_extension(frob.incl):
        M = resolve_module("builtin:kchar?act=1,z,z^2&deg=g1&cond=3", frob.incl.K)
        got["zind"] = _digest(z_induce(frob, M).coaction)
        M12 = YDModule(_at_conductor(M, 12), M.coaction)
        got["zind12"] = _digest(z_induce(frob, M12).coaction)
    assert got == STRUCTURE_DIGESTS[case]


def test_projection_inverses_act_once_per_part_of_each_basis_element(uq3, monkeypatch):
    # the closed-form inverses read iota(e_q) for each q of a Delta-term, and
    # apply each nonzero part of e_q to the module once, not once per term
    import hopfkit.induction as induction
    import hopfkit.module_theory as module_theory

    frob, W, V = _projection_case("uq3-cartan", uq3)
    projection_morphisms(frob, W, V)  # the lax/oplax pairs are cached now
    # the block writer sees a module as the rows of its action matrices, read
    # in place at the module's conductor: the tensor products are told apart
    # by the identity of those rows
    made, acted = {}, []
    real_tensor, real_act = induction.tensor_modules, module_theory._act_blocks

    def tensor(M, N_mod):
        T = real_tensor(M, N_mod)
        assert T.N == frob.incl.N
        made[id(T.action[0].srows)] = T  # kept alive, so the id stays its own
        return T

    def counted(ctx, out, A, d, blocks):
        blocks = list(blocks)
        T = made.get(id(A[0]))
        if T is not None:
            acted.extend(T.name for _ in blocks)
        real_act(ctx, out, A, d, blocks)

    monkeypatch.setattr(induction, "tensor_modules", tensor)
    monkeypatch.setattr(module_theory, "_act_blocks", counted)
    projection_morphisms(frob, W, V)
    assert sorted(T.name for T in made.values()) == ["Res(Ind(chi1))(x)chi1", "chi1(x)Res(Ind(chi1))"]
    terms = comult_terms(frob.right_decomp)

    def nparts(xs):
        return sum(1 for x in xs for k in basis_parts(frob.right_decomp, x) if k)

    lefts, rights = [p for _, p, _, _ in terms], [q for _, _, q, _ in terms]
    assert acted.count("Res(Ind(chi1))(x)chi1") == nparts(set(rights))
    assert acted.count("chi1(x)Res(Ind(chi1))") == nparts(set(lefts))
    # once per Delta-term and part would be more
    assert nparts(rights) > nparts(set(rights)) and nparts(lefts) > nparts(set(lefts))


def test_structure_maps_accept_modules_over_a_larger_field(h8, h8_frob, kmods):
    # W and V written over Q(zeta_4) and Q(zeta_12), past the inclusion's conductor
    W = h8_v1(h8, root_of_unity(4))
    V = _at_conductor(kmods[(1, -1)], 12)
    pm = projection_morphisms(h8_frob, W, V)
    assert pm.lproj_GF.N == 12 and pm.report.ok, pm.report.failures()
    rep, maps = adjunction_maps(h8_frob, V, W)
    assert rep.ok, rep.failures()
    assert {m.N for m in maps.values()} == {12}


def test_a_second_induce_reads_the_parts_of_the_frobenius_data(h8_incl, monkeypatch):
    # decomp(e_g h_i) is fixed by the free basis, so it is formed once
    from hopfkit.extension import Decomposer

    frob = rescale_frobenius_data(induction_context(h8_incl), 1)
    Kk = h8_incl.K
    induce(frob, kchar(Kk, 1, -1))
    decomposed = []
    real = Decomposer.__call__

    def counted(self, hvec):
        decomposed.append(hvec)
        return real(self, hvec)

    monkeypatch.setattr(Decomposer, "__call__", counted)
    ind = induce(frob, kchar(Kk, -1, 1))
    assert decomposed == []
    assert verify_module(ind).ok
    # the table keeps the nonzero parts only, not all r parts of each e_g h_i
    entries = [e for row in ind_parts(frob.right_decomp) for e in row]
    assert entries and all(k for _, _, k in entries)
    assert len(entries) < h8_incl.H.dim * frob.rank ** 2


# the values of the K-vectors of the block test, written at conductors 1 and 4
_BLOCK_VALUES = {
    1: [Cyclotomic.promote(v) for v in (0, 1, -1, 2, Fraction(-1, 2))],
    4: [Cyclotomic.promote(v).lift(4) for v in (0, 1, -1, 2, Fraction(-1, 2))]
    + [root_of_unity(4), root_of_unity(4) * 3 - 1],
}
_BLOCK = st.tuples(st.integers(0, 2), st.integers(0, 2),
                   st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)), max_size=4),
                   st.booleans())


@settings(max_examples=60, deadline=None)
@given(Mn=st.sampled_from([1, 3, 4, 12]), Nk=st.sampled_from([1, 4]),
       rows=st.integers(1, 3), cols=st.integers(1, 3), blocks=st.lists(_BLOCK, max_size=6))
@example(Mn=3, Nk=4, rows=1, cols=2, blocks=[(0, 1, [(1, 5), (2, 1)], True)])
@example(Mn=1, Nk=1, rows=2, cols=1, blocks=[(1, 0, [(3, 0), (0, 0)], False), (0, 0, [(1, 3)], False)])
def test_the_block_writer_sums_the_placed_actions(h8, h8_incl, Mn, Nk, rows, cols, blocks):
    # K-vectors with zero coefficients, repeated indices and blocks that cancel
    # (a vector and its negative), written at Nk and acting on a module over
    # Q(zeta_Mn): HModule.act_blocks against the folded actions summed by _assemble
    M = _at_conductor(restrict(h8_incl, h8_v2(h8)), Mn)
    d, conductor = M.dim, lcm(Mn, Nk)
    values = _BLOCK_VALUES[Nk]
    entries = []
    for s, t, terms, cancel in blocks:
        s, t = s % rows, t % cols
        k = {}
        for x, v in terms:
            k[x] = (Cyclotomic(Nk, k[x]) + values[v % len(values)]).data if x in k else \
                values[v % len(values)].data
        entries.append((s, t, k))
        if cancel:
            entries.append((s, t, {x: (-Cyclotomic(Nk, c)).data for x, c in k.items()}))
    got = M.act_blocks((rows, cols), entries, Nk)
    want = _assemble(conductor, rows * d, cols * d, (
        (range(s * d, (s + 1) * d), range(t * d, (t + 1) * d), _act(M, k, Nk))
        for s, t, k in entries))
    assert (got.N, got.key()) == (want.N, want.key())
